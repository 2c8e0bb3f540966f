#pragma once
// Parameters of the per-flip-flop SET protection circuit (Figure 4/5 of
// the paper): the delay element δ, the CWSP element sizing/delay, the
// delay-line segment counts and the calibrated per-FF active area.

#include <optional>

#include "cell/calibration.hpp"
#include "common/error.hpp"
#include "common/units.hpp"

namespace cwsp::core {

struct ProtectionParams {
  /// Designed maximum tolerated glitch width; also the delay-element value.
  Picoseconds delta{0.0};
  /// Delay of the (upsized) CWSP element.
  Picoseconds d_cwsp{0.0};
  /// CWSP device sizing, multiples of minimum width (paper: 30/12, 40/16).
  double cwsp_pmos_mult = 0.0;
  double cwsp_nmos_mult = 0.0;
  /// POLY2-resistor + inverter segments realising δ and the CLK_DEL delay.
  int segments_delta = 0;
  int segments_clk_del = 0;
  /// Calibrated protection area added per flip-flop.
  SquareMicrons per_ff_area{0.0};

  /// Configuration tolerating Q = 100 fC strikes (500 ps glitches).
  [[nodiscard]] static ProtectionParams q100();
  /// Configuration tolerating Q = 150 fC strikes (600 ps glitches).
  [[nodiscard]] static ProtectionParams q150();
  /// Table-3 mode: a custom (smaller) δ for fast circuits with
  /// D_max < 1415 ps. Per the paper, area is upper-bounded by the Q=100 fC
  /// protection circuit and Δ keeps its Q=100 fC value.
  [[nodiscard]] static ProtectionParams for_glitch_width(Picoseconds delta);
  /// The configuration a `--q150` / `--delta <ps>` pair (or a request's
  /// `q150` / `delta`) names: a custom δ wins, otherwise Q = 150 fC when
  /// asked, else Q = 100 fC.
  [[nodiscard]] static ProtectionParams select(
      bool q150, std::optional<double> delta_ps);

  /// Continuous tuning knob (paper §2: "the circuit can easily be tuned
  /// to tolerate glitch widths of different magnitudes"): interpolates /
  /// extrapolates the CWSP sizing, delay-line segments, element delay and
  /// per-FF area between the two published design points (Q = 100 and
  /// 150 fC), with δ taken from the calibrated charge → glitch-width map.
  /// Valid for charges in [50 fC, 250 fC].
  [[nodiscard]] static ProtectionParams for_charge(Femtocoulombs q,
                                                   Picoseconds glitch_width);

  /// Δ of Eq. 5: T_CLKQ_EQ + T_CLKQ_DFF2 + D_CWSP − T_CLKQ_SYS + D_MUX +
  /// T_SETUP_EQ + delay(AND1).
  [[nodiscard]] Picoseconds protection_path_delta() const {
    return cal::kClkQEq + cal::kClkQDff2 + d_cwsp - cal::kClkQModified +
           cal::kDelayMux + cal::kSetupEq + cal::kDelayAnd1;
  }

  /// Eq. 3: CLK_DEL lags CLK by 2δ + D_CWSP + D_MUX + T_SETUP_EQ.
  [[nodiscard]] Picoseconds clk_del_delay() const {
    return delta * 2.0 + d_cwsp + cal::kDelayMux + cal::kSetupEq;
  }

  /// Minimum D_max for which the full designed δ is protected (Eq. 4/5):
  /// D_max ≥ 2δ + Δ.
  [[nodiscard]] Picoseconds min_dmax() const {
    return delta * 2.0 + protection_path_delta();
  }

  void validate() const {
    CWSP_REQUIRE(delta.value() > 0.0);
    CWSP_REQUIRE(d_cwsp.value() > 0.0);
    CWSP_REQUIRE(cwsp_pmos_mult > 0.0 && cwsp_nmos_mult > 0.0);
    CWSP_REQUIRE(segments_delta > 0 && segments_clk_del > 0);
    CWSP_REQUIRE(per_ff_area.value() > 0.0);
  }
};

}  // namespace cwsp::core
