#include "cwsp/protection_params.hpp"
#include <algorithm>
#include <cmath>

namespace cwsp::core {

ProtectionParams ProtectionParams::q100() {
  ProtectionParams p;
  p.delta = cal::kGlitchWidthQLow;  // 500 ps
  p.d_cwsp = cal::kDCwspQLow;
  p.cwsp_pmos_mult = cal::kCwspPmosMultQLow;
  p.cwsp_nmos_mult = cal::kCwspNmosMultQLow;
  p.segments_delta = cal::kSegmentsDelta;
  p.segments_clk_del = cal::kSegmentsClkDelQLow;
  p.per_ff_area = cal::kPerFfProtectionAreaQLow;
  p.validate();
  return p;
}

ProtectionParams ProtectionParams::q150() {
  ProtectionParams p;
  p.delta = cal::kGlitchWidthQHigh;  // 600 ps
  p.d_cwsp = cal::kDCwspQHigh;
  p.cwsp_pmos_mult = cal::kCwspPmosMultQHigh;
  p.cwsp_nmos_mult = cal::kCwspNmosMultQHigh;
  p.segments_delta = cal::kSegmentsDelta;
  p.segments_clk_del = cal::kSegmentsClkDelQHigh;
  p.per_ff_area = cal::kPerFfProtectionAreaQHigh;
  p.validate();
  return p;
}

ProtectionParams ProtectionParams::for_charge(Femtocoulombs q,
                                              Picoseconds glitch_width) {
  CWSP_REQUIRE_MSG(q.value() >= 50.0 && q.value() <= 250.0,
                   "for_charge supports 50..250 fC (got " << q.value()
                                                          << ")");
  // Linear interpolation between the two published design points on the
  // charge axis; all quantities are linear in the sizing to first order.
  const double t = (q.value() - 100.0) / 50.0;  // 0 at Q=100, 1 at Q=150
  ProtectionParams p;
  p.delta = glitch_width;
  p.d_cwsp = Picoseconds(cal::kDCwspQLow.value() +
                         t * (cal::kDCwspQHigh.value() -
                              cal::kDCwspQLow.value()));
  p.cwsp_pmos_mult =
      cal::kCwspPmosMultQLow +
      t * (cal::kCwspPmosMultQHigh - cal::kCwspPmosMultQLow);
  p.cwsp_nmos_mult =
      cal::kCwspNmosMultQLow +
      t * (cal::kCwspNmosMultQHigh - cal::kCwspNmosMultQLow);
  p.segments_delta = cal::kSegmentsDelta;
  p.segments_clk_del = std::max(
      cal::kSegmentsDelta,
      static_cast<int>(std::lround(cal::kSegmentsClkDelQLow +
                                   t * (cal::kSegmentsClkDelQHigh -
                                        cal::kSegmentsClkDelQLow))));
  // Per-FF area from the transistor composition: the Q-independent base
  // plus the CWSP devices and delay-line segments at this sizing. By
  // construction this reproduces both calibration points exactly.
  const double base_units =
      2.0 * (cal::kCwspPmosMultQLow + cal::kCwspNmosMultQLow) +
      2.0 * (cal::kSegmentsDelta + cal::kSegmentsClkDelQLow);
  const SquareMicrons q_independent =
      cal::kPerFfProtectionAreaQLow - cal::kUnitActiveArea * base_units;
  const double units =
      2.0 * (p.cwsp_pmos_mult + p.cwsp_nmos_mult) +
      2.0 * (p.segments_delta + p.segments_clk_del);
  p.per_ff_area = q_independent + cal::kUnitActiveArea * units;
  p.validate();
  return p;
}

ProtectionParams ProtectionParams::for_glitch_width(Picoseconds delta) {
  CWSP_REQUIRE(delta.value() > 0.0);
  // The delay element shrinks (fewer/lower-R POLY2 segments) and the CWSP
  // element could shrink too; per the paper the Q=100 fC circuit's area
  // and Δ are used as an upper bound (§4, Table 3 discussion).
  ProtectionParams p = q100();
  p.delta = delta;
  return p;
}

ProtectionParams ProtectionParams::select(bool q150,
                                          std::optional<double> delta_ps) {
  if (delta_ps.has_value()) return for_glitch_width(Picoseconds(*delta_ps));
  return q150 ? ProtectionParams::q150() : q100();
}

}  // namespace cwsp::core
