#pragma once
// The paper's delay element (§4): a chain of segments, each a
// high-resistivity POLY2 resistor in series with a minimum-sized inverter
// (PMOS width = NMOS width). Four segments realise δ; eight or ten
// realise the CLK_DEL delay. The delay is tuned via the POLY2 resistance,
// bounded by the requirement that the resistor output still swings rail
// to rail within the segment delay.

#include "spice/circuit.hpp"
#include "spice/subckt.hpp"
#include "spice/transient.hpp"

namespace cwsp::spice {

/// Appends `segments` POLY2+inverter stages between `in` and `out`.
void add_delay_line(Circuit& circuit, const std::string& prefix, int in,
                    int out, int vdd, int segments, Kiloohms r_poly,
                    const SpiceTech& tech);

/// Measures the propagation delay (rising-input 50% → final-output 50%)
/// of a delay line with the given segment count and POLY2 resistance.
/// The transient stops once the output has switched (the measured delay
/// is the one a longer window gives). When `diagnostics` is non-null the
/// SolverDiagnostics of the transient the delay was read from is
/// merge()d into it.
[[nodiscard]] Picoseconds measure_delay_line(
    int segments, Kiloohms r_poly, const SpiceTech& tech = {},
    SolverDiagnostics* diagnostics = nullptr);

struct DelayLineDesign {
  int segments = 0;
  Kiloohms r_poly{0.0};
  Picoseconds achieved{0.0};
};

/// Finds the POLY2 resistance that makes `segments` stages delay by
/// `target` (bisection against MiniSpice). Throws if the target is
/// outside the line's tunable range.
[[nodiscard]] DelayLineDesign calibrate_delay_line(
    int segments, Picoseconds target, const SpiceTech& tech = {},
    SolverDiagnostics* diagnostics = nullptr);

}  // namespace cwsp::spice
