#include "spice/delay_line.hpp"

#include <algorithm>

namespace cwsp::spice {

void add_delay_line(Circuit& circuit, const std::string& prefix, int in,
                    int out, int vdd, int segments, Kiloohms r_poly,
                    const SpiceTech& tech) {
  CWSP_REQUIRE(segments >= 1);
  CWSP_REQUIRE(r_poly.value() > 0.0);
  int node = in;
  for (int s = 0; s < segments; ++s) {
    const std::string seg = prefix + ".s" + std::to_string(s);
    const int mid = circuit.node(seg + ".r");
    const int stage_out =
        s + 1 == segments ? out : circuit.node(seg + ".o");
    circuit.add_resistor(seg + ".rpoly", node, mid, r_poly);
    // POLY2 wire capacitance at the resistor output dominates the RC.
    circuit.add_capacitor(seg + ".cpoly", mid, kGround, Femtofarads(1.0));
    // Min inverter with equal P/N widths (paper §4).
    add_inverter(circuit, seg + ".inv", mid, stage_out, vdd, 1.0, 1.0,
                 tech);
    node = stage_out;
  }
}

Picoseconds measure_delay_line(int segments, Kiloohms r_poly,
                               const SpiceTech& tech,
                               SolverDiagnostics* diagnostics) {
  Circuit c;
  const int vdd = add_vdd(c, tech);
  const int in = c.node("in");
  const int out = c.node("out");
  c.add_voltage_source(
      "Vin", in, kGround,
      SourceFunction::pulse(0.0, tech.vdd, 200.0, 5.0, 1e6, 5.0));
  add_delay_line(c, "dl", in, out, vdd, segments, r_poly, tech);

  // The output crosses VDD/2 long before the worst-case window t_max, and
  // the waveform up to the crossing does not depend on where the
  // transient stops. So simulate a short window first and double it until
  // the output switches: the delay is the one t_max would measure.
  const double t_max = 200.0 + 400.0 * segments * (1.0 + r_poly.value());
  TransientOptions options;
  options.dt_ps = 1.0;
  options.t_stop_ps = std::min(200.0 + 400.0 * segments, t_max);
  for (;;) {
    const auto result = run_transient(c, options, {in, out});
    const auto t_in =
        result.probe(in).first_crossing(tech.vdd / 2.0, /*rising=*/true);
    CWSP_REQUIRE(t_in.has_value());
    // The output polarity depends on segment parity; take whichever edge
    // responds to the input step.
    const auto& w = result.probe(out);
    const bool out_rises = segments % 2 == 0;
    const auto t_out =
        w.first_crossing(tech.vdd / 2.0, /*rising=*/out_rises, *t_in);
    if (t_out.has_value() || options.t_stop_ps >= t_max) {
      if (diagnostics != nullptr) diagnostics->merge(result.diagnostics);
      CWSP_REQUIRE_MSG(t_out.has_value(),
                       "delay line output never switched — POLY2 "
                       "resistance too large for the simulated window");
      return Picoseconds(*t_out - *t_in);
    }
    options.t_stop_ps = std::min(2.0 * options.t_stop_ps, t_max);
  }
}

DelayLineDesign calibrate_delay_line(int segments, Picoseconds target,
                                     const SpiceTech& tech,
                                     SolverDiagnostics* diagnostics) {
  CWSP_REQUIRE(target.value() > 0.0);
  double lo = 0.1;     // kΩ
  double hi = 400.0;   // kΩ — beyond this the segment no longer swings
  const double d_lo =
      measure_delay_line(segments, Kiloohms(lo), tech, diagnostics).value();
  const double d_hi =
      measure_delay_line(segments, Kiloohms(hi), tech, diagnostics).value();
  CWSP_REQUIRE_MSG(target.value() >= d_lo && target.value() <= d_hi,
                   "target delay " << target.value()
                       << " ps outside the tunable range [" << d_lo << ", "
                       << d_hi << "] for " << segments << " segments");
  for (int iter = 0; iter < 30; ++iter) {
    const double mid = 0.5 * (lo + hi);
    const double d =
        measure_delay_line(segments, Kiloohms(mid), tech, diagnostics).value();
    if (d < target.value()) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  DelayLineDesign design;
  design.segments = segments;
  design.r_poly = Kiloohms(0.5 * (lo + hi));
  design.achieved =
      measure_delay_line(segments, design.r_poly, tech, diagnostics);
  return design;
}

}  // namespace cwsp::spice
