#include "cell/characterize.hpp"

#include <cmath>
#include <sstream>

#include "cell/calibration.hpp"
#include "common/json_text.hpp"
#include "netlist/netlist.hpp"
#include "spice/transient.hpp"

namespace cwsp {
namespace {

using spice::SolverDiagnostics;
using spice::SourceFunction;
using spice::TransientOptions;

/// Cell kinds with a transistor topology in the electrical bridge.
constexpr CellKind kSupportedKinds[] = {
    CellKind::kInv,   CellKind::kBuf,  CellKind::kNand2,
    CellKind::kNor2,  CellKind::kAnd2, CellKind::kOr2,
};

/// With input `a` rising and `b` held non-controlling, does the output
/// rise or fall?
bool output_rises(CellKind kind) {
  switch (kind) {
    case CellKind::kInv:
    case CellKind::kNand2:
    case CellKind::kNor2:
      return false;
    default:
      return true;
  }
}

/// Non-controlling DC level for the second input, V.
double side_input_level(CellKind kind, const spice::SpiceTech& tech) {
  switch (kind) {
    case CellKind::kNand2:
    case CellKind::kAnd2:
      return tech.vdd;  // AND-like: 1 is non-controlling
    default:
      return 0.0;  // OR-like: 0 is non-controlling
  }
}

ArcProvenance provenance_of(const SolverDiagnostics& diag) {
  if (!diag.converged) return ArcProvenance::kCalibratedFallback;
  return diag.exact ? ArcProvenance::kSpiceExact
                    : ArcProvenance::kSpiceRecovered;
}

/// Measures one cell's a→out delay on a one-gate circuit. Returns false
/// (leaving delay_ps untouched) when the solver failed or the output
/// never switched; `diag` always carries the run's diagnostics.
bool measure_cell_arc(const CellLibrary& library, CellKind kind,
                      const CharacterizeOptions& options, double& delay_ps,
                      SolverDiagnostics& diag) {
  const Cell& cell = library.cell(library.cell_for(kind));
  Netlist nl(library, std::string("char_") + cell.name());
  const NetId a = nl.add_primary_input("a");
  std::vector<NetId> inputs{a};
  if (cell.num_inputs() == 2) inputs.push_back(nl.add_primary_input("b"));
  nl.add_gate(nl.library().cell_for(kind), inputs, "out");
  nl.mark_primary_output(*nl.find_net("out"));

  const double vdd = options.tech.vdd;
  std::map<std::string, SourceFunction> drives;
  drives.emplace("a", SourceFunction::pulse(0.0, vdd, 200.0, 5.0, 1e6, 5.0));
  if (cell.num_inputs() == 2) {
    drives.emplace("b",
                   SourceFunction::dc(side_input_level(kind, options.tech)));
  }

  auto elaboration = spice::elaborate_to_spice(nl, drives, options.tech);
  const int out = elaboration.node(*nl.find_net("out"));
  elaboration.circuit.add_capacitor("Cload", out, spice::kGround,
                                    options.load);

  TransientOptions topt = options.transient;
  if (topt.t_stop_ps <= 0.0) topt.t_stop_ps = 1000.0;
  const int in_node = elaboration.node(a);
  const auto result =
      spice::try_run_transient(elaboration.circuit, topt, {in_node, out});
  diag.merge(result.diagnostics);
  if (!result.diagnostics.converged) return false;

  const auto t_in =
      result.probe(in_node).first_crossing(vdd / 2.0, /*rising=*/true);
  const auto t_out = result.probe(out).first_crossing(
      vdd / 2.0, /*rising=*/output_rises(kind), t_in.value_or(0.0));
  if (!t_in.has_value() || !t_out.has_value()) return false;
  delay_ps = *t_out - *t_in;
  return true;
}

void characterize_cwsp_arc(const char* name, double wp, double wn,
                           double model_ps,
                           const CharacterizeOptions& options,
                           CharacterizationReport& report) {
  CharacterizedArc arc;
  arc.cell = name;
  arc.model_delay_ps = model_ps;
  try {
    arc.delay_ps = spice::measure_cwsp_delay(wp, wn, options.load,
                                             options.tech, &arc.diagnostics)
                       .value();
    arc.provenance = provenance_of(arc.diagnostics);
  } catch (const Error&) {
    arc.delay_ps = model_ps;
    arc.provenance = ArcProvenance::kCalibratedFallback;
    arc.diagnostics.converged = false;
    if (arc.diagnostics.failure.empty()) {
      arc.diagnostics.failure = "CWSP delay measurement failed";
    }
  }
  report.arcs.push_back(std::move(arc));
}

}  // namespace

const char* to_string(ArcProvenance provenance) {
  switch (provenance) {
    case ArcProvenance::kSpiceExact: return "spice-exact";
    case ArcProvenance::kSpiceRecovered: return "spice-recovered";
    case ArcProvenance::kCalibratedFallback: return "calibrated-fallback";
  }
  return "?";
}

std::size_t CharacterizationReport::fallback_count() const {
  std::size_t n = 0;
  for (const auto& arc : arcs) {
    if (arc.provenance == ArcProvenance::kCalibratedFallback) ++n;
  }
  return n;
}

bool CharacterizationReport::any_fallback() const {
  return fallback_count() != 0;
}

std::vector<std::string> CharacterizationReport::fallback_cells() const {
  std::vector<std::string> cells;
  for (const auto& arc : arcs) {
    if (arc.provenance == ArcProvenance::kCalibratedFallback) {
      cells.push_back(arc.cell);
    }
  }
  return cells;
}

std::string CharacterizationReport::to_json() const {
  std::ostringstream os;
  os << "{\n  \"load_ff\": " << load_ff << ",\n  \"arcs\": [\n";
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    const auto& arc = arcs[i];
    os << "    {\"cell\": \"" << json_text::escape(arc.cell) << "\", "
       << "\"provenance\": \"" << to_string(arc.provenance) << "\", "
       << "\"delay_ps\": " << arc.delay_ps << ", "
       << "\"model_delay_ps\": " << arc.model_delay_ps << ", "
       << "\"diagnostics\": " << arc.diagnostics.to_json() << "}";
    os << (i + 1 < arcs.size() ? ",\n" : "\n");
  }
  os << "  ],\n  \"fallback_count\": " << fallback_count() << "\n}\n";
  return os.str();
}

std::string CharacterizationReport::to_text() const {
  std::ostringstream os;
  os << "characterization @ " << load_ff << " fF load\n";
  for (const auto& arc : arcs) {
    os << "  " << arc.cell << ": " << arc.delay_ps << " ps (model "
       << arc.model_delay_ps << " ps) [" << to_string(arc.provenance)
       << "]\n";
  }
  if (any_fallback()) {
    os << "  WARNING: " << fallback_count()
       << " arc(s) degraded to the calibrated model\n";
  }
  return os.str();
}

CharacterizationReport characterize_library(
    const CellLibrary& library, const CharacterizeOptions& options) {
  CharacterizationReport report;
  report.load_ff = options.load.value();

  for (CellKind kind : kSupportedKinds) {
    const Cell& cell = library.cell(library.cell_for(kind));
    CharacterizedArc arc;
    arc.cell = cell.name();
    arc.model_delay_ps = cell.delay(options.load).value();
    double measured = 0.0;
    if (measure_cell_arc(library, kind, options, measured,
                         arc.diagnostics)) {
      arc.delay_ps = measured;
      arc.provenance = provenance_of(arc.diagnostics);
    } else {
      // Ladder exhausted (or no switching edge): degrade to the
      // calibrated analytical model, visibly.
      arc.delay_ps = arc.model_delay_ps;
      arc.provenance = ArcProvenance::kCalibratedFallback;
      if (arc.diagnostics.converged && arc.diagnostics.failure.empty()) {
        arc.diagnostics.failure = "output never crossed 50%";
      }
    }
    report.arcs.push_back(std::move(arc));
  }

  if (options.include_cwsp) {
    characterize_cwsp_arc("CWSP_30_12", cal::kCwspPmosMultQLow,
                          cal::kCwspNmosMultQLow, cal::kDCwspQLow.value(),
                          options, report);
    characterize_cwsp_arc("CWSP_40_16", cal::kCwspPmosMultQHigh,
                          cal::kCwspNmosMultQHigh, cal::kDCwspQHigh.value(),
                          options, report);
  }
  return report;
}

}  // namespace cwsp
