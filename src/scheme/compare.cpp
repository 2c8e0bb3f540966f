#include "scheme/compare.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "campaign/campaign.hpp"
#include "common/error.hpp"
#include "common/json_text.hpp"
#include "common/metrics.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "cwsp/harden.hpp"
#include "cwsp/timing.hpp"
#include "scheme/fault_model.hpp"
#include "set/ser.hpp"
#include "sta/sta.hpp"

namespace cwsp::scheme {
namespace {

std::string num(double v, int precision = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

/// Scientific form for the SER magnitudes (%.6g): errors/year spans
/// ~1e-12 .. 1e3 across designs. MTBF improvement is infinite when the
/// hardened design never fails.
std::string sci(double v) {
  if (!std::isfinite(v)) return v > 0.0 ? "inf" : (v < 0.0 ? "-inf" : "nan");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// JSON has no infinity literal; non-finite values serialise as null.
std::string sci_json(double v) {
  return std::isfinite(v) ? sci(v) : "null";
}

std::vector<const ProtectionScheme*> resolve_schemes(
    const std::vector<std::string>& names) {
  std::vector<const ProtectionScheme*> out;
  if (names.empty()) return registered_schemes();
  for (const std::string& name : names) {
    const ProtectionScheme* s = find_scheme(name);
    CWSP_REQUIRE_MSG(s != nullptr, "unknown scheme '" << name
                                       << "' (known: "
                                       << known_scheme_names() << ")");
    out.push_back(s);
  }
  return out;
}

std::vector<const FaultModel*> resolve_models(
    const std::vector<std::string>& names) {
  std::vector<const FaultModel*> out;
  if (names.empty()) return registered_fault_models();
  for (const std::string& name : names) {
    const FaultModel* m = find_fault_model(name);
    CWSP_REQUIRE_MSG(m != nullptr, "unknown fault model '" << name
                                       << "' (known: "
                                       << known_fault_model_names() << ")");
    out.push_back(m);
  }
  return out;
}

}  // namespace

CompareReport run_compare(
    const Netlist& netlist, const core::ProtectionParams& params,
    Picoseconds clock_period,
    std::shared_ptr<const sim::CompiledKernelContext> context,
    const CompareOptions& options) {
  const std::vector<const ProtectionScheme*> schemes =
      resolve_schemes(options.schemes);
  const std::vector<const FaultModel*> models =
      resolve_models(options.fault_models);

  CompareReport report;
  report.design = netlist.name();
  report.gates = netlist.num_gates();
  report.flip_flops = netlist.num_flip_flops();
  report.protected_ffs =
      static_cast<std::size_t>(core::protected_ff_count(netlist));
  report.area = netlist.total_area();
  const auto sta = run_sta(netlist);
  report.dmax = sta.dmax;
  report.regular_period = core::regular_clock_period(sta.dmax,
                                                     netlist.library());
  report.runs = options.runs;
  report.cycles = options.cycles;
  report.seed = options.seed;

  auto& registry = metrics::Registry::global();
  for (const ProtectionScheme* s : schemes) {
    Stopwatch watch;
    report.characterizations.push_back(s->characterize(netlist, params));
    registry.histogram("scheme.harden_latency_us")
        .observe_ms(watch.elapsed_ms());
  }

  if (netlist.num_flip_flops() == 0) {
    report.coverage_skipped_combinational = true;
    return report;
  }

  set::StrikePlanOptions plan_options;
  plan_options.functional_strikes = options.runs;
  const std::size_t extra = std::max<std::size_t>(1, options.runs / 4);
  plan_options.protection_path_strikes = extra;
  plan_options.clock_edge_strikes = extra;
  plan_options.out_of_envelope_strikes = extra;
  plan_options.cycles_per_run = options.cycles;
  plan_options.glitch_width = options.glitch_width;
  plan_options.out_of_envelope_width = params.delta + Picoseconds(400.0);
  plan_options.clock_period = clock_period;

  const campaign::CampaignEngine engine =
      context != nullptr
          ? campaign::CampaignEngine(netlist, params, clock_period, context)
          : campaign::CampaignEngine(netlist, params, clock_period);
  set::SerAnalyzer analyzer;
  // A characterized envelope can exceed the widest glitch the MiniSpice
  // charge→width map models (e.g. TMR masks glitches up to Dmax). The
  // LET spectrum makes strikes beyond the modelled charge grid vanishingly
  // rare, so folding such envelopes at the model's edge is conservative.
  const set::GlitchModel glitch_model;
  const Picoseconds max_modelled_width =
      glitch_model.glitch_width(Femtocoulombs(set::GlitchModel::kMaxChargeFc));

  for (std::size_t si = 0; si < schemes.size(); ++si) {
    const ProtectionScheme* s = schemes[si];
    const Characterization& ch = report.characterizations[si];
    for (const FaultModel* m : models) {
      const set::StrikePlan plan =
          m->build_plan(netlist, plan_options, options.seed);
      campaign::EngineOptions engine_options;
      engine_options.seed = options.seed;
      engine_options.cycles_per_run = options.cycles;
      engine_options.jobs = options.jobs;
      engine_options.scheme = s;
      engine_options.fault_model = m->name();
      const campaign::CampaignResult result = engine.run(plan, engine_options);

      CompareReport::CoverageRow row;
      row.scheme = s->name();
      row.model = m->name();
      row.strikes = result.report.strikes_injected;
      row.escapes = result.report.protected_failures;
      row.unexpected_escapes = result.unexpected_escapes;
      row.inconclusive = result.report.inconclusive;
      row.coverage_pct = result.report.protected_coverage_pct();
      row.unprotected_failure_pct = result.report.unprotected_failure_pct();
      const set::SerAnalyzer::SerReport ser =
          analyzer.analyze(ch.area_hardened,
                           std::min(ch.max_glitch, max_modelled_width),
                           row.unprotected_failure_pct / 100.0);
      row.hardened_errors_per_year = ser.hardened_errors_per_year;
      row.unprotected_errors_per_year = ser.unprotected_errors_per_year;
      row.improvement_factor = ser.improvement_factor;
      report.coverage.push_back(std::move(row));
    }
  }
  return report;
}

std::string format_compare_text(const CompareReport& report) {
  std::ostringstream os;
  os << "Table 1 — design characteristics: " << report.design << "\n";
  {
    TextTable t;
    t.set_header({"gates", "FFs", "protected FFs", "area (um^2)",
                  "Dmax (ps)", "regular period (ps)"});
    t.add_row({std::to_string(report.gates), std::to_string(report.flip_flops),
               std::to_string(report.protected_ffs), num(report.area.value()),
               num(report.dmax.value()), num(report.regular_period.value())});
    t.print(os);
  }
  os << "\nTable 2 — area per scheme\n";
  {
    TextTable t;
    t.set_header({"scheme", "regular (um^2)", "hardened (um^2)",
                  "overhead %", "feasible"});
    for (const Characterization& c : report.characterizations) {
      t.add_row({c.scheme, num(c.area_regular.value()),
                 num(c.area_hardened.value()), num(c.area_overhead_pct()),
                 c.feasible ? "yes" : "no"});
    }
    t.print(os);
  }
  os << "\nTable 3 — delay per scheme\n";
  {
    TextTable t;
    t.set_header({"scheme", "regular period (ps)", "hardened period (ps)",
                  "overhead %", "max glitch (ps)"});
    for (const Characterization& c : report.characterizations) {
      t.add_row({c.scheme, num(c.period_regular.value()),
                 num(c.period_hardened.value()), num(c.delay_overhead_pct()),
                 num(c.max_glitch.value())});
    }
    t.print(os);
  }
  os << "\nTable 4 — coverage and SER per scheme x fault model ("
     << report.runs << " runs, seed " << report.seed << ")\n";
  if (report.coverage_skipped_combinational) {
    os << "  (skipped: combinational design, no flip-flop state to "
          "campaign against)\n";
    return os.str();
  }
  TextTable t;
  t.set_header({"scheme", "fault model", "strikes", "escapes", "unexpected",
                "coverage %", "unprot fail %", "hardened err/yr",
                "improvement"});
  for (const CompareReport::CoverageRow& row : report.coverage) {
    t.add_row({row.scheme, row.model, std::to_string(row.strikes),
               std::to_string(row.escapes),
               std::to_string(row.unexpected_escapes), num(row.coverage_pct),
               num(row.unprotected_failure_pct),
               sci(row.hardened_errors_per_year),
               sci(row.improvement_factor)});
  }
  t.print(os);
  return os.str();
}

std::string format_compare_json(const CompareReport& report) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"cwsp-compare-v1\",\n";
  os << "  \"design\": \"" << json_text::escape(report.design) << "\",\n";
  os << "  \"seed\": " << report.seed << ",\n";
  os << "  \"runs\": " << report.runs << ",\n";
  os << "  \"cycles\": " << report.cycles << ",\n";
  os << "  \"table1\": {\n";
  os << "    \"gates\": " << report.gates << ",\n";
  os << "    \"flip_flops\": " << report.flip_flops << ",\n";
  os << "    \"protected_ffs\": " << report.protected_ffs << ",\n";
  os << "    \"area_um2\": " << num(report.area.value()) << ",\n";
  os << "    \"dmax_ps\": " << num(report.dmax.value()) << ",\n";
  os << "    \"regular_period_ps\": " << num(report.regular_period.value())
     << "\n";
  os << "  },\n";
  os << "  \"table2\": [\n";
  for (std::size_t i = 0; i < report.characterizations.size(); ++i) {
    const Characterization& c = report.characterizations[i];
    os << "    {\"scheme\": \"" << json_text::escape(c.scheme)
       << "\", \"area_regular_um2\": " << num(c.area_regular.value())
       << ", \"area_hardened_um2\": " << num(c.area_hardened.value())
       << ", \"area_overhead_pct\": " << num(c.area_overhead_pct())
       << ", \"feasible\": " << (c.feasible ? "true" : "false") << "}"
       << (i + 1 < report.characterizations.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"table3\": [\n";
  for (std::size_t i = 0; i < report.characterizations.size(); ++i) {
    const Characterization& c = report.characterizations[i];
    os << "    {\"scheme\": \"" << json_text::escape(c.scheme)
       << "\", \"period_regular_ps\": " << num(c.period_regular.value())
       << ", \"period_hardened_ps\": " << num(c.period_hardened.value())
       << ", \"delay_overhead_pct\": " << num(c.delay_overhead_pct())
       << ", \"max_glitch_ps\": " << num(c.max_glitch.value()) << "}"
       << (i + 1 < report.characterizations.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  if (report.coverage_skipped_combinational) {
    os << "  \"table4\": [],\n";
    os << "  \"table4_skipped\": \"combinational design\"\n";
  } else {
    os << "  \"table4\": [\n";
    for (std::size_t i = 0; i < report.coverage.size(); ++i) {
      const CompareReport::CoverageRow& row = report.coverage[i];
      os << "    {\"scheme\": \"" << json_text::escape(row.scheme)
         << "\", \"fault_model\": \"" << json_text::escape(row.model)
         << "\", \"strikes\": " << row.strikes
         << ", \"escapes\": " << row.escapes
         << ", \"unexpected_escapes\": " << row.unexpected_escapes
         << ", \"inconclusive\": " << row.inconclusive
         << ", \"coverage_pct\": " << num(row.coverage_pct)
         << ", \"unprotected_failure_pct\": "
         << num(row.unprotected_failure_pct)
         << ", \"hardened_errors_per_year\": "
         << sci_json(row.hardened_errors_per_year)
         << ", \"unprotected_errors_per_year\": "
         << sci_json(row.unprotected_errors_per_year)
         << ", \"improvement_factor\": " << sci_json(row.improvement_factor)
         << "}" << (i + 1 < report.coverage.size() ? "," : "") << "\n";
    }
    os << "  ]\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace cwsp::scheme
