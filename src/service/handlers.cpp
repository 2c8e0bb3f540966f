#include "service/handlers.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>

#include "analysis/certify.hpp"
#include "analysis/certify_rules.hpp"
#include "campaign/campaign.hpp"
#include "campaign/journal.hpp"
#include "common/json_text.hpp"
#include "cwsp/elaborate_system.hpp"
#include "cwsp/eqglb_tree.hpp"
#include "cwsp/harden.hpp"
#include "cwsp/timing.hpp"
#include "lint/baseline.hpp"
#include "netlist/analysis.hpp"
#include "netlist/bench_parser.hpp"
#include "scheme/compare.hpp"
#include "set/strike_plan.hpp"

namespace cwsp::service {
namespace {

std::string num(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f", v);
  return buffer;
}

}  // namespace

std::vector<CampaignCell> campaign_cells(const CampaignSpec& spec) {
  std::vector<const scheme::ProtectionScheme*> schemes;
  if (spec.schemes.empty()) {
    schemes.push_back(&scheme::default_scheme());
  } else {
    for (const std::string& name : spec.schemes) {
      const scheme::ProtectionScheme* s = scheme::find_scheme(name);
      CWSP_REQUIRE_MSG(s != nullptr, "unknown scheme '"
                                         << name << "' (known: "
                                         << scheme::known_scheme_names()
                                         << ")");
      schemes.push_back(s);
    }
  }
  std::vector<const scheme::FaultModel*> models;
  if (spec.fault_models.empty()) {
    models.push_back(&scheme::default_fault_model());
  } else {
    for (const std::string& name : spec.fault_models) {
      const scheme::FaultModel* m = scheme::find_fault_model(name);
      CWSP_REQUIRE_MSG(m != nullptr,
                       "unknown fault model '"
                           << name << "' (known: "
                           << scheme::known_fault_model_names() << ")");
      models.push_back(m);
    }
  }
  std::vector<CampaignCell> cells;
  cells.reserve(schemes.size() * models.size());
  for (const scheme::ProtectionScheme* s : schemes) {
    for (const scheme::FaultModel* m : models) {
      cells.push_back(CampaignCell{s, m});
    }
  }
  return cells;
}

set::StrikePlanOptions campaign_plan_options(
    const CampaignSpec& spec, const core::ProtectionParams& params,
    Picoseconds clock_period) {
  set::StrikePlanOptions plan_options;
  plan_options.functional_strikes = spec.runs;
  plan_options.cycles_per_run = spec.cycles;
  plan_options.glitch_width = Picoseconds(spec.width_ps);
  plan_options.clock_period = clock_period;
  if (spec.adversarial) {
    const std::size_t extra = std::max<std::size_t>(1, spec.runs / 4);
    plan_options.protection_path_strikes = extra;
    plan_options.clock_edge_strikes = extra;
    plan_options.out_of_envelope_strikes = extra;
    plan_options.out_of_envelope_width = params.delta + Picoseconds(400.0);
  }
  return plan_options;
}

campaign::EngineOptions campaign_engine_options(
    const CampaignSpec& spec, const CampaignCell& cell,
    const sim::CancelToken* cancel) {
  campaign::EngineOptions engine_options;
  engine_options.seed = spec.seed;
  engine_options.cycles_per_run = spec.cycles;
  engine_options.jobs = std::max<std::size_t>(1, spec.jobs);
  engine_options.timeout_ms = spec.timeout_ms;
  engine_options.cancel = cancel;
  engine_options.scheme = cell.scheme;
  engine_options.fault_model = cell.model->name();
  return engine_options;
}

namespace {

/// One planned and executed (scheme, model) cell of a campaign spec.
struct CellRun {
  set::StrikePlan plan;
  campaign::EngineOptions engine_options;
  campaign::CampaignResult result;
};

/// Plans `cell` of `spec` and runs it on the session's kernel context —
/// the one execution path of the campaign and coverage ops.
CellRun run_cell(const DesignSession& session, const CampaignSpec& spec,
                 const CampaignCell& cell, const sim::CancelToken* cancel) {
  const Netlist& netlist = *session.netlist;
  const auto params = core::ProtectionParams::q100();
  const Picoseconds period = session.period_q100;

  CellRun run;
  run.engine_options = campaign_engine_options(spec, cell, cancel);
  run.engine_options.journal_path = spec.journal_path;
  run.engine_options.resume = spec.resume;
  run.engine_options.minimize_escapes = spec.minimize_escapes;
  run.engine_options.artifact_dir = spec.artifact_dir;
  run.engine_options.stop_after = spec.stop_after;

  run.plan = cell.model->build_plan(
      netlist, campaign_plan_options(spec, params, period), spec.seed);
  if (spec.shard_total > 0) {
    CWSP_REQUIRE_MSG(spec.shard_index >= 1 &&
                         spec.shard_index <= spec.shard_total,
                     "shard index " << spec.shard_index
                                    << " out of range for "
                                    << spec.shard_total << " shards");
    run.plan =
        set::shard_plan(run.plan, spec.shard_total)[spec.shard_index - 1];
  }

  const campaign::CampaignEngine engine(netlist, params, period,
                                        session.kernel_context);
  run.result = engine.run(run.plan, run.engine_options);
  return run;
}

CampaignOutcome run_campaign_cell(const DesignSession& session,
                                  const CampaignSpec& spec,
                                  const CampaignCell& cell,
                                  const sim::CancelToken* cancel) {
  const Netlist& netlist = *session.netlist;
  CWSP_REQUIRE_MSG(netlist.num_flip_flops() > 0,
                   "campaign requires a sequential design");
  const CellRun run = run_cell(session, spec, cell, cancel);

  CampaignOutcome outcome;
  outcome.status = campaign::campaign_status(run.result);
  outcome.output =
      spec.json ? campaign::format_campaign_json(run.result, run.plan,
                                                 netlist, run.engine_options,
                                                 session.period_q100)
                : campaign::format_campaign_text(run.result, run.plan,
                                                 netlist);
  return outcome;
}

// Worst-first ordering for a sweep's overall status.
int status_rank(campaign::CampaignStatus status) {
  switch (status) {
    case campaign::CampaignStatus::kInterrupted: return 3;
    case campaign::CampaignStatus::kInvalid: return 2;
    case campaign::CampaignStatus::kEscapes: return 1;
    case campaign::CampaignStatus::kOk: return 0;
  }
  return 0;
}

std::string_view trim_trailing_newline(const std::string& s) {
  std::string_view v = s;
  while (!v.empty() && (v.back() == '\n' || v.back() == '\r')) {
    v.remove_suffix(1);
  }
  return v;
}

}  // namespace

CampaignOutcome run_campaign(const DesignSession& session,
                             const CampaignSpec& spec,
                             const sim::CancelToken* cancel) {
  const std::vector<CampaignCell> cells = campaign_cells(spec);
  if (cells.size() == 1) {
    return run_campaign_cell(session, spec, cells.front(), cancel);
  }

  // Cross-product sweep: one campaign per (scheme, model) cell, each
  // byte-identical to the same cell requested alone. Options that name
  // client-local state or cut the plan apply to a single campaign only.
  CWSP_REQUIRE_MSG(spec.journal_path.empty() && !spec.resume &&
                       !spec.minimize_escapes && spec.artifact_dir.empty() &&
                       spec.stop_after == 0,
                   "journal/resume/minimize/artifact/stop-after options "
                   "apply to a single campaign, not a scheme sweep");
  CWSP_REQUIRE_MSG(spec.shard_total == 0,
                   "sharding applies to a single campaign, not a scheme "
                   "sweep");

  const Netlist& netlist = *session.netlist;
  CampaignOutcome outcome;
  outcome.status = campaign::CampaignStatus::kOk;
  std::ostringstream os;
  if (spec.json) {
    os << "{\n";
    os << "  \"schema\": \"cwsp-campaign-sweep-v1\",\n";
    os << "  \"design\": \"" << json_text::escape(netlist.name())
       << "\",\n";
  }
  std::ostringstream cells_os;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CampaignCell& cell = cells[i];
    const CampaignOutcome one =
        run_campaign_cell(session, spec, cell, cancel);
    if (status_rank(one.status) > status_rank(outcome.status)) {
      outcome.status = one.status;
    }
    if (spec.json) {
      if (i > 0) cells_os << ",\n";
      cells_os << "    {\"scheme\": \"" << cell.scheme->name()
               << "\", \"fault_model\": \"" << cell.model->name()
               << "\", \"status\": \"" << campaign::to_string(one.status)
               << "\",\n     \"report\": "
               << trim_trailing_newline(one.output) << "}";
    } else {
      if (i > 0) cells_os << "\n";
      cells_os << "=== scheme=" << cell.scheme->name()
               << " fault-model=" << cell.model->name() << " ===\n"
               << one.output;
    }
  }
  if (spec.json) {
    os << "  \"status\": \"" << campaign::to_string(outcome.status)
       << "\",\n";
    os << "  \"cells\": [\n" << cells_os.str() << "\n  ]\n}\n";
  } else {
    os << cells_os.str();
  }
  outcome.output = os.str();
  return outcome;
}

ShardExecOutcome run_shard_exec(const DesignSession& session,
                                const CampaignSpec& spec,
                                std::optional<std::uint64_t> expect_fp,
                                const sim::CancelToken* cancel) {
  const Netlist& netlist = *session.netlist;
  CWSP_REQUIRE_MSG(netlist.num_flip_flops() > 0,
                   "campaign requires a sequential design");
  CWSP_REQUIRE_MSG(spec.shard_total >= 1 && spec.shard_index >= 1 &&
                       spec.shard_index <= spec.shard_total,
                   "shard_exec needs shard_index in [1, shard_total]");
  // A per-strike timeout makes results wall-clock dependent; a shard that
  // raced a slow machine would merge differently than a fast one, which
  // breaks the byte-identity contract the fabric is built on.
  CWSP_REQUIRE_MSG(spec.timeout_ms == 0.0,
                   "shard_exec does not accept timeout_ms");
  const std::vector<CampaignCell> cells = campaign_cells(spec);
  CWSP_REQUIRE_MSG(cells.size() == 1,
                   "shard_exec executes exactly one (scheme, fault-model) "
                   "cell — the coordinator fans sweeps out cell by cell");
  const CampaignCell& cell = cells.front();
  const auto params = core::ProtectionParams::q100();
  const Picoseconds period = session.period_q100;

  const set::StrikePlan full_plan = cell.model->build_plan(
      netlist, campaign_plan_options(spec, params, period), spec.seed);
  const set::StrikePlan shard =
      set::shard_plan(full_plan, spec.shard_total)[spec.shard_index - 1];
  const std::uint64_t shard_fp = campaign::campaign_fingerprint(
      shard, spec.seed, spec.cycles, period);
  if (expect_fp.has_value() && *expect_fp != shard_fp) {
    std::ostringstream os;
    os << "shard " << spec.shard_index << "/" << spec.shard_total
       << " fingerprint mismatch: coordinator expects " << std::hex
       << *expect_fp << ", worker derived " << shard_fp;
    throw ShardMismatchError(os.str());
  }

  const campaign::CampaignEngine engine(netlist, params, period,
                                        session.kernel_context);
  const campaign::CampaignResult result =
      engine.run(shard, campaign_engine_options(spec, cell, cancel));

  ShardExecOutcome outcome;
  outcome.shard_fingerprint = shard_fp;
  outcome.strikes = shard.size();
  for (const campaign::StrikeResult& r : result.strikes) {
    CWSP_REQUIRE_MSG(r.completed(), "shard execution was interrupted");
    outcome.payload += campaign::format_strike_line(r);
  }
  return outcome;
}

std::string run_sta_report(const DesignSession& session) {
  const Netlist& netlist = *session.netlist;
  std::ostringstream os;
  os << timing_report(netlist, session.sta);
  const auto stats = netlist.stats();
  os << "gates " << stats.num_gates << ", flip-flops "
     << stats.num_flip_flops << ", area " << stats.total_area.value()
     << " um^2\n";
  return os.str();
}

CoverageOutcome run_coverage(const DesignSession& session,
                             const CoverageSpec& spec,
                             const sim::CancelToken* cancel) {
  const Netlist& netlist = *session.netlist;
  CWSP_REQUIRE_MSG(netlist.num_flip_flops() > 0,
                   "coverage requires a sequential design");
  // The campaign the spec denotes: `runs` single-set strikes, or with
  // `scenarios` the same budget per §3.2 site, 4 × `runs` protection-seu
  // strikes.
  CampaignSpec campaign_spec;
  campaign_spec.runs = spec.scenarios ? 4 * spec.runs : spec.runs;
  campaign_spec.cycles = spec.cycles;
  campaign_spec.width_ps = spec.width_ps;
  campaign_spec.seed = spec.seed;
  if (spec.scenarios) campaign_spec.fault_models = {"protection-seu"};
  const CellRun run = run_cell(session, campaign_spec,
                               campaign_cells(campaign_spec).front(), cancel);
  const core::CoverageReport& report = run.result.report;
  const std::vector<core::ScenarioStats> slices =
      spec.scenarios ? campaign::protection_site_slices(run.plan, run.result)
                     : report.scenarios;

  CoverageOutcome outcome;
  outcome.valid = report.valid();
  outcome.interrupted = run.result.interrupted;
  std::ostringstream os;
  if (spec.json) {
    os << "{\n  \"schema\": \"cwsp-coverage-report-v1\",\n  \"design\": \""
       << json_text::escape(netlist.name()) << "\",\n  \"mode\": \""
       << (spec.scenarios ? "scenarios" : "functional")
       << "\",\n  \"seed\": " << spec.seed
       << ",\n  \"strikes\": " << report.strikes_injected
       << ",\n  \"escapes\": " << report.protected_failures
       << ",\n  \"unprotected_failures\": " << report.unprotected_failures
       << ",\n  \"inconclusive\": " << report.inconclusive
       << ",\n  \"coverage_pct\": " << num(report.protected_coverage_pct())
       << ",\n  \"scenarios\": [";
    for (std::size_t i = 0; i < slices.size(); ++i) {
      const core::ScenarioStats& s = slices[i];
      if (i > 0) os << ", ";
      os << "{\"name\": \"" << s.name << "\", \"strikes\": " << s.strikes
         << ", \"escapes\": " << s.escapes << "}";
    }
    os << "]\n}\n";
  } else {
    os << "coverage              : " << netlist.name() << " ("
       << (spec.scenarios ? "scenario sweep" : "functional strikes")
       << ")\n";
    os << "strikes / escapes     : " << report.strikes_injected << " / "
       << report.protected_failures << "\n";
    os << "protected coverage    : " << num(report.protected_coverage_pct())
       << " %\n";
    os << "unprotected failures  : " << num(report.unprotected_failure_pct())
       << " %\n";
    for (const core::ScenarioStats& s : slices) {
      os << "  " << s.name << ": " << s.strikes << " strikes, " << s.escapes
         << " escape(s)\n";
    }
  }
  outcome.output = os.str();
  return outcome;
}

CertifyOutcome run_certify(const DesignSession& session,
                           const CertifySpec& spec) {
  const Netlist& netlist = *session.netlist;
  const scheme::ProtectionScheme* sch =
      spec.scheme.empty() ? &scheme::default_scheme()
                          : scheme::find_scheme(spec.scheme);
  CWSP_REQUIRE_MSG(sch != nullptr, "unknown scheme '"
                                       << spec.scheme << "' (known: "
                                       << scheme::known_scheme_names()
                                       << ")");
  const auto params = core::ProtectionParams::select(spec.q150, spec.delta_ps);
  // Same period the campaign driver would run this configuration at:
  // the design's hardened period floored at Eq. 6's minimum.
  const Picoseconds period = std::max(
      core::hardened_clock_period(session.sta.dmax, netlist.library()),
      core::min_clock_period_for_delta(params));

  if (!sch->certifiable()) {
    // The static certifier's window-dataflow analysis expresses only the
    // CWSP protection predicate. Every site degrades to `unknown` — the
    // honest answer: a sampling campaign still has to cover them.
    const scheme::Characterization ch = sch->characterize(netlist, params);
    analysis::CertifyResult result;
    result.design = netlist.name();
    result.params = params;
    result.clock_period = period;
    result.envelope_ps = spec.envelope_ps > 0.0 ? spec.envelope_ps
                                                : ch.max_glitch.value();
    result.physical_envelope_ps = ch.max_glitch.value();
    result.seed = spec.seed;
    const std::string note =
        std::string("protection predicate of scheme '") + sch->name() +
        "' is not expressible by the static certifier";
    for (NetId site : set::strike_sites(netlist)) {
      analysis::SiteCertificate cert;
      cert.site = site;
      cert.verdict = analysis::SiteVerdict::kUnknown;
      cert.note = note;
      result.sites.push_back(std::move(cert));
    }
    CertifyOutcome outcome;
    outcome.escapes = 0;
    outcome.unknowns = result.sites.size();
    outcome.output =
        spec.json ? analysis::format_certify_json(result, netlist) + "\n"
                  : analysis::format_certify_text(result, netlist);
    return outcome;
  }

  analysis::CertifyOptions options;
  options.envelope_ps = spec.envelope_ps;
  options.clock_skew_ps = spec.skew_ps;
  options.seed = spec.seed;
  options.artifact_dir = spec.artifact_dir;
  const analysis::CertifyResult result = analysis::certify_design(
      netlist, params, period, options, session.kernel_context);

  CertifyOutcome outcome;
  outcome.escapes = result.escape_count();
  outcome.unknowns = result.unknown_count();
  outcome.output = spec.json
                       ? analysis::format_certify_json(result, netlist) + "\n"
                       : analysis::format_certify_text(result, netlist);
  return outcome;
}

CompareOutcome run_compare(const DesignSession& session,
                           const CompareSpec& spec) {
  const Netlist& netlist = *session.netlist;
  const auto params = core::ProtectionParams::q100();

  scheme::CompareOptions options;
  options.runs = spec.runs;
  options.cycles = spec.cycles;
  options.glitch_width = Picoseconds(spec.width_ps);
  options.seed = spec.seed;
  options.jobs = std::max<std::size_t>(1, spec.jobs);
  options.schemes = spec.schemes;
  options.fault_models = spec.fault_models;

  const scheme::CompareReport report = scheme::run_compare(
      netlist, params, session.period_q100, session.kernel_context,
      options);

  CompareOutcome outcome;
  for (const scheme::CompareReport::CoverageRow& row : report.coverage) {
    outcome.unexpected_escapes += row.unexpected_escapes;
  }
  outcome.output = spec.json ? scheme::format_compare_json(report)
                             : scheme::format_compare_text(report);
  return outcome;
}

LintOutcome run_lint(const LintSpec& spec, const CellLibrary& library) {
  const bool cwsp_lint = spec.scheme.empty() || spec.scheme == "cwsp";
  if (!cwsp_lint) {
    CWSP_REQUIRE_MSG(scheme::find_scheme(spec.scheme) != nullptr,
                     "unknown scheme '" << spec.scheme << "' (known: "
                                        << scheme::known_scheme_names()
                                        << ")");
  }
  lint::LintOptions options;
  if (spec.hardened && cwsp_lint) {
    options.params = core::ProtectionParams::select(spec.q150, spec.delta_ps);
    options.clock_skew = Picoseconds(spec.skew_ps);
    if (spec.period_ps.has_value()) {
      options.clock_period = Picoseconds(*spec.period_ps);
    }
    options.certify = spec.certify;
    options.certify_envelope_ps = spec.certify_envelope_ps;
    options.certify_seed = spec.certify_seed;
  }
  options.fallback_cells = spec.fallback_cells;

  const std::string& design_label =
      spec.path.empty() ? spec.name : spec.path;

  // The certify rules live in the analysis library; a registry carrying
  // them is only needed (and only paid for) when the spec asks. The
  // certify rule family is CWSP-only for the same reason as the
  // structural invariants above.
  const lint::RuleRegistry& registry = (spec.certify && cwsp_lint)
                                           ? analysis::certify_registry()
                                           : lint::default_registry();

  lint::LintReport report;
  bool parse_failed = false;
  std::vector<BenchParseIssue> issues;
  BenchParseOptions parse_options;
  parse_options.lenient = true;
  parse_options.issues = &issues;
  try {
    const Netlist netlist =
        spec.path.empty()
            ? parse_bench_string(spec.text, library, spec.name,
                                 parse_options)
            : parse_bench_file(spec.path, library, parse_options);
    if (options.params.has_value()) {
      const int protected_ffs = core::protected_ff_count(netlist);
      if (protected_ffs >= 1) {
        options.tree = core::build_eqglb_tree(protected_ffs);
      }
    }
    report = lint::run_lint(netlist, options, registry);
    lint::add_parse_issue_diagnostics(issues, report);

    // Hardened checks against a non-CWSP scheme: the structural
    // invariants below encode the CWSP protection topology, so they are
    // skipped — loudly, never as a silent pass.
    if (spec.hardened && !cwsp_lint) {
      lint::Diagnostic d;
      d.rule_id = "scheme-unsupported";
      d.severity = lint::Severity::kWarning;
      d.message = "hardened structural checks encode the CWSP topology; "
                  "skipped for scheme '" +
                  spec.scheme + "' (coverage unverified by lint)";
      report.add(std::move(d));
    }

    // Under hardened checks, additionally elaborate the full protected
    // system and check its per-FF protection structure (self-check of
    // the hardening transform's output).
    if (spec.hardened && cwsp_lint && netlist.num_flip_flops() > 0 &&
        !report.fails_at(lint::Severity::kError)) {
      const auto system = core::elaborate_hardened_system(netlist);
      lint::LintOptions system_options;
      system_options.hardened_structure = true;
      report.merge(lint::run_lint(system.netlist, system_options));
    }
  } catch (const Error& e) {
    parse_failed = true;
    report.design = design_label;
    lint::Diagnostic d;
    d.rule_id = "parse-error";
    d.severity = lint::Severity::kError;
    d.message = e.what();
    report.add(std::move(d));
  }

  LintOutcome outcome;
  outcome.parse_failed = parse_failed;

  // Baseline handling happens before formatting so suppressed findings
  // disappear from the report itself; a design that fails to parse
  // bypasses it entirely (parse failures are never baselinable).
  bool recorded = false;
  if (!spec.baseline_path.empty() && !parse_failed) {
    std::ifstream in(spec.baseline_path, std::ios::binary);
    if (in.good()) {
      std::ostringstream buf;
      buf << in.rdbuf();
      const lint::Baseline baseline = lint::parse_baseline(buf.str());
      const std::size_t suppressed = lint::apply_baseline(report, baseline);
      outcome.baseline_note =
          "baseline: " + std::to_string(suppressed) +
          " diagnostic(s) suppressed by " + spec.baseline_path;
    } else {
      const std::string text = lint::format_baseline(report);
      std::ofstream out(spec.baseline_path, std::ios::binary);
      CWSP_REQUIRE_MSG(out.good(), "cannot write baseline file '"
                                       << spec.baseline_path << "'");
      out << text;
      std::size_t baselinable = 0;
      for (const lint::Diagnostic& d : report.diagnostics) {
        if (d.rule_id != "parse-error") ++baselinable;
      }
      outcome.baseline_note = "baseline: recorded " +
                              std::to_string(baselinable) +
                              " diagnostic(s) to " + spec.baseline_path;
      recorded = true;
    }
  }

  outcome.output = spec.json ? lint::format_json(report)
                             : lint::format_text(report);
  // A recording run accepts the current findings by definition; it fails
  // only if the design itself is broken (which skips recording above).
  outcome.failed = !recorded && report.fails_at(spec.fail_threshold);
  return outcome;
}

}  // namespace cwsp::service
