// cwsp_tool — command-line front end to the library.
//
// Run `cwsp_tool help` for the subcommand list and `cwsp_tool help <cmd>`
// for per-command options; both are generated from the kSubcommands table
// below, which is the single registry of (name, one-line help, option
// help, handler).
//
// `sta`, `lint`, `campaign`, `coverage`, `certify` and `compare` execute
// through the same src/service handlers the resident analysis server uses,
// so one-shot stdout and a service response payload are byte-identical by
// construction (docs/service.md). Their spec flags are decoded by the
// service's spec codec, which applies the service's admission bounds.
//
// Exit codes: 0 success, 1 findings (lint failures, campaign escapes,
// failed replay), 2 usage/parse errors, 3 solver failures (also: campaign
// interrupted via --stop-after), 4 internal errors. Errors print to
// stderr, never stdout.

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/minimize.hpp"
#include "campaign/report.hpp"
#include "cell/characterize.hpp"
#include "common/cli_args.hpp"
#include "common/failpoint.hpp"
#include "common/metrics.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "fabric/coordinator.hpp"
#include "cwsp/area_report.hpp"
#include "cwsp/elaborate.hpp"
#include "cwsp/harden.hpp"
#include "cwsp/timing.hpp"
#include "lint/lint.hpp"
#include "netlist/analysis.hpp"
#include "netlist/bench_parser.hpp"
#include "netlist/transform.hpp"
#include "netlist/verilog_writer.hpp"
#include "netlist/writer.hpp"
#include "service/client.hpp"
#include "sim/strike_lanes.hpp"
#include "service/handlers.hpp"
#include "service/json.hpp"
#include "service/server.hpp"
#include "service/session.hpp"
#include "service/spec_codec.hpp"
#include "set/ser.hpp"
#include "spice/subckt.hpp"
#include "sta/sta.hpp"

namespace {

using namespace cwsp;
using Args = cwsp::CliArgs;

struct Subcommand {
  const char* name;
  /// One positional-arguments hint for the usage line, e.g. "<design.bench>".
  const char* operands;
  /// One-line summary shown in the generated usage listing.
  const char* brief;
  /// Option details shown by `cwsp_tool help <name>` (may be empty).
  const char* options;
  int (*handler)(const Args&, const CellLibrary&);
};

const std::vector<Subcommand>& subcommands();

int usage() {
  std::cerr << "usage: cwsp_tool <subcommand> [options]\n\nsubcommands:\n";
  for (const Subcommand& cmd : subcommands()) {
    std::cerr << "  " << cmd.name;
    if (cmd.operands[0] != '\0') std::cerr << ' ' << cmd.operands;
    std::cerr << "\n      " << cmd.brief << '\n';
  }
  std::cerr << "\nrun `cwsp_tool help <subcommand>` for options\n";
  return 2;
}

int cmd_lint(const Args& args, const CellLibrary& lib) {
  if (args.positional.empty()) return usage();
  service::LintSpec spec = service::decode<service::LintSpec>(args);
  spec.path = args.positional[0];
  const service::LintOutcome outcome = service::run_lint(spec, lib);
  // The note goes to stderr so --json stdout stays parseable.
  if (!outcome.baseline_note.empty()) {
    std::cerr << outcome.baseline_note << '\n';
  }
  std::cout << outcome.output;
  if (outcome.parse_failed) return 2;
  return outcome.failed ? 1 : 0;
}

int cmd_sta(const Args& args, const CellLibrary& lib) {
  if (args.positional.empty()) return usage();
  const auto session = service::load_design_session(args.positional[0], lib);
  std::cout << service::run_sta_report(*session);
  return 0;
}

int cmd_harden(const Args& args, const CellLibrary& lib) {
  if (args.positional.empty()) return usage();
  // The certify op's ranges: delta in (0, 1e9] ps, skew in [0, 1e9] ps.
  const auto delta = service::bounded<std::optional<double>>(
      args, "delta", std::nullopt, service::kPositivePs);
  const Picoseconds skew{service::bounded(args, "skew", 0.0, service::kPs)};
  const auto netlist = parse_bench_file(args.positional[0], lib);

  const auto params =
      core::ProtectionParams::select(args.has("q150"), delta);
  const auto design = core::harden(netlist, params);
  std::cout << core::describe(design);
  if (args.has("areas")) {
    std::cout << '\n'
              << core::format_area_report(core::build_area_report(design));
  }
  if (args.has("skew")) {
    std::cout << "with " << skew.value() << " ps clock skew, max glitch = "
              << core::max_protected_glitch(design.timing, params, skew)
                     .value()
              << " ps\n";
  }
  return 0;
}

void maybe_dump_metrics(const Args& args) {
  const std::string path = args.text("metrics-json", "");
  if (path.empty()) return;
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::cerr << "cannot write metrics dump to '" << path << "'\n";
    return;
  }
  out << metrics::Registry::global().to_json();
}

int campaign_exit_code(campaign::CampaignStatus status) {
  switch (status) {
    case campaign::CampaignStatus::kOk:
      return 0;
    case campaign::CampaignStatus::kEscapes:
    case campaign::CampaignStatus::kInvalid:
      return 1;
    case campaign::CampaignStatus::kInterrupted:
      return 3;
  }
  return 1;
}

int cmd_campaign(const Args& args, const CellLibrary& lib) {
  if (args.positional.empty()) return usage();
  const auto spec = service::decode<service::CampaignSpec>(args);
  const auto session = service::load_design_session(args.positional[0], lib);
  if (session->netlist->num_flip_flops() == 0) {
    std::cerr << "campaign requires a sequential design\n";
    return 1;
  }

  // Distributed mode: fan shards out to worker daemons (and/or recover a
  // crashed coordinator from its fabric journal). The merged report is
  // byte-identical to the local path below, so both share the exit map.
  if (args.has("workers") || args.has("fabric-journal") ||
      args.has("fabric-resume")) {
    fabric::FabricOptions fabric_options;
    fabric_options.workers =
        service::split_comma_list(args.text("workers", ""));
    fabric_options.shards = service::bounded<std::uint64_t>(
        args, "fabric_shards", 0, service::kShard);
    fabric_options.lease_ms =
        service::bounded(args, "lease_ms", 60'000.0, service::kMs);
    fabric_options.journal_path = args.text("fabric-journal", "");
    if (args.has("fabric-resume")) {
      fabric_options.journal_path = args.text("fabric-resume", "");
      fabric_options.resume = true;
    }
    fabric_options.stop_after_shards = service::bounded<std::uint64_t>(
        args, "stop_after_shards", 0, service::kShard);
    fabric_options.auth_token = args.text("auth-token", "");
    fabric_options.deadline_ms = spec.deadline_ms;
    fabric_options.log = &std::cerr;

    const fabric::FabricOutcome outcome = fabric::run_distributed_campaign(
        *session, service::read_design_file(args.positional[0]), spec,
        fabric_options);
    const fabric::FabricStats& stats = outcome.stats;
    std::cerr << "fabric: " << stats.shards_total << " shard(s): "
              << stats.shards_resumed << " resumed, " << stats.shards_remote
              << " remote, " << stats.shards_local << " local; "
              << stats.redispatched << " re-dispatched, " << stats.rejected
              << " rejected, " << stats.workers_evicted << " evicted\n";
    maybe_dump_metrics(args);
    std::cout << outcome.outcome.output;
    return campaign_exit_code(outcome.outcome.status);
  }

  // A local --deadline-ms rides the same CancelToken path the service
  // uses: the engine polls between strikes and reports kInterrupted once
  // the budget expires.
  sim::CancelToken budget_token;
  const sim::CancelToken* cancel = nullptr;
  if (spec.deadline_ms > 0.0) {
    budget_token.set_deadline(Stopwatch::deadline_after(spec.deadline_ms));
    cancel = &budget_token;
  }
  const service::CampaignOutcome outcome =
      service::run_campaign(*session, spec, cancel);
  maybe_dump_metrics(args);
  std::cout << outcome.output;
  return campaign_exit_code(outcome.status);
}

int cmd_coverage(const Args& args, const CellLibrary& lib) {
  if (args.positional.empty()) return usage();
  const auto spec = service::decode<service::CoverageSpec>(args);
  const auto session = service::load_design_session(args.positional[0], lib);
  const service::CoverageOutcome outcome =
      service::run_coverage(*session, spec);
  std::cout << outcome.output;
  return outcome.valid ? 0 : 1;
}

int cmd_certify(const Args& args, const CellLibrary& lib) {
  if (args.positional.empty()) return usage();
  const auto spec = service::decode<service::CertifySpec>(args);
  const auto session = service::load_design_session(args.positional[0], lib);
  const service::CertifyOutcome outcome =
      service::run_certify(*session, spec);
  std::cout << outcome.output;
  if (outcome.escapes > 0) return 1;
  if (args.has("strict") && outcome.unknowns > 0) return 1;
  return 0;
}

int cmd_compare(const Args& args, const CellLibrary& lib) {
  if (args.positional.empty()) return usage();
  const auto spec = service::decode<service::CompareSpec>(args);
  const auto session = service::load_design_session(args.positional[0], lib);
  const service::CompareOutcome outcome =
      service::run_compare(*session, spec);
  maybe_dump_metrics(args);
  std::cout << outcome.output;
  return outcome.unexpected_escapes > 0 ? 1 : 0;
}

// The resident server, reachable by the signal handler (signal() only
// takes a plain function pointer).
cwsp::service::Server* g_server = nullptr;

void handle_stop_signal(int) {
  // request_shutdown only swaps an atomic and write()s a pipe byte — both
  // async-signal-safe.
  if (g_server != nullptr) g_server->request_shutdown();
}

int cmd_serve(const Args& args, const CellLibrary& lib) {
  service::ServerOptions options = service::decode_server_options(args);
  if (options.socket_path.empty()) {
    std::cerr << "serve: --socket <path> is required\n";
    return 2;
  }
  const double lease_ms =
      service::bounded(args, "lease_ms", 60'000.0, service::kMs);
  const auto failpoints_seed = service::bounded<std::uint64_t>(
      args, "failpoints_seed", 1, service::kSeed);
  if (args.has("failpoints")) {
    failpoint::Registry::global().configure(args.text("failpoints", ""),
                                            failpoints_seed);
  }
  // Campaigns with "distribute":true fan out to the workers registered
  // with this coordinator; everything else runs in-process as before.
  // The fabric inherits the serve auth token (one shared secret across
  // the topology) and the request's deadline budget.
  const std::string fabric_auth = options.auth_token;
  options.distributed_campaign =
      [lease_ms, fabric_auth](const service::DesignSession& session,
                              const std::string& design_text,
                              const service::CampaignSpec& spec,
                              const std::vector<std::string>& workers) {
        fabric::FabricOptions fabric_options;
        fabric_options.workers = workers;
        fabric_options.lease_ms = lease_ms;
        fabric_options.auth_token = fabric_auth;
        fabric_options.deadline_ms = spec.deadline_ms;
        return fabric::run_distributed_campaign(session, design_text, spec,
                                                fabric_options)
            .outcome;
      };
  const std::string tcp_note =
      options.tcp_endpoint.empty() ? "" : " and tcp " + options.tcp_endpoint;

  service::Server server(std::move(options), lib);
  g_server = &server;
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  std::cerr << "serving on " << server.socket_path() << tcp_note << '\n';
  server.run();
  g_server = nullptr;
  return 0;
}

int cmd_client(const Args& args, const CellLibrary&) {
  const std::string socket_path = args.text("socket", "");
  if (socket_path.empty()) {
    std::cerr << "client: --socket <path> is required\n";
    return 2;
  }
  const bool payloads_only = args.has("payloads");

  std::vector<std::string> lines = args.positional;
  // `--payloads` is a flag, but the generic parser hands it the next
  // token as a value; when that token is a request line, reclaim it.
  const std::string reclaimed = args.text("payloads", "");
  if (!reclaimed.empty() && reclaimed.front() == '{') {
    lines.insert(lines.begin(), reclaimed);
  }
  if (lines.empty()) {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (!line.empty()) lines.push_back(line);
    }
  }
  if (lines.empty()) {
    std::cerr << "client: no request lines (argv or stdin)\n";
    return 2;
  }

  // Assign ids c1..cN to requests that lack one, so responses (which may
  // arrive out of order — batching, priorities) can be demuxed back into
  // request order.
  const std::string auth_token = args.text("auth-token", "");
  std::vector<std::string> ids;
  ids.reserve(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const service::json::Value request = service::json::parse(lines[i]);
    if (!request.is_object()) {
      throw ParseError("request " + std::to_string(i + 1) +
                       " is not a JSON object");
    }
    if (!auth_token.empty() && request.text("auth", "").empty()) {
      std::string field("\"auth\":\"");
      field += service::json::escape(auth_token);
      field += '"';
      if (!request.as_object().empty()) field += ',';
      const std::size_t brace = lines[i].find('{');
      if (brace != std::string::npos) lines[i].insert(brace + 1, field);
    }
    std::string id = request.text("id", "");
    if (id.empty()) {
      std::string generated("c");
      generated += std::to_string(i + 1);
      std::string field("\"id\":\"");
      field += generated;
      field += '"';
      if (!request.as_object().empty()) field += ',';
      const std::size_t brace = lines[i].find('{');
      if (brace != std::string::npos) lines[i].insert(brace + 1, field);
      id = std::move(generated);
    }
    ids.push_back(std::move(id));
  }

  service::Client client(socket_path);
  for (const std::string& line : lines) client.send_line(line);

  std::map<std::string, std::string> responses;
  std::string line;
  while (responses.size() < ids.size() && client.read_line(line)) {
    const service::json::Value response = service::json::parse(line);
    responses[response.text("id", "")] = line;
  }

  bool all_ok = true;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto it = responses.find(ids[i]);
    if (it == responses.end()) {
      std::cerr << "client: no response for request " << ids[i]
                << " (server closed the connection)\n";
      return 4;
    }
    const service::json::Value response = service::json::parse(it->second);
    if (!response.boolean("ok", false)) all_ok = false;
    if (payloads_only) {
      if (const auto* payload = response.find("payload")) {
        std::cout << payload->as_string();
      }
    } else {
      std::cout << it->second << '\n';
    }
  }
  return all_ok ? 0 : 1;
}

int cmd_replay(const Args& args, const CellLibrary& lib) {
  if (args.positional.empty()) return usage();
  const bool reproduced = campaign::replay_repro(args.positional[0], lib);
  std::cout << (reproduced ? "escape reproduced\n"
                           : "escape did NOT reproduce\n");
  return reproduced ? 0 : 1;
}

int cmd_glitch(const Args& args, const CellLibrary&) {
  const Femtocoulombs q{args.number("q", 100.0)};
  spice::SolverDiagnostics diagnostics;
  const auto wave = spice::strike_waveform(q, {}, 1500.0, &diagnostics);
  if (args.has("json")) {
    std::cout << "{\"q_fc\": " << q.value() << ", \"peak_v\": " << wave.peak()
              << ", \"width_ps\": "
              << wave.pulse_width_above(0.5).value_or(0.0)
              << ", \"diagnostics\": " << diagnostics.to_json() << "}\n";
    return 0;
  }
  std::cout << "Q = " << q.value() << " fC: peak "
            << TextTable::num(wave.peak(), 3) << " V, width above VDD/2 = "
            << TextTable::num(wave.pulse_width_above(0.5).value_or(0.0), 1)
            << " ps\n";
  TextTable t;
  t.set_header({"t (ps)", "V(out)"});
  for (double ts = 0.0; ts <= 1200.0; ts += 100.0) {
    t.add_row({TextTable::num(ts, 0), TextTable::num(wave.value_at(ts), 4)});
  }
  t.print(std::cout);
  return 0;
}

// Ranges of the numbers only these commands read. Like every other CLI
// number they go through the codec's bounds (exit 2 when out of range).
constexpr service::Bounds kNewtonIterations{1, 1e6};
constexpr service::Bounds kFlipFlopCount{1, 1e5};
constexpr service::Bounds kFraction{0, 1};

int cmd_characterize(const Args& args, const CellLibrary& lib) {
  CharacterizeOptions options;
  options.load = Femtofarads(args.number("load", 2.0));
  if (args.has("max-newton")) {
    options.transient.max_newton_iterations =
        static_cast<int>(service::bounded<std::uint64_t>(
            args, "max_newton", 0, kNewtonIterations));
  }
  options.include_cwsp = !args.has("no-cwsp");
  const auto report = characterize_library(lib, options);
  std::cout << (args.has("json") ? report.to_json() : report.to_text());
  if (report.any_fallback()) {
    std::cerr << "characterize: " << report.fallback_count()
              << " arc(s) degraded to the calibrated model\n";
  }
  return 0;
}

int cmd_elaborate(const Args& args, const CellLibrary& lib) {
  if (args.positional.empty()) return usage();
  // The count is an operand, so the codec reads it as a stand-in flag and
  // the error names the operand instead.
  Args operand;
  operand.options["n-ffs"] = args.positional[0];
  std::uint64_t count = 0;
  try {
    count = service::bounded<std::uint64_t>(operand, "n_ffs", 0,
                                            kFlipFlopCount);
  } catch (const ParseError&) {
    throw ParseError("<n_ffs> must be an integer in [1, " +
                     std::to_string(static_cast<long>(kFlipFlopCount.hi)) +
                     "], got '" + args.positional[0] + "'");
  }
  const int n = static_cast<int>(count);
  const auto p = core::elaborate_protection(n, lib);
  if (args.has("dot")) {
    write_dot(p.netlist, std::cout);
  } else {
    write_bench(p.netlist, std::cout);
  }
  std::cerr << "elaborated checker for " << n << " FFs: "
            << p.netlist.num_gates() << " gates, "
            << p.netlist.num_flip_flops() << " flip-flops, EQGLB tree "
            << p.tree.levels << " level(s)\n";
  return 0;
}

int cmd_verilog(const Args& args, const CellLibrary& lib) {
  if (args.positional.empty()) return usage();
  const auto netlist = parse_bench_file(args.positional[0], lib);
  write_verilog(netlist, std::cout);
  return 0;
}

int cmd_optimize(const Args& args, const CellLibrary& lib) {
  if (args.positional.empty()) return usage();
  const auto netlist = parse_bench_file(args.positional[0], lib);
  const auto [optimized, stats] = optimize(netlist);
  std::cerr << "removed " << stats.removed() << " of " << stats.gates_before
            << " gates\n";
  write_bench(optimized, std::cout);
  return 0;
}

int cmd_stats(const Args& args, const CellLibrary& lib) {
  if (args.positional.empty()) return usage();
  const auto netlist = parse_bench_file(args.positional[0], lib);
  const auto s = netlist.stats();
  const auto depth = compute_logic_depth(netlist);
  const auto fanout = compute_fanout_stats(netlist);
  std::cout << "gates        : " << s.num_gates << "\n";
  std::cout << "flip-flops   : " << s.num_flip_flops << "\n";
  std::cout << "inputs/outputs: " << s.num_primary_inputs << " / "
            << s.num_primary_outputs << "\n";
  std::cout << "area         : " << s.total_area.value() << " um^2\n";
  std::cout << "logic depth  : " << depth.max_depth << " levels\n";
  std::cout << "max/mean fanout: " << fanout.max_fanout << " / "
            << fanout.mean_fanout << "\n";
  std::cout << "cell mix     :";
  for (const auto& kc : kind_histogram(netlist)) {
    std::cout << ' ' << kc.cell_name << 'x' << kc.count;
  }
  std::cout << '\n';
  return 0;
}

int cmd_ser(const Args& args, const CellLibrary& lib) {
  if (args.positional.empty()) return usage();
  const double fail_fraction = service::bounded(args, "fail", 0.2, kFraction);
  const auto netlist = parse_bench_file(args.positional[0], lib);
  const auto params = core::ProtectionParams::q100();
  const auto design = core::harden(netlist, params);

  set::SerAnalyzer analyzer;
  const auto report = analyzer.analyze(design.hardened_area,
                                       design.max_glitch, fail_fraction);
  std::cout << "strikes/year            : " << report.strikes_per_year
            << "\n";
  std::cout << "unprotected errors/year : "
            << report.unprotected_errors_per_year << "\n";
  std::cout << "hardened errors/year    : "
            << report.hardened_errors_per_year << "\n";
  std::cout << "MTBF improvement        : " << report.improvement_factor
            << "x\n";
  std::cout << "double-strike prob/cycle: "
            << analyzer.consecutive_cycle_strike_probability(
                   design.hardened_area, design.hardened_period)
            << "\n";
  return 0;
}

int cmd_version(const Args& args, const CellLibrary&) {
  const sim::LaneIsa isa = sim::WideLogicSim::dispatched_isa();
  auto& width_gauge = metrics::Registry::global().gauge("sim.kernel.width");
  width_gauge.set(static_cast<std::int64_t>(isa.lanes));
  const auto& supported = sim::WideLogicSim::supported_lane_widths();
  const auto accelerated = sim::WideLogicSim::accelerated_lane_widths();
  if (args.has("json")) {
    std::cout << "{\"schema\":\"cwsp-version-v1\",\"tool\":\"cwsp_tool\","
              << "\"project\":\"cwsp_rad_hard\",\"kernel\":{\"isa\":\""
              << isa.name << "\",\"lanes\":" << isa.lanes
              << ",\"supported_widths\":[";
    for (std::size_t i = 0; i < supported.size(); ++i) {
      if (i != 0) std::cout << ',';
      std::cout << supported[i];
    }
    std::cout << "],\"accelerated_widths\":[";
    for (std::size_t i = 0; i < accelerated.size(); ++i) {
      if (i != 0) std::cout << ',';
      std::cout << accelerated[i];
    }
    std::cout << "]},\"metrics\":{\"sim.kernel.width\":"
              << width_gauge.value() << "}}\n";
    return 0;
  }
  std::cout << "cwsp_tool (cwsp_rad_hard)\n";
  std::cout << "strike-lane kernel : " << isa.name << " (" << isa.lanes
            << " lanes)\n";
  std::cout << "supported widths   :";
  for (std::size_t w : supported) std::cout << ' ' << w;
  std::cout << "\naccelerated widths :";
  if (accelerated.empty()) std::cout << " none (portable sweeps only)";
  for (std::size_t w : accelerated) std::cout << ' ' << w;
  std::cout << "\nsim.kernel.width   : " << width_gauge.value() << "\n";
  return 0;
}

const std::vector<Subcommand>& subcommands() {
  static const std::vector<Subcommand> kSubcommands = {
      {"sta", "<design.bench>", "static timing report", "", cmd_sta},
      {"harden", "<design.bench>", "hardening report (Table-2/3 numbers)",
       "  --q150            use the Q=150 fC envelope (default Q=100 fC)\n"
       "  --delta <ps>      custom glitch width (Table-3 mode)\n"
       "  --skew <ps>       clock skew derating\n"
       "  --areas           itemised protection-area breakdown\n",
       cmd_harden},
      {"lint", "<design.bench>", "design-rule check",
       "  --hardened        also check the protection invariants: Eq. 5\n"
       "                    envelope, CLK_DEL fit, EQGLB-tree bounds, and\n"
       "                    (for sequential designs) the elaborated\n"
       "                    hardened system's per-FF structure\n"
       "  --json            machine-readable report (docs/lint.md schema)\n"
       "  --fallback-cells <a,b,...>  cells with calibrated-fallback delay\n"
       "                    arcs (from `characterize --json`)\n"
       "  --fail-on <warn|error>  exit-1 threshold (default error)\n"
       "  --certify         also run the certify rule family (requires\n"
       "                    --hardened; see `cwsp_tool certify`)\n"
       "  --env-width <ps> / --certify-seed <n>  certify configuration\n"
       "  --baseline <path> absent: record current findings there;\n"
       "                    present: fail only on findings not in it\n"
       "  --scheme <name>   target scheme under --hardened (default cwsp);\n"
       "                    non-CWSP schemes skip the CWSP structural\n"
       "                    invariants and warn instead\n"
       "  --q150 / --delta <ps> / --skew <ps> / --period <ps>\n"
       "                    protection configuration under --hardened\n",
       cmd_lint},
      {"campaign", "<design.bench>", "fault-injection campaign",
       "  --runs <n> --cycles <n> --width <ps> --seed <n>\n"
       "  --jobs <n>        worker threads (reports identical for any n)\n"
       "  --timeout-ms <v>  per-strike budget (hang -> inconclusive)\n"
       "  --journal <path>  checkpoint file, one line per finished strike\n"
       "  --resume <path>   resume an interrupted campaign from its journal\n"
       "  --adversarial     add protection-path / clock-edge /\n"
       "                    out-of-envelope strike classes to the plan\n"
       "  --minimize        shrink escapes to minimal repros\n"
       "  --artifacts <dir> write repro .bench + .strike files there\n"
       "  --shard <i>/<n>   run only shard i (1-based) of an n-way split\n"
       "  --stop-after <n>  stop after n fresh strikes (exit 3)\n"
       "  --deadline-ms <v> wall-clock budget; an exceeded budget reports\n"
       "                    kInterrupted (exit 3), local or distributed\n"
       "  --scheme <a,b,...>      protection scheme(s) to campaign\n"
       "                    (cwsp, tmr, loco; default cwsp); more than one\n"
       "                    name sweeps the cross product\n"
       "  --fault-model <a,b,...> strike generator(s) (single-set,\n"
       "                    double-set, protection-seu; default single-set)\n"
       "  --json            machine-readable report (docs/campaign.md)\n"
       "  distributed fabric (docs/fabric.md; report byte-identical):\n"
       "  --workers <a,b,...>    worker endpoints (host:port or socket)\n"
       "  --fabric-shards <n>    shard count (default 4 x workers)\n"
       "  --lease-ms <v>         per-shard lease before re-dispatch\n"
       "  --fabric-journal <path>   coordinator crash-recovery journal\n"
       "  --fabric-resume <path>    resume a crashed coordinator from it\n"
       "  --stop-after-shards <n>   stop after n fresh shards (exit 3)\n"
       "  --auth-token <tok>        shared secret sent to fabric workers\n"
       "  --metrics-json <path>     write the fabric metrics dump here\n",
       cmd_campaign},
      {"coverage", "<design.bench>", "functional/scenario coverage sweep",
       "  --runs <n> --cycles <n> --width <ps> --seed <n>\n"
       "  --scenarios       strike the four protection-circuit sites\n"
       "                    (protection-seu, 4 x runs strikes) instead of\n"
       "                    random functional strikes (single-set)\n"
       "  --json            machine-readable report\n",
       cmd_coverage},
      {"certify", "<design.bench>",
       "static SET-coverage certificate per strike site",
       "  --q150            use the Q=150 fC envelope (default Q=100 fC)\n"
       "  --delta <ps>      custom designed glitch width\n"
       "  --skew <ps>       clock skew derating\n"
       "  --env-width <ps>  glitch width to certify against (default: the\n"
       "                    configured delta)\n"
       "  --seed <n>        stimulus seed for the simulation fallback\n"
       "  --artifacts <dir> write escape repro .bench + .strike files there\n"
       "  --strict          unknown verdicts also exit 1 (default: only\n"
       "                    proved escapes do)\n"
       "  --scheme <name>   scheme whose predicate is certified (default\n"
       "                    cwsp); non-certifiable schemes degrade every\n"
       "                    site to `unknown`, never a silent pass\n"
       "  --json            machine-readable report (docs/certify.md)\n",
       cmd_certify},
      {"compare", "<design.bench>",
       "comparative Tables 1-4 across schemes x fault models",
       "  --runs <n> --cycles <n> --width <ps> --seed <n> --jobs <n>\n"
       "  --scheme <a,b,...>      schemes to compare (default: all)\n"
       "  --fault-model <a,b,...> fault models to compare (default: all)\n"
       "  --json            machine-readable report (cwsp-compare-v1,\n"
       "                    docs/schemes.md)\n",
       cmd_compare},
      {"serve", "--socket <path>", "resident analysis server (NDJSON)",
       "  --socket <path>   Unix domain socket to listen on (required)\n"
       "  --workers <n>     job worker threads (default 2)\n"
       "  --queue-capacity <n>  job queue bound (default 64)\n"
       "  --cache-entries <n>   design session cache entries (default 8)\n"
       "  --cache-mb <n>    design session cache memory bound (default 256)\n"
       "  --result-cache <n>    memoized responses kept (default 64)\n"
       "  --metrics-json <path> write the metrics dump here on shutdown\n"
       "  --tcp <host:port> also listen on TCP (port 0 = ephemeral) --\n"
       "                    the campaign-fabric transport (docs/fabric.md)\n"
       "  --max-frame-mb <n>    request frame size limit (default 8)\n"
       "  --register <endpoint> announce this daemon to a coordinator's\n"
       "                    worker registry (implies worker role)\n"
       "  --advertise <endpoint> endpoint to announce (default\n"
       "                    127.0.0.1:<tcp port>)\n"
       "  --worker-ttl-ms <v>   registry liveness window (default 15000)\n"
       "  --lease-ms <v>    per-shard lease for distributed campaigns\n"
       "  --auth-token <tok>    shared secret required of TCP clients\n"
       "                    (ping exempt; also sent with --register)\n"
       "  --drain-grace-ms <v>  SIGTERM drain budget before in-flight\n"
       "                    jobs are cancelled (default 5000; <=0 waits)\n"
       "  --failpoints <spec>   arm deterministic failpoints\n"
       "                    (docs/chaos.md grammar; also CWSP_FAILPOINTS)\n"
       "  --failpoints-seed <n> seed for prob= trigger policies\n",
       cmd_serve},
      {"client", "--socket <path> [request...]",
       "submit NDJSON requests to a running server",
       "  --socket <path>   server socket (required)\n"
       "  --payloads        print unescaped payloads only (byte-identical\n"
       "                    to the one-shot subcommand's stdout)\n"
       "  --auth-token <tok>  add an \"auth\" field to requests lacking one\n"
       "  request lines come from argv or, when absent, stdin\n",
       cmd_client},
      {"replay", "<repro.strike>", "replay a minimized escape", "",
       cmd_replay},
      {"glitch", "", "struck-inverter waveform",
       "  --q <fC>          deposited charge (default 100)\n"
       "  --json            waveform summary + solver diagnostics\n"
       "                    (docs/minispice.md schema)\n",
       cmd_glitch},
      {"characterize", "", "electrical cell characterization",
       "  --json            machine-readable report with per-arc provenance\n"
       "  --load <fF>       output load (default 2 fF)\n"
       "  --max-newton <n>  Newton iteration budget, 1..1000000 (small\n"
       "                    values provoke calibrated-fallback arcs)\n"
       "  --no-cwsp         skip the CWSP element arcs\n",
       cmd_characterize},
      {"elaborate", "<n_ffs>", "checker netlist (.bench/.dot)",
       "  <n_ffs>           protected flip-flops, 1..100000\n"
       "  --dot             emit graphviz instead of .bench\n", cmd_elaborate},
      {"ser", "<design.bench>", "soft-error-rate estimate",
       "  --fail <frac>     fraction of strikes that corrupt state, 0..1\n"
       "                    (default 0.2)\n",
       cmd_ser},
      {"verilog", "<design.bench>", "emit structural Verilog", "",
       cmd_verilog},
      {"optimize", "<design.bench>", "constant-fold + dead-gate removal", "",
       cmd_optimize},
      {"stats", "<design.bench>", "netlist statistics", "", cmd_stats},
      {"version", "", "build + strike-lane kernel dispatch info",
       "  --json            machine-readable version report\n",
       cmd_version},
  };
  return kSubcommands;
}

int cmd_help(int argc, char** argv) {
  if (argc < 3) {
    usage();
    return 0;  // asked-for help is not a usage error
  }
  const std::string name = argv[2];
  for (const Subcommand& cmd : subcommands()) {
    if (name != cmd.name) continue;
    std::cerr << "usage: cwsp_tool " << cmd.name;
    if (cmd.operands[0] != '\0') std::cerr << ' ' << cmd.operands;
    std::cerr << "\n  " << cmd.brief << '\n';
    if (cmd.options[0] != '\0') std::cerr << '\n' << cmd.options;
    return 0;
  }
  std::cerr << "unknown subcommand '" << name << "'\n";
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    return cmd_help(argc, argv);
  }

  const Args args = parse_cli_args(argc, argv);
  const CellLibrary lib = make_default_library();

  try {
    // Deterministic fault injection (docs/chaos.md): CWSP_FAILPOINTS
    // holds a spec like "campaign.journal.append=torn:4@every=3";
    // CWSP_FAILPOINTS_SEED seeds the prob= policies (default 1).
    if (const char* spec = std::getenv("CWSP_FAILPOINTS");
        spec != nullptr && spec[0] != '\0') {
      std::uint64_t seed = 1;
      if (const char* seed_text = std::getenv("CWSP_FAILPOINTS_SEED");
          seed_text != nullptr && seed_text[0] != '\0') {
        seed = std::strtoull(seed_text, nullptr, 10);
      }
      cwsp::failpoint::Registry::global().configure(spec, seed);
    }
    for (const Subcommand& cmd : subcommands()) {
      if (command == cmd.name) return cmd.handler(args, lib);
    }
  } catch (const cwsp::ParseError& e) {
    std::cerr << "parse error: " << e.what() << '\n';
    return 2;
  } catch (const cwsp::SolveError& e) {
    std::cerr << "solver error: " << e.what() << '\n';
    return 3;
  } catch (const cwsp::Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 4;
  } catch (const std::exception& e) {
    std::cerr << "internal error: " << e.what() << '\n';
    return 4;
  }
  return usage();
}
