// chaos_runner — CI chaos harness for the failpoint subsystem
// (docs/chaos.md).
//
// Draws a seeded random failpoint schedule over the instrumented sites,
// runs a distributed campaign (real coordinator + two in-process worker
// daemons on ephemeral TCP ports) under that schedule, and checks the
// survival invariants:
//
//   1. the merged chaos report is byte-identical to the clean
//      single-host run;
//   2. the coordinator journal the chaos run leaves behind (torn
//      markers and all) resumes to the same bytes under a healthy
//      registry;
//   3. a campaign with an expired deadline is interrupted, one with a
//      generous deadline is unaffected;
//   4. fabric shard accounting is consistent
//      (resumed + remote + local == total).
//
// Exit 0 when every invariant holds, 1 on the first violation (the
// schedule and metrics JSON artifacts identify the failing seed), 2 on a
// malformed or out-of-range --seed.
//
//   chaos_runner [--seed <n>] [--schedule-json <path>]
//                [--metrics-json <path>]

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cell/library.hpp"
#include "common/cli_args.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "fabric/coordinator.hpp"
#include "service/handlers.hpp"
#include "service/server.hpp"
#include "service/session.hpp"
#include "service/spec_codec.hpp"

namespace {

using namespace cwsp;

constexpr char kDesign[] =
    "INPUT(a)\nINPUT(b)\nOUTPUT(q)\n"
    "t1 = NAND(a, b)\nt2 = XOR(t1, q)\nq = DFF(t2)\n";

// Sites safe to arm wholesale for a fabric campaign: every one is behind
// a recovery ladder that must converge on the clean report. The service
// admission sites (accept/read_line/enqueue) and abort-class actions are
// exercised by test_chaos instead — they fail individual *requests* by
// design, which is the wrong invariant for a byte-identity harness.
struct SiteSpec {
  const char* name;
  // Action menu the schedule may draw for this site.
  const char* actions[3];
  std::size_t action_count;
};

const SiteSpec kSites[] = {
    {"campaign.journal.shard_marker", {"torn:9", "torn:40", "garble:12"}, 3},
    {"fabric.dispatch.send", {"err:chaos dispatch", "delay:2"}, 2},
    {"fabric.dispatch.response", {"garble:3", "torn:2"}, 2},
    {"fabric.heartbeat", {"err:chaos heartbeat", "delay:1"}, 2},
    {"fabric.commit", {"delay:1"}, 1},
    {"sim.lane.run_batch", {"err:chaos lanes"}, 1},
};

const char* kPolicies[] = {"@once", "@every=2", "@every=3", "@prob=0.4"};

std::string draw_schedule(std::uint64_t seed) {
  Rng rng = Rng::stream(seed, 0xc4a05);
  std::string spec;
  for (const SiteSpec& site : kSites) {
    // Each site participates with probability 3/4; at least one always
    // does (the schedule re-rolls an empty draw below).
    if (!rng.next_bool(0.75)) continue;
    if (!spec.empty()) spec += ';';
    spec += site.name;
    spec += '=';
    spec += site.actions[rng.next_below(site.action_count)];
    spec += kPolicies[rng.next_below(sizeof(kPolicies) /
                                     sizeof(kPolicies[0]))];
  }
  if (spec.empty()) return draw_schedule(seed * 6364136223846793005ULL + 1);
  return spec;
}

/// An honest in-process worker daemon on an ephemeral TCP port.
class Worker {
 public:
  explicit Worker(const CellLibrary& lib) {
    char tmpl[] = "/tmp/cwsp_chaosrun_XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) throw Error("mkdtemp failed");
    dir_ = tmpl;
    service::ServerOptions options;
    options.socket_path = dir_ + "/s";
    options.workers = 2;
    options.tcp_endpoint = "127.0.0.1:0";
    server_ = std::make_unique<service::Server>(std::move(options), lib);
    thread_ = std::thread([this] { server_->run(); });
    for (int i = 0; i < 400 && server_->tcp_port() == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (server_->tcp_port() == 0) throw Error("worker TCP port never bound");
  }

  ~Worker() {
    server_->request_shutdown();
    thread_.join();
  }

  [[nodiscard]] std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(server_->tcp_port());
  }

  [[nodiscard]] const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  std::unique_ptr<service::Server> server_;
  std::thread thread_;
};

int fail(const std::string& invariant) {
  std::cerr << "chaos_runner: INVARIANT VIOLATED: " << invariant << '\n';
  return 1;
}

void write_artifact(const std::string& path, const std::string& body) {
  if (path.empty()) return;
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::cerr << "chaos_runner: cannot write artifact '" << path << "'\n";
    return;
  }
  out << body;
}

}  // namespace

int main(int argc, char** argv) {
  // No subcommand slot: options start at argv[1].
  const CliArgs args = parse_cli_args(argc, argv, 1);
  std::uint64_t seed = 1;
  try {
    seed = service::bounded<std::uint64_t>(args, "seed", 1, service::kSeed);
  } catch (const ParseError& e) {
    std::cerr << "chaos_runner: parse error: " << e.what() << '\n';
    return 2;
  }
  const std::string schedule_path = args.text("schedule-json", "");
  const std::string metrics_path = args.text("metrics-json", "");

  try {
    const CellLibrary lib = make_default_library();
    const auto session = service::DesignSession::build("demo", kDesign, lib);

    service::CampaignSpec spec;
    spec.runs = 24;
    spec.cycles = 10;
    spec.seed = 7;
    spec.jobs = 2;
    spec.adversarial = true;
    spec.json = true;

    const std::string schedule = draw_schedule(seed);
    write_artifact(schedule_path,
                   "{\"schema\":\"cwsp-chaos-schedule-v1\",\"seed\":" +
                       std::to_string(seed) + ",\"spec\":\"" + schedule +
                       "\"}\n");
    std::cerr << "chaos_runner: seed " << seed << " schedule: " << schedule
              << '\n';

    // Clean single-host reference (registry disarmed).
    failpoint::Registry::global().clear();
    const std::string expected = service::run_campaign(*session, spec).output;

    // Chaos run: the schedule armed over a real two-worker topology with
    // a coordinator journal.
    char tmpl[] = "/tmp/cwsp_chaosj_XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) throw Error("mkdtemp failed");
    const std::string journal = std::string(tmpl) + "/fabric.journal";

    Worker w1(lib);
    Worker w2(lib);
    fabric::FabricOptions options;
    options.workers = {w1.endpoint(), w2.endpoint()};
    options.dial.attempts = 2;
    options.dial.backoff_base_ms = 5.0;
    options.dial.backoff_cap_ms = 20.0;
    options.heartbeat_interval_ms = 100.0;
    options.heartbeat_timeout_ms = 800.0;
    options.worker_failure_limit = 4;
    options.journal_path = journal;
    options.log = &std::cerr;

    failpoint::Registry::global().configure(schedule, seed);
    const fabric::FabricOutcome chaos =
        fabric::run_distributed_campaign(*session, kDesign, spec, options);
    failpoint::Registry::global().clear();

    write_artifact(metrics_path, metrics::Registry::global().to_json());

    if (chaos.outcome.output != expected) {
      return fail("chaos report differs from the clean single-host run");
    }
    if (chaos.stats.shards_resumed + chaos.stats.shards_remote +
            chaos.stats.shards_local !=
        chaos.stats.shards_total) {
      return fail("fabric shard accounting is inconsistent");
    }

    // The journal the chaos run left behind — torn markers included —
    // must resume to the same bytes under a healthy registry.
    fabric::FabricOptions resume = options;
    resume.workers.clear();
    resume.resume = true;
    const fabric::FabricOutcome recovered =
        fabric::run_distributed_campaign(*session, kDesign, spec, resume);
    if (recovered.outcome.output != expected) {
      return fail("journal resume after chaos diverged from the clean run");
    }

    // Deadline propagation: a generous budget changes nothing; an
    // expired one interrupts instead of hanging.
    fabric::FabricOptions relaxed = resume;
    relaxed.resume = false;
    relaxed.journal_path.clear();
    relaxed.deadline_ms = 600'000.0;
    if (fabric::run_distributed_campaign(*session, kDesign, spec, relaxed)
            .outcome.output != expected) {
      return fail("a generous deadline perturbed the report");
    }
    fabric::FabricOptions strict = relaxed;
    strict.deadline_ms = 0.0001;
    if (fabric::run_distributed_campaign(*session, kDesign, spec, strict)
            .outcome.status != campaign::CampaignStatus::kInterrupted) {
      return fail("an expired deadline did not interrupt the campaign");
    }

    write_artifact(metrics_path, metrics::Registry::global().to_json());
    std::cerr << "chaos_runner: seed " << seed
              << " survived: report byte-identical, journal resumable, "
                 "deadlines honored\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "chaos_runner: error: " << e.what() << '\n';
    return 1;
  }
}
