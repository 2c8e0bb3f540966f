// Chaos harness for the deterministic failpoint subsystem
// (docs/chaos.md): every injected failure — torn journal writes, garbled
// frames, dropped connections, forced cache evictions, solver
// singularities, expired deadlines — must leave the stack in a typed,
// recoverable state, and every recovery must converge on a report
// byte-identical to the clean run.
//
// Each TEST runs in its own process (gtest_discover_tests), so arming
// the process-global failpoint registry cannot leak across tests.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "campaign/journal.hpp"
#include "cell/library.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/metrics.hpp"
#include "common/stopwatch.hpp"
#include "fabric/coordinator.hpp"
#include "service/client.hpp"
#include "service/handlers.hpp"
#include "service/json.hpp"
#include "service/server.hpp"
#include "service/session.hpp"
#include "spice/subckt.hpp"

namespace cwsp {
namespace {

constexpr char kDesign[] =
    "INPUT(a)\nINPUT(b)\nOUTPUT(q)\n"
    "t1 = NAND(a, b)\nt2 = XOR(t1, q)\nq = DFF(t2)\n";

std::uint64_t fired_count(const std::string& name) {
  return metrics::Registry::global()
      .counter("failpoint." + name + ".fired")
      .value();
}

// ---- registry semantics ---------------------------------------------

TEST(FailpointRegistry, ParsesSpecsAndReportsThemAsJson) {
  auto& registry = failpoint::Registry::global();
  registry.clear();
  EXPECT_FALSE(failpoint::armed());

  registry.configure(
      "a.site=err:boom;b.site=delay:5@every=2;c.site=torn:3@once;"
      "d.site=garble:7@prob=0.5",
      42);
  EXPECT_TRUE(failpoint::armed());
  EXPECT_EQ(registry.size(), 4u);

  const std::string json = registry.to_json();
  EXPECT_NE(json.find("cwsp-failpoints-v1"), std::string::npos);
  EXPECT_NE(json.find("\"a.site\""), std::string::npos);
  EXPECT_NE(json.find("\"d.site\""), std::string::npos);

  registry.clear();
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_FALSE(failpoint::armed());
}

TEST(FailpointRegistry, MalformedSpecsThrowWithoutHalfArming) {
  auto& registry = failpoint::Registry::global();
  registry.clear();
  EXPECT_THROW(registry.configure("no_equals_sign"), ParseError);
  EXPECT_THROW(registry.configure("x=unknown_kind"), ParseError);
  EXPECT_THROW(registry.configure("x=delay:not_a_number"), ParseError);
  EXPECT_THROW(registry.configure("x=torn:-3"), ParseError);
  EXPECT_THROW(registry.configure("x=err@every=zero"), ParseError);
  // A malformed tail must not arm the valid head.
  EXPECT_THROW(registry.configure("good=err;bad"), ParseError);
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_FALSE(failpoint::armed());
}

TEST(FailpointRegistry, PoliciesFireOnceEveryAndDeterministically) {
  auto& registry = failpoint::Registry::global();
  registry.clear();
  registry.configure("one=err@once;third=err@every=3;coin=err@prob=0.5", 7);

  int one_fires = 0;
  int third_fires = 0;
  std::vector<bool> coin_a;
  for (int i = 0; i < 30; ++i) {
    if (registry.fire("one")) ++one_fires;
    if (registry.fire("third")) ++third_fires;
    coin_a.push_back(registry.fire("coin").has_value());
  }
  EXPECT_EQ(one_fires, 1);
  EXPECT_EQ(third_fires, 10);
  // An unarmed name never fires.
  EXPECT_FALSE(registry.fire("unarmed.site").has_value());

  // Identical spec + seed replays the identical prob= sequence.
  registry.clear();
  registry.configure("coin=err@prob=0.5", 7);
  std::vector<bool> coin_b;
  for (int i = 0; i < 30; ++i) {
    coin_b.push_back(registry.fire("coin").has_value());
  }
  EXPECT_EQ(coin_a, coin_b);
  registry.clear();
}

TEST(FailpointRegistry, InjectThrowsAndMutateTearsAndGarbles) {
  auto& registry = failpoint::Registry::global();
  registry.clear();
  registry.configure("boom=err:kapow;tear=torn:3;flip=garble:1");

  EXPECT_THROW(failpoint::inject("boom"), failpoint::InjectedFault);
  try {
    failpoint::inject("boom");
    FAIL() << "inject did not throw";
  } catch (const failpoint::InjectedFault& e) {
    EXPECT_STREQ(e.what(), "kapow");
  }

  std::string torn = "hello\n";
  failpoint::mutate("tear", torn);
  EXPECT_EQ(torn, "hel");
  std::string over = "ab";  // tear past the start clamps to empty
  failpoint::mutate("tear", over);
  EXPECT_EQ(over, "");

  std::string garbled = "abc";
  failpoint::mutate("flip", garbled);
  EXPECT_EQ(garbled, "aBc");

  // Unarmed sites leave payloads untouched and fires() stays false.
  std::string untouched = "data";
  failpoint::mutate("other.site", untouched);
  EXPECT_EQ(untouched, "data");
  EXPECT_FALSE(failpoint::fires("other.site"));

  registry.clear();
  // Fully disarmed, even armed names become no-ops.
  std::string after = "data";
  failpoint::mutate("tear", after);
  EXPECT_EQ(after, "data");
  EXPECT_NO_THROW(failpoint::inject("boom"));
}

// ---- campaign journal sites -----------------------------------------

class CampaignChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::Registry::global().clear();
    session_ = service::DesignSession::build("demo", kDesign, lib_);
    char tmpl[] = "/tmp/cwsp_chaos_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override { failpoint::Registry::global().clear(); }

  service::CampaignSpec spec(std::size_t runs = 12) const {
    service::CampaignSpec s;
    s.runs = runs;
    s.cycles = 8;
    s.seed = 5;
    s.jobs = 2;
    s.json = true;
    return s;
  }

  std::string journal_path() const { return dir_ + "/campaign.journal"; }

  std::string read_file(const std::string& path) const {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  }

  void write_file(const std::string& path, const std::string& bytes) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  CellLibrary lib_ = make_default_library();
  std::shared_ptr<const service::DesignSession> session_;
  std::string dir_;
};

TEST_F(CampaignChaosTest, TornAppendsAreSkippedAndReexecutedOnResume) {
  const std::string clean = service::run_campaign(*session_, spec()).output;

  // Every third strike line loses its tail mid-write.
  failpoint::Registry::global().configure(
      "campaign.journal.append=torn:9@every=3");
  service::CampaignSpec with_journal = spec();
  with_journal.journal_path = journal_path();
  const auto torn = service::run_campaign(*session_, with_journal);
  EXPECT_EQ(torn.output, clean);  // the in-memory report is undamaged
  EXPECT_GE(fired_count("campaign.journal.append"), 4u);
  failpoint::Registry::global().clear();

  // Resume with a healthy registry: damaged lines are re-executed, the
  // report converges on the clean bytes.
  const std::uint64_t resumed_before = metrics::Registry::global()
                                           .counter("campaign.strikes_resumed")
                                           .value();
  service::CampaignSpec resume = spec();
  resume.journal_path = journal_path();
  resume.resume = true;
  const auto recovered = service::run_campaign(*session_, resume);
  EXPECT_EQ(recovered.output, clean);
  const std::uint64_t resumed = metrics::Registry::global()
                                    .counter("campaign.strikes_resumed")
                                    .value() -
                                resumed_before;
  EXPECT_LT(resumed, spec().runs);  // the torn tail was NOT resumed
  EXPECT_GT(resumed, 0u);           // the intact prefix was
}

TEST_F(CampaignChaosTest, TornHeaderMakesTheJournalUnresumable) {
  failpoint::Registry::global().configure(
      "campaign.journal.header=torn:20@once");
  service::CampaignSpec with_journal = spec();
  with_journal.journal_path = journal_path();
  (void)service::run_campaign(*session_, with_journal);
  EXPECT_GE(fired_count("campaign.journal.header"), 1u);
  failpoint::Registry::global().clear();

  // The plan line lost its fingerprint: resume must refuse loudly
  // instead of silently merging foreign results.
  service::CampaignSpec resume = spec();
  resume.journal_path = journal_path();
  resume.resume = true;
  EXPECT_THROW((void)service::run_campaign(*session_, resume), Error);
}

TEST_F(CampaignChaosTest, ResumeSurvivesTruncationAtEveryByteOffset) {
  service::CampaignSpec with_journal = spec(8);
  with_journal.journal_path = journal_path();
  const std::string clean =
      service::run_campaign(*session_, with_journal).output;
  const std::string bytes = read_file(journal_path());
  ASSERT_GT(bytes.size(), 0u);

  // The header (banner + plan line) is written atomically via rename, so
  // the sweep models crashes after that point: every byte offset of the
  // strike-line region.
  const std::size_t banner_end = bytes.find('\n');
  ASSERT_NE(banner_end, std::string::npos);
  const std::size_t header_end = bytes.find('\n', banner_end + 1) + 1;
  ASSERT_GT(header_end, banner_end);

  auto& resumed_counter =
      metrics::Registry::global().counter("campaign.strikes_resumed");
  for (std::size_t cut = header_end; cut <= bytes.size(); ++cut) {
    const std::string prefix = bytes.substr(0, cut);
    write_file(journal_path(), prefix);

    // The torn tail — and only the torn tail — is re-executed: the
    // resumed count must equal the complete strike lines in the prefix.
    std::size_t parseable = 0;
    std::istringstream lines(prefix);
    std::string line;
    while (std::getline(lines, line)) {
      campaign::StrikeResult result;
      if (line.rfind("strike ", 0) == 0 &&
          campaign::parse_strike_line(line, result)) {
        ++parseable;
      }
    }

    const std::uint64_t before = resumed_counter.value();
    service::CampaignSpec resume = spec(8);
    resume.journal_path = journal_path();
    resume.resume = true;
    const auto outcome = service::run_campaign(*session_, resume);
    ASSERT_EQ(outcome.output, clean) << "truncated at byte " << cut;
    ASSERT_EQ(resumed_counter.value() - before, parseable)
        << "truncated at byte " << cut;
  }
}

TEST_F(CampaignChaosTest, LaneKernelInjectionFallsBackToScalarPath) {
  const std::string clean = service::run_campaign(*session_, spec()).output;
  failpoint::Registry::global().configure("sim.lane.run_batch=err:lane down");
  const auto outcome = service::run_campaign(*session_, spec());
  EXPECT_EQ(outcome.output, clean);
  EXPECT_GE(fired_count("sim.lane.run_batch"), 1u);
}

TEST_F(CampaignChaosTest, FailedJournalWriteOnAPooledWorkerReachesTheCaller) {
  // A budget selects the scalar kernel: 12 strikes on 2 worker threads.
  service::CampaignSpec timed = spec();
  timed.timeout_ms = 60'000.0;
  timed.journal_path = journal_path();
  failpoint::Registry::global().configure(
      "campaign.journal.append=err:disk full");
  // The campaign fails as it would inline, instead of ending the process.
  EXPECT_THROW((void)service::run_campaign(*session_, timed),
               failpoint::InjectedFault);
}

TEST(SolverChaos, InjectedSingularityEscalatesTheRecoveryLadder) {
  failpoint::Registry::global().clear();
  spice::SolverDiagnostics clean_diagnostics;
  const auto clean = spice::strike_waveform(Femtocoulombs(100.0), {}, 1500.0,
                                            &clean_diagnostics);

  failpoint::Registry::global().configure("spice.solver.linear=err@once");
  spice::SolverDiagnostics diagnostics;
  spice::Waveform wave;
  EXPECT_NO_THROW(wave = spice::strike_waveform(Femtocoulombs(100.0), {},
                                                1500.0, &diagnostics));
  EXPECT_GE(fired_count("spice.solver.linear"), 1u);
  // The ladder absorbed the singular step; the waveform is still sane.
  EXPECT_GT(wave.peak(), 0.0);
  EXPECT_NEAR(wave.peak(), clean.peak(), 0.2);
  failpoint::Registry::global().clear();
}

// ---- fabric sites ----------------------------------------------------

class FabricChaosTest : public CampaignChaosTest {
 protected:
  service::CampaignSpec fabric_spec() const {
    service::CampaignSpec s = spec(24);
    s.adversarial = true;
    return s;
  }

  fabric::FabricOptions base_options() const {
    fabric::FabricOptions options;
    // Pin the shard cut: the default derives it from the worker count,
    // so a worker-less resume would cut the plan differently than the
    // two-worker chaos run and refuse every journaled marker.
    options.shards = 6;
    options.dial.attempts = 2;
    options.dial.backoff_base_ms = 5.0;
    options.dial.backoff_cap_ms = 20.0;
    options.dial.connect_timeout_ms = 500.0;
    options.heartbeat_interval_ms = 100.0;
    options.heartbeat_timeout_ms = 800.0;
    options.worker_failure_limit = 3;
    return options;
  }
};

/// An honest in-process worker daemon on an ephemeral TCP port.
class RealWorker {
 public:
  explicit RealWorker(const CellLibrary& lib) {
    char tmpl[] = "/tmp/cwsp_chaosw_XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) throw Error("mkdtemp failed");
    service::ServerOptions options;
    options.socket_path = std::string(tmpl) + "/s";
    options.workers = 2;
    options.tcp_endpoint = "127.0.0.1:0";
    server_ = std::make_unique<service::Server>(std::move(options), lib);
    thread_ = std::thread([this] { server_->run(); });
    for (int i = 0; i < 400 && server_->tcp_port() == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (server_->tcp_port() == 0) throw Error("worker TCP port never bound");
  }

  ~RealWorker() {
    server_->request_shutdown();
    thread_.join();
  }

  [[nodiscard]] std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(server_->tcp_port());
  }

 private:
  std::unique_ptr<service::Server> server_;
  std::thread thread_;
};

TEST_F(FabricChaosTest, FullChaosScheduleStillYieldsByteIdenticalReport) {
  const std::string clean =
      service::run_campaign(*session_, fabric_spec()).output;

  // The acceptance schedule: a torn coordinator journal, a failed
  // dispatch, a garbled response frame, a missed heartbeat and delayed
  // commits — all in one distributed run against two real workers.
  failpoint::Registry::global().configure(
      "campaign.journal.shard_marker=torn:9@once;"
      "fabric.dispatch.send=err:dispatch chaos@once;"
      "fabric.dispatch.response=garble:3@once;"
      "fabric.heartbeat=err:heartbeat chaos@once;"
      "fabric.commit=delay:1@every=2",
      11);

  RealWorker w1(lib_);
  RealWorker w2(lib_);
  fabric::FabricOptions options = base_options();
  options.workers = {w1.endpoint(), w2.endpoint()};
  options.journal_path = journal_path();
  const fabric::FabricOutcome outcome = fabric::run_distributed_campaign(
      *session_, kDesign, fabric_spec(), options);

  EXPECT_EQ(outcome.outcome.output, clean);
  EXPECT_GE(fired_count("campaign.journal.shard_marker"), 1u);
  EXPECT_GE(fired_count("fabric.dispatch.send"), 1u);
  EXPECT_GE(fired_count("fabric.dispatch.response"), 1u);
  EXPECT_GE(fired_count("fabric.heartbeat"), 1u);
  EXPECT_GE(fired_count("fabric.commit"), 1u);

  // The journal carries a torn shard marker: a healthy restart must
  // re-execute exactly that shard and still converge on the clean bytes.
  failpoint::Registry::global().clear();
  fabric::FabricOptions resume = base_options();
  resume.journal_path = journal_path();
  resume.resume = true;
  const fabric::FabricOutcome recovered = fabric::run_distributed_campaign(
      *session_, kDesign, fabric_spec(), resume);
  EXPECT_EQ(recovered.outcome.output, clean);
  EXPECT_GE(recovered.stats.shards_resumed, 1u);
  EXPECT_LT(recovered.stats.shards_resumed, recovered.stats.shards_total);
}

TEST_F(FabricChaosTest, FabricJournalSurvivesTruncationAtEveryByteOffset) {
  const service::CampaignSpec small = spec(6);
  const std::string clean = service::run_campaign(*session_, small).output;

  fabric::FabricOptions seed_options = base_options();
  seed_options.journal_path = journal_path();
  ASSERT_EQ(fabric::run_distributed_campaign(*session_, kDesign, small,
                                             seed_options)
                .outcome.output,
            clean);
  const std::string bytes = read_file(journal_path());
  const std::size_t banner_end = bytes.find('\n');
  ASSERT_NE(banner_end, std::string::npos);
  const std::size_t header_end = bytes.find('\n', banner_end + 1) + 1;

  for (std::size_t cut = header_end; cut <= bytes.size(); ++cut) {
    write_file(journal_path(), bytes.substr(0, cut));
    fabric::FabricOptions resume = base_options();
    resume.journal_path = journal_path();
    resume.resume = true;
    const fabric::FabricOutcome outcome = fabric::run_distributed_campaign(
        *session_, kDesign, small, resume);
    ASSERT_EQ(outcome.outcome.output, clean) << "truncated at byte " << cut;
  }
}

TEST_F(FabricChaosTest, ExpiredCampaignDeadlineInterruptsTheFabric) {
  // A generous budget changes nothing.
  fabric::FabricOptions relaxed = base_options();
  relaxed.deadline_ms = 120'000.0;
  EXPECT_EQ(fabric::run_distributed_campaign(*session_, kDesign,
                                             fabric_spec(), relaxed)
                .outcome.output,
            service::run_campaign(*session_, fabric_spec()).output);

  // A ~zero budget interrupts between strikes instead of hanging.
  fabric::FabricOptions strict = base_options();
  strict.deadline_ms = 0.0001;
  const fabric::FabricOutcome outcome = fabric::run_distributed_campaign(
      *session_, kDesign, fabric_spec(), strict);
  EXPECT_EQ(outcome.outcome.status, campaign::CampaignStatus::kInterrupted);
}

// ---- service sites ---------------------------------------------------

class ServiceChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::Registry::global().clear(); }

  void TearDown() override {
    failpoint::Registry::global().clear();
    if (server_ != nullptr) {
      server_->request_shutdown();
      thread_.join();
    }
  }

  void start(const std::function<void(service::ServerOptions&)>& tweak = {}) {
    char tmpl[] = "/tmp/cwsp_chaoss_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    service::ServerOptions options;
    options.socket_path = dir_ + "/s";
    options.workers = 2;
    options.queue_capacity = 16;
    if (tweak) tweak(options);
    server_ = std::make_unique<service::Server>(std::move(options), lib_);
    thread_ = std::thread([this] { server_->run(); });
    for (int i = 0; i < 200; ++i) {
      try {
        service::Client probe(server_->socket_path());
        return;
      } catch (const Error&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    FAIL() << "server never came up";
  }

  service::json::Value call(service::Client& client,
                            const std::string& line) {
    client.send_line(line);
    std::string response;
    EXPECT_TRUE(client.read_line(response));
    return service::json::parse(response);
  }

  service::json::Value call(const std::string& line) {
    service::Client client(server_->socket_path());
    return call(client, line);
  }

  std::string design_field() const {
    return "\"design\":\"" + service::json::escape(kDesign) +
           "\",\"design_name\":\"demo\"";
  }

  CellLibrary lib_ = make_default_library();
  std::string dir_;
  std::unique_ptr<service::Server> server_;
  std::thread thread_;
};

TEST_F(ServiceChaosTest, FailpointsOpConfiguresInspectsAndClears) {
  start();
  service::Client client(server_->socket_path());

  auto armed = call(client,
                    R"({"id":"f1","op":"failpoints",)"
                    R"("spec":"service.enqueue=err@once","seed":3})");
  EXPECT_TRUE(armed.boolean("ok", false));
  EXPECT_NE(armed.text("payload", "").find("service.enqueue"),
            std::string::npos);

  // The armed point answers the next work op with a typed error...
  auto injected =
      call(client, R"({"id":"w1","op":"sta",)" + design_field() + "}");
  EXPECT_FALSE(injected.boolean("ok", false));
  EXPECT_EQ(injected.text("code", ""), "injected_fault");
  EXPECT_GE(fired_count("service.enqueue"), 1u);

  // ...and @once means the retry goes through untouched.
  auto retried =
      call(client, R"({"id":"w2","op":"sta",)" + design_field() + "}");
  EXPECT_TRUE(retried.boolean("ok", false));

  auto cleared =
      call(client, R"({"id":"f2","op":"failpoints","clear":true})");
  EXPECT_TRUE(cleared.boolean("ok", false));
  EXPECT_NE(cleared.text("payload", "").find("\"armed\":0"),
            std::string::npos);
  EXPECT_FALSE(failpoint::armed());
}

TEST_F(ServiceChaosTest, GarbledRequestFrameIsATypedBadRequest) {
  start();
  service::Client client(server_->socket_path());
  ASSERT_TRUE(call(client,
                   R"({"id":"f","op":"failpoints",)"
                   R"("spec":"service.read_line=garble:0@once"})")
                  .boolean("ok", false));

  // The garbled byte turns '{' into '[' — admission answers bad_request
  // instead of crashing the reader or corrupting the queue.
  auto garbled = call(client, R"({"id":"g","op":"ping"})");
  EXPECT_FALSE(garbled.boolean("ok", false));
  EXPECT_EQ(garbled.text("code", ""), "bad_request");
  EXPECT_GE(fired_count("service.read_line"), 1u);

  // The connection survives.
  EXPECT_TRUE(
      call(client, R"({"id":"p","op":"ping"})").boolean("ok", false));
}

TEST_F(ServiceChaosTest, ForcedSessionEvictionRebuildsTransparently) {
  start();
  service::Client client(server_->socket_path());
  // Warm the session cache, then force a full eviction under the next
  // lookup: the design is rebuilt, the response is unaffected. The
  // second request names a different design so it reaches the session
  // cache instead of the memoized result cache.
  ASSERT_TRUE(call(client, R"({"id":"w0","op":"sta",)" + design_field() + "}")
                  .boolean("ok", false));
  const std::uint64_t evicted_before = metrics::Registry::global()
                                           .counter("service.sessions.evictions")
                                           .value();
  ASSERT_TRUE(call(client,
                   R"({"id":"f","op":"failpoints",)"
                   R"("spec":"service.session.evict=err@once"})")
                  .boolean("ok", false));
  const std::string other =
      "\"design\":\"" +
      service::json::escape(
          "INPUT(a)\nOUTPUT(y)\nt = NOT(a)\ny = DFF(t)\n") +
      "\",\"design_name\":\"other\"";
  auto rebuilt = call(client, R"({"id":"w1","op":"sta",)" + other + "}");
  EXPECT_TRUE(rebuilt.boolean("ok", false));
  EXPECT_GE(fired_count("service.session.evict"), 1u);
  EXPECT_GT(metrics::Registry::global()
                .counter("service.sessions.evictions")
                .value(),
            evicted_before);
}

TEST_F(ServiceChaosTest, DroppedAcceptIsRetriedByTheDialingClient) {
  start([](service::ServerOptions& options) {
    options.tcp_endpoint = "127.0.0.1:0";
  });
  // Drain the accept backlog (start()'s probe connection) before arming,
  // so the failpoint hits the TCP dial below and not a stale accept.
  EXPECT_TRUE(call(R"({"id":"p0","op":"ping"})").boolean("ok", false));
  failpoint::Registry::global().configure("service.accept=err@once");

  // First TCP connection is accepted and immediately dropped — the
  // client sees EOF, not a hang.
  {
    service::Client dropped("127.0.0.1", server_->tcp_port());
    dropped.send_line(R"({"id":"p","op":"ping"})");
    std::string line;
    EXPECT_FALSE(dropped.read_line(line));
  }
  EXPECT_GE(fired_count("service.accept"), 1u);

  // The next dial lands on a healthy accept.
  service::Client retry("127.0.0.1", server_->tcp_port());
  EXPECT_TRUE(
      call(retry, R"({"id":"p2","op":"ping"})").boolean("ok", false));
}

TEST_F(ServiceChaosTest, TcpRequestsRequireTheSharedSecret) {
  start([](service::ServerOptions& options) {
    options.tcp_endpoint = "127.0.0.1:0";
    options.auth_token = "sekrit";
  });

  service::Client tcp("127.0.0.1", server_->tcp_port());
  // Liveness probes stay open (the fabric pings before authenticating)...
  EXPECT_TRUE(
      call(tcp, R"({"id":"p","op":"ping"})").boolean("ok", false));
  // ...but work ops without the token get a typed refusal,
  auto denied = call(tcp, R"({"id":"w","op":"sta",)" + design_field() + "}");
  EXPECT_FALSE(denied.boolean("ok", false));
  EXPECT_EQ(denied.text("code", ""), "unauthorized");
  // wrong tokens too,
  auto wrong = call(tcp, R"({"id":"w2","op":"sta","auth":"sekrit-not",)" +
                             design_field() + "}");
  EXPECT_EQ(wrong.text("code", ""), "unauthorized");
  // and the right token is admitted.
  auto granted = call(tcp, R"({"id":"w3","op":"sta","auth":"sekrit",)" +
                               design_field() + "}");
  EXPECT_TRUE(granted.boolean("ok", false));
  EXPECT_GE(metrics::Registry::global()
                .counter("service.requests.unauthorized")
                .value(),
            2u);

  // Unix-socket clients are local and exempt.
  EXPECT_TRUE(call(R"({"id":"u","op":"sta",)" + design_field() + "}")
                  .boolean("ok", false));
}

TEST_F(ServiceChaosTest, ExceededDeadlineIsATypedError) {
  start();
  // A microscopic budget: the job is admitted (no load history yet),
  // the campaign is interrupted by the armed token, and the response is
  // the typed deadline error — never a silent partial report.
  auto response = call(R"({"id":"d","op":"campaign","runs":200,)"
                       R"("deadline_ms":0.001,)" +
                       design_field() + "}");
  EXPECT_FALSE(response.boolean("ok", false));
  EXPECT_EQ(response.text("code", ""), "deadline_exceeded");
  EXPECT_GE(metrics::Registry::global()
                .counter("service.deadline.admitted")
                .value(),
            1u);
  EXPECT_GE(metrics::Registry::global()
                .counter("service.deadline.exceeded")
                .value(),
            1u);
}

TEST_F(ServiceChaosTest, HopelessDeadlinesAreShedAtAdmission) {
  start();
  // Teach the queue-wait histogram that p99 is ~60 s; a 10 ms deadline
  // is then hopeless and must be shed before consuming a worker.
  auto& wait_hist =
      metrics::Registry::global().histogram("service.queue_wait_us");
  for (int i = 0; i < 16; ++i) wait_hist.observe_us(60'000'000);

  auto shed = call(R"({"id":"s","op":"sta","deadline_ms":10,)" +
                   design_field() + "}");
  EXPECT_FALSE(shed.boolean("ok", false));
  EXPECT_EQ(shed.text("code", ""), "overloaded");
  EXPECT_GE(
      metrics::Registry::global().counter("service.deadline.shed").value(),
      1u);

  // Without a deadline the same request is served normally.
  EXPECT_TRUE(call(R"({"id":"n","op":"sta",)" + design_field() + "}")
                  .boolean("ok", false));
}

TEST_F(ServiceChaosTest, ShutdownDrainCancelsStragglersPastTheGrace) {
  start([](service::ServerOptions& options) {
    options.workers = 1;
    options.drain_grace_ms = 100.0;
  });
  // Park a long-running job in flight, then pull SIGTERM's lever: the
  // server must exit in bounded time with the straggler cancelled.
  service::Client client(server_->socket_path());
  client.send_line(R"({"id":"long","op":"sleep","ms":30000})");
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  const auto begin = std::chrono::steady_clock::now();
  server_->request_shutdown();
  thread_.join();
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - begin)
          .count();
  server_.reset();
  EXPECT_LT(elapsed_ms, 30'000.0);
  EXPECT_GE(
      metrics::Registry::global().counter("service.drain.cancelled").value(),
      1u);
}

}  // namespace
}  // namespace cwsp
