// Chaos tests for the distributed campaign fabric (docs/fabric.md):
// worker crashes, stragglers past their lease, byzantine results,
// unreachable fleets and coordinator crash recovery — in every case the
// merged report must stay byte-identical to the single-host run, because
// the fabric validates, merges and re-aggregates through the exact code
// path the local engine uses.
//
// Failure modes are injected with FakeWorker, a raw TCP endpoint with a
// scripted pathology (accept-then-close, accept-and-stall,
// protocol-shaped garbage); healthy workers are real in-process Servers
// on ephemeral TCP ports.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "cell/library.hpp"
#include "common/error.hpp"
#include "fabric/coordinator.hpp"
#include "service/client.hpp"
#include "service/handlers.hpp"
#include "service/json.hpp"
#include "service/net.hpp"
#include "service/server.hpp"
#include "service/session.hpp"
#include "service/spec_codec.hpp"

namespace cwsp::fabric {
namespace {

constexpr char kDesign[] =
    "INPUT(a)\nINPUT(b)\nOUTPUT(q)\n"
    "t1 = NAND(a, b)\nt2 = XOR(t1, q)\nq = DFF(t2)\n";

/// A raw TCP endpoint with a scripted pathology.
class FakeWorker {
 public:
  enum class Mode {
    kCrash,    // accept, then immediately close (SIGKILLed daemon)
    kStall,    // accept, swallow everything, never respond (frozen daemon)
    kGarbage,  // answer every line with a protocol-shaped lie
    kRecord,   // keep the request line, then close (a dying daemon)
  };

  explicit FakeWorker(Mode mode) : mode_(mode) {
    listen_fd_ = service::net::tcp_listen({"127.0.0.1", 0}, &port_);
    thread_ = std::thread([this] { loop(); });
  }

  ~FakeWorker() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    thread_.join();
    ::close(listen_fd_);
    for (const int fd : held_) ::close(fd);
  }

  [[nodiscard]] std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(port_);
  }

  /// Request lines a kRecord worker received, in arrival order.
  [[nodiscard]] std::vector<std::string> lines() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return lines_;
  }

 private:
  static bool read_request_line(int fd, std::string* line = nullptr) {
    char c = 0;
    while (::recv(fd, &c, 1, 0) == 1) {
      if (c == '\n') return true;
      if (line != nullptr) line->push_back(c);
    }
    return false;
  }

  void loop() {
    for (;;) {
      const int client = ::accept(listen_fd_, nullptr, nullptr);
      if (client < 0) return;
      switch (mode_) {
        case Mode::kCrash:
          ::close(client);
          break;
        case Mode::kStall:
          held_.push_back(client);
          break;
        case Mode::kGarbage: {
          // Well-formed envelope, garbage content: wrong fingerprint,
          // bogus strike line. Validation must reject it.
          const std::string lie =
              "{\"id\":\"x\",\"ok\":true,\"op\":\"shard_exec\","
              "\"shard_fp\":\"abad1dea\",\"strikes\":1,"
              "\"payload_kind\":\"strike-lines\","
              "\"payload\":\"strike idx=0 class=functional status=covered "
              "site=bogus cycle=0\\n\"}\n";
          while (read_request_line(client)) {
            if (::send(client, lie.data(), lie.size(), MSG_NOSIGNAL) < 0) {
              break;
            }
          }
          ::close(client);
          break;
        }
        case Mode::kRecord: {
          std::string line;
          if (read_request_line(client, &line)) {
            std::lock_guard<std::mutex> lock(mutex_);
            lines_.push_back(std::move(line));
          }
          ::close(client);
          break;
        }
      }
    }
  }

  const Mode mode_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::vector<int> held_;
  mutable std::mutex mutex_;
  std::vector<std::string> lines_;
};

/// An honest in-process worker daemon on an ephemeral TCP port.
class RealWorker {
 public:
  explicit RealWorker(const CellLibrary& lib, std::string register_with = "",
                      double register_interval_ms = 100.0) {
    char tmpl[] = "/tmp/cwsp_fab_XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) throw Error("mkdtemp failed");
    dir_ = tmpl;
    service::ServerOptions options;
    options.socket_path = dir_ + "/s";
    options.workers = 2;
    options.tcp_endpoint = "127.0.0.1:0";
    options.register_with = std::move(register_with);
    options.register_interval_ms = register_interval_ms;
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
  std::string dir_;
  std::unique_ptr<service::Server> server_;
  std::thread thread_;
};

class FabricTest : public ::testing::Test {
 protected:
  void SetUp() override {
    session_ = service::DesignSession::build("demo", kDesign, lib_);
    char tmpl[] = "/tmp/cwsp_fabj_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  service::CampaignSpec spec() const {
    service::CampaignSpec s;
    s.runs = 24;
    s.cycles = 10;
    s.seed = 7;
    s.jobs = 2;
    s.adversarial = true;
    s.json = true;
    return s;
  }

  /// The single-host reference every distributed report must match.
  std::string expected() const {
    return service::run_campaign(*session_, spec()).output;
  }

  /// Fast-failure fabric defaults so chaos tests converge quickly.
  FabricOptions base_options() const {
    FabricOptions options;
    options.dial.attempts = 2;
    options.dial.backoff_base_ms = 5.0;
    options.dial.backoff_cap_ms = 20.0;
    options.dial.connect_timeout_ms = 500.0;
    options.heartbeat_interval_ms = 100.0;
    options.heartbeat_timeout_ms = 800.0;
    options.worker_failure_limit = 2;
    return options;
  }

  FabricOutcome run(const FabricOptions& options) const {
    return run_distributed_campaign(*session_, kDesign, spec(), options);
  }

  std::string journal_path() const { return dir_ + "/fabric.journal"; }

  std::vector<std::string> journal_lines() const {
    std::ifstream in(journal_path());
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    return lines;
  }

  void write_journal_lines(const std::vector<std::string>& lines) const {
    std::ofstream out(journal_path(), std::ios::trunc);
    for (const std::string& line : lines) out << line << '\n';
  }

  /// Runs the whole campaign locally with a journal — the seed state for
  /// the recovery tests.
  FabricOutcome run_with_journal() const {
    FabricOptions options = base_options();
    options.journal_path = journal_path();
    return run(options);
  }

  CellLibrary lib_ = make_default_library();
  std::shared_ptr<const service::DesignSession> session_;
  std::string dir_;
};

TEST_F(FabricTest, DistributedReportIsByteIdenticalToSingleHost) {
  RealWorker w1(lib_);
  RealWorker w2(lib_);
  FabricOptions options = base_options();
  options.workers = {w1.endpoint(), w2.endpoint()};
  const FabricOutcome outcome = run(options);

  EXPECT_EQ(outcome.outcome.output, expected());
  EXPECT_EQ(outcome.stats.shards_remote, outcome.stats.shards_total);
  EXPECT_EQ(outcome.stats.shards_local, 0u);
  EXPECT_EQ(outcome.stats.rejected, 0u);
}

TEST_F(FabricTest, CrashedWorkerIsEvictedAndReportUnchanged) {
  RealWorker healthy(lib_);
  FakeWorker crash(FakeWorker::Mode::kCrash);
  FabricOptions options = base_options();
  options.workers = {crash.endpoint(), healthy.endpoint()};
  const FabricOutcome outcome = run(options);

  EXPECT_EQ(outcome.outcome.output, expected());
  EXPECT_GE(outcome.stats.workers_evicted, 1u);
  EXPECT_EQ(outcome.stats.shards_remote + outcome.stats.shards_local,
            outcome.stats.shards_total);
}

TEST_F(FabricTest, StragglerPastItsLeaseIsRedispatched) {
  RealWorker healthy(lib_);
  FakeWorker stall(FakeWorker::Mode::kStall);
  FabricOptions options = base_options();
  options.workers = {stall.endpoint(), healthy.endpoint()};
  options.lease_ms = 400.0;
  options.heartbeat_interval_ms = 0.0;  // isolate the lease path

  const FabricOutcome outcome = run(options);
  EXPECT_EQ(outcome.outcome.output, expected());
  EXPECT_GE(outcome.stats.redispatched, 1u);
}

TEST_F(FabricTest, GarbageResultsAreRejectedNotMerged) {
  RealWorker healthy(lib_);
  FakeWorker liar(FakeWorker::Mode::kGarbage);
  FabricOptions options = base_options();
  options.workers = {liar.endpoint(), healthy.endpoint()};
  options.heartbeat_interval_ms = 0.0;  // the liar "answers" pings too

  const FabricOutcome outcome = run(options);
  EXPECT_EQ(outcome.outcome.output, expected());
  EXPECT_GE(outcome.stats.rejected, 1u);
  EXPECT_GE(outcome.stats.workers_evicted, 1u);
}

TEST_F(FabricTest, ShardExecLineDecodesToTheCoordinatorsShard) {
  // Off-default fields a worker must reproduce exactly: a width that
  // needs all 17 digits, a non-default cell, the adversarial classes.
  service::CampaignSpec off_default = spec();
  off_default.width_ps = 412.3;
  off_default.schemes = {"tmr"};
  off_default.fault_models = {"double-set"};
  FakeWorker recorder(FakeWorker::Mode::kRecord);
  FabricOptions options = base_options();
  options.workers = {recorder.endpoint()};
  options.heartbeat_interval_ms = 0.0;
  const FabricOutcome outcome =
      run_distributed_campaign(*session_, kDesign, off_default, options);
  EXPECT_EQ(outcome.outcome.output,
            service::run_campaign(*session_, off_default).output);

  const std::vector<std::string> lines = recorder.lines();
  ASSERT_FALSE(lines.empty());
  for (const std::string& line : lines) {
    const service::json::Value request = service::json::parse(line);
    ASSERT_EQ(request.text("op", ""), "shard_exec");
    const auto decoded = service::decode<service::CampaignSpec>(request);
    service::CampaignSpec expected = off_default;
    expected.shard_index = decoded.shard_index;
    expected.shard_total = decoded.shard_total;
    EXPECT_EQ(decoded, expected) << line;
    // The worker rebuilds exactly the shard the coordinator fingerprinted
    // (run_shard_exec throws ShardMismatchError otherwise).
    const auto worker_session = service::DesignSession::build(
        request.text("design_name", ""), request.text("design", ""), lib_);
    const std::uint64_t expect_fp =
        std::stoull(request.text("expect_fp", ""), nullptr, 16);
    EXPECT_EQ(
        service::run_shard_exec(*worker_session, decoded, expect_fp)
            .shard_fingerprint,
        expect_fp);
  }
}

TEST_F(FabricTest, UnreachableFleetDegradesToLocalExecution) {
  FabricOptions options = base_options();
  options.workers = {"127.0.0.1:1"};  // nothing listens on port 1
  options.dial.attempts = 1;

  const FabricOutcome outcome = run(options);
  EXPECT_EQ(outcome.outcome.output, expected());
  EXPECT_EQ(outcome.stats.shards_local, outcome.stats.shards_total);
  EXPECT_EQ(outcome.stats.workers_evicted, 1u);
}

TEST_F(FabricTest, CoordinatorRestartResumesCompletedShards) {
  // Deterministic coordinator crash: stop after two fresh shards.
  FabricOptions options = base_options();
  options.journal_path = journal_path();
  options.stop_after_shards = 2;
  const FabricOutcome first = run(options);
  EXPECT_EQ(first.outcome.status, campaign::CampaignStatus::kInterrupted);
  EXPECT_EQ(first.stats.shards_local, 2u);

  // The restarted coordinator resumes from the journal and only executes
  // what is missing.
  FabricOptions resume = base_options();
  resume.journal_path = journal_path();
  resume.resume = true;
  const FabricOutcome second = run(resume);
  EXPECT_EQ(second.outcome.output, expected());
  EXPECT_EQ(second.stats.shards_resumed, 2u);
  EXPECT_EQ(second.stats.shards_local,
            second.stats.shards_total - 2u);
}

TEST_F(FabricTest, TruncatedJournalTailReexecutesTheTornShard) {
  ASSERT_EQ(run_with_journal().outcome.output, expected());
  std::vector<std::string> lines = journal_lines();
  // Tear mid-shard: drop the completion marker and the last strike line.
  ASSERT_GE(lines.size(), 3u);
  lines.resize(lines.size() - 2);
  write_journal_lines(lines);

  FabricOptions options = base_options();
  options.journal_path = journal_path();
  options.resume = true;
  const FabricOutcome outcome = run(options);
  EXPECT_EQ(outcome.outcome.output, expected());
  EXPECT_EQ(outcome.stats.shards_resumed, outcome.stats.shards_total - 1u);
  EXPECT_EQ(outcome.stats.shards_local, 1u);
}

TEST_F(FabricTest, DuplicateShardMarkersResumeIdempotently) {
  ASSERT_EQ(run_with_journal().outcome.output, expected());
  std::vector<std::string> lines = journal_lines();
  for (const std::string& line : journal_lines()) {
    if (line.rfind("shard ", 0) == 0) {
      lines.push_back(line);  // replay every marker a second time
    }
  }
  write_journal_lines(lines);

  FabricOptions options = base_options();
  options.journal_path = journal_path();
  options.resume = true;
  const FabricOutcome outcome = run(options);
  EXPECT_EQ(outcome.outcome.output, expected());
  EXPECT_EQ(outcome.stats.shards_resumed, outcome.stats.shards_total);
  EXPECT_EQ(outcome.stats.shards_local, 0u);
  EXPECT_EQ(outcome.stats.shards_remote, 0u);
}

TEST_F(FabricTest, MismatchedShardMarkerFingerprintForcesReexecution) {
  ASSERT_EQ(run_with_journal().outcome.output, expected());
  std::vector<std::string> lines = journal_lines();
  bool corrupted = false;
  for (std::string& line : lines) {
    if (line.rfind("shard ", 0) != 0) continue;
    const std::size_t fp = line.find("fp=");
    ASSERT_NE(fp, std::string::npos);
    const std::size_t end = line.find(' ', fp);
    line.replace(fp, end - fp, "fp=deadbeef");
    corrupted = true;
    break;
  }
  ASSERT_TRUE(corrupted);
  write_journal_lines(lines);

  FabricOptions options = base_options();
  options.journal_path = journal_path();
  options.resume = true;
  const FabricOutcome outcome = run(options);
  EXPECT_EQ(outcome.outcome.output, expected());
  EXPECT_EQ(outcome.stats.shards_resumed, outcome.stats.shards_total - 1u);
  EXPECT_EQ(outcome.stats.shards_local, 1u);
}

TEST_F(FabricTest, ForeignJournalIsRejectedOnResume) {
  ASSERT_EQ(run_with_journal().outcome.output, expected());
  FabricOptions options = base_options();
  options.journal_path = journal_path();
  options.resume = true;
  service::CampaignSpec other = spec();
  other.seed = 8;  // different plan → different campaign fingerprint
  EXPECT_THROW(
      (void)run_distributed_campaign(*session_, kDesign, other, options),
      Error);
}

TEST_F(FabricTest, DistributeRequestThroughServerFansOutToWorkers) {
  // A coordinator daemon whose campaign hook runs the fabric over its
  // registered workers, plus one worker daemon that self-registers.
  char tmpl[] = "/tmp/cwsp_fabc_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string coord_dir = tmpl;
  FabricStats observed;
  service::ServerOptions coordinator_options;
  coordinator_options.socket_path = coord_dir + "/s";
  coordinator_options.workers = 2;
  coordinator_options.distributed_campaign =
      [this, &observed](const service::DesignSession& session,
                        const std::string& design_text,
                        const service::CampaignSpec& campaign_spec,
                        const std::vector<std::string>& workers) {
        FabricOptions options = base_options();
        options.workers = workers;
        FabricOutcome outcome = run_distributed_campaign(
            session, design_text, campaign_spec, options);
        observed = outcome.stats;
        return outcome.outcome;
      };
  service::Server coordinator(std::move(coordinator_options), lib_);
  std::thread coordinator_thread([&] { coordinator.run(); });

  {
    RealWorker worker(lib_, coordinator.socket_path());
    // Wait for the worker's periodic registration to land.
    for (int i = 0; i < 400 && coordinator.registry().size() == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_GE(coordinator.registry().size(), 1u);

    service::Client client(coordinator.socket_path());
    client.send_line(
        "{\"id\":\"d\",\"op\":\"campaign\",\"distribute\":true,"
        "\"runs\":24,\"cycles\":10,\"seed\":7,\"jobs\":2,"
        "\"adversarial\":true,\"design\":\"" +
        service::json::escape(kDesign) + "\",\"design_name\":\"demo\"}");
    std::string line;
    ASSERT_TRUE(client.read_line(line));
    const service::json::Value response = service::json::parse(line);
    ASSERT_TRUE(response.boolean("ok", false))
        << response.text("error", "");
    EXPECT_EQ(response.text("payload", ""), expected());
    EXPECT_EQ(observed.shards_remote, observed.shards_total);
  }

  coordinator.request_shutdown();
  coordinator_thread.join();
}

}  // namespace
}  // namespace cwsp::fabric
