// End-to-end tests of the analysis server over a real Unix socket:
// protocol envelope, CLI/service byte-identity, backpressure, request
// coalescing + result caching, cancellation, and the shutdown metrics
// dump (docs/service.md).

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "bencharness/generator.hpp"
#include "campaign/report.hpp"
#include "cell/library.hpp"
#include "common/failpoint.hpp"
#include "common/metrics.hpp"
#include "lint/report.hpp"
#include "netlist/bench_parser.hpp"
#include "netlist/writer.hpp"
#include "scheme/compare.hpp"
#include "service/client.hpp"
#include "service/handlers.hpp"
#include "service/json.hpp"
#include "service/net.hpp"
#include "service/server.hpp"
#include "service/session.hpp"

namespace cwsp::service {
namespace {

constexpr char kDesign[] =
    "INPUT(a)\nINPUT(b)\nOUTPUT(q)\n"
    "t1 = NAND(a, b)\nt2 = XOR(t1, q)\nq = DFF(t2)\n";

std::string json_design_field() {
  return "\"design\":\"" + json::escape(kDesign) +
         "\",\"design_name\":\"demo\"";
}

/// A 160-stage inverter chain between two flip-flops: deep enough for the
/// hardened and certify lint rules to pass, and for a strike to cost a
/// long cone walk.
std::string inverter_chain() {
  std::string chain = "INPUT(a)\nOUTPUT(q)\nd0 = DFF(a)\n";
  for (int i = 1; i <= 160; ++i) {
    chain += "d" + std::to_string(i) + " = NOT(d" + std::to_string(i - 1) +
             ")\n";
  }
  return chain + "q = DFF(d160)\n";
}

std::string json_chain_field() {
  return "\"design\":\"" + json::escape(inverter_chain()) +
         "\",\"design_name\":\"chain\"";
}

/// A Unix-socket connection that writes raw bytes (Client always sends
/// whole lines) and reads response lines.
class RawConnection {
 public:
  explicit RawConnection(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
  }
  ~RawConnection() { ::close(fd_); }
  RawConnection(const RawConnection&) = delete;
  RawConnection& operator=(const RawConnection&) = delete;

  void write(std::string_view bytes) {
    EXPECT_TRUE(net::send_all(fd_, bytes));
  }
  bool read_line(std::string& line) {
    while (!framer_.next(line)) {
      if (!framer_.fill(fd_)) return false;
    }
    return true;
  }
  json::Value read_response() {
    std::string line;
    EXPECT_TRUE(read_line(line));
    return json::parse(line);
  }

 private:
  int fd_ = -1;
  net::LineFramer framer_;
};

/// Runs a server on a fresh socket in a temp dir for the test's lifetime.
class ServiceTest : public ::testing::Test {
 protected:
  void start(std::size_t workers, std::size_t queue_capacity,
             const std::function<void(ServerOptions&)>& tweak = {}) {
    char tmpl[] = "/tmp/cwsp_svc_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    ServerOptions options;
    options.socket_path = dir_ + "/s";
    options.workers = workers;
    options.queue_capacity = queue_capacity;
    options.metrics_json_path = dir_ + "/metrics.json";
    if (tweak) tweak(options);
    server_ = std::make_unique<Server>(std::move(options), lib_);
    thread_ = std::thread([this] { server_->run(); });
    // The listener binds asynchronously; wait until it accepts.
    for (int i = 0; i < 200; ++i) {
      try {
        Client probe(server_->socket_path());
        return;
      } catch (const Error&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    FAIL() << "server never came up";
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->request_shutdown();
      thread_.join();
    }
  }

  /// One-request round trip on a fresh connection.
  json::Value call(const std::string& line) {
    Client client(server_->socket_path());
    client.send_line(line);
    std::string response;
    EXPECT_TRUE(client.read_line(response));
    return json::parse(response);
  }

  CellLibrary lib_ = make_default_library();
  std::string dir_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
};

TEST_F(ServiceTest, PingEchoesIdAndPong) {
  start(1, 8);
  const auto response = call(R"({"id":"p1","op":"ping"})");
  EXPECT_EQ(response.text("id", ""), "p1");
  EXPECT_TRUE(response.boolean("ok", false));
  EXPECT_EQ(response.text("payload", ""), "pong");
}

TEST_F(ServiceTest, MalformedAndUnknownRequestsAreBadRequests) {
  start(1, 8);
  EXPECT_EQ(call("{not json").text("code", ""), "bad_request");
  EXPECT_EQ(call(R"({"id":"x","op":"frobnicate"})").text("code", ""),
            "bad_request");
  EXPECT_EQ(call(R"({"id":"x","op":"campaign"})").text("code", ""),
            "bad_request");  // no design
  // One-shot-only fields are rejected, not silently ignored.
  EXPECT_EQ(call(R"({"op":"campaign",)" + json_design_field() +
                 R"(,"journal":"/tmp/j"})")
                .text("code", ""),
            "bad_request");
}

TEST_F(ServiceTest, CampaignPayloadIsByteIdenticalToDirectExecution) {
  start(2, 8);
  const auto response =
      call(R"({"id":"c","op":"campaign","runs":6,"seed":3,)" +
           json_design_field() + "}");
  ASSERT_TRUE(response.boolean("ok", false)) << response.text("error", "");

  const auto session = DesignSession::build("demo", kDesign, lib_);
  CampaignSpec spec;
  spec.runs = 6;
  spec.seed = 3;
  const CampaignOutcome direct = run_campaign(*session, spec);
  EXPECT_EQ(response.text("payload", ""), direct.output);
  EXPECT_EQ(response.text("status", ""),
            campaign::to_string(direct.status));
}

TEST_F(ServiceTest, RetiredLegacyKernelFieldLeavesThePayloadUnchanged) {
  // Clients may still send the retired `legacy_kernel` field; it is
  // ignored like any unknown field and must not change the report.
  start(2, 8);
  const auto with_field =
      call(R"({"op":"campaign","runs":6,"seed":5,"legacy_kernel":true,)" +
           json_design_field() + "}");
  ASSERT_TRUE(with_field.boolean("ok", false)) << with_field.text("error", "");
  const auto without_field =
      call(R"({"op":"campaign","runs":6,"seed":5,)" + json_design_field() +
           "}");
  ASSERT_TRUE(without_field.boolean("ok", false));
  EXPECT_EQ(with_field.text("payload", ""), without_field.text("payload", ""));

  const auto session = DesignSession::build("demo", kDesign, lib_);
  CampaignSpec spec;
  spec.runs = 6;
  spec.seed = 5;
  EXPECT_EQ(with_field.text("payload", ""), run_campaign(*session, spec).output);
}

TEST_F(ServiceTest, StaLintCoverageMatchDirectExecution) {
  start(2, 8);
  const auto session = DesignSession::build("demo", kDesign, lib_);

  const auto sta = call(R"({"op":"sta",)" + json_design_field() + "}");
  EXPECT_EQ(sta.text("payload", ""), run_sta_report(*session));

  LintSpec lint_spec;
  lint_spec.text = kDesign;
  lint_spec.name = "demo";
  const auto lint = call(R"({"op":"lint",)" + json_design_field() + "}");
  EXPECT_EQ(lint.text("payload", ""), run_lint(lint_spec, lib_).output);

  CoverageSpec coverage_spec;
  coverage_spec.runs = 5;
  const auto coverage = call(R"({"op":"coverage","runs":5,)" +
                             json_design_field() + "}");
  EXPECT_EQ(coverage.text("payload", ""),
            run_coverage(*session, coverage_spec).output);
}

// The coverage op is a view of one campaign: its totals are the campaign
// op's for the same parameters, and --scenarios is the protection-seu
// campaign of 4 x runs strikes, broken down by §3.2 site.
TEST(CoverageOp, TotalsEqualTheCampaignOpsInBothModes) {
  const CellLibrary lib = make_default_library();
  const Netlist c880 = bench::clone_with_output_flip_flops(
      bench::generate_benchmark(bench::find_benchmark("C880"), lib).netlist);
  const std::shared_ptr<const DesignSession> sessions[] = {
      load_design_session(std::string(CWSP_EXAMPLE_DESIGNS) +
                              "/pipeline4.bench",
                          lib),
      DesignSession::build("C880", to_bench_string(c880), lib)};
  for (const auto& session : sessions) {
    for (const bool scenarios : {false, true}) {
      SCOPED_TRACE(session->name + (scenarios ? " scenarios" : " functional"));
      CoverageSpec coverage;
      coverage.runs = 60;
      coverage.scenarios = scenarios;
      CampaignSpec campaign;
      campaign.runs = scenarios ? 4 * coverage.runs : coverage.runs;
      campaign.cycles = coverage.cycles;
      if (scenarios) campaign.fault_models = {"protection-seu"};

      const CoverageOutcome outcome = run_coverage(*session, coverage);
      EXPECT_TRUE(outcome.valid);
      EXPECT_FALSE(outcome.interrupted);
      const json::Value report = json::parse(outcome.output);
      const json::Value totals =
          *json::parse(run_campaign(*session, campaign).output)
               .find("totals");
      for (const char* key : {"strikes", "escapes", "unprotected_failures",
                              "inconclusive", "coverage_pct"}) {
        EXPECT_EQ(report.number(key, -1.0), totals.number(key, -2.0)) << key;
      }
      EXPECT_EQ(report.number("strikes", 0.0),
                static_cast<double>(campaign.runs));

      const json::Array& slices = report.find("scenarios")->as_array();
      if (!scenarios) {
        ASSERT_EQ(slices.size(), 1u);
        EXPECT_EQ(slices[0].text("name", ""), "functional");
        continue;
      }
      ASSERT_EQ(slices.size(), 4u);
      double site_strikes = 0.0;
      const char* const sites[] = {"eq-checker", "eqglbf-dff", "cwstar-dff",
                                   "cwsp-output"};
      for (std::size_t i = 0; i < slices.size(); ++i) {
        EXPECT_EQ(slices[i].text("name", ""), sites[i]);
        site_strikes += slices[i].number("strikes", 0.0);
      }
      EXPECT_EQ(site_strikes, report.number("strikes", -1.0));
    }
  }
}

TEST(CoverageOp, CancelledTokenStopsItBeforeAnyStrike) {
  const CellLibrary lib = make_default_library();
  const auto session = DesignSession::build("demo", kDesign, lib);
  sim::CancelToken cancel;
  cancel.cancel();
  for (const bool scenarios : {false, true}) {
    CoverageSpec spec;
    spec.scenarios = scenarios;
    const CoverageOutcome outcome = run_coverage(*session, spec, &cancel);
    EXPECT_TRUE(outcome.interrupted);
    EXPECT_FALSE(outcome.valid);
    EXPECT_EQ(json::parse(outcome.output).number("strikes", -1.0), 0.0);
  }
}

TEST_F(ServiceTest, LintSpecDecodedAtAdmissionMatchesDirectExecution) {
  start(2, 8);
  const std::string design = json_chain_field();

  LintSpec spec;
  spec.text = inverter_chain();
  spec.name = "chain";
  spec.hardened = true;
  spec.certify = true;
  spec.json = false;
  const LintOutcome direct = run_lint(spec, lib_);
  const auto lint = call(
      R"({"op":"lint","hardened":true,"certify":true,"format":"text",)" +
      design + "}");
  ASSERT_TRUE(lint.boolean("ok", false)) << lint.text("error", "");
  EXPECT_EQ(lint.text("payload", ""), direct.output);
  EXPECT_EQ(lint.boolean("failed", !direct.failed), direct.failed);

  // The cross-field rule still refuses at admission.
  const auto refused =
      call(R"({"op":"lint","certify":true,)" + design + "}");
  EXPECT_EQ(refused.text("code", ""), "bad_request");
  EXPECT_NE(refused.text("error", "").find("'certify' requires 'hardened'"),
            std::string::npos)
      << refused.text("error", "");
}

TEST_F(ServiceTest, CertifyMatchesDirectExecution) {
  start(2, 8);
  const auto session = DesignSession::build("demo", kDesign, lib_);

  CertifySpec spec;
  const auto at_delta =
      call(R"({"op":"certify",)" + json_design_field() + "}");
  EXPECT_EQ(at_delta.text("payload", ""), run_certify(*session, spec).output);

  spec.envelope_ps = 900.0;
  const auto above_delta =
      call(R"({"op":"certify","env_width":900,)" + json_design_field() + "}");
  EXPECT_EQ(above_delta.text("payload", ""),
            run_certify(*session, spec).output);
}

TEST_F(ServiceTest, RepeatRequestsHitTheResultCache) {
  start(1, 8);
  const std::string request =
      R"({"op":"campaign","runs":4,)" + json_design_field() + "}";
  const auto first = call(request);
  const std::uint64_t hits_before =
      metrics::Registry::global().counter("service.result_cache.hits").value();
  const auto second = call(request);
  EXPECT_EQ(first.text("payload", ""), second.text("payload", ""));
  EXPECT_GT(
      metrics::Registry::global().counter("service.result_cache.hits").value(),
      hits_before);
}

TEST_F(ServiceTest, FullQueueAnswersQueueFullAndQueuedJobsCancel) {
  start(1, 1);  // one worker, one queue slot
  Client client(server_->socket_path());
  // j1 occupies the worker; j2 takes the single queue slot.
  client.send_line(R"({"id":"j1","op":"sleep","ms":400})");
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  client.send_line(R"({"id":"j2","op":"sleep","ms":400})");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // j3 finds the queue full -> immediate backpressure answer.
  client.send_line(R"({"id":"j3","op":"sleep","ms":1})");
  std::string line;
  ASSERT_TRUE(client.read_line(line));
  auto response = json::parse(line);
  EXPECT_EQ(response.text("id", ""), "j3");
  EXPECT_EQ(response.text("code", ""), "queue_full");

  // Cancel queued j2: its own response reports `cancelled`, and the
  // canceller is acknowledged.
  client.send_line(R"({"id":"k1","op":"cancel","target":"j2"})");
  // Cancel in-flight j1: the worker aborts the sleep cooperatively.
  client.send_line(R"({"id":"k2","op":"cancel","target":"j1"})");
  // Cancelling something unknown is an error, not a hang.
  client.send_line(R"({"id":"k3","op":"cancel","target":"nope"})");

  std::map<std::string, json::Value> responses;
  while (responses.size() < 5 && client.read_line(line)) {
    auto r = json::parse(line);
    responses.emplace(r.text("id", ""), std::move(r));
  }
  ASSERT_EQ(responses.size(), 5u);
  EXPECT_EQ(responses.at("j2").text("code", ""), "cancelled");
  EXPECT_EQ(responses.at("j1").text("code", ""), "cancelled");
  EXPECT_TRUE(responses.at("k1").boolean("ok", false));
  EXPECT_TRUE(responses.at("k2").boolean("ok", false));
  EXPECT_EQ(responses.at("k3").text("code", ""), "not_found");
}

TEST_F(ServiceTest, InvalidNumericFieldsAreBadRequests) {
  start(1, 8);
  // Negative / fractional / huge numerics must be rejected at admission,
  // not cast to unsigned (UB) or allowed to exhaust the daemon; zero
  // cycles or a zero delta must not reach an internal precondition.
  const auto expect_bad_request = [this](const char* op, const char* field) {
    const auto response = call(std::string(R"({"id":"n","op":")") + op +
                               "\"," + field + "," + json_design_field() +
                               "}");
    EXPECT_EQ(response.text("code", ""), "bad_request") << op << field;
    EXPECT_EQ(response.text("error", "").find("precondition failed"),
              std::string::npos)
        << response.text("error", "");
  };
  for (const char* field : {"\"runs\":-1", "\"runs\":1e18", "\"seed\":1.5",
                            "\"jobs\":4096", "\"cycles\":-3",
                            "\"cycles\":0", "\"width\":1e300",
                            "\"timeout_ms\":-5"}) {
    expect_bad_request("campaign", field);
  }
  expect_bad_request("coverage", "\"runs\":-1");
  expect_bad_request("coverage", "\"cycles\":0");
  expect_bad_request("certify", "\"delta\":0");
  expect_bad_request("lint", "\"delta\":0");
  // In-range values still work.
  EXPECT_TRUE(call(R"({"op":"campaign","runs":3,"seed":2,)" +
                   json_design_field() + "}")
                  .boolean("ok", false));
}

TEST_F(ServiceTest, TimedCampaignsBypassBatchingAndResultCache) {
  start(1, 8);
  // timeout_ms makes the report wall-clock dependent ("interrupted"
  // status), so such requests must never be coalesced or memoized.
  const std::string request =
      R"({"op":"campaign","runs":4,"timeout_ms":60000,)" +
      json_design_field() + "}";
  auto& registry = metrics::Registry::global();
  const std::uint64_t hits_before =
      registry.counter("service.result_cache.hits").value();
  const std::uint64_t misses_before =
      registry.counter("service.result_cache.misses").value();
  const auto first = call(request);
  const auto second = call(request);
  ASSERT_TRUE(first.boolean("ok", false)) << first.text("error", "");
  // Both executions ran the engine; neither consulted the cache.
  EXPECT_EQ(registry.counter("service.result_cache.hits").value(),
            hits_before);
  EXPECT_EQ(registry.counter("service.result_cache.misses").value(),
            misses_before);
  // A generous timeout never fires, so the reports still agree.
  EXPECT_EQ(first.text("payload", ""), second.text("payload", ""));
}

TEST_F(ServiceTest, BatchMemberCancelDoesNotAffectOtherConnections) {
  start(1, 8);  // one worker so both campaigns queue and coalesce
  Client a(server_->socket_path());
  Client b(server_->socket_path());

  // Occupy the worker, then queue two identical long campaigns from two
  // connections — they coalesce into one batch when the worker frees up.
  a.send_line(R"({"id":"s","op":"sleep","ms":150})");
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // Long enough to still be running when the cancel below lands 100 ms
  // after pickup: ~0.5 s on the strike-lane kernel for the inverter chain
  // (the 3-gate demo design finishes in ~0.1 s, which the cancel misses).
  const std::string campaign =
      R"({"op":"campaign","runs":400000,)" + json_chain_field() + "}";
  a.send_line(R"({"id":"a1",)" + campaign.substr(1));
  b.send_line(R"({"id":"b1",)" + campaign.substr(1));

  // The sleep response marks the worker picking up the campaign batch.
  std::string line;
  ASSERT_TRUE(a.read_line(line));
  ASSERT_EQ(json::parse(line).text("id", ""), "s");
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // A cancels its member mid-flight: only a1 is answered `cancelled`;
  // the shared execution continues and b1 still gets the real report.
  a.send_line(R"({"id":"k","op":"cancel","target":"a1"})");
  std::map<std::string, json::Value> from_a;
  while (from_a.size() < 2 && a.read_line(line)) {
    auto r = json::parse(line);
    from_a.emplace(r.text("id", ""), std::move(r));
  }
  ASSERT_EQ(from_a.size(), 2u);
  EXPECT_TRUE(from_a.at("k").boolean("ok", false));
  EXPECT_EQ(from_a.at("a1").text("code", ""), "cancelled");

  ASSERT_TRUE(b.read_line(line));
  const auto b1 = json::parse(line);
  EXPECT_EQ(b1.text("id", ""), "b1");
  EXPECT_TRUE(b1.boolean("ok", false)) << b1.text("error", "");
  EXPECT_FALSE(b1.text("payload", "").empty());
  // The shared execution ran to completion despite A's cancel.
  EXPECT_NE(b1.text("status", ""), "interrupted");
}

TEST_F(ServiceTest, MetricsRequestAndShutdownDumpShareTheDocument) {
  start(1, 8);
  (void)call(R"({"op":"ping"})");
  const auto metrics = call(R"({"op":"metrics"})");
  ASSERT_TRUE(metrics.boolean("ok", false));
  const json::Value document = json::parse(metrics.text("payload", "{}"));
  EXPECT_EQ(document.text("schema", ""), "cwsp-metrics-v1");

  const std::string dump_path = dir_ + "/metrics.json";
  server_->request_shutdown();
  thread_.join();
  server_.reset();

  std::ifstream in(dump_path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const json::Value dumped = json::parse(buffer.str());
  EXPECT_EQ(dumped.text("schema", ""), "cwsp-metrics-v1");
}

TEST_F(ServiceTest, ShutdownRequestStopsTheServer) {
  start(2, 8);
  const auto response = call(R"({"id":"s","op":"shutdown"})");
  EXPECT_TRUE(response.boolean("ok", false));
  thread_.join();
  server_.reset();
  EXPECT_THROW(Client{dir_ + "/s"}, Error);
}

TEST_F(ServiceTest, OversizedFrameIsRejectedAndConnectionClosed) {
  start(1, 8, [](ServerOptions& options) {
    options.max_frame_bytes = 1024;
  });
  Client client(server_->socket_path());
  // A newline-free request longer than the frame limit: the reader must
  // answer bad_request and drop the connection instead of buffering it.
  client.send_line(R"({"id":"big","op":"ping","pad":")" +
                   std::string(4096, 'x') + "\"}");
  std::string line;
  ASSERT_TRUE(client.read_line(line));
  const json::Value response = json::parse(line);
  EXPECT_FALSE(response.boolean("ok", true));
  EXPECT_EQ(response.text("code", ""), "bad_request");
  EXPECT_NE(response.text("error", "").find("frame limit"),
            std::string::npos);
  EXPECT_FALSE(client.read_line(line));  // connection torn down
}

// The bound holds for a frame that never ends, and for a finished line
// that arrives in one read, however large the reads are.
TEST_F(ServiceTest, FrameLimitHoldsWithOrWithoutANewline) {
  start(1, 8, [](ServerOptions& options) {
    options.max_frame_bytes = 1024;
  });
  const std::string frame =
      R"({"id":"big","op":"ping","pad":")" + std::string(4096, 'x');
  for (const std::string& bytes : {frame, frame + "\"}\n"}) {
    RawConnection client(server_->socket_path());
    client.write(bytes);
    const json::Value response = client.read_response();
    EXPECT_EQ(response.text("code", ""), "bad_request");
    EXPECT_NE(response.text("error", "").find("frame limit"),
              std::string::npos);
    std::string line;
    EXPECT_FALSE(client.read_line(line));  // connection torn down
  }
  // A line within the bound is still answered.
  RawConnection client(server_->socket_path());
  client.write(R"({"id":"small","op":"ping"})" "\n");
  EXPECT_EQ(client.read_response().text("payload", ""), "pong");
}

// However a request's bytes are split or joined on the wire, each request
// gets the payload a direct execution gives.
TEST_F(ServiceTest, RequestFramingIsIndependentOfHowBytesArrive) {
  start(1, 8);
  const auto session = DesignSession::build("demo", kDesign, lib_);
  const auto direct = [&](std::uint64_t seed) {
    CampaignSpec spec;
    spec.runs = 6;
    spec.seed = seed;
    return run_campaign(*session, spec).output;
  };
  const auto request = [](const std::string& id, std::uint64_t seed) {
    return R"({"id":")" + id + R"(","op":"campaign","runs":6,"seed":)" +
           std::to_string(seed) + "," + json_design_field() + "}";
  };

  {  // one byte per write
    RawConnection client(server_->socket_path());
    for (const char c : request("bytes", 3) + "\n") client.write({&c, 1});
    const json::Value response = client.read_response();
    EXPECT_EQ(response.text("id", ""), "bytes");
    EXPECT_EQ(response.text("payload", ""), direct(3));
  }
  {  // two requests in one write
    RawConnection client(server_->socket_path());
    client.write(request("one", 4) + "\n" + request("two", 5) + "\n");
    std::map<std::string, std::string> payloads;
    for (int i = 0; i < 2; ++i) {
      const json::Value response = client.read_response();
      payloads[response.text("id", "")] = response.text("payload", "");
    }
    EXPECT_EQ(payloads["one"], direct(4));
    EXPECT_EQ(payloads["two"], direct(5));
  }
  {  // CRLF line ending
    RawConnection client(server_->socket_path());
    client.write(request("crlf", 6) + "\r\n");
    const json::Value response = client.read_response();
    EXPECT_EQ(response.text("id", ""), "crlf");
    EXPECT_EQ(response.text("payload", ""), direct(6));
  }
}

TEST_F(ServiceTest, LargeInlineDesignArrivesInFourKilobytePieces) {
  std::string design = kDesign;
  while (design.size() < 600 * 1024) {
    design += "# padding that makes this inline design 600 KB long\n";
  }
  start(1, 8);
  const std::string line =
      R"({"id":"big","op":"campaign","runs":6,"seed":3,"design_name":"demo",)"
      R"("design":")" +
      json::escape(design) + "\"}\n";
  RawConnection client(server_->socket_path());
  for (std::size_t at = 0; at < line.size(); at += 4096) {
    client.write(std::string_view(line).substr(at, 4096));
  }
  const json::Value response = client.read_response();
  ASSERT_TRUE(response.boolean("ok", false)) << response.text("error", "");
  CampaignSpec spec;
  spec.runs = 6;
  spec.seed = 3;
  EXPECT_EQ(response.text("payload", ""),
            run_campaign(*DesignSession::build("demo", design, lib_), spec)
                .output);
}

TEST_F(ServiceTest, TcpListenerSpeaksTheSameProtocol) {
  start(1, 8, [](ServerOptions& options) {
    options.tcp_endpoint = "127.0.0.1:0";  // ephemeral port
  });
  for (int i = 0; i < 400 && server_->tcp_port() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_NE(server_->tcp_port(), 0);

  Client client("127.0.0.1", server_->tcp_port());
  client.send_line(R"({"id":"t","op":"ping"})");
  std::string line;
  ASSERT_TRUE(client.read_line(line));
  const json::Value response = json::parse(line);
  EXPECT_TRUE(response.boolean("ok", false));
  EXPECT_EQ(response.text("payload", ""), "pong");
}

TEST_F(ServiceTest, WorkerRegistryTracksRegistrationsInline) {
  start(1, 8);
  // Registration is a control op: answered inline even though the only
  // job worker is free to be busy.
  const auto ack = call(
      R"({"id":"r","op":"worker_register","endpoint":"127.0.0.1:9999"})");
  EXPECT_TRUE(ack.boolean("ok", false));

  const auto listing = call(R"({"id":"w","op":"workers"})");
  ASSERT_TRUE(listing.boolean("ok", false));
  const json::Value document = json::parse(listing.text("payload", "{}"));
  EXPECT_EQ(document.text("schema", ""), "cwsp-workers-v1");
  EXPECT_NE(listing.text("payload", "").find("127.0.0.1:9999"),
            std::string::npos);

  EXPECT_EQ(call(R"({"id":"r2","op":"worker_register"})").text("code", ""),
            "bad_request");  // endpoint is required
}

TEST_F(ServiceTest, ClientDialRetriesWithCappedBackoff) {
  // Nothing listens on port 1: every attempt fails, with one backoff
  // sleep between consecutive attempts.
  DialOptions dial;
  dial.attempts = 3;
  dial.backoff_base_ms = 1.0;
  dial.backoff_cap_ms = 2.0;
  dial.connect_timeout_ms = 200.0;
  std::vector<double> delays;
  dial.on_backoff = [&delays](double ms) { delays.push_back(ms); };
  EXPECT_THROW((void)Client::dial("127.0.0.1:1", dial), Error);
  ASSERT_EQ(delays.size(), 2u);
  for (const double ms : delays) {
    EXPECT_GT(ms, 0.0);
    EXPECT_LE(ms, 2.0);
  }

  // A reachable endpoint connects on the first attempt: no backoff.
  start(1, 8);
  delays.clear();
  const auto client = Client::dial(server_->socket_path(), dial);
  client->send_line(R"({"id":"p","op":"ping"})");
  std::string line;
  EXPECT_TRUE(client->read_line(line));
  EXPECT_TRUE(delays.empty());
}

// The framer behind both ends of a connection: every line comes out
// whole, in order and without its newline, whatever the write sizes.
TEST(LineFramer, HandsOutEveryLineWhateverTheWriteSizes) {
  const std::vector<std::string> lines = {
      "a", "", std::string(90'000, 'x'), "bc", std::string(70'000, 'y'),
      "",  "z"};
  std::string stream;
  for (const std::string& line : lines) stream += line + "\n";
  // Piece 0 sends each line and its newline as send_all's two parts.
  for (const std::size_t piece : {std::size_t{0}, std::size_t{1},
                                  std::size_t{7}, std::size_t{4096},
                                  std::size_t{65536}, stream.size()}) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    std::thread writer([&] {
      for (std::size_t at = 0; piece == 0 && at < lines.size(); ++at) {
        EXPECT_TRUE(net::send_all(fds[1], lines[at], "\n"));
      }
      for (std::size_t at = 0; piece != 0 && at < stream.size(); at += piece) {
        const std::string_view bytes =
            std::string_view(stream).substr(at, piece);
        EXPECT_TRUE(net::send_all(fds[1], bytes));
      }
      // A trailing partial line stays pending after EOF.
      EXPECT_TRUE(net::send_all(fds[1], "tail"));
      ::close(fds[1]);
    });
    net::LineFramer framer;
    std::vector<std::string> got;
    std::string line;
    do {
      while (framer.next(line)) {
        got.push_back(line);
        if (got.size() % 2 == 0) framer.recycle(line);  // as the server does
      }
    } while (framer.fill(fds[0]));
    writer.join();
    ::close(fds[0]);
    EXPECT_EQ(got, lines) << "piece " << piece;
    EXPECT_EQ(framer.pending(), 4u) << "piece " << piece;
  }
}

// A blocked sendmsg that times out returns what it wrote so far: the
// reader sleeps past the first timeout, so send_all must resume mid-head
// and still deliver both parts in order.
TEST(SendAll, DeliversBothPartsAcrossAPartialWrite) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const timeval timeout{0, 200'000};
  ASSERT_EQ(::setsockopt(fds[1], SOL_SOCKET, SO_SNDTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  const std::string head(4 << 20, 'h');  // far beyond the socket buffer
  std::string received;
  std::thread reader([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    char chunk[65536];
    for (ssize_t n; (n = ::read(fds[0], chunk, sizeof(chunk))) > 0;) {
      received.append(chunk, static_cast<std::size_t>(n));
    }
  });
  EXPECT_TRUE(net::send_all(fds[1], head, "tail\n"));
  ::close(fds[1]);
  reader.join();
  ::close(fds[0]);
  EXPECT_EQ(received.size(), head.size() + 5);
  EXPECT_TRUE(received == head + "tail\n");
}

// Every JSON writer shares one escaper: control characters in names and
// messages come out as valid JSON and parse back to the same bytes.
TEST(JsonEscape, ControlCharactersRoundTripThroughEveryReport) {
  const std::string odd = "odd\x01name\r";
  const auto first = [](const json::Value& doc, const char* array) {
    return doc.find(array)->as_array().at(0);
  };

  const CellLibrary lib = make_default_library();
  Netlist netlist = parse_bench_string(kDesign, lib);
  netlist.set_name(odd);
  const Picoseconds period{2000.0};
  set::StrikePlanOptions po;
  po.functional_strikes = 2;
  po.cycles_per_run = 4;
  po.clock_period = period;
  const auto plan = set::build_strike_plan(netlist, po, 1);
  campaign::EngineOptions opts;
  opts.cycles_per_run = 4;
  // A throwing strike carries its message into the report's diagnostic.
  opts.test_hook = [&](std::size_t, const sim::CancelToken&) {
    throw std::runtime_error(odd);
  };
  const campaign::CampaignEngine engine(
      netlist, core::ProtectionParams::q100(), period);
  const json::Value campaign_doc = json::parse(campaign::format_campaign_json(
      engine.run(plan, opts), plan, netlist, opts, period));
  EXPECT_EQ(campaign_doc.text("design", ""), odd);
  EXPECT_EQ(first(campaign_doc, "inconclusive").text("diagnostic", ""), odd);

  scheme::CompareReport compare;
  compare.design = odd;
  EXPECT_EQ(
      json::parse(scheme::format_compare_json(compare)).text("design", ""),
      odd);

  lint::LintReport lint_report;
  lint_report.design = odd;
  lint::Diagnostic diagnostic;
  diagnostic.rule_id = "rule";
  diagnostic.message = odd;
  lint_report.diagnostics.push_back(diagnostic);
  const json::Value lint_doc = json::parse(lint::format_json(lint_report));
  EXPECT_EQ(lint_doc.text("design", ""), odd);
  EXPECT_EQ(first(lint_doc, "diagnostics").text("message", ""), odd);

  // The session-level payloads name the design as well: coverage, a
  // scheme sweep and certify, under a name that also carries a quote.
  const std::string name = "we\"ird" + odd;
  const auto session = DesignSession::build(name, kDesign, lib);
  CoverageSpec coverage;
  coverage.runs = 2;
  EXPECT_EQ(json::parse(run_coverage(*session, coverage).output)
                .text("design", ""),
            name);
  CampaignSpec sweep;
  sweep.runs = 2;
  sweep.schemes = {"cwsp", "tmr"};
  EXPECT_EQ(json::parse(run_campaign(*session, sweep).output)
                .text("design", ""),
            name);
  EXPECT_EQ(json::parse(run_certify(*session, CertifySpec{}).output)
                .text("design", ""),
            name);

  failpoint::Registry& registry = failpoint::Registry::global();
  registry.configure(odd + "=err");
  const std::string points = registry.to_json();
  registry.clear();
  EXPECT_EQ(first(json::parse(points), "points").text("name", ""), odd);
}

}  // namespace
}  // namespace cwsp::service
