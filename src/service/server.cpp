#include "service/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/metrics.hpp"
#include "common/stopwatch.hpp"
#include "service/client.hpp"
#include "service/handlers.hpp"
#include "service/net.hpp"
#include "service/spec_codec.hpp"

namespace cwsp::service {
namespace {

std::string inflight_key(std::uint64_t conn_id, const std::string& id) {
  return std::to_string(conn_id) + "/" + id;
}

int priority_of(const json::Value& request) {
  const std::string p = request.text("priority", "normal");
  if (p == "high") return 0;
  if (p == "low") return 2;
  if (p == "normal") return 1;
  throw ParseError("unknown priority '" + p + "'");
}

/// Longest a diagnostic `sleep` may occupy a worker.
constexpr double kMaxSleepMs = 60'000.0;

/// Fills the job's design fields from `design_path` / `design` (+
/// optional `design_name`); inline text stays shared with the request.
/// Throws ParseError when absent or unreadable.
void resolve_design(const json::Value& request, Job& job) {
  if (const json::Value* path = request.find("design_path")) {
    job.design_name = design_name_from_path(path->as_string());
    job.design_text = std::make_shared<const std::string>(
        read_design_file(path->as_string()));
    return;
  }
  if (auto text = request.shared_text("design")) {
    job.design_name = request.text("design_name", "bench");
    job.design_text = std::move(text);
    return;
  }
  throw ParseError("request needs 'design_path' or inline 'design' text");
}

/// Shared-secret comparison that does not leak the mismatch position
/// through timing: scans max(len) bytes whatever the inputs.
bool constant_time_equal(const std::string& a, const std::string& b) {
  const std::size_t n = std::max(a.size(), b.size());
  unsigned char diff = a.size() == b.size() ? 0 : 1;
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned char ca =
        i < a.size() ? static_cast<unsigned char>(a[i]) : 0;
    const unsigned char cb =
        i < b.size() ? static_cast<unsigned char>(b[i]) : 0;
    diff = static_cast<unsigned char>(diff | (ca ^ cb));
  }
  return diff == 0;
}

/// shard_exec's optional `expect_fp`: a 16-hex-digit shard fingerprint.
std::optional<std::uint64_t> parse_expect_fp(const json::Value& request) {
  const std::string text = request.text("expect_fp", "");
  if (text.empty()) return std::nullopt;
  try {
    std::size_t used = 0;
    const std::uint64_t fp = std::stoull(text, &used, 16);
    if (used != text.size()) throw ParseError("");
    return fp;
  } catch (const std::exception&) {
    throw ParseError("'expect_fp' must be a hex fingerprint");
  }
}

// ---- response envelopes --------------------------------------------
// A response is one line: {"id":"<id>"<tail>}\n. The tail is id-free so
// batched requests and the result cache can share it verbatim.

std::string ok_tail(const std::string& op, const char* payload_kind,
                    const std::string& payload, const std::string& extra) {
  std::ostringstream os;
  os << ",\"ok\":true,\"op\":\"" << json::escape(op) << '"' << extra
     << ",\"payload_kind\":\"" << payload_kind << "\",\"payload\":\""
     << json::escape(payload) << "\"}";
  return os.str();
}

std::string error_tail(const std::string& op, const char* code,
                       const std::string& message) {
  std::ostringstream os;
  os << ",\"ok\":false,\"op\":\"" << json::escape(op) << "\",\"code\":\""
     << code << "\",\"error\":\"" << json::escape(message) << "\"}";
  return os.str();
}

bool tail_is_ok(const std::string& tail) {
  return tail.rfind(",\"ok\":true", 0) == 0;
}

}  // namespace

ServerOptions decode_server_options(const CliArgs& args) {
  // Counts far below anything a host could back; sizes below a terabyte.
  constexpr Bounds kCount{0, 1e6};
  constexpr Bounds kMegabytes{0, 1e6};
  constexpr double kMiB = 1024.0 * 1024.0;
  ServerOptions o;
  o.socket_path = args.text("socket", "");
  // A zero count keeps its old meaning: one worker, one queue slot, one
  // cached session.
  o.workers = std::max<std::size_t>(
      1, bounded<std::uint64_t>(args, "workers", 2, kJobs));
  o.queue_capacity = std::max<std::size_t>(
      1, bounded<std::uint64_t>(args, "queue_capacity", 64, kCount));
  o.cache.max_entries = std::max<std::size_t>(
      1, bounded<std::uint64_t>(args, "cache_entries", 8, kCount));
  o.cache.max_bytes = static_cast<std::size_t>(
      bounded(args, "cache_mb", 256.0, kMegabytes) * kMiB);
  o.result_cache_entries =
      bounded<std::uint64_t>(args, "result_cache", 64, kCount);
  o.metrics_json_path = args.text("metrics-json", "");
  o.tcp_endpoint = args.text("tcp", "");
  o.max_frame_bytes = static_cast<std::size_t>(
      bounded(args, "max_frame_mb", 8.0, kMegabytes) * kMiB);
  o.worker_ttl_ms = bounded(args, "worker_ttl_ms", 15'000.0, kMs);
  o.register_with = args.text("register", "");
  o.advertise_endpoint = args.text("advertise", "");
  o.auth_token = args.text("auth-token", "");
  // Any value is meaningful: <= 0 waits for in-flight jobs.
  o.drain_grace_ms = args.number("drain-grace-ms", 5'000.0);
  return o;
}

Server::Server(ServerOptions options, const CellLibrary& library)
    : options_(std::move(options)),
      library_(&library),
      queue_(options_.queue_capacity),
      sessions_(options_.cache) {
  CWSP_REQUIRE_MSG(!options_.socket_path.empty(),
                   "server needs a socket path");
  if (options_.workers == 0) options_.workers = 1;
  // Created before any thread can call request_shutdown, which writes it
  // from whichever thread asks: run() only reads it.
  CWSP_REQUIRE_MSG(::pipe(shutdown_pipe_) == 0, "cannot create pipe");
}

Server::~Server() {
  if (shutdown_pipe_[0] >= 0) ::close(shutdown_pipe_[0]);
  if (shutdown_pipe_[1] >= 0) ::close(shutdown_pipe_[1]);
}

void Server::request_shutdown() {
  if (shutting_down_.exchange(true)) return;
  if (shutdown_pipe_[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] const auto n = ::write(shutdown_pipe_[1], &byte, 1);
  }
}

void Server::run() {
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  CWSP_REQUIRE_MSG(listen_fd >= 0, "cannot create unix socket");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  CWSP_REQUIRE_MSG(options_.socket_path.size() < sizeof(addr.sun_path),
                   "socket path too long: " << options_.socket_path);
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ::unlink(options_.socket_path.c_str());
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listen_fd);
    throw Error("cannot bind '" + options_.socket_path +
                "': " + std::strerror(err));
  }
  CWSP_REQUIRE_MSG(::listen(listen_fd, 16) == 0, "listen failed");

  int tcp_fd = -1;
  if (!options_.tcp_endpoint.empty()) {
    net::Endpoint endpoint;
    if (!net::parse_tcp_endpoint(options_.tcp_endpoint, endpoint)) {
      ::close(listen_fd);
      throw Error("bad tcp endpoint '" + options_.tcp_endpoint +
                  "' (expected host:port)");
    }
    std::uint16_t bound = 0;
    try {
      tcp_fd = net::tcp_listen(endpoint, &bound);
    } catch (...) {
      ::close(listen_fd);
      throw;
    }
    tcp_port_.store(bound, std::memory_order_release);
  }

  std::vector<std::thread> workers;
  workers.reserve(options_.workers);
  for (std::size_t w = 0; w < options_.workers; ++w) {
    workers.emplace_back([this] { worker_loop(); });
  }
  std::thread registration;
  if (!options_.register_with.empty()) {
    registration = std::thread([this] { registration_loop(); });
  }

  std::vector<int> listen_fds{listen_fd};
  if (tcp_fd >= 0) listen_fds.push_back(tcp_fd);
  accept_loop(listen_fds);

  // ---- teardown ------------------------------------------------------
  ::close(listen_fd);
  if (tcp_fd >= 0) ::close(tcp_fd);
  ::unlink(options_.socket_path.c_str());
  if (registration.joinable()) registration.join();

  // Workers drain every accepted job before exiting (graceful stop), so
  // every admitted request gets exactly one response. The watchdog bounds
  // that drain: past the grace window it flips the cancel token of every
  // batch as it executes, so long campaigns answer `cancelled` promptly
  // and a SIGTERM always exits in bounded time.
  queue_.shutdown();
  std::atomic<bool> drained{false};
  std::thread drain_watchdog([this, &drained] {
    const auto grace = Stopwatch::deadline_after(options_.drain_grace_ms);
    auto& cancelled_counter =
        metrics::Registry::global().counter("service.drain.cancelled");
    while (!drained.load()) {
      if (Stopwatch::Clock::now() >= grace) {
        std::vector<std::shared_ptr<sim::CancelToken>> tokens;
        {
          std::lock_guard<std::mutex> lock(inflight_mutex_);
          for (auto& [key, member] : inflight_) {
            tokens.push_back(member.batch->token);
          }
        }
        for (const auto& token : tokens) {
          if (token != nullptr && !token->cancelled()) {
            token->cancel();
            cancelled_counter.add();
          }
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  for (auto& t : workers) t.join();
  drained.store(true);
  drain_watchdog.join();
  for (const Job& job : queue_.drain()) {
    respond(job.conn_id, job.id,
            error_tail(job.op, "shutdown", "server is shutting down"));
  }

  // Unblock and retire connection readers.
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (auto& [id, conn] : connections_) conns.push_back(conn);
  }
  for (const auto& conn : conns) {
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    // Wakes the blocked reader; the reader itself closes the fd.
    if (conn->open.exchange(false)) ::shutdown(conn->fd, SHUT_RDWR);
  }
  std::vector<std::thread> readers;
  {
    // Join outside the lock: readers take connections_mutex_ on exit.
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (auto& [id, t] : reader_threads_) readers.push_back(std::move(t));
    reader_threads_.clear();
    finished_readers_.clear();
  }
  for (auto& t : readers) t.join();

  if (!options_.metrics_json_path.empty()) {
    std::ofstream out(options_.metrics_json_path);
    out << metrics::Registry::global().to_json() << "\n";
  }
}

void Server::accept_loop(const std::vector<int>& listen_fds) {
  std::vector<pollfd> fds(listen_fds.size() + 1);
  for (;;) {
    for (std::size_t i = 0; i < listen_fds.size(); ++i) {
      fds[i] = {listen_fds[i], POLLIN, 0};
    }
    fds.back() = {shutdown_pipe_[0], POLLIN, 0};
    const int rc = ::poll(fds.data(), fds.size(), -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds.back().revents & POLLIN) != 0) break;
    reap_finished_readers();
    for (std::size_t i = 0; i < listen_fds.size(); ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      const int fd = ::accept(listen_fds[i], nullptr, nullptr);
      if (fd < 0) continue;
      // Chaos: a connection dropped at accept — the client sees EOF and
      // retries; no partial state may leak into the server.
      if (failpoint::fires("service.accept")) {
        ::close(fd);
        continue;
      }
      auto conn = std::make_shared<Connection>();
      conn->fd = fd;
      // listen_fds[0] is the local Unix socket; anything else is the TCP
      // listener, whose peers must present the auth token (if set).
      conn->untrusted = i != 0;
      {
        std::lock_guard<std::mutex> lock(connections_mutex_);
        conn->id = next_conn_id_++;
        connections_[conn->id] = conn;
        reader_threads_.emplace(
            conn->id, std::thread([this, conn] { reader_loop(conn); }));
      }
      metrics::Registry::global().counter("service.connections").add();
    }
  }
}

void Server::registration_loop() {
  auto& registry = metrics::Registry::global();
  while (!shutting_down_.load()) {
    // Bind order makes a startup race possible (registration thread
    // starts with the listeners); wait for the advertised port.
    const std::uint16_t port = tcp_port();
    if (port != 0 || !options_.advertise_endpoint.empty()) {
      const std::string advertised =
          options_.advertise_endpoint.empty()
              ? "127.0.0.1:" + std::to_string(port)
              : options_.advertise_endpoint;
      try {
        DialOptions dial;
        dial.attempts = 1;  // the loop itself is the retry schedule
        dial.connect_timeout_ms = options_.register_interval_ms;
        const std::unique_ptr<Client> client =
            Client::dial(options_.register_with, dial);
        std::string reg = "{\"id\":\"reg\",\"op\":\"worker_register\","
                          "\"endpoint\":\"" +
                          json::escape(advertised) + "\"";
        if (!options_.auth_token.empty()) {
          reg += ",\"auth\":\"" + json::escape(options_.auth_token) + "\"";
        }
        client->send_line(reg + "}");
        std::string response;
        (void)client->read_line_for(response,
                                    options_.register_interval_ms);
        registry.counter("service.register.sent").add();
      } catch (const std::exception&) {
        registry.counter("service.register.failed").add();
      }
    }
    // Interruptible sleep: slice the interval so shutdown is prompt.
    Stopwatch watch;
    while (!shutting_down_.load() &&
           watch.elapsed_ms() < options_.register_interval_ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
}

void Server::reap_finished_readers() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (const std::uint64_t id : finished_readers_) {
      const auto it = reader_threads_.find(id);
      if (it == reader_threads_.end()) continue;
      done.push_back(std::move(it->second));
      reader_threads_.erase(it);
    }
    finished_readers_.clear();
  }
  // The announcing thread is in its function epilogue at worst, so these
  // joins return promptly.
  for (auto& t : done) t.join();
}

void Server::reader_loop(std::shared_ptr<Connection> conn) {
  net::LineFramer framer;
  std::string line;
  // A line over the frame bound is never admitted, whether it arrived
  // whole or is still unterminated after a read: answer once with a typed
  // error and drop the connection instead of buffering an unbounded
  // (possibly adversarial) frame.
  bool oversized = false;
  while (!oversized && framer.fill(conn->fd)) {
    while (framer.next(line)) {
      if (line.size() > options_.max_frame_bytes) {
        oversized = true;
        break;
      }
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      // Chaos: a garbled inbound frame must surface as a typed
      // bad_request, never crash a reader or corrupt admission.
      failpoint::mutate("service.read_line", line);
      handle_line(conn, line);
      framer.recycle(line);  // one read buffer per connection, reused
    }
    oversized = oversized || framer.pending() > options_.max_frame_bytes;
  }
  if (oversized) {
    metrics::Registry::global()
        .counter("service.requests.oversized_frame")
        .add();
    respond(conn, "",
            error_tail("", "bad_request",
                       "request line exceeds the " +
                           std::to_string(options_.max_frame_bytes) +
                           "-byte frame limit"));
  }
  // Connection is gone: stop queued work addressed to it and retire the
  // socket. The fd is closed under the write mutex so a worker can never
  // write into a recycled descriptor.
  queue_.drop_connection(conn->id);
  {
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    conn->open.store(false);
    ::close(conn->fd);
    conn->fd = -1;
  }
  std::lock_guard<std::mutex> lock(connections_mutex_);
  connections_.erase(conn->id);
  // Announce for reaping (accept loop joins us on its next wake-up).
  finished_readers_.push_back(conn->id);
}

void Server::handle_line(const std::shared_ptr<Connection>& conn,
                         const std::string& line) {
  auto& registry = metrics::Registry::global();
  registry.counter("service.requests.total").add();

  std::string id;
  std::string op;
  try {
    const json::Value request = json::parse(line);
    if (!request.is_object()) throw ParseError("request must be an object");
    id = request.text("id", "");
    op = request.text("op", "");
    if (op.empty()) throw ParseError("request needs an 'op' field");
    registry.counter("service.requests." + op).add();

    // ---- control ops: answered inline, never queued -----------------
    if (op == "ping") {
      // Deliberately exempt from auth: liveness probes (fabric
      // heartbeats) must work without distributing the secret.
      respond(conn, id, ok_tail(op, "text", "pong", ""));
      return;
    }
    if (conn->untrusted && !options_.auth_token.empty() &&
        !constant_time_equal(request.text("auth", ""),
                             options_.auth_token)) {
      registry.counter("service.requests.unauthorized").add();
      respond(conn, id,
              error_tail(op, "unauthorized",
                         "missing or invalid 'auth' token"));
      return;
    }
    if (op == "failpoints") {
      // Chaos-harness control surface: configure/inspect/clear the
      // failpoint registry (docs/chaos.md has the spec grammar). Behind
      // the auth gate on TCP like every non-ping op.
      auto& failpoints = failpoint::Registry::global();
      if (request.boolean("clear", false)) failpoints.clear();
      const std::string spec = request.text("spec", "");
      if (!spec.empty()) {
        failpoints.configure(
            spec, bounded<std::uint64_t>(request, "seed", 1, kSeed));
      }
      respond(conn, id, ok_tail(op, "json", failpoints.to_json() + "\n", ""));
      return;
    }
    if (op == "metrics") {
      respond(conn, id, ok_tail(op, "json", registry.to_json() + "\n", ""));
      return;
    }
    if (op == "shutdown") {
      respond(conn, id, ok_tail(op, "text", "shutting down", ""));
      request_shutdown();
      return;
    }
    if (op == "cancel") {
      handle_cancel(conn, id, request);
      return;
    }
    if (op == "worker_register") {
      // Inline so registrations land even while every job worker is busy
      // with shards — liveness must not queue behind work.
      const std::string endpoint = request.text("endpoint", "");
      if (endpoint.empty()) {
        throw ParseError("worker_register needs an 'endpoint'");
      }
      const std::size_t count = registry_.upsert(endpoint);
      respond(conn, id,
              ok_tail(op, "text", "registered",
                      ",\"workers\":" + std::to_string(count)));
      return;
    }
    if (op == "workers") {
      respond(conn, id,
              ok_tail(op, "json",
                      registry_.to_json(options_.worker_ttl_ms) + "\n", ""));
      return;
    }

    // ---- work ops: admission + enqueue ------------------------------
    if (op != "campaign" && op != "lint" && op != "sta" &&
        op != "coverage" && op != "certify" && op != "compare" &&
        op != "sleep" && op != "shard_exec") {
      throw ParseError("unknown op '" + op + "'");
    }

    Job job;
    job.id = id;
    job.conn_id = conn->id;
    job.priority = priority_of(request);
    job.op = op;
    job.request = request;
    if (op != "sleep") {
      resolve_design(request, job);
      // Lint decodes its own design and is never cached: it needs no key.
      if (op != "lint") {
        job.design_key = sessions_.key_of(job.design_name, *job.design_text);
      }
      const std::uint64_t dkey = job.design_key;
      if (op == "campaign") {
        const auto spec = decode<CampaignSpec>(request);
        // A timed campaign may legitimately stop early ("interrupted"),
        // which makes its report wall-clock dependent — it is not a
        // deterministic function of the spec, so it must be neither
        // coalesced nor memoized (batch_key 0).
        job.batch_key = spec.timeout_ms > 0.0
                            ? 0
                            : campaign_spec_fingerprint(spec, dkey);
      } else if (op == "shard_exec") {
        const auto spec = decode<CampaignSpec>(request);
        if (spec.shard_total == 0) {
          throw ParseError("shard_exec needs shard_index and shard_total");
        }
        if (spec.timeout_ms > 0.0) {
          throw ParseError("shard_exec does not accept timeout_ms");
        }
        parse_expect_fp(request);  // validate format at admission
        job.batch_key = shard_exec_fingerprint(spec, dkey);
      } else if (op == "coverage") {
        job.batch_key =
            coverage_spec_fingerprint(decode<CoverageSpec>(request), dkey);
      } else if (op == "sta") {
        job.batch_key = sta_fingerprint(dkey);
      } else if (op == "certify") {
        job.batch_key =
            certify_spec_fingerprint(decode<CertifySpec>(request), dkey);
      } else if (op == "compare") {
        job.batch_key =
            compare_spec_fingerprint(decode<CompareSpec>(request), dkey);
      } else {
        job.lint = std::make_shared<const LintSpec>(decode<LintSpec>(request));
      }
    }

    // ---- deadline admission -----------------------------------------
    // A deadline-carrying job is wall-clock dependent: it must not
    // coalesce with (or be memoized for) an unbounded twin. When the
    // queue's own p99 history says the deadline cannot be met, shed at
    // admission with a typed `overloaded` instead of burning a worker on
    // a response the client has already written off.
    const double deadline_ms =
        bounded(request, "deadline_ms", 0.0, kMs);
    if (deadline_ms > 0.0) {
      constexpr std::uint64_t kMinShedSamples = 16;
      double estimate_us = 0.0;
      const auto& wait_hist = registry.histogram("service.queue_wait_us");
      if (wait_hist.count() >= kMinShedSamples) {
        estimate_us += static_cast<double>(wait_hist.quantile_us(0.99));
      }
      const auto& op_hist = registry.histogram("service.latency_us." + op);
      if (op_hist.count() >= kMinShedSamples) {
        estimate_us += static_cast<double>(op_hist.quantile_us(0.99));
      }
      if (estimate_us > deadline_ms * 1000.0) {
        registry.counter("service.deadline.shed").add();
        respond(conn, id,
                error_tail(op, "overloaded",
                           "p99 queue wait + execution latency "
                           "exceed the deadline; shed at admission"));
        return;
      }
      registry.counter("service.deadline.admitted").add();
      job.deadline_ms = deadline_ms;
      job.deadline = Stopwatch::deadline_after(deadline_ms);
      job.batch_key = 0;
    }
    job.enqueued_at = Stopwatch::Clock::now();

    // Chaos: an admission-side fault after parsing — the request must
    // get exactly one typed `injected_fault` response.
    CWSP_FAILPOINT("service.enqueue");
    if (!queue_.try_push(std::move(job))) {
      if (shutting_down_.load()) {
        respond(conn, id,
                error_tail(op, "shutdown", "server is shutting down"));
      } else {
        respond(conn, id,
                error_tail(op, "queue_full",
                           "job queue is at capacity; retry "
                           "later or lower the request rate"));
      }
    }
  } catch (const ParseError& e) {
    respond(conn, id, error_tail(op, "bad_request", e.what()));
  } catch (const failpoint::InjectedFault& e) {
    respond(conn, id, error_tail(op, "injected_fault", e.what()));
  } catch (const std::exception& e) {
    respond(conn, id, error_tail(op, "internal", e.what()));
  }
}

void Server::handle_cancel(const std::shared_ptr<Connection>& conn,
                           const std::string& id,
                           const json::Value& request) {
  const std::string target = request.text("target", "");
  if (target.empty()) throw ParseError("cancel needs a 'target' request id");

  if (std::optional<Job> job = queue_.cancel(conn->id, target)) {
    // The queued job never ran; answer it, then acknowledge.
    respond(job->conn_id, job->id,
            error_tail(job->op, "cancelled", "cancelled while queued"));
    respond(conn, id, ok_tail("cancel", "text", "cancelled-queued", ""));
    metrics::Registry::global().counter("service.cancelled.queued").add();
    return;
  }
  // In flight: answer only the canceller's own batch member. The
  // execution itself — possibly shared with other connections' coalesced
  // requests — is aborted only when every member has been cancelled.
  bool found = false;
  std::string op;
  std::shared_ptr<sim::CancelToken> abort;
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    const auto it = inflight_.find(inflight_key(conn->id, target));
    if (it != inflight_.end()) {
      found = true;
      op = it->second.op;
      InflightBatch& batch = *it->second.batch;
      batch.cancelled.insert(it->first);
      if (--batch.active == 0) abort = batch.token;
      inflight_.erase(it);
    }
  }
  if (found) {
    if (abort != nullptr) abort->cancel();
    respond(conn->id, target,
            error_tail(op, "cancelled", "cancelled in flight"));
    respond(conn, id, ok_tail("cancel", "text", "cancelling-inflight", ""));
    metrics::Registry::global().counter("service.cancelled.inflight").add();
    return;
  }
  respond(conn, id,
          error_tail("cancel", "not_found",
                     "no queued or in-flight request '" + target + "'"));
}

void Server::worker_loop() {
  for (;;) {
    std::vector<Job> batch = queue_.pop_batch();
    if (batch.empty()) return;
    execute_batch(std::move(batch));
  }
}

void Server::execute_batch(std::vector<Job> batch) {
  auto& registry = metrics::Registry::global();
  const Job& front = batch.front();
  Stopwatch watch;

  // Queue-wait telemetry: the admission-time shed decision reads this
  // histogram's p99 back.
  {
    const auto now = Stopwatch::Clock::now();
    auto& wait_hist = registry.histogram("service.queue_wait_us");
    for (const Job& job : batch) {
      if (job.enqueued_at == Stopwatch::Clock::time_point::min()) continue;
      const auto waited = std::chrono::duration_cast<std::chrono::microseconds>(
          now - job.enqueued_at);
      wait_hist.observe_us(
          waited.count() > 0 ? static_cast<std::uint64_t>(waited.count()) : 0);
    }
  }

  // Repeat of an already-answered deterministic request? Serve the
  // memoized envelope. The tail is copied out under the lock and sent
  // after release so a slow client cannot stall other workers on
  // results_mutex_.
  if (front.batch_key != 0) {
    std::string cached;
    {
      std::lock_guard<std::mutex> lock(results_mutex_);
      for (auto it = results_.begin(); it != results_.end(); ++it) {
        if (it->key == front.batch_key) {
          results_.splice(results_.begin(), results_, it);
          cached = results_.front().envelope_tail;
          break;
        }
      }
    }
    if (!cached.empty()) {
      registry.counter("service.result_cache.hits").add(batch.size());
      for (const Job& job : batch) respond(job.conn_id, job.id, cached);
      registry.histogram("service.latency_us." + front.op)
          .observe_ms(watch.elapsed_ms());
      return;
    }
    registry.counter("service.result_cache.misses").add();
  }

  auto state = std::make_shared<InflightBatch>();
  state->token = std::make_shared<sim::CancelToken>();
  // A deadline-carrying job never coalesces (batch_key 0 at admission),
  // so arming the front job's deadline governs exactly one request. The
  // token's deadline is what EngineOptions::cancel polls downstream.
  if (front.deadline != Stopwatch::Clock::time_point::max()) {
    state->token->set_deadline(front.deadline);
  }
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    state->active = batch.size();
    for (const Job& job : batch) {
      inflight_[inflight_key(job.conn_id, job.id)] =
          InflightMember{state, job.op};
    }
  }
  std::string tail = execute_job(front, state->token.get());
  if (front.deadline != Stopwatch::Clock::time_point::max() &&
      Stopwatch::Clock::now() >= front.deadline) {
    // Whatever execute_job produced, the client's budget is gone — the
    // typed answer keeps late success and cancellation distinguishable
    // from an ordinary failure.
    registry.counter("service.deadline.exceeded").add();
    tail = error_tail(front.op, "deadline_exceeded",
                      "deadline of " + std::to_string(front.deadline_ms) +
                          " ms exceeded");
  }
  // Members cancelled mid-flight were already answered `cancelled` by
  // handle_cancel and must not receive a second response.
  std::set<std::string> cancelled;
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    for (const Job& job : batch) {
      inflight_.erase(inflight_key(job.conn_id, job.id));
    }
    cancelled.swap(state->cancelled);
  }

  if (front.batch_key != 0 && tail_is_ok(tail)) {
    std::lock_guard<std::mutex> lock(results_mutex_);
    results_.push_front(CachedResult{front.batch_key, tail});
    while (results_.size() > options_.result_cache_entries) {
      results_.pop_back();
    }
  }

  std::size_t answered = 0;
  for (const Job& job : batch) {
    if (cancelled.count(inflight_key(job.conn_id, job.id)) != 0) continue;
    respond(job.conn_id, job.id, tail);
    ++answered;
  }
  if (answered != 0) {
    registry.counter(tail_is_ok(tail) ? "service.responses.ok"
                                      : "service.responses.error")
        .add(answered);
  }
  registry.histogram("service.latency_us." + front.op)
      .observe_ms(watch.elapsed_ms());
}

std::string Server::execute_job(const Job& job, sim::CancelToken* cancel) {
  try {
    if (job.op == "sleep") {
      // Diagnostic op: occupies a worker for a bounded time so tests can
      // fill the queue / exercise cancellation deterministically.
      const double ms =
          bounded(job.request, "ms", 10.0, Bounds{0, kMaxSleepMs});
      Stopwatch watch;
      while (watch.elapsed_ms() < ms) {
        if (cancel != nullptr && cancel->cancelled()) {
          return error_tail(job.op, "cancelled", "cancelled while sleeping");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return ok_tail(job.op, "text", "slept", "");
    }

    if (job.op == "lint") {
      const LintSpec& spec = *job.lint;
      const LintOutcome outcome = run_lint(spec, *library_);
      return ok_tail(job.op, spec.json ? "json" : "text", outcome.output,
                     outcome.failed ? ",\"failed\":true"
                                    : ",\"failed\":false");
    }

    const std::shared_ptr<const DesignSession> session =
        sessions_.get_or_build(job.design_name, job.design_text,
                               job.design_key, *library_);

    if (job.op == "sta") {
      return ok_tail(job.op, "text", run_sta_report(*session), "");
    }
    if (job.op == "coverage") {
      const auto spec = decode<CoverageSpec>(job.request);
      const CoverageOutcome outcome = run_coverage(*session, spec, cancel);
      if (cancel != nullptr && cancel->cancelled() && outcome.interrupted) {
        return error_tail(job.op, "cancelled", "coverage cancelled in flight");
      }
      return ok_tail(job.op, spec.json ? "json" : "text", outcome.output,
                     outcome.valid ? ",\"valid\":true" : ",\"valid\":false");
    }
    if (job.op == "certify") {
      const auto spec = decode<CertifySpec>(job.request);
      const CertifyOutcome outcome = run_certify(*session, spec);
      return ok_tail(job.op, spec.json ? "json" : "text", outcome.output,
                     ",\"escapes\":" + std::to_string(outcome.escapes) +
                         ",\"unknowns\":" + std::to_string(outcome.unknowns));
    }
    if (job.op == "compare") {
      const auto spec = decode<CompareSpec>(job.request);
      const CompareOutcome outcome = run_compare(*session, spec);
      return ok_tail(job.op, spec.json ? "json" : "text", outcome.output,
                     ",\"unexpected_escapes\":" +
                         std::to_string(outcome.unexpected_escapes));
    }
    if (job.op == "shard_exec") {
      const auto spec = decode<CampaignSpec>(job.request);
      const ShardExecOutcome outcome = run_shard_exec(
          *session, spec, parse_expect_fp(job.request), cancel);
      return ok_tail(job.op, "strike-lines", outcome.payload,
                     ",\"shard_fp\":\"" +
                         fingerprint_hex(outcome.shard_fingerprint) +
                         "\",\"strikes\":" +
                         std::to_string(outcome.strikes));
    }
    // campaign
    const auto spec = decode<CampaignSpec>(job.request);
    CampaignOutcome outcome;
    if (spec.distribute && options_.distributed_campaign) {
      const std::vector<std::string> workers =
          registry_.live(options_.worker_ttl_ms);
      outcome = options_.distributed_campaign(*session, *job.design_text,
                                              spec, workers);
    } else {
      outcome = run_campaign(*session, spec, cancel);
    }
    if (cancel != nullptr && cancel->cancelled() &&
        outcome.status == campaign::CampaignStatus::kInterrupted) {
      return error_tail(job.op, "cancelled", "campaign cancelled in flight");
    }
    return ok_tail(job.op, spec.json ? "json" : "text", outcome.output,
                   std::string(",\"status\":\"") +
                       campaign::to_string(outcome.status) + '"');
  } catch (const sim::CancelledError& e) {
    return error_tail(job.op, "cancelled", e.what());
  } catch (const ShardMismatchError& e) {
    return error_tail(job.op, "fp_mismatch", e.what());
  } catch (const ParseError& e) {
    return error_tail(job.op, "bad_request", e.what());
  } catch (const Error& e) {
    return error_tail(job.op, "error", e.what());
  } catch (const std::exception& e) {
    return error_tail(job.op, "internal", e.what());
  }
}

void Server::respond(std::uint64_t conn_id, const std::string& id,
                     const std::string& envelope_tail) {
  const std::shared_ptr<Connection> conn = find_connection(conn_id);
  if (conn == nullptr) return;
  respond(conn, id, envelope_tail);
}

void Server::respond(const std::shared_ptr<Connection>& conn,
                     const std::string& id,
                     const std::string& envelope_tail) {
  const std::string line =
      "{\"id\":\"" + json::escape(id) + '"' + envelope_tail + "\n";
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  if (conn->open.load() && !net::send_all(conn->fd, line)) {
    conn->open.store(false);
  }
}

std::shared_ptr<Server::Connection> Server::find_connection(
    std::uint64_t conn_id) {
  std::lock_guard<std::mutex> lock(connections_mutex_);
  const auto it = connections_.find(conn_id);
  return it == connections_.end() ? nullptr : it->second;
}

}  // namespace cwsp::service
