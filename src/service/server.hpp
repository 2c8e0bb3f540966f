#pragma once
// Persistent analysis server: a Unix-domain-socket daemon speaking
// newline-delimited JSON (docs/service.md has the protocol schema).
//
// Architecture (one box per thread kind):
//
//   accept loop ──> reader thread per connection ──> JobQueue (bounded,
//        │             (parse + admission)            prioritized)
//        │                                               │
//        │          control ops answered inline          ▼
//        │          (ping/metrics/cancel/shutdown)   worker pool
//        │                                               │
//        └── shutdown pipe                 SessionCache + result cache
//                                                        │
//                                            response on the request's
//                                            connection (id-matched)
//
// Work ops (campaign / lint / sta / coverage) run on the worker pool
// against warm per-design sessions; identical deterministic requests
// coalesce into one execution (JobQueue::pop_batch) and repeat requests
// are answered from a bounded result cache — both are sound because
// reports are byte-identical by contract, and both are observable in the
// metrics registry rather than in the payload.

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cell/library.hpp"
#include "common/cli_args.hpp"
#include "service/handlers.hpp"
#include "service/job_queue.hpp"
#include "service/session.hpp"
#include "service/worker_registry.hpp"
#include "sim/cancel.hpp"

namespace cwsp::service {

struct ServerOptions {
  std::string socket_path;
  /// Worker threads executing queued jobs (campaign jobs may additionally
  /// parallelize internally via their own `jobs` field).
  std::size_t workers = 2;
  /// Queue bound; a full queue answers `queue_full` (backpressure).
  std::size_t queue_capacity = 64;
  SessionCacheOptions cache;
  /// Bound on memoized responses for repeated deterministic requests.
  std::size_t result_cache_entries = 64;
  /// When non-empty, the final metrics registry dump is written here on
  /// shutdown (the `--metrics-json` flag).
  std::string metrics_json_path;
  /// When non-empty, additionally listen on this TCP endpoint
  /// ("host:port"; port 0 picks an ephemeral port, readable via
  /// tcp_port()) — the fabric's worker/coordinator transport.
  std::string tcp_endpoint;
  /// Largest accepted NDJSON request line; a connection whose line
  /// exceeds it, finished or still without a newline after a read, gets
  /// a `bad_request` and is closed instead of growing the buffer without
  /// bound.
  std::size_t max_frame_bytes = 8ull * 1024 * 1024;
  /// Registry eviction deadline: a worker that has not re-registered
  /// within this window is dropped from `live()` snapshots.
  double worker_ttl_ms = 15'000.0;
  /// When non-empty, periodically self-register with the coordinator at
  /// this endpoint (the `serve --register` worker mode).
  std::string register_with;
  double register_interval_ms = 2'000.0;
  /// Endpoint advertised in registrations; defaults to
  /// "127.0.0.1:<tcp_port>" when empty.
  std::string advertise_endpoint;
  /// Shared secret for the TCP listener. When non-empty, every request
  /// arriving over TCP (except `ping`, kept open for liveness probes)
  /// must carry a matching "auth" field or gets a typed `unauthorized`
  /// response. Compared constant-time. Unix-socket clients are local and
  /// exempt. Also sent with outbound registrations (`--register`).
  std::string auth_token;
  /// Shutdown drain budget, ms: after this grace, still-running jobs
  /// have their cancel tokens flipped so a SIGTERM exits in bounded time
  /// with every admitted request answered.
  double drain_grace_ms = 5'000.0;
  /// Distributed-campaign executor, wired by `cwsp_tool serve` to
  /// fabric::run_distributed_campaign. Injected as a hook so the fabric
  /// library can sit on top of the service library without a dependency
  /// cycle. Arguments: session, design text, spec, live worker endpoints.
  std::function<CampaignOutcome(const DesignSession&, const std::string&,
                                const CampaignSpec&,
                                const std::vector<std::string>&)>
      distributed_campaign;
};

/// ServerOptions from `cwsp_tool serve` flags (docs/service.md), every
/// number checked against its range before any cast: out of range throws
/// ParseError, so a bad flag exits 2 before a socket or thread exists.
/// The distributed_campaign hook is the caller's.
[[nodiscard]] ServerOptions decode_server_options(const CliArgs& args);

class Server {
 public:
  /// The library must outlive the server.
  Server(ServerOptions options, const CellLibrary& library);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket and serves until request_shutdown() (or a
  /// `shutdown` request) — then drains, joins every thread, unlinks the
  /// socket and writes the metrics dump. Throws cwsp::Error when the
  /// socket cannot be bound.
  void run();

  /// Thread-safe asynchronous stop (also wired to SIGINT/SIGTERM by the
  /// serve subcommand).
  void request_shutdown();

  [[nodiscard]] const std::string& socket_path() const {
    return options_.socket_path;
  }

  /// Actual TCP listen port once run() has bound it (0 before, and when
  /// no tcp_endpoint is configured). Thread-safe — tests and the
  /// registration thread poll it.
  [[nodiscard]] std::uint16_t tcp_port() const {
    return tcp_port_.load(std::memory_order_acquire);
  }

  [[nodiscard]] WorkerRegistry& registry() { return registry_; }

 private:
  struct Connection {
    std::uint64_t id = 0;
    int fd = -1;
    std::mutex write_mutex;
    std::atomic<bool> open{true};
    /// Accepted on the TCP listener — subject to --auth-token.
    bool untrusted = false;
  };

  struct CachedResult {
    std::uint64_t key = 0;
    std::string envelope_tail;  // everything after the "id" field
  };

  /// Cancellation state shared by every member of one executing batch.
  /// A cancel answers only the canceller's own member; the execution is
  /// aborted only once every member has been cancelled, so one client
  /// can never fail another client's coalesced request. Fields are
  /// guarded by inflight_mutex_ (the token itself is atomic).
  struct InflightBatch {
    std::shared_ptr<sim::CancelToken> token;
    std::size_t active = 0;           // members not yet cancelled
    std::set<std::string> cancelled;  // member keys already answered
  };

  struct InflightMember {
    std::shared_ptr<InflightBatch> batch;
    std::string op;  // for the member's `cancelled` error envelope
  };

  void accept_loop(const std::vector<int>& listen_fds);
  void reader_loop(std::shared_ptr<Connection> conn);
  void worker_loop();
  /// Periodically announces this worker to options_.register_with until
  /// shutdown (best effort; unreachable coordinators are retried on the
  /// next tick).
  void registration_loop();

  /// Joins reader threads whose connections have exited (called from the
  /// accept loop so a long-running daemon does not accumulate one
  /// zombie thread per closed connection).
  void reap_finished_readers();

  /// One request line: parse, answer control ops inline, enqueue work
  /// ops (admission errors answered immediately).
  void handle_line(const std::shared_ptr<Connection>& conn,
                   const std::string& line);
  void handle_cancel(const std::shared_ptr<Connection>& conn,
                     const std::string& id, const json::Value& request);

  /// Executes the front job of `batch` and answers every member.
  void execute_batch(std::vector<Job> batch);
  /// Runs one work op; returns the envelope tail (shared by the batch).
  [[nodiscard]] std::string execute_job(const Job& job,
                                        sim::CancelToken* cancel);

  /// Sends {"id":"<id>"<envelope_tail>}\n on the connection (dropped
  /// when the connection is gone).
  void respond(std::uint64_t conn_id, const std::string& id,
               const std::string& envelope_tail);
  void respond(const std::shared_ptr<Connection>& conn,
               const std::string& id, const std::string& envelope_tail);

  [[nodiscard]] std::shared_ptr<Connection> find_connection(
      std::uint64_t conn_id);

  ServerOptions options_;
  const CellLibrary* library_;
  JobQueue queue_;
  SessionCache sessions_;

  std::mutex connections_mutex_;
  std::map<std::uint64_t, std::shared_ptr<Connection>> connections_;
  std::uint64_t next_conn_id_ = 1;
  std::map<std::uint64_t, std::thread> reader_threads_;
  std::vector<std::uint64_t> finished_readers_;  // awaiting join

  std::mutex inflight_mutex_;
  std::map<std::string, InflightMember> inflight_;

  std::mutex results_mutex_;
  std::list<CachedResult> results_;  // front = most recent

  int shutdown_pipe_[2] = {-1, -1};
  std::atomic<bool> shutting_down_{false};
  std::atomic<std::uint16_t> tcp_port_{0};
  WorkerRegistry registry_;
};

}  // namespace cwsp::service
