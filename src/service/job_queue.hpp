#pragma once
// Bounded multi-producer job queue for the analysis server.
//
// Connection reader threads push parsed requests; worker threads pop
// them. Three properties the protocol depends on:
//
//   * backpressure — the queue is bounded; try_push refuses when full and
//     the server answers `queue_full` immediately instead of buffering
//     unbounded work (the client decides whether to retry);
//   * priorities — three bands (high/normal/low), FIFO within a band, so
//     interactive probes overtake bulk sweeps without starving them
//     (bands are only drained top-down, but every accepted job is
//     eventually reached because bands are bounded too);
//   * batch extraction — pop_batch() returns the front job together with
//     every queued job sharing its coalescing key, so identical requests
//     queued behind a busy worker execute once and fan the result back
//     out per request (docs/service.md, "Request batching").
//
// Cancellation of *queued* jobs happens here (cancel() removes the job
// and hands it back so the server can answer `cancelled`); cancellation
// of in-flight jobs is the server's job — see Server::handle_cancel and
// the per-member InflightBatch state in server.hpp.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "service/json.hpp"

namespace cwsp::service {

struct LintSpec;

struct Job {
  /// Client-assigned request id (echoed in the response envelope).
  std::string id;
  /// Identifies the connection the response must go to.
  std::uint64_t conn_id = 0;
  /// 0 = high, 1 = normal, 2 = low.
  int priority = 1;
  /// Jobs with equal nonzero keys are deterministic duplicates: they may
  /// execute once and share the output. 0 = never coalesce.
  std::uint64_t batch_key = 0;
  std::string op;
  json::Value request;
  /// Resolved design payload (admission reads design_path / inline text
  /// up front so workers never touch the filesystem mid-job). Inline
  /// text is the parsed request's own string, shared rather than copied.
  std::string design_name;
  std::shared_ptr<const std::string> design_text;
  /// design_key(design_name, *design_text), resolved once at admission
  /// (SessionCache::key_of); 0 for sleep and lint.
  std::uint64_t design_key = 0;
  /// A lint job's spec, decoded (and validated) once at admission; null
  /// for every other op.
  std::shared_ptr<const LintSpec> lint;
  /// Client deadline budget, ms (0 = none). Deadline-carrying jobs never
  /// coalesce (their outcome is wall-clock dependent).
  double deadline_ms = 0.0;
  /// Absolute deadline derived at admission (max() = none); arms the
  /// executing batch's CancelToken.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Admission timestamp, feeding the service.queue_wait_us histogram.
  std::chrono::steady_clock::time_point enqueued_at =
      std::chrono::steady_clock::time_point::min();
};

class JobQueue {
 public:
  explicit JobQueue(std::size_t capacity);

  /// False when the queue is at capacity or shut down (caller answers
  /// queue_full / shutdown).
  [[nodiscard]] bool try_push(Job job);

  /// Blocks for work. Returns the front job plus all queued jobs sharing
  /// its nonzero batch key (front first). Returns an empty vector once
  /// the queue is shut down — workers exit; leftover jobs are collected
  /// with drain().
  [[nodiscard]] std::vector<Job> pop_batch();

  /// Removes a queued job (matched by connection + id) and returns it;
  /// nullopt when it is not in the queue (already executing or unknown).
  [[nodiscard]] std::optional<Job> cancel(std::uint64_t conn_id,
                                          const std::string& id);

  /// Discards every queued job owned by a vanished connection.
  void drop_connection(std::uint64_t conn_id);

  void shutdown();
  [[nodiscard]] std::vector<Job> drain();
  [[nodiscard]] std::size_t size() const;

 private:
  static constexpr int kBands = 3;

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Job> bands_[kBands];
  bool shutdown_ = false;
};

}  // namespace cwsp::service
