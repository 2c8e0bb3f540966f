#pragma once
// Fault-tolerant distributed campaign fabric: the coordinator.
//
// One campaign, many boxes. The coordinator rebuilds the campaign's full
// strike plan (the same deterministic construction every execution path
// uses), cuts it into shards with set::shard_plan, and fans the shards
// out to worker daemons (`cwsp_tool serve --tcp`) over the NDJSON
// protocol's `shard_exec` op. Workers return their results as journal-
// format strike lines keyed by global plan indices; the coordinator
// validates each result against the shard's fingerprint, merges the
// lines into a full-plan slot vector and aggregates/formats it with the
// exact code the single-host engine uses — so the merged report is
// byte-identical to `cwsp_tool campaign` on one machine, no matter which
// worker ran what, in what order, or how often.
//
// Robustness model (docs/fabric.md has the full failure matrix):
//   * lease timeouts — a shard not completed within its lease returns to
//     the pending queue and is re-dispatched (straggler mitigation);
//     duplicate completions resolve deterministically: first valid wins;
//   * result validation — a shard result must carry the expected shard
//     fingerprint, the right strike count and in-range indices, or it is
//     rejected (byzantine/garbage workers cannot corrupt the report);
//   * worker eviction — consecutive transport failures or heartbeat
//     silence evict a worker from the rotation;
//   * backoff — reconnects use capped exponential backoff with
//     deterministic jitter (common/backoff.hpp);
//   * local fallback — shards nobody completes are executed in-process,
//     so "no workers reachable" degrades to a plain local campaign;
//   * journal recovery — with a journal configured, every completed
//     shard is durably recorded (strike lines + completion marker); a
//     restarted coordinator resumes from completed shards instead of
//     re-running the campaign.

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "service/client.hpp"
#include "service/handlers.hpp"

namespace cwsp::fabric {

struct FabricOptions {
  /// Worker endpoints ("host:port" or Unix socket paths).
  std::vector<std::string> workers;
  /// Shard count; 0 derives max(1, 4 × workers), capped at the plan size.
  std::size_t shards = 0;
  /// Per-shard lease: a dispatched shard not completed within this window
  /// is handed to the next free worker.
  double lease_ms = 60'000.0;
  /// Liveness probe cadence and tolerated silence. Probes are answered
  /// inline by worker reader threads, so a busy worker stays live while a
  /// frozen or dead one is evicted.
  double heartbeat_interval_ms = 500.0;
  double heartbeat_timeout_ms = 3'000.0;
  /// Consecutive transport/validation failures before a worker is
  /// evicted from the rotation.
  std::size_t worker_failure_limit = 3;
  /// Connect retry/backoff policy for worker connections.
  service::DialOptions dial;
  /// Fabric journal for coordinator crash recovery; empty disables.
  std::string journal_path;
  /// Resume from an existing fabric journal (journal_path must name it).
  bool resume = false;
  /// Execute shards nobody completed locally (in this process) once the
  /// worker phase ends. Disabling turns unfinished shards into an
  /// `interrupted` report.
  bool local_fallback = true;
  /// Stop after this many freshly completed shards (0 = no limit) — the
  /// deterministic coordinator-crash rehearsal, mirroring the engine's
  /// stop_after. With a journal, a resumed run completes the campaign.
  std::size_t stop_after_shards = 0;
  /// Shared secret sent as the `auth` field of every worker request
  /// (shard_exec dispatches). Empty sends nothing. Workers listening
  /// with `--auth-token` reject unauthenticated work requests.
  std::string auth_token;
  /// Campaign-wide wall-clock budget, ms (0 = none). The remaining
  /// budget rides each shard dispatch as `deadline_ms`, arming the
  /// worker's CancelToken; the local fallback arms its own token, so an
  /// exhausted budget degrades to an `interrupted` report instead of
  /// running long.
  double deadline_ms = 0.0;
  /// Progress/diagnostic log sink (nullptr = silent).
  std::ostream* log = nullptr;
};

struct FabricStats {
  std::size_t shards_total = 0;
  /// Shards restored from the journal without execution.
  std::size_t shards_resumed = 0;
  /// Shards completed by remote workers / by the local fallback.
  std::size_t shards_remote = 0;
  std::size_t shards_local = 0;
  /// Lease expiries that re-queued a shard.
  std::size_t redispatched = 0;
  /// Duplicate completions discarded (first valid result had won).
  std::size_t duplicates = 0;
  /// Results rejected by validation (fingerprint/count/index).
  std::size_t rejected = 0;
  /// Workers evicted (failure limit or heartbeat silence).
  std::size_t workers_evicted = 0;
  /// Total backoff sleep across worker reconnects, ms.
  double backoff_ms = 0.0;
};

struct FabricOutcome {
  service::CampaignOutcome outcome;
  FabricStats stats;
};

/// Runs `spec` distributed across `options.workers`, producing output
/// byte-identical to service::run_campaign for the same session + spec.
/// `design_text` is the design source shipped to workers (the session
/// must have been built from it). Throws cwsp::Error for configuration
/// errors (mismatched resume journal, sharded spec, timed spec).
[[nodiscard]] FabricOutcome run_distributed_campaign(
    const service::DesignSession& session, const std::string& design_text,
    const service::CampaignSpec& spec, const FabricOptions& options);

}  // namespace cwsp::fabric
