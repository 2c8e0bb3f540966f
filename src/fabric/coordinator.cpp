#include "fabric/coordinator.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include "campaign/campaign.hpp"
#include "campaign/journal.hpp"
#include "common/backoff.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/metrics.hpp"
#include "common/stopwatch.hpp"
#include "service/json.hpp"
#include "service/spec_codec.hpp"
#include "sim/cancel.hpp"

namespace cwsp::fabric {
namespace {

using campaign::StrikeResult;
using service::Client;

enum class ShardState : std::uint8_t { kPending, kLeased, kDone };

/// Liveness and failure accounting for one worker endpoint. `evicted`
/// and `failures` are shared between the worker's agent thread and the
/// heartbeat monitor; `heartbeat_misses` is monitor-private.
struct WorkerState {
  explicit WorkerState(std::string e) : endpoint(std::move(e)) {}
  const std::string endpoint;
  std::atomic<bool> evicted{false};
  std::atomic<std::size_t> failures{0};
  std::size_t heartbeat_misses = 0;
};

/// Everything the dispatch threads share, guarded by `mutex` (atomics in
/// WorkerState aside).
struct Dispatch {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::size_t> pending;
  std::vector<ShardState> state;
  std::vector<Stopwatch::Clock::time_point> lease_deadline;
  std::vector<StrikeResult>* slots = nullptr;
  std::size_t done = 0;
  std::size_t fresh_done = 0;
  bool stop = false;
  FabricStats stats;
  double accumulated_backoff_ms = 0.0;
  /// Campaign-wide deadline (time_point::max() = none); dispatches carry
  /// the remaining budget and the monitor stops the remote phase when it
  /// expires.
  Stopwatch::Clock::time_point deadline = Stopwatch::Clock::time_point::max();
};

/// Remaining wall-clock budget in ms, floored at 1 so an expiring
/// deadline still round-trips as an armed (and instantly expiring)
/// deadline on the worker instead of silently dropping off the request.
double remaining_deadline_ms(const Dispatch& dispatch) {
  if (dispatch.deadline == Stopwatch::Clock::time_point::max()) return 0.0;
  const double remaining =
      std::chrono::duration<double, std::milli>(dispatch.deadline -
                                                Stopwatch::Clock::now())
          .count();
  return std::max(1.0, remaining);
}

struct PlanContext {
  const set::StrikePlan* full_plan = nullptr;
  std::vector<set::StrikePlan> shards;
  std::vector<std::size_t> shard_begin;
  std::vector<std::uint64_t> shard_fp;
  std::unordered_map<std::size_t, std::size_t> position_of;
  std::uint64_t full_fp = 0;
};

void fabric_log(const FabricOptions& options, const std::string& message) {
  if (options.log != nullptr) *options.log << "fabric: " << message << "\n";
}

/// Builds the shard_exec request line for shard `s` (1-based on the
/// wire). The spec fields come from the spec codec's encoder, the one
/// mapping the worker's decoder inverts. The design text travels inline so
/// workers need no shared filesystem.
std::string shard_request(const service::DesignSession& session,
                          const std::string& design_text,
                          const service::CampaignSpec& spec,
                          const FabricOptions& options,
                          const PlanContext& ctx, std::size_t s,
                          double deadline_ms) {
  namespace json = service::json;
  // Only what the worker executes travels: its own output format and
  // fabric role are not the coordinator's.
  service::CampaignSpec wire = spec;
  wire.json = true;
  wire.distribute = false;
  wire.deadline_ms = deadline_ms;
  wire.shard_index = s + 1;
  wire.shard_total = ctx.shards.size();
  std::string line = "{\"id\":\"shard-" + std::to_string(s) +
                     "\",\"op\":\"shard_exec\"" + service::encode(wire) +
                     ",\"design\":\"" + json::escape(design_text) +
                     "\",\"design_name\":\"" + json::escape(session.name) +
                     '"';
  if (!options.auth_token.empty()) {
    line += ",\"auth\":\"" + json::escape(options.auth_token) + '"';
  }
  return line + ",\"expect_fp\":\"" +
         service::fingerprint_hex(ctx.shard_fp[s]) + "\"}";
}

/// Parses and validates a worker's shard_exec response payload against
/// shard `s`: every strike line must parse, land inside the shard, and
/// the shard must come back complete with the expected fingerprint.
/// Returns the shard's results (shard order) or nullopt.
std::optional<std::vector<StrikeResult>> validate_shard_payload(
    const PlanContext& ctx, std::size_t s, std::uint64_t reported_fp,
    const std::string& payload) {
  if (reported_fp != ctx.shard_fp[s]) return std::nullopt;
  const set::StrikePlan& shard = ctx.shards[s];
  std::vector<StrikeResult> results(shard.size());
  std::vector<char> seen(shard.size(), 0);
  std::size_t count = 0;
  std::size_t pos = 0;
  while (pos < payload.size()) {
    std::size_t end = payload.find('\n', pos);
    if (end == std::string::npos) end = payload.size();
    const std::string line = payload.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;
    StrikeResult r;
    if (!campaign::parse_strike_line(line, r)) return std::nullopt;
    const auto it = ctx.position_of.find(r.index);
    if (it == ctx.position_of.end()) return std::nullopt;
    const std::size_t begin = ctx.shard_begin[s];
    if (it->second < begin || it->second >= begin + shard.size()) {
      return std::nullopt;
    }
    const std::size_t local = it->second - begin;
    if (seen[local] != 0) return std::nullopt;
    seen[local] = 1;
    results[local] = std::move(r);
    ++count;
  }
  if (count != shard.size()) return std::nullopt;
  return results;
}

/// Records a completed shard: fills the full-plan slots, journals the
/// shard block, flips the state machine. First valid result wins —
/// duplicate completions (a straggler finishing after its lease was
/// re-dispatched) are counted and dropped. Returns false on duplicate.
bool commit_shard(Dispatch& dispatch, const PlanContext& ctx, std::size_t s,
                  const std::vector<StrikeResult>& results, bool remote,
                  double latency_ms, campaign::JournalWriter* writer,
                  const FabricOptions& options) {
  // Chaos: a `delay` here widens the window in which a straggler's
  // duplicate completion races the winner's commit.
  failpoint::fires("fabric.commit");
  std::unique_lock<std::mutex> lock(dispatch.mutex);
  if (dispatch.state[s] == ShardState::kDone) {
    ++dispatch.stats.duplicates;
    return false;
  }
  const std::size_t begin = ctx.shard_begin[s];
  for (std::size_t k = 0; k < results.size(); ++k) {
    (*dispatch.slots)[begin + k] = results[k];
  }
  dispatch.state[s] = ShardState::kDone;
  ++dispatch.done;
  ++dispatch.fresh_done;
  if (remote) {
    ++dispatch.stats.shards_remote;
  } else {
    ++dispatch.stats.shards_local;
  }
  if (options.stop_after_shards != 0 &&
      dispatch.fresh_done >= options.stop_after_shards) {
    dispatch.stop = true;
  }
  lock.unlock();

  if (writer != nullptr) {
    campaign::ShardRecord record;
    record.index = s;
    record.total = ctx.shards.size();
    record.fingerprint = ctx.shard_fp[s];
    record.begin = ctx.full_plan->strikes[begin].index;
    record.count = results.size();
    writer->append_shard(record, results);
  }
  metrics::Registry::global()
      .histogram("fabric.shard_latency_us")
      .observe_ms(latency_ms);
  dispatch.cv.notify_all();
  return true;
}

/// Returns a leased shard to the pending queue (transport failure or
/// rejected result) so another worker can pick it up.
void unclaim_shard(Dispatch& dispatch, std::size_t s) {
  std::lock_guard<std::mutex> lock(dispatch.mutex);
  if (dispatch.state[s] != ShardState::kLeased) return;
  dispatch.state[s] = ShardState::kPending;
  dispatch.pending.push_back(s);
  dispatch.cv.notify_all();
}

/// One worker's dispatch agent: claim a pending shard, lease it, execute
/// it remotely, commit or re-queue. Exits when the campaign is done, the
/// coordinator stops, or the worker is evicted.
void agent_loop(const service::DesignSession& session,
                const std::string& design_text,
                const service::CampaignSpec& spec,
                const FabricOptions& options, const PlanContext& ctx,
                Dispatch& dispatch, campaign::JournalWriter* writer,
                WorkerState& worker, std::size_t worker_index) {
  namespace json = service::json;
  auto& registry = metrics::Registry::global();
  std::unique_ptr<Client> conn;

  service::DialOptions dial = options.dial;
  dial.jitter_seed = options.dial.jitter_seed + worker_index;
  dial.on_backoff = [&dispatch, &registry](double delay_ms) {
    registry.counter("fabric.backoff_ms")
        .add(static_cast<std::uint64_t>(delay_ms));
    std::lock_guard<std::mutex> lock(dispatch.mutex);
    dispatch.accumulated_backoff_ms += delay_ms;
  };

  const auto fail = [&](std::size_t s, const std::string& why) {
    conn.reset();
    unclaim_shard(dispatch, s);
    fabric_log(options, worker.endpoint + ": " + why);
    const std::size_t failures = worker.failures.fetch_add(1) + 1;
    if (failures >= options.worker_failure_limit) {
      if (!worker.evicted.exchange(true)) {
        registry.counter("fabric.worker_evicted").add();
        std::lock_guard<std::mutex> lock(dispatch.mutex);
        ++dispatch.stats.workers_evicted;
        dispatch.cv.notify_all();
      }
    }
  };

  for (;;) {
    std::size_t s = 0;
    {
      std::unique_lock<std::mutex> lock(dispatch.mutex);
      dispatch.cv.wait_for(lock, std::chrono::milliseconds(50), [&] {
        return dispatch.stop || dispatch.done == dispatch.state.size() ||
               !dispatch.pending.empty();
      });
      if (dispatch.stop || dispatch.done == dispatch.state.size()) return;
      if (worker.evicted.load()) return;
      bool claimed = false;
      while (!dispatch.pending.empty()) {
        const std::size_t candidate = dispatch.pending.front();
        dispatch.pending.pop_front();
        if (dispatch.state[candidate] != ShardState::kPending) continue;
        s = candidate;
        claimed = true;
        break;
      }
      if (!claimed) continue;
      dispatch.state[s] = ShardState::kLeased;
      dispatch.lease_deadline[s] =
          Stopwatch::deadline_after(options.lease_ms);
    }

    Stopwatch latency;
    if (conn == nullptr) {
      try {
        conn = Client::dial(worker.endpoint, dial);
      } catch (const std::exception& e) {
        fail(s, e.what());
        continue;
      }
    }

    std::string response_line;
    try {
      // Chaos: a dispatch-side transport fault — the shard must return
      // to the pending queue and count toward this worker's eviction.
      CWSP_FAILPOINT("fabric.dispatch.send");
      conn->send_line(shard_request(session, design_text, spec, options, ctx,
                                    s, remaining_deadline_ms(dispatch)));
      // Wait past the lease: the monitor re-dispatches the shard at lease
      // expiry, and the grace window lets a late result still land (as a
      // counted duplicate) instead of tearing the connection down at the
      // exact moment it delivers. Read in slices so a stalled worker
      // cannot delay coordinator shutdown once the shard (or the whole
      // campaign) completes elsewhere.
      const auto read_deadline =
          Stopwatch::deadline_after(options.lease_ms * 1.5 + 50.0);
      Client::ReadStatus status = Client::ReadStatus::kTimeout;
      bool abandoned = false;
      while (status == Client::ReadStatus::kTimeout && !abandoned) {
        status = conn->read_line_for(response_line, 50.0);
        if (status != Client::ReadStatus::kTimeout) break;
        if (Stopwatch::Clock::now() >= read_deadline) break;
        std::lock_guard<std::mutex> lock(dispatch.mutex);
        abandoned = dispatch.stop ||
                    dispatch.done == dispatch.state.size() ||
                    dispatch.state[s] == ShardState::kDone;
      }
      if (abandoned) {
        // The in-flight response (if it ever arrives) would desync this
        // connection's request/response pairing — drop the connection.
        conn.reset();
        continue;
      }
      if (status == Client::ReadStatus::kTimeout) {
        fail(s, "shard " + std::to_string(s) + " timed out past its lease");
        continue;
      }
      if (status == Client::ReadStatus::kClosed) {
        fail(s, "connection lost mid-shard");
        continue;
      }
    } catch (const std::exception& e) {
      fail(s, e.what());
      continue;
    }

    // Transport succeeded; now validate the result. An invalid result is
    // a worker-quality failure, not a transport hiccup, but both count
    // toward the same eviction limit.
    std::optional<std::vector<StrikeResult>> results;
    // Chaos: a garbled response frame must be rejected by validation and
    // the shard re-dispatched — never merged.
    failpoint::mutate("fabric.dispatch.response", response_line);
    try {
      const json::Value response = json::parse(response_line);
      if (response.boolean("ok", false)) {
        const std::string fp_text = response.text("shard_fp", "");
        const std::uint64_t fp =
            fp_text.empty() ? 0 : std::stoull(fp_text, nullptr, 16);
        results = validate_shard_payload(ctx, s, fp,
                                         response.text("payload", ""));
      } else {
        fabric_log(options, worker.endpoint + ": shard " +
                                std::to_string(s) + " error: " +
                                response.text("error", "unknown"));
      }
    } catch (const std::exception&) {
      results = std::nullopt;
    }

    if (!results.has_value()) {
      {
        std::lock_guard<std::mutex> lock(dispatch.mutex);
        ++dispatch.stats.rejected;
      }
      fail(s, "shard " + std::to_string(s) + " result rejected");
      continue;
    }

    worker.failures.store(0);
    commit_shard(dispatch, ctx, s, *results, /*remote=*/true,
                 latency.elapsed_ms(), writer, options);
  }
}

/// Lease-expiry and heartbeat monitor. Expired leases go back to the
/// pending queue (straggler re-dispatch); workers silent past the
/// heartbeat timeout are evicted. Probes run on short-lived connections
/// so they measure the *daemon's* reader loop, not the agent's busy
/// connection. The first heartbeat round runs as the monitor starts, so
/// every remote phase probes each live worker at least once, however
/// soon its shards complete.
void monitor_loop(const FabricOptions& options, Dispatch& dispatch,
                  std::vector<std::unique_ptr<WorkerState>>& workers) {
  auto& registry = metrics::Registry::global();
  const std::size_t tolerated = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             options.heartbeat_timeout_ms /
             std::max(1.0, options.heartbeat_interval_ms)));
  auto next_heartbeat = Stopwatch::Clock::now();
  for (;;) {
    if (options.heartbeat_interval_ms > 0.0 &&
        Stopwatch::Clock::now() >= next_heartbeat) {
      next_heartbeat =
          Stopwatch::deadline_after(options.heartbeat_interval_ms);
      for (auto& worker : workers) {
        if (worker->evicted.load()) continue;
        bool alive = false;
        try {
          // Chaos: a dropped probe counts as one heartbeat miss; enough
          // consecutive ones evict the worker.
          CWSP_FAILPOINT("fabric.heartbeat");
          service::DialOptions dial;
          dial.attempts = 1;
          dial.connect_timeout_ms = options.heartbeat_interval_ms;
          const std::unique_ptr<Client> probe =
              Client::dial(worker->endpoint, dial);
          probe->send_line("{\"id\":\"hb\",\"op\":\"ping\"}");
          std::string pong;
          alive = probe->read_line_for(pong, options.heartbeat_timeout_ms) ==
                  Client::ReadStatus::kLine;
        } catch (const std::exception&) {
          alive = false;
        }
        if (alive) {
          worker->heartbeat_misses = 0;
          continue;
        }
        if (++worker->heartbeat_misses < tolerated) continue;
        if (!worker->evicted.exchange(true)) {
          registry.counter("fabric.worker_evicted").add();
          std::lock_guard<std::mutex> lock(dispatch.mutex);
          ++dispatch.stats.workers_evicted;
          dispatch.cv.notify_all();
        }
      }
    }

    std::unique_lock<std::mutex> lock(dispatch.mutex);
    dispatch.cv.wait_for(lock, std::chrono::milliseconds(25));
    if (dispatch.stop || dispatch.done == dispatch.state.size()) return;
    const auto now = Stopwatch::Clock::now();
    if (now >= dispatch.deadline) {
      // Campaign budget exhausted: end the remote phase; the local
      // fallback's expired token turns what's left into `interrupted`.
      dispatch.stop = true;
      dispatch.cv.notify_all();
      return;
    }
    for (std::size_t s = 0; s < dispatch.state.size(); ++s) {
      if (dispatch.state[s] != ShardState::kLeased) continue;
      if (now < dispatch.lease_deadline[s]) continue;
      dispatch.state[s] = ShardState::kPending;
      dispatch.pending.push_back(s);
      ++dispatch.stats.redispatched;
      registry.counter("fabric.redispatch").add();
      dispatch.cv.notify_all();
    }
  }
}

}  // namespace

FabricOutcome run_distributed_campaign(const service::DesignSession& session,
                                       const std::string& design_text,
                                       const service::CampaignSpec& spec,
                                       const FabricOptions& options) {
  const Netlist& netlist = *session.netlist;
  CWSP_REQUIRE_MSG(netlist.num_flip_flops() > 0,
                   "campaign requires a sequential design");
  CWSP_REQUIRE_MSG(spec.shard_total == 0,
                   "a distributed campaign shards internally; drop "
                   "shard_index/shard_total");
  CWSP_REQUIRE_MSG(spec.timeout_ms == 0.0,
                   "per-strike timeouts are wall-clock dependent and "
                   "incompatible with distributed byte-identity");
  CWSP_REQUIRE_MSG(spec.journal_path.empty() && !spec.resume &&
                       !spec.minimize_escapes && spec.artifact_dir.empty() &&
                       spec.stop_after == 0,
                   "one-shot campaign extras are not supported with "
                   "--workers; use the fabric journal options");

  const std::vector<service::CampaignCell> cells =
      service::campaign_cells(spec);
  CWSP_REQUIRE_MSG(cells.size() == 1,
                   "a distributed campaign runs one (scheme, fault-model) "
                   "cell; fan sweeps out cell by cell");
  const service::CampaignCell& cell = cells.front();

  const auto params = core::ProtectionParams::q100();
  const Picoseconds period = session.period_q100;

  // The one plan everyone derives: coordinator, workers and the
  // single-host reference all call the same construction.
  PlanContext ctx;
  const set::StrikePlan full_plan = cell.model->build_plan(
      netlist, service::campaign_plan_options(spec, params, period),
      spec.seed);
  ctx.full_plan = &full_plan;
  ctx.full_fp = campaign::campaign_fingerprint(full_plan, spec.seed,
                                               spec.cycles, period);
  const std::size_t shard_count = std::max<std::size_t>(
      1, std::min(options.shards != 0 ? options.shards
                                      : 4 * std::max<std::size_t>(
                                                1, options.workers.size()),
                  std::max<std::size_t>(1, full_plan.size())));
  ctx.shards = set::shard_plan(full_plan, shard_count);
  ctx.shard_begin.resize(shard_count);
  ctx.shard_fp.resize(shard_count);
  std::size_t offset = 0;
  for (std::size_t s = 0; s < shard_count; ++s) {
    ctx.shard_begin[s] = offset;
    offset += ctx.shards[s].size();
    ctx.shard_fp[s] = campaign::campaign_fingerprint(ctx.shards[s], spec.seed,
                                                     spec.cycles, period);
  }
  ctx.position_of.reserve(full_plan.size());
  for (std::size_t i = 0; i < full_plan.size(); ++i) {
    ctx.position_of.emplace(full_plan.strikes[i].index, i);
  }

  std::vector<StrikeResult> slots(full_plan.size());
  Dispatch dispatch;
  dispatch.slots = &slots;
  dispatch.state.assign(shard_count, ShardState::kPending);
  dispatch.lease_deadline.assign(shard_count, Stopwatch::Clock::now());
  dispatch.stats.shards_total = shard_count;
  if (options.deadline_ms > 0.0) {
    dispatch.deadline = Stopwatch::deadline_after(options.deadline_ms);
  }

  // ---- journal recovery ---------------------------------------------
  std::size_t resumed_strikes = 0;
  std::optional<campaign::JournalWriter> writer;
  if (!options.journal_path.empty()) {
    if (options.resume) {
      const campaign::Journal journal =
          campaign::read_journal(options.journal_path);
      CWSP_REQUIRE_MSG(journal.fingerprint == ctx.full_fp,
                       "fabric journal '"
                           << options.journal_path
                           << "' does not match this campaign "
                              "(plan/seed/cycles/period differ)");
      for (const StrikeResult& r : journal.results) {
        const auto it = ctx.position_of.find(r.index);
        if (it != ctx.position_of.end() &&
            !slots[it->second].completed()) {
          slots[it->second] = r;
        }
      }
      // A marker that disagrees with the re-derived shard fingerprint
      // was written by a diverging coordinator: drop that shard's
      // journaled strikes and re-execute it.
      std::vector<char> suspect(shard_count, 0);
      for (const campaign::ShardRecord& m : journal.shards) {
        if (m.index >= shard_count) continue;
        const bool matches =
            m.total == shard_count &&
            m.fingerprint == ctx.shard_fp[m.index] &&
            m.count == ctx.shards[m.index].size() &&
            m.begin ==
                ctx.full_plan->strikes[ctx.shard_begin[m.index]].index;
        if (!matches) suspect[m.index] = 1;
      }
      for (std::size_t s = 0; s < shard_count; ++s) {
        const std::size_t begin = ctx.shard_begin[s];
        const std::size_t size = ctx.shards[s].size();
        if (suspect[s] != 0) {
          for (std::size_t k = 0; k < size; ++k) {
            slots[begin + k] = StrikeResult{};
          }
          continue;
        }
        bool complete = true;
        for (std::size_t k = 0; k < size && complete; ++k) {
          complete = slots[begin + k].completed();
        }
        if (complete) {
          dispatch.state[s] = ShardState::kDone;
          ++dispatch.done;
          ++dispatch.stats.shards_resumed;
          resumed_strikes += size;
        }
      }
      fabric_log(options,
                 "resumed " + std::to_string(dispatch.stats.shards_resumed) +
                     "/" + std::to_string(shard_count) +
                     " shard(s) from journal");
    }
    // Incomplete journaled shards re-execute whole; their partial strike
    // lines stay in the file (harmless — resume takes the first line per
    // index and validates shard completeness independently).
    writer.emplace(options.journal_path, ctx.full_fp, full_plan.size(),
                   options.resume);
  }

  for (std::size_t s = 0; s < shard_count; ++s) {
    if (dispatch.state[s] == ShardState::kPending) {
      dispatch.pending.push_back(s);
    }
  }

  // ---- remote phase --------------------------------------------------
  std::vector<std::unique_ptr<WorkerState>> workers;
  for (const std::string& endpoint : options.workers) {
    workers.push_back(std::make_unique<WorkerState>(endpoint));
  }
  if (!workers.empty() && dispatch.done < shard_count &&
      options.stop_after_shards == 0) {
    fabric_log(options, "dispatching " +
                            std::to_string(shard_count - dispatch.done) +
                            " shard(s) to " +
                            std::to_string(workers.size()) + " worker(s)");
  }
  {
    std::vector<std::thread> threads;
    const bool need_remote = !workers.empty() && dispatch.done < shard_count;
    if (need_remote) {
      threads.reserve(workers.size() + 1);
      for (std::size_t w = 0; w < workers.size(); ++w) {
        threads.emplace_back([&, w] {
          agent_loop(session, design_text, spec, options, ctx, dispatch,
                     writer.has_value() ? &*writer : nullptr, *workers[w],
                     w);
        });
      }
      threads.emplace_back(
          [&] { monitor_loop(options, dispatch, workers); });

      // The remote phase ends when every shard is done, every worker is
      // evicted, or stop_after_shards fired. Watch for the all-evicted
      // case here so the coordinator degrades to local execution instead
      // of waiting forever on an empty fleet.
      {
        std::unique_lock<std::mutex> lock(dispatch.mutex);
        dispatch.cv.wait(lock, [&] {
          if (dispatch.stop || dispatch.done == dispatch.state.size()) {
            return true;
          }
          return std::all_of(workers.begin(), workers.end(),
                             [](const std::unique_ptr<WorkerState>& w) {
                               return w->evicted.load();
                             });
        });
        dispatch.stop =
            dispatch.stop || dispatch.done == dispatch.state.size() ||
            std::all_of(workers.begin(), workers.end(),
                        [](const std::unique_ptr<WorkerState>& w) {
                          return w->evicted.load();
                        });
        dispatch.cv.notify_all();
      }
      for (auto& t : threads) t.join();
      dispatch.stop = false;
    }
  }

  // ---- local fallback -------------------------------------------------
  const bool stopped_early =
      options.stop_after_shards != 0 &&
      dispatch.fresh_done >= options.stop_after_shards;
  if (options.local_fallback && !stopped_early &&
      dispatch.done < shard_count) {
    const std::size_t remaining = shard_count - dispatch.done;
    fabric_log(options, "executing " + std::to_string(remaining) +
                            " shard(s) locally (fallback)");
    const campaign::CampaignEngine engine(netlist, params, period,
                                          session.kernel_context);
    campaign::EngineOptions engine_options =
        service::campaign_engine_options(spec, cell, nullptr);
    sim::CancelToken budget_token;
    if (dispatch.deadline != Stopwatch::Clock::time_point::max()) {
      budget_token.set_deadline(dispatch.deadline);
      engine_options.cancel = &budget_token;
    }
    for (std::size_t s = 0; s < shard_count; ++s) {
      bool claim = false;
      {
        std::lock_guard<std::mutex> lock(dispatch.mutex);
        if (dispatch.state[s] != ShardState::kDone) {
          dispatch.state[s] = ShardState::kLeased;
          claim = true;
        }
        if (options.stop_after_shards != 0 &&
            dispatch.fresh_done >= options.stop_after_shards) {
          break;
        }
      }
      if (!claim) continue;
      Stopwatch latency;
      const campaign::CampaignResult result =
          engine.run(ctx.shards[s], engine_options);
      commit_shard(dispatch, ctx, s, result.strikes, /*remote=*/false,
                   latency.elapsed_ms(), writer.has_value() ? &*writer
                                                            : nullptr,
                   options);
    }
  }

  // ---- merge ----------------------------------------------------------
  campaign::CampaignResult merged;
  merged.strikes = std::move(slots);
  merged.scheme = cell.scheme->name();
  merged.fault_model = cell.model->name();
  campaign::aggregate_results(full_plan, merged);
  merged.resumed = resumed_strikes;
  merged.executed = merged.report.runs > resumed_strikes
                        ? merged.report.runs - resumed_strikes
                        : 0;

  const campaign::EngineOptions format_options =
      service::campaign_engine_options(spec, cell, nullptr);

  FabricOutcome outcome;
  outcome.outcome.status = campaign::campaign_status(merged);
  outcome.outcome.output =
      spec.json ? campaign::format_campaign_json(merged, full_plan, netlist,
                                                 format_options, period)
                : campaign::format_campaign_text(merged, full_plan, netlist);
  {
    std::lock_guard<std::mutex> lock(dispatch.mutex);
    outcome.stats = dispatch.stats;
    outcome.stats.backoff_ms = dispatch.accumulated_backoff_ms;
  }

  auto& registry = metrics::Registry::global();
  registry.counter("fabric.campaigns").add();
  registry.counter("fabric.shards_remote").add(outcome.stats.shards_remote);
  registry.counter("fabric.shards_local").add(outcome.stats.shards_local);
  registry.counter("fabric.shards_resumed").add(outcome.stats.shards_resumed);
  registry.counter("fabric.results_rejected").add(outcome.stats.rejected);
  registry.counter("fabric.duplicate_results").add(outcome.stats.duplicates);
  return outcome;
}

}  // namespace cwsp::fabric
