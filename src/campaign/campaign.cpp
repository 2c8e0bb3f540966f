#include "campaign/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <optional>
#include <sstream>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "campaign/journal.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "cwsp/timing.hpp"
#include "scheme/scheme.hpp"
#include "sim/strike_lanes.hpp"

namespace cwsp::campaign {
namespace {

core::ScheduledStrike to_scheduled(const set::PlannedStrike& p) {
  core::ScheduledStrike s;
  s.cycle = p.cycle;
  s.ff_index = p.ff_index;
  s.strike = p.strike;
  if (p.klass == set::StrikeClass::kProtectionPath) {
    switch (p.site) {
      case set::ProtectionSite::kEqChecker:
        s.target = core::StrikeTarget::kEqChecker;
        break;
      case set::ProtectionSite::kEqglbfDff:
        s.target = core::StrikeTarget::kEqglbfDff;
        break;
      case set::ProtectionSite::kCwStarDff:
        s.target = core::StrikeTarget::kCwStarDff;
        break;
      case set::ProtectionSite::kCwspOutput:
        s.target = core::StrikeTarget::kCwspOutput;
        break;
    }
  } else {
    s.target = core::StrikeTarget::kFunctional;
  }
  return s;
}

// Flips cancel tokens of in-flight strikes whose deadline passed. One
// slot per worker; polling granularity ~1 ms, far below any useful
// per-strike budget.
class Watchdog {
 public:
  explicit Watchdog(std::size_t workers) : slots_(workers) {
    thread_ = std::thread([this] { loop(); });
  }

  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  void arm(std::size_t worker, sim::CancelToken* token, double timeout_ms) {
    std::lock_guard<std::mutex> lock(mutex_);
    slots_[worker] = {token, Stopwatch::deadline_after(timeout_ms)};
  }

  void disarm(std::size_t worker) {
    std::lock_guard<std::mutex> lock(mutex_);
    slots_[worker].token = nullptr;
  }

 private:
  struct Slot {
    sim::CancelToken* token = nullptr;
    Stopwatch::Clock::time_point deadline;
  };

  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::milliseconds(1));
      const auto now = Stopwatch::Clock::now();
      for (Slot& slot : slots_) {
        if (slot.token != nullptr && now >= slot.deadline) {
          slot.token->cancel();
          slot.token = nullptr;
        }
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Slot> slots_;
  std::thread thread_;
  bool stop_ = false;
};

// In-place transpose of a 64×64 bit matrix (bit c of m[r] is element
// (r, c)): swaps the off-diagonal blocks at sizes 32, 16, ..., 1.
void transpose_bits64(std::uint64_t* m) {
  std::uint64_t mask = 0x00000000FFFFFFFFull;
  for (unsigned j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (unsigned k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((m[k] >> j) ^ m[k | j]) & mask;
      m[k] ^= t << j;
      m[k | j] ^= t;
    }
  }
}

std::string escape_diagnostic(const core::ProtectionRunResult& r) {
  if (r.livelocked) return "protocol livelocked";
  std::ostringstream os;
  os << r.silent_corruptions << " corrupted commit(s)";
  return os.str();
}

// ---- strike-lane fast path -------------------------------------------
//
// A protocol has no internal timing once the strike cycle itself is
// resolved: a single scheduled strike perturbs exactly one cycle, the
// pre-strike trajectory is golden, and the post-strike divergence (if
// any) is pure boolean evolution. The verdict is therefore a closed-form
// function of four per-lane facts (fired, latched_diff, aperture, silent
// commits) plus two static ones (squash-at-strike, width vs δ). That
// mapping lives in the ProtectionScheme registry (src/scheme): the CWSP
// scheme carries the §3.2 mappings lifted verbatim from here, with the
// scalar ProtectionSim as its executable specification pinned by
// differential tests; TMR and LOCO supply their own.

const scheme::ProtectionScheme& scheme_of(const EngineOptions& options) {
  return options.scheme != nullptr ? *options.scheme
                                   : scheme::default_scheme();
}

bool is_cwsp(const scheme::ProtectionScheme& sch) {
  return std::string_view(sch.name()) == "cwsp";
}

}  // namespace

void aggregate_results(const set::StrikePlan& plan, CampaignResult& result) {
  CWSP_REQUIRE(result.strikes.size() == plan.size());
  result.report = core::CoverageReport{};
  result.unexpected_escapes = 0;
  result.interrupted = false;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const StrikeResult& r = result.strikes[i];
    if (!r.completed()) {
      result.interrupted = true;
      continue;
    }
    const set::PlannedStrike& planned = plan.strikes[i];
    core::CoverageReport& report = result.report;
    core::ScenarioStats& slice = report.scenario(
        set::to_string(planned.klass), result.scheme, result.fault_model);
    ++report.runs;
    ++report.strikes_injected;
    ++slice.strikes;
    switch (r.status) {
      case StrikeStatus::kCovered:
        break;
      case StrikeStatus::kEscape:
        ++report.protected_failures;
        ++slice.escapes;
        if (planned.klass != set::StrikeClass::kOutOfEnvelope) {
          ++result.unexpected_escapes;
        }
        break;
      case StrikeStatus::kTimeout:
        ++report.timeouts;
        ++slice.timeouts;
        [[fallthrough]];
      case StrikeStatus::kError:
        ++report.inconclusive;
        ++slice.inconclusive;
        break;
    }
    if (r.conclusive()) {
      report.bubbles += r.bubbles;
      report.detected_errors += r.detected_errors;
      report.spurious_recomputes += r.spurious_recomputes;
      if (r.unprotected_failed) {
        ++report.unprotected_failures;
        ++slice.unprotected_failures;
      }
    }
  }
}

const char* to_string(StrikeStatus status) {
  switch (status) {
    case StrikeStatus::kCovered:
      return "covered";
    case StrikeStatus::kEscape:
      return "escape";
    case StrikeStatus::kTimeout:
      return "timeout";
    case StrikeStatus::kError:
      return "error";
  }
  return "unknown";
}

CampaignEngine::CampaignEngine(const Netlist& netlist,
                               const core::ProtectionParams& params,
                               Picoseconds clock_period)
    : CampaignEngine(netlist, params, clock_period,
                     sim::CompiledKernelContext::build(netlist)) {}

CampaignEngine::CampaignEngine(
    const Netlist& netlist, const core::ProtectionParams& params,
    Picoseconds clock_period,
    std::shared_ptr<const sim::CompiledKernelContext> context)
    : netlist_(&netlist),
      params_(params),
      clock_period_(clock_period),
      kernel_context_(std::move(context)) {
  CWSP_REQUIRE(kernel_context_ != nullptr);
}

std::vector<std::vector<bool>> CampaignEngine::strike_inputs(
    const Netlist& netlist, std::size_t cycles, std::uint64_t seed,
    std::size_t strike_index) {
  Rng rng = Rng::stream(seed, strike_index);
  std::vector<std::vector<bool>> inputs(cycles);
  for (auto& vec : inputs) {
    vec.resize(netlist.primary_inputs().size());
    for (std::size_t i = 0; i < vec.size(); ++i) vec[i] = rng.next_bool();
  }
  return inputs;
}

void CampaignEngine::strike_inputs_packed(
    const Netlist& netlist, std::size_t cycles, std::uint64_t seed,
    const std::vector<std::size_t>& strike_indices, std::size_t lanes,
    std::vector<std::uint64_t>& stimulus) {
  CWSP_REQUIRE(lanes % 64 == 0 && strike_indices.size() <= lanes);
  const std::size_t words = lanes / 64;
  const std::size_t bits = cycles * netlist.primary_inputs().size();
  const std::size_t row_words = (bits + 63) / 64;
  stimulus.assign(bits * words, 0);
  // Row i of `rows` is lane w*64+i's stimulus, bit k = cycle * PIs + pi
  // in strike_inputs' draw order; next_bool() is exactly a clear top bit.
  std::vector<std::uint64_t> rows(64 * row_words);
  std::uint64_t block[64];
  for (std::size_t w = 0; w < words && w * 64 < strike_indices.size(); ++w) {
    const std::size_t group =
        std::min<std::size_t>(64, strike_indices.size() - w * 64);
    for (std::size_t i = 0; i < group; ++i) {
      Rng rng = Rng::stream(seed, strike_indices[w * 64 + i]);
      for (std::size_t j = 0; j < row_words; ++j) {
        const std::size_t hi = std::min<std::size_t>(64, bits - j * 64);
        std::uint64_t word = 0;
        for (std::size_t b = 0; b < hi; ++b) {
          word |= ((rng.next_u64() >> 63) ^ 1u) << b;
        }
        rows[i * row_words + j] = word;
      }
    }
    // One 64×64 transpose per 64 stimulus bits turns lane rows into
    // per-bit lane words.
    for (std::size_t j = 0; j < row_words; ++j) {
      for (std::size_t i = 0; i < 64; ++i) {
        block[i] = i < group ? rows[i * row_words + j] : 0;
      }
      transpose_bits64(block);
      const std::size_t hi = std::min<std::size_t>(64, bits - j * 64);
      for (std::size_t b = 0; b < hi; ++b) {
        stimulus[(j * 64 + b) * words + w] = block[b];
      }
    }
  }
}

CampaignResult CampaignEngine::run(const set::StrikePlan& plan,
                                   const EngineOptions& options) const {
  CWSP_REQUIRE(options.jobs > 0);
  CWSP_REQUIRE(options.cycles_per_run > 0);
  const scheme::ProtectionScheme& sch = scheme_of(options);
  const bool cwsp_semantics = is_cwsp(sch);
  bool multi_node = false;
  for (const set::PlannedStrike& p : plan.strikes) {
    if (p.node2.valid()) {
      multi_node = true;
      break;
    }
  }
  // Non-CWSP verdicts and multi-node strikes exist only as closed-form
  // functions of lane facts; the scalar ProtectionSim speaks the CWSP
  // protocol over single-node strikes and nothing else.
  const bool needs_scalar = !options.use_lane_kernel ||
                            options.timeout_ms > 0.0 ||
                            static_cast<bool>(options.test_hook);
  CWSP_REQUIRE_MSG(cwsp_semantics || !needs_scalar,
                   "scheme '" << sch.name()
                              << "' resolves verdicts on the strike-lane "
                                 "kernel only; drop the per-strike timeout "
                                 "(timeout_ms, --timeout-ms)");
  CWSP_REQUIRE_MSG(!multi_node || !needs_scalar,
                   "multi-node strike plans require the strike-lane kernel; "
                   "drop the per-strike timeout (timeout_ms, --timeout-ms)");
  CWSP_REQUIRE_MSG(!options.minimize_escapes || cwsp_semantics,
                   "escape minimization replays the CWSP protocol; not "
                   "available for scheme '"
                       << sch.name() << "'");
  const std::uint64_t fingerprint = campaign_fingerprint(
      plan, options.seed, options.cycles_per_run, clock_period_);

  CampaignResult result;
  result.scheme = sch.name();
  result.fault_model = options.fault_model;
  result.strikes.assign(plan.size(), StrikeResult{});
  std::vector<char> done(plan.size(), 0);

  // Plan positions keyed by the stable strike index. For a full plan the
  // two coincide; for a shard sub-plan (distributed execution) journal
  // entries and RNG streams must follow the index, not the position, so
  // the shard reproduces exactly the strikes of the full run.
  std::unordered_map<std::size_t, std::size_t> position_of;
  position_of.reserve(plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    position_of.emplace(plan.strikes[i].index, i);
  }

  std::optional<JournalWriter> writer;
  if (!options.journal_path.empty()) {
    if (options.resume) {
      const Journal journal = read_journal(options.journal_path);
      CWSP_REQUIRE_MSG(journal.fingerprint == fingerprint,
                       "journal '" << options.journal_path
                                   << "' does not match this campaign "
                                      "(plan/seed/cycles/period differ)");
      for (const StrikeResult& r : journal.results) {
        const auto it = position_of.find(r.index);
        if (it != position_of.end() && done[it->second] == 0) {
          result.strikes[it->second] = r;
          done[it->second] = 1;
          ++result.resumed;
        }
      }
    }
    writer.emplace(options.journal_path, fingerprint, plan.size(),
                   options.resume);
  }

  // The lane path answers batches of strikes at once, so per-strike
  // wall-clock budgets and per-strike test hooks need the scalar pool.
  if (!needs_scalar) {
    run_lane_strikes(plan, options, done,
                     writer.has_value() ? &*writer : nullptr, result);
  } else {
  // ---- worker pool ---------------------------------------------------
  // Workers claim strike indices from an atomic cursor; each result lands
  // in its own pre-sized slot, so aggregation (below, sequential and in
  // index order) is independent of scheduling.
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> fresh_started{0};
  const std::size_t jobs =
      std::max<std::size_t>(1, std::min(options.jobs, plan.size()));
  Watchdog watchdog(jobs);

  auto worker = [&](std::size_t worker_id) {
    core::ProtectionSim sim(*netlist_, params_, clock_period_,
                            core::ProtectionSimOptions{}, kernel_context_);
    sim::CancelToken token;
    sim.set_cancel_token(&token);

    for (;;) {
      if (options.cancel != nullptr && options.cancel->cancelled()) break;
      const std::size_t i = cursor.fetch_add(1);
      if (i >= plan.size()) break;
      if (done[i] != 0) continue;
      if (options.stop_after != 0 &&
          fresh_started.fetch_add(1) >= options.stop_after) {
        break;
      }

      const set::PlannedStrike& planned = plan.strikes[i];
      StrikeResult r;
      r.index = planned.index;
      token.reset();
      if (options.timeout_ms > 0.0) {
        watchdog.arm(worker_id, &token, options.timeout_ms);
      }
      try {
        if (options.test_hook) options.test_hook(planned.index, token);
        const auto inputs = strike_inputs(*netlist_, options.cycles_per_run,
                                          options.seed, planned.index);
        const core::ScheduledStrike scheduled = to_scheduled(planned);
        const auto protected_r = sim.run(inputs, {scheduled});
        r.bubbles = protected_r.bubbles;
        r.detected_errors = protected_r.detected_errors;
        r.spurious_recomputes = protected_r.spurious_recomputes;
        if (protected_r.recovered()) {
          r.status = StrikeStatus::kCovered;
        } else {
          r.status = StrikeStatus::kEscape;
          r.diagnostic = escape_diagnostic(protected_r);
        }
        if (scheduled.target == core::StrikeTarget::kFunctional) {
          const auto unprotected_r = sim.run_unprotected(inputs, {scheduled});
          r.unprotected_failed = unprotected_r.corrupted_cycles > 0;
        }
      } catch (const sim::CancelledError&) {
        r = StrikeResult{};
        r.index = planned.index;
        r.status = StrikeStatus::kTimeout;
        std::ostringstream os;
        os << "per-strike budget of " << options.timeout_ms
           << " ms exhausted";
        r.diagnostic = os.str();
      } catch (const std::exception& e) {
        r = StrikeResult{};
        r.index = planned.index;
        r.status = StrikeStatus::kError;
        r.diagnostic = e.what();
      }
      watchdog.disarm(worker_id);
      if (writer.has_value()) writer->append(r);
      result.strikes[i] = r;
    }
  };

  if (jobs <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(jobs);
    for (std::size_t w = 0; w < jobs; ++w) {
      threads.emplace_back(worker, w);
    }
    for (auto& t : threads) t.join();
  }
  }  // lane_path / worker pool

  // ---- aggregation (sequential, plan order → deterministic) ----------
  aggregate_results(plan, result);
  result.executed = result.report.runs > result.resumed
                        ? result.report.runs - result.resumed
                        : 0;

  // Observability only: the metrics registry never feeds the report, so
  // determinism is untouched.
  auto& registry = metrics::Registry::global();
  registry.counter("campaign.runs").add();
  registry.counter("campaign.strikes_executed").add(result.executed);
  registry.counter("campaign.strikes_resumed").add(result.resumed);
  registry.counter("campaign.escapes").add(result.report.protected_failures);
  registry.counter("campaign.inconclusive").add(result.report.inconclusive);
  const std::string scheme_prefix = "scheme." + result.scheme;
  registry.counter(scheme_prefix + ".campaigns").add();
  registry.counter(scheme_prefix + ".strikes")
      .add(result.report.strikes_injected);
  registry.counter(scheme_prefix + ".escapes")
      .add(result.report.protected_failures);

  // ---- escape minimization ------------------------------------------
  if (options.minimize_escapes) {
    core::ProtectionSim sim(*netlist_, params_, clock_period_,
                            core::ProtectionSimOptions{}, kernel_context_);
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const StrikeResult& r = result.strikes[i];
      if (!r.completed() || r.status != StrikeStatus::kEscape) continue;
      const set::PlannedStrike& planned = plan.strikes[i];
      // Protection-path strikes have no functional net to shrink, and a
      // charge-sharing pair has no single-strike scalar replay.
      if (planned.klass == set::StrikeClass::kProtectionPath) continue;
      if (planned.node2.valid()) continue;
      EscapeRepro repro = minimize_escape(
          sim, planned,
          strike_inputs(*netlist_, options.cycles_per_run, options.seed,
                        planned.index));
      if (!options.artifact_dir.empty()) {
        write_repro(repro, *netlist_, options.artifact_dir);
      }
      result.repros.push_back(std::move(repro));
    }
  }
  return result;
}

void CampaignEngine::run_lane_strikes(const set::StrikePlan& plan,
                                      const EngineOptions& options,
                                      const std::vector<char>& done,
                                      JournalWriter* writer,
                                      CampaignResult& result) const {
  const scheme::ProtectionScheme& sch = scheme_of(options);
  const bool cwsp_semantics = is_cwsp(sch);
  // Replicate the scalar path's constructor-time validation with
  // identical messages: the lane path never builds a ProtectionSim, but
  // a misconfigured campaign must fail the same way on either path.
  params_.validate();
  CWSP_REQUIRE_MSG(netlist_->num_flip_flops() > 0,
                   "protection protocol requires flip-flops");
  CWSP_REQUIRE_MSG(clock_period_ >= core::min_clock_period_for_delta(params_),
                   "clock period " << clock_period_.value()
                       << " ps violates Eq. 6 minimum "
                       << core::min_clock_period_for_delta(params_).value()
                       << " ps for delta " << params_.delta.value() << " ps");

  // The work list: the first stop_after (or all) undone strikes in plan
  // order — exactly what the scalar pool executes at jobs == 1, which is
  // the documented stop_after semantics every jobs value must reproduce.
  std::vector<std::size_t> todo;
  todo.reserve(plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (done[i] != 0) continue;
    if (options.stop_after != 0 && todo.size() >= options.stop_after) break;
    todo.push_back(i);
  }

  // Protection-path strikes are closed-form (§3.2 case analysis) —
  // resolve them inline; only functional strikes need lane simulation.
  std::vector<std::size_t> functional;
  functional.reserve(todo.size());
  std::uint64_t analytic = 0;
  bool cancelled = false;
  for (std::size_t pos : todo) {
    if (options.cancel != nullptr && options.cancel->cancelled()) {
      cancelled = true;
      break;
    }
    const set::PlannedStrike& planned = plan.strikes[pos];
    if (planned.klass != set::StrikeClass::kProtectionPath) {
      functional.push_back(pos);
      continue;
    }
    StrikeResult r = sch.resolve_protection_path(
        planned, options.cycles_per_run, clock_period_);
    if (writer != nullptr) writer->append(r);
    result.strikes[pos] = r;
    ++analytic;
  }

  // ---- lane batches --------------------------------------------------
  // Workers claim whole batches from an atomic cursor; batch boundaries
  // are fixed by plan order (batch b = functional[b*L .. b*L+L)), so the
  // per-strike outcomes — and therefore the report — are independent of
  // which worker runs which batch.
  const std::size_t lane_count =
      sim::WideLogicSim::isa_for(options.lane_width).lanes;
  const std::size_t num_batches =
      (functional.size() + lane_count - 1) / lane_count;
  std::atomic<std::size_t> batch_cursor{0};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> lanes_filled{0};
  std::atomic<std::uint64_t> lane_slots{0};
  std::atomic<std::uint64_t> timed{0};

  auto lane_worker = [&] {
    sim::StrikeLaneSim lane_sim(kernel_context_, clock_period_, params_.delta,
                                options.lane_width);
    // Scalar fallback simulator, built only if a batch throws.
    std::unique_ptr<core::ProtectionSim> scalar;
    std::vector<std::size_t> indices;
    std::vector<std::uint64_t> stimulus;
    std::vector<sim::LaneScenario> batch;
    std::vector<sim::LaneOutcome> out;
    for (;;) {
      if (cancelled ||
          (options.cancel != nullptr && options.cancel->cancelled())) {
        break;
      }
      const std::size_t b = batch_cursor.fetch_add(1);
      if (b >= num_batches) break;
      const std::size_t begin = b * lane_count;
      const std::size_t end =
          std::min(begin + lane_count, functional.size());
      indices.clear();
      batch.clear();
      for (std::size_t k = begin; k < end; ++k) {
        const set::PlannedStrike& planned = plan.strikes[functional[k]];
        indices.push_back(planned.index);
        sim::LaneScenario sc;
        sc.strike = planned.strike;
        sc.node2 = planned.node2;
        sc.cycle = planned.cycle;
        sc.squash_at_strike = sch.squash_at_strike(*netlist_, params_, planned);
        batch.push_back(sc);
      }
      try {
        strike_inputs_packed(*netlist_, options.cycles_per_run, options.seed,
                             indices, lane_count, stimulus);
        lane_sim.run_packed(batch, options.cycles_per_run, stimulus, out);
        for (std::size_t k = begin; k < end; ++k) {
          const set::PlannedStrike& planned = plan.strikes[functional[k]];
          StrikeResult r = sch.resolve_functional(
              planned, out[k - begin], batch[k - begin].squash_at_strike,
              options.cycles_per_run, params_);
          if (writer != nullptr) writer->append(r);
          result.strikes[functional[k]] = r;
        }
      } catch (const std::exception& batch_error) {
        // Degrade the batch to the scalar per-strike path with the same
        // exception isolation as the worker pool: one bad strike costs
        // one inconclusive result, never the campaign.
        if (scalar == nullptr) {
          scalar = std::make_unique<core::ProtectionSim>(
              *netlist_, params_, clock_period_, core::ProtectionSimOptions{},
              kernel_context_);
        }
        for (std::size_t k = begin; k < end; ++k) {
          const set::PlannedStrike& planned = plan.strikes[functional[k]];
          StrikeResult r;
          r.index = planned.index;
          if (!cwsp_semantics || planned.node2.valid()) {
            // The scalar simulator speaks only the CWSP protocol over
            // single-node strikes; an inexpressible strike degrades to
            // inconclusive instead of a wrong verdict.
            r.status = StrikeStatus::kError;
            r.diagnostic = batch_error.what();
            if (writer != nullptr) writer->append(r);
            result.strikes[functional[k]] = r;
            continue;
          }
          try {
            const core::ScheduledStrike scheduled = to_scheduled(planned);
            const auto inputs = strike_inputs(
                *netlist_, options.cycles_per_run, options.seed, planned.index);
            const auto protected_r = scalar->run(inputs, {scheduled});
            r.bubbles = protected_r.bubbles;
            r.detected_errors = protected_r.detected_errors;
            r.spurious_recomputes = protected_r.spurious_recomputes;
            if (protected_r.recovered()) {
              r.status = StrikeStatus::kCovered;
            } else {
              r.status = StrikeStatus::kEscape;
              r.diagnostic = escape_diagnostic(protected_r);
            }
            const auto unprotected_r =
                scalar->run_unprotected(inputs, {scheduled});
            r.unprotected_failed = unprotected_r.corrupted_cycles > 0;
          } catch (const std::exception& e) {
            r = StrikeResult{};
            r.index = planned.index;
            r.status = StrikeStatus::kError;
            r.diagnostic = e.what();
          }
          if (writer != nullptr) writer->append(r);
          result.strikes[functional[k]] = r;
        }
      }
    }
    batches.fetch_add(lane_sim.batches_run());
    lanes_filled.fetch_add(lane_sim.lanes_filled());
    lane_slots.fetch_add(lane_sim.lane_slots());
    timed.fetch_add(lane_sim.timed_resolutions());
  };

  const std::size_t jobs = std::max<std::size_t>(
      1, std::min(options.jobs, std::max<std::size_t>(num_batches, 1)));
  if (jobs <= 1) {
    lane_worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(jobs);
    for (std::size_t w = 0; w < jobs; ++w) threads.emplace_back(lane_worker);
    for (auto& t : threads) t.join();
  }

  // Observability only (never feeds the report).
  auto& registry = metrics::Registry::global();
  registry.counter("campaign.lane_batches").add(batches.load());
  registry.counter("campaign.lane_slots_filled").add(lanes_filled.load());
  registry.counter("campaign.lane_slots_total").add(lane_slots.load());
  registry.counter("campaign.lane_timed_resolutions").add(timed.load());
  registry.counter("campaign.lane_analytic_strikes").add(analytic);
}

}  // namespace cwsp::campaign
