#include "campaign/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
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

std::string escape_diagnostic(const core::ProtectionRunResult& r) {
  if (r.livelocked) return "protocol livelocked";
  std::ostringstream os;
  os << r.silent_corruptions << " corrupted commit(s)";
  return os.str();
}

/// Runs `worker(claim)` on min(jobs, units) threads, inline when that is
/// at most one. The workers share one atomic cursor: `claim(u)` stores the
/// next unclaimed unit in `u` and returns false once the units run out or
/// `cancel` fires. Each unit writes only its own pre-sized result slots,
/// so no outcome depends on which worker ran which unit. An exception
/// escaping a worker (a throwing journal append) reaches the caller after
/// every thread is joined, as it does inline.
template <class Worker>
void run_pool(std::size_t jobs, std::size_t units,
              const sim::CancelToken* cancel, const Worker& worker) {
  std::atomic<std::size_t> cursor{0};
  const auto claim = [&](std::size_t& unit) {
    if (cancel != nullptr && cancel->cancelled()) return false;
    unit = cursor.fetch_add(1);
    return unit < units;
  };
  const std::size_t threads = std::min(jobs, units);
  if (threads <= 1) {
    worker(claim);
    return;
  }
  std::mutex failure_mutex;
  std::exception_ptr failure;
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t w = 0; w < threads; ++w) {
    pool.emplace_back([&] {
      try {
        worker(claim);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(failure_mutex);
        if (failure == nullptr) failure = std::current_exception();
      }
    });
  }
  for (std::thread& t : pool) t.join();
  if (failure != nullptr) std::rethrow_exception(failure);
}

/// Lands one strike's result in its plan slot and journals it.
void record(JournalWriter* writer, CampaignResult& result, std::size_t pos,
            const StrikeResult& r) {
  if (writer != nullptr) writer->append(r);
  result.strikes[pos] = r;
}

/// One strike on the scalar ProtectionSim, which polls `token`: the
/// scalar kernel's unit and the lane kernel's per-strike fallback. A
/// cancelled run reports kTimeout and any other exception kError, so one
/// hung or throwing strike costs one inconclusive result, never the
/// campaign.
StrikeResult scalar_strike(const core::ProtectionSim& scalar,
                           const sim::CancelToken& token,
                           const set::PlannedStrike& planned,
                           const EngineOptions& options) {
  StrikeResult r;
  r.index = planned.index;
  try {
    if (options.test_hook) options.test_hook(planned.index, token);
    const auto inputs =
        CampaignEngine::strike_inputs(scalar.netlist(), options.cycles_per_run,
                                      options.seed, planned.index);
    const core::ScheduledStrike scheduled = to_scheduled(planned);
    const auto protected_r = scalar.run(inputs, {scheduled});
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
      const auto unprotected_r = scalar.run_unprotected(inputs, {scheduled});
      r.unprotected_failed = unprotected_r.corrupted_cycles > 0;
    }
  } catch (const sim::CancelledError&) {
    r = StrikeResult{};
    r.index = planned.index;
    r.status = StrikeStatus::kTimeout;
    std::ostringstream os;
    os << "per-strike budget of " << options.timeout_ms << " ms exhausted";
    r.diagnostic = os.str();
  } catch (const std::exception& e) {
    r = StrikeResult{};
    r.index = planned.index;
    r.status = StrikeStatus::kError;
    r.diagnostic = e.what();
  }
  return r;
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

/// Counts one completed strike into its breakdown slice.
void tally(core::ScenarioStats& slice, const StrikeResult& r) {
  ++slice.strikes;
  switch (r.status) {
    case StrikeStatus::kCovered:
      break;
    case StrikeStatus::kEscape:
      ++slice.escapes;
      break;
    case StrikeStatus::kTimeout:
      ++slice.timeouts;
      [[fallthrough]];
    case StrikeStatus::kError:
      ++slice.inconclusive;
      break;
  }
  if (r.conclusive() && r.unprotected_failed) ++slice.unprotected_failures;
}

}  // namespace

void aggregate_results(const set::StrikePlan& plan, CampaignResult& result) {
  CWSP_REQUIRE(result.strikes.size() == plan.size());
  result.report = core::CoverageReport{};
  result.unexpected_escapes = 0;
  result.interrupted = false;
  core::CoverageReport& report = result.report;
  core::ScenarioStats total;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const StrikeResult& r = result.strikes[i];
    if (!r.completed()) {
      result.interrupted = true;
      continue;
    }
    const set::PlannedStrike& planned = plan.strikes[i];
    tally(report.scenario(set::to_string(planned.klass), result.scheme,
                          result.fault_model),
          r);
    tally(total, r);
    if (r.status == StrikeStatus::kEscape &&
        planned.klass != set::StrikeClass::kOutOfEnvelope) {
      ++result.unexpected_escapes;
    }
    if (r.conclusive()) {
      report.bubbles += r.bubbles;
      report.detected_errors += r.detected_errors;
      report.spurious_recomputes += r.spurious_recomputes;
    }
  }
  report.runs = total.strikes;
  report.strikes_injected = total.strikes;
  report.protected_failures = total.escapes;
  report.unprotected_failures = total.unprotected_failures;
  report.inconclusive = total.inconclusive;
  report.timeouts = total.timeouts;
}

std::vector<core::ScenarioStats> protection_site_slices(
    const set::StrikePlan& plan, const CampaignResult& result) {
  CWSP_REQUIRE(result.strikes.size() == plan.size());
  const auto slice = [&](set::ProtectionSite site) {
    return core::ScenarioStats{set::to_string(site), result.scheme,
                               result.fault_model, 0, 0, 0, 0, 0};
  };
  // Indexed by set::ProtectionSite, whose enumerators follow §3.2.
  std::vector<core::ScenarioStats> slices = {
      slice(set::ProtectionSite::kEqChecker),
      slice(set::ProtectionSite::kEqglbfDff),
      slice(set::ProtectionSite::kCwStarDff),
      slice(set::ProtectionSite::kCwspOutput)};
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const set::PlannedStrike& planned = plan.strikes[i];
    if (result.strikes[i].completed() &&
        planned.klass == set::StrikeClass::kProtectionPath) {
      tally(slices[static_cast<std::size_t>(planned.site)],
            result.strikes[i]);
    }
  }
  return slices;
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
  // strike_inputs draws bit (cycle, pi) as next_bool() number
  // cycle * PIs + pi of the strike's stream, which is run_packed's order
  // of lane words.
  const std::size_t bits = cycles * netlist.primary_inputs().size();
  stimulus.resize(bits * (lanes / 64));
  sim::pack_stream_draws(lanes, seed, strike_indices, bits, stimulus.data());
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

  // A misconfigured campaign fails here, the same way on either kernel.
  core::check_protection_config(*netlist_, params_, clock_period_);

  // The work list: the first stop_after (or all) undone plan positions, in
  // plan order. Both kernels execute exactly this list, so an interrupted
  // campaign ran the same strikes at any jobs value on either kernel.
  std::vector<std::size_t> todo;
  todo.reserve(plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (done[i] != 0) continue;
    if (options.stop_after != 0 && todo.size() >= options.stop_after) break;
    todo.push_back(i);
  }

  JournalWriter* const journal = writer.has_value() ? &*writer : nullptr;
  if (!needs_scalar) {
    run_lane_strikes(plan, options, todo, journal, result);
  } else {
    // One strike per unit. A worker's simulator polls the worker's own
    // token, which carries the strike's deadline (none when timeout_ms is
    // 0), so a budget expires at the simulator's next poll.
    const auto scalar_worker = [&](const auto& claim) {
      core::ProtectionSim scalar(*netlist_, params_, clock_period_,
                                 core::ProtectionSimOptions{},
                                 kernel_context_);
      sim::CancelToken token;
      scalar.set_cancel_token(&token);
      for (std::size_t u = 0; claim(u);) {
        token.reset();
        token.set_deadline(Stopwatch::deadline_after(options.timeout_ms));
        const std::size_t pos = todo[u];
        record(journal, result, pos,
               scalar_strike(scalar, token, plan.strikes[pos], options));
      }
    };
    run_pool(options.jobs, todo.size(), options.cancel, scalar_worker);
  }

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
                                      const std::vector<std::size_t>& todo,
                                      JournalWriter* writer,
                                      CampaignResult& result) const {
  const scheme::ProtectionScheme& sch = scheme_of(options);
  const bool cwsp_semantics = is_cwsp(sch);

  // Protection-path strikes are closed-form (§3.2 case analysis) —
  // resolve them inline. So is a functional strike whose every half the
  // capture aperture masks: it latches golden at every flip-flop, so its
  // lane outcome is the all-golden one under any scheme. Only the rest
  // need lane simulation.
  const sim::CompiledKernelContext& context = *kernel_context_;
  const auto masked = [&](const set::PlannedStrike& planned) {
    return context.capture_masked(planned.strike, clock_period_) &&
           (!planned.node2.valid() ||
            context.capture_masked({planned.node2, planned.strike.start,
                                    planned.strike.width},
                                   clock_period_));
  };
  std::vector<std::size_t> functional;
  functional.reserve(todo.size());
  std::uint64_t analytic = 0;
  std::uint64_t masked_strikes = 0;
  for (std::size_t pos : todo) {
    if (options.cancel != nullptr && options.cancel->cancelled()) break;
    const set::PlannedStrike& planned = plan.strikes[pos];
    if (planned.klass == set::StrikeClass::kProtectionPath) {
      record(writer, result, pos,
             sch.resolve_protection_path(planned, options.cycles_per_run,
                                         clock_period_));
      ++analytic;
    } else if (masked(planned)) {
      sim::LaneOutcome golden;
      golden.fired = planned.cycle < options.cycles_per_run;
      record(writer, result, pos,
             sch.resolve_functional(
                 planned, golden,
                 sch.squash_at_strike(*netlist_, params_, planned),
                 options.cycles_per_run, params_));
      ++masked_strikes;
    } else {
      functional.push_back(pos);
    }
  }

  // ---- lane batches --------------------------------------------------
  // One batch per unit. Batch boundaries are fixed by plan order (batch
  // b = functional[b*L .. b*L+L)), so the per-strike outcomes — and
  // therefore the report — are independent of which worker runs which
  // batch.
  const std::size_t lane_count =
      sim::WideLogicSim::isa_for(options.lane_width).lanes;
  const std::size_t num_batches =
      (functional.size() + lane_count - 1) / lane_count;
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> lanes_filled{0};
  std::atomic<std::uint64_t> lane_slots{0};
  std::atomic<std::uint64_t> timed{0};

  run_pool(options.jobs, num_batches, options.cancel, [&](const auto& claim) {
    sim::StrikeLaneSim lane_sim(kernel_context_, clock_period_, params_.delta,
                                options.lane_width);
    // Scalar fallback simulator, built only if a batch throws; nothing
    // arms the token it is run under.
    std::unique_ptr<core::ProtectionSim> scalar;
    const sim::CancelToken unarmed;
    std::vector<std::size_t> indices;
    std::vector<std::uint64_t> stimulus;
    std::vector<sim::LaneScenario> batch;
    std::vector<sim::LaneOutcome> out;
    for (std::size_t b = 0; claim(b);) {
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
          record(writer, result, functional[k],
                 sch.resolve_functional(planned, out[k - begin],
                                        batch[k - begin].squash_at_strike,
                                        options.cycles_per_run, params_));
        }
      } catch (const std::exception& batch_error) {
        // Degrade the batch to scalar per-strike runs.
        if (scalar == nullptr) {
          scalar = std::make_unique<core::ProtectionSim>(
              *netlist_, params_, clock_period_, core::ProtectionSimOptions{},
              kernel_context_);
        }
        for (std::size_t k = begin; k < end; ++k) {
          const set::PlannedStrike& planned = plan.strikes[functional[k]];
          if (cwsp_semantics && !planned.node2.valid()) {
            record(writer, result, functional[k],
                   scalar_strike(*scalar, unarmed, planned, options));
            continue;
          }
          // The scalar simulator speaks only the CWSP protocol over
          // single-node strikes; an inexpressible strike degrades to
          // inconclusive instead of a wrong verdict.
          StrikeResult r;
          r.index = planned.index;
          r.status = StrikeStatus::kError;
          r.diagnostic = batch_error.what();
          record(writer, result, functional[k], r);
        }
      }
    }
    batches.fetch_add(lane_sim.batches_run());
    lanes_filled.fetch_add(lane_sim.lanes_filled());
    lane_slots.fetch_add(lane_sim.lane_slots());
    timed.fetch_add(lane_sim.timed_resolutions());
  });

  // Observability only (never feeds the report).
  auto& registry = metrics::Registry::global();
  registry.counter("campaign.lane_batches").add(batches.load());
  registry.counter("campaign.lane_slots_filled").add(lanes_filled.load());
  registry.counter("campaign.lane_slots_total").add(lane_slots.load());
  registry.counter("campaign.lane_timed_resolutions").add(timed.load());
  registry.counter("campaign.lane_analytic_strikes").add(analytic);
  registry.counter("campaign.lane_masked_strikes").add(masked_strikes);
}

}  // namespace cwsp::campaign
