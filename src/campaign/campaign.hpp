#pragma once
// Resilient parallel fault-injection campaign engine.
//
// Runs a strike plan (set::StrikePlan) on one of two kernels — the
// strike-lane kernel (sim::StrikeLaneSim) or the scalar protection
// simulator (core::ProtectionSim) — through one worker pool built for
// campaigns that must survive crashes, hangs and interruption at scale:
//
//   * deterministic parallelism — every strike draws its stimulus from a
//     splittable RNG stream keyed by its plan index, so reports are
//     byte-identical for any `jobs` value;
//   * checkpoint/resume — each finished strike is flushed to a journal
//     file; a resumed campaign re-runs only the unfinished strikes and
//     aggregates to the same totals as an uninterrupted run;
//   * per-strike timeouts and exception isolation — a hung or throwing
//     simulation degrades that one strike to `inconclusive` (with a
//     captured diagnostic) instead of aborting the campaign;
//   * escape minimization — every coverage escape can be shrunk to a
//     minimal standalone repro artifact (.bench + strike spec).
//
// See docs/campaign.md for the architecture, journal format and report
// schema.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "campaign/minimize.hpp"
#include "campaign/strike_result.hpp"
#include "cwsp/coverage.hpp"
#include "set/strike_plan.hpp"
#include "sim/cancel.hpp"

namespace cwsp::scheme {
class ProtectionScheme;
}  // namespace cwsp::scheme

namespace cwsp::campaign {

class JournalWriter;

struct EngineOptions {
  /// Seed of the per-strike stimulus streams (Rng::stream(seed, index)).
  std::uint64_t seed = 1;
  /// Length of the input sequence each strike is injected into.
  std::size_t cycles_per_run = 20;
  /// Worker threads. Results are identical for any value ≥ 1.
  std::size_t jobs = 1;
  /// Per-strike wall-clock budget, armed as a deadline on the worker's
  /// CancelToken; 0 disables timeouts. Selects the scalar kernel.
  double timeout_ms = 0.0;
  /// Journal file for checkpoint/resume; empty disables journaling.
  std::string journal_path;
  /// Resume from an existing journal (journal_path must name it); its
  /// fingerprint must match this plan + options.
  bool resume = false;
  /// Shrink every escape to a minimal repro.
  bool minimize_escapes = false;
  /// Directory for repro artifacts (written only when non-empty and
  /// minimize_escapes is set).
  std::string artifact_dir;
  /// Execute only the first this-many *fresh* (undone) strikes in plan
  /// order, at any `jobs` on either kernel, then stop (0 = no limit).
  /// Simulates an interruption deterministically; the journal keeps the
  /// finished work, so `resume` completes the campaign.
  std::size_t stop_after = 0;
  /// Resolve strikes on the fault-parallel strike-lane kernel
  /// (sim::StrikeLaneSim): functional strikes are packed lanes() at a
  /// time into bit-parallel sweeps and protection-path strikes are
  /// answered from the closed-form §3.2 case analysis. Reports are
  /// byte-identical to the scalar ProtectionSim path at any lane width
  /// and any `jobs`; the engine falls back to the scalar path whenever a
  /// feature needs full per-strike timed simulation plumbing (per-strike
  /// timeouts, test hooks).
  bool use_lane_kernel = true;
  /// Lane width for the strike-lane kernel (64, 256 or 512); 0 picks the
  /// widest ISA-accelerated width this CPU supports.
  std::size_t lane_width = 0;
  /// Test hook run before each strike's simulation on the worker thread,
  /// with the token that carries the strike's deadline (e.g. to inject a
  /// hang that only the per-strike budget can break). Must throw
  /// sim::CancelledError to emulate a cancelled hang. Selects the scalar
  /// kernel.
  std::function<void(std::size_t, const sim::CancelToken&)> test_hook;
  /// Cooperative whole-campaign abort (the analysis service's job
  /// cancellation): workers stop claiming strikes once the token is
  /// cancelled, and the result reports `interrupted`. Already-claimed
  /// strikes finish normally, so a journaled campaign stays resumable.
  const sim::CancelToken* cancel = nullptr;
  /// Protection scheme supplying the per-strike verdict semantics;
  /// nullptr selects the registry's default (the paper's CWSP protocol,
  /// byte-identical to the pre-registry engine). Non-CWSP schemes resolve
  /// verdicts on the strike-lane kernel only (no per-strike timeouts,
  /// test hooks or escape minimization).
  const scheme::ProtectionScheme* scheme = nullptr;
  /// Name of the fault model that built the plan; recorded in the report
  /// and in per-scenario accounting so merged fabric reports never alias
  /// two (scheme, model) cells into one bucket.
  std::string fault_model = "single-set";
};

struct CampaignResult {
  /// Aggregate over completed strikes, in plan-index order.
  core::CoverageReport report;
  /// One slot per planned strike; slots never executed (interruption)
  /// have completed() == false.
  std::vector<StrikeResult> strikes;
  /// Minimized escapes (when minimize_escapes is set), index order.
  std::vector<EscapeRepro> repros;
  /// Escapes outside the expected (out-of-envelope) class — the ones that
  /// would falsify the paper's coverage claim.
  std::size_t unexpected_escapes = 0;
  /// Strikes loaded from the journal instead of executed.
  std::size_t resumed = 0;
  /// Strikes executed by this invocation.
  std::size_t executed = 0;
  /// True when the campaign stopped before completing every strike.
  bool interrupted = false;
  /// The (scheme, fault-model) cell this result was produced under; set
  /// by the engine (and by the fabric merge) before aggregation so
  /// scenario buckets are keyed per cell.
  std::string scheme = "cwsp";
  std::string fault_model = "single-set";
};

/// Recomputes result.report, result.unexpected_escapes and
/// result.interrupted from result.strikes (one slot per plan position,
/// sequential plan order → deterministic). The engine calls this after
/// its workers finish; the distributed fabric calls it after merging
/// shard results into a full-plan slot vector, which is what makes a
/// merged report byte-identical to a single-host run.
void aggregate_results(const set::StrikePlan& plan, CampaignResult& result);

/// The §3.2 view of result's protection-path strikes: one slice per
/// set::ProtectionSite, all four in §3.2 order (a site the plan never
/// drew stays at zero), counting completed strikes as aggregate_results
/// counts a class.
[[nodiscard]] std::vector<core::ScenarioStats> protection_site_slices(
    const set::StrikePlan& plan, const CampaignResult& result);

class CampaignEngine {
 public:
  /// The netlist and library must outlive the engine.
  CampaignEngine(const Netlist& netlist, const core::ProtectionParams& params,
                 Picoseconds clock_period);
  /// Shares a prebuilt kernel context (the analysis service's warm-cache
  /// path) instead of rebuilding flat view + STA per engine. `context`
  /// must have been built from `netlist`.
  CampaignEngine(const Netlist& netlist, const core::ProtectionParams& params,
                 Picoseconds clock_period,
                 std::shared_ptr<const sim::CompiledKernelContext> context);

  /// Executes `plan`. Throws cwsp::Error for configuration errors
  /// (mismatched resume journal, zero jobs); per-strike failures never
  /// propagate — they degrade to inconclusive results.
  [[nodiscard]] CampaignResult run(const set::StrikePlan& plan,
                                   const EngineOptions& options) const;

  [[nodiscard]] const Netlist& netlist() const { return *netlist_; }
  [[nodiscard]] Picoseconds clock_period() const { return clock_period_; }
  [[nodiscard]] const core::ProtectionParams& params() const {
    return params_;
  }

  /// The deterministic stimulus for one strike: the engine's workers, the
  /// minimizer and tests all derive inputs through this single function.
  [[nodiscard]] static std::vector<std::vector<bool>> strike_inputs(
      const Netlist& netlist, std::size_t cycles, std::uint64_t seed,
      std::size_t strike_index);

  /// The stimuli of one lane batch, written straight into
  /// sim::StrikeLaneSim::run_packed's layout for a `lanes`-wide plane:
  /// lane l carries strike_inputs(netlist, cycles, seed,
  /// strike_indices[l]) bit for bit, and lanes past the list are zero.
  /// `lanes` is one of sim::WideLogicSim::supported_lane_widths(), and
  /// its stimulus body is the one that width dispatches to.
  /// `stimulus` is resized to cycles × PIs × lanes / 64 words.
  static void strike_inputs_packed(
      const Netlist& netlist, std::size_t cycles, std::uint64_t seed,
      const std::vector<std::size_t>& strike_indices, std::size_t lanes,
      std::vector<std::uint64_t>& stimulus);

 private:
  /// The strike-lane kernel of run(): resolves the plan positions in
  /// `todo` (run()'s work list) into result.strikes, answering
  /// protection-path strikes analytically and functional strikes the
  /// capture aperture masks (sim::CompiledKernelContext::capture_masked)
  /// from the all-golden lane outcome, and batching the remaining
  /// functional strikes lanes-at-a-time through sim::StrikeLaneSim.
  /// Byte-identical to the scalar kernel.
  void run_lane_strikes(const set::StrikePlan& plan,
                        const EngineOptions& options,
                        const std::vector<std::size_t>& todo,
                        JournalWriter* writer, CampaignResult& result) const;

  const Netlist* netlist_;
  core::ProtectionParams params_;
  Picoseconds clock_period_;
  /// Flat view + STA delays, built once and shared read-only by every
  /// worker's ProtectionSim (each worker keeps private scratch/caches).
  std::shared_ptr<const sim::CompiledKernelContext> kernel_context_;
};

}  // namespace cwsp::campaign
