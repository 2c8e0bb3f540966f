#pragma once
// Strike-site and strike-time planning for fault-injection campaigns over
// gate-level netlists.

#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "netlist/netlist.hpp"

namespace cwsp::set {

/// One SET event at gate level: the logical value of `node` is inverted
/// during [start, start + width).
struct Strike {
  NetId node;
  Picoseconds start{0.0};
  Picoseconds width{0.0};
};

/// Nets eligible for strikes: gate outputs and flip-flop Q nets (diffusion
/// nodes exist there). Primary inputs are driven from outside the die.
[[nodiscard]] std::vector<NetId> strike_sites(const Netlist& netlist);

/// Uniformly random strikes across sites and a time window.
[[nodiscard]] std::vector<Strike> random_strikes(const Netlist& netlist,
                                                 std::size_t count,
                                                 Picoseconds width,
                                                 Picoseconds window_start,
                                                 Picoseconds window_end,
                                                 Rng& rng);

/// One strike per site at each of `time_points` — the exhaustive sweep the
/// paper's §3.2 case analysis calls for.
[[nodiscard]] std::vector<Strike> exhaustive_strikes(
    const Netlist& netlist, Picoseconds width,
    const std::vector<Picoseconds>& time_points);

/// Random strikes with per-site probability proportional to the driving
/// cell's active (diffusion) area — the physically correct weighting: a
/// particle is more likely to hit a larger device (paper §1, Q = f(LET,
/// collection volume)).
[[nodiscard]] std::vector<Strike> area_weighted_strikes(
    const Netlist& netlist, std::size_t count, Picoseconds width,
    Picoseconds window_start, Picoseconds window_end, Rng& rng);

// ------------------------------------------------------------------ plans
// Materialised campaign plans: every strike of a campaign is enumerated
// up front with a stable index, so execution order (thread count, shard
// assignment, resume) cannot change what gets injected.

/// Adversarial strike classes a campaign plan draws from.
enum class StrikeClass : std::uint8_t {
  /// Random site/time inside the functional logic, width within the
  /// protection envelope (the paper's headline 100%-coverage claim).
  kFunctional,
  /// Strike inside the protection circuitry itself (§3.2 case analysis).
  kProtectionPath,
  /// Functional strike whose pulse spans the capture edge — the
  /// latching-window corner where detection/recovery must engage.
  kClockEdge,
  /// Functional strike wider than the designed δ: outside the guarantee,
  /// escapes are expected and validate that the harness has teeth.
  kOutOfEnvelope,
};

[[nodiscard]] const char* to_string(StrikeClass klass);

/// Which protection-circuit structure a kProtectionPath strike hits;
/// mirrors the paper's §3.2 bullets.
enum class ProtectionSite : std::uint8_t {
  kEqChecker,
  kEqglbfDff,
  kCwStarDff,
  kCwspOutput,
};

/// "eq-checker", "eqglbf-dff", "cwstar-dff" or "cwsp-output".
[[nodiscard]] const char* to_string(ProtectionSite site);

struct PlannedStrike {
  /// Stable identity within the plan; journal entries, RNG streams and
  /// repro artifacts are all keyed by it.
  std::size_t index = 0;
  StrikeClass klass = StrikeClass::kFunctional;
  /// Only meaningful for kProtectionPath.
  ProtectionSite site = ProtectionSite::kEqChecker;
  /// Cycle (within the run's input sequence) the strike lands in.
  std::size_t cycle = 0;
  /// Protected FF whose circuitry is hit (kProtectionPath only).
  std::size_t ff_index = 0;
  Strike strike;
  /// Second simultaneous strike node of a charge-sharing double SET
  /// (multi-node fault models); shares `strike`'s start/width. Invalid
  /// for single-node strikes, which keeps single-node plan fingerprints
  /// unchanged.
  NetId node2;
};

struct StrikePlan {
  std::vector<PlannedStrike> strikes;
  [[nodiscard]] std::size_t size() const { return strikes.size(); }
  [[nodiscard]] bool empty() const { return strikes.empty(); }
};

struct StrikePlanOptions {
  std::size_t functional_strikes = 50;
  std::size_t protection_path_strikes = 0;
  std::size_t clock_edge_strikes = 0;
  std::size_t out_of_envelope_strikes = 0;
  /// Length of the input sequence each strike is injected into.
  std::size_t cycles_per_run = 20;
  /// Width for in-envelope classes.
  Picoseconds glitch_width{400.0};
  /// Width for kOutOfEnvelope (must exceed the design's δ to be "out").
  Picoseconds out_of_envelope_width{900.0};
  Picoseconds clock_period{2000.0};
  bool area_weighted_sites = false;
};

/// Deterministically materialises a campaign plan: same (netlist, options,
/// seed) → identical plan, independent of thread count or sharding.
/// Functional-class strikes require a non-empty strike-site set;
/// protection-path strikes require at least one flip-flop.
[[nodiscard]] StrikePlan build_strike_plan(const Netlist& netlist,
                                           const StrikePlanOptions& options,
                                           std::uint64_t seed);

/// Splits a plan into `num_shards` contiguous sub-plans whose
/// concatenation reproduces the input exactly (no duplication, no loss;
/// original indices preserved). Shard sizes differ by at most one.
[[nodiscard]] std::vector<StrikePlan> shard_plan(const StrikePlan& plan,
                                                 std::size_t num_shards);

/// Order-sensitive FNV-1a digest of every field of every planned strike.
/// Two plans with equal fingerprints inject the same strikes — this is
/// what the distributed fabric uses to validate that a worker executed
/// exactly the shard the coordinator asked for.
[[nodiscard]] std::uint64_t plan_fingerprint(const StrikePlan& plan);

}  // namespace cwsp::set
