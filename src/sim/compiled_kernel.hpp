#pragma once
// Compiled simulation kernel: the allocation-free fast path the campaign,
// coverage and protection-protocol layers run on.
//
// Three cooperating pieces, all built over a shared FlatNetlistView:
//
//   * CompiledEventSim — drop-in replacement for sim::EventSim with the
//     same cycle semantics, byte-identical results, and three structural
//     optimisations: (1) golden (no-strike) cycles collapse to a single
//     table-driven logic pass whose result is memoized per (PI, FF-state)
//     stimulus; (2) struck cycles only event-simulate the gates inside
//     the struck net's fanout cone, reading golden constants everywhere
//     else; (3) all per-cycle state lives in reusable scratch buffers —
//     steady-state simulation performs no heap allocation.
//
//   * LogicSim64 — 64-way bit-parallel zero-delay logic simulator: packs
//     64 stimulus patterns into one machine word per net and evaluates
//     all of them in a single topological pass (used by equivalence
//     sweeps and differential tests).
//
//   * CompiledKernelContext — the shareable immutable part (flat view +
//     STA gate delays), built once per netlist and handed to every
//     worker thread of a campaign.
//
// A CompiledEventSim instance is NOT thread-safe (it owns mutable scratch
// and the golden cache); create one per worker and share the context.

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "netlist/flat_view.hpp"
#include "sim/event_sim.hpp"

namespace cwsp::sim {

/// Immutable per-netlist data shared by compiled kernels across threads:
/// the flattened topology and the STA-derived per-gate delays.
struct CompiledKernelContext {
  std::shared_ptr<const FlatNetlistView> view;
  std::shared_ptr<const std::vector<double>> gate_delay_ps;

  /// Builds the view and runs STA once. The netlist must outlive the
  /// returned context.
  [[nodiscard]] static std::shared_ptr<const CompiledKernelContext> build(
      const Netlist& netlist);
};

/// One memoized golden (no-strike) cycle: the settled value of every net
/// plus the endpoint samples derived from them.
struct GoldenCycle {
  std::vector<unsigned char> net_values;
  std::vector<bool> ff_d;
  std::vector<bool> po;
};

class CompiledEventSim {
 public:
  /// Builds a private context (flat view + STA).
  explicit CompiledEventSim(const Netlist& netlist);
  /// Shares a prebuilt context (the campaign worker path).
  CompiledEventSim(const Netlist& netlist,
                   std::shared_ptr<const CompiledKernelContext> context);
  /// Flushes this instance's golden-cache hit/miss totals into the global
  /// metrics registry (kernel.golden_cache_*) — zero hot-path overhead.
  ~CompiledEventSim();

  /// Same contract as EventSim::simulate_cycle, same results to the bit.
  [[nodiscard]] CycleResult simulate_cycle(
      const std::vector<bool>& pi_values, const std::vector<bool>& ff_q_values,
      Picoseconds capture_time,
      const std::optional<set::Strike>& strike) const;

  /// Timed strike resolution against a caller-provided golden cycle —
  /// the strike-lane kernel's entry: the lane planes already settled the
  /// cycle, so this skips the golden cache and goes straight to the
  /// cone-restricted event propagation + endpoint sampling. Bit-identical
  /// to simulate_cycle() on the stimulus that produced `golden`.
  /// `golden.net_values` must span every net, but the only entries read
  /// are the struck net's and the inputs of the gates in
  /// FlatNetlistView::cone_of(strike.node); ff_d and po are read whole.
  /// Callers may leave every other entry stale.
  [[nodiscard]] CycleResult resolve_strike(const GoldenCycle& golden,
                                           Picoseconds capture_time,
                                           const set::Strike& strike) const;

  /// Same contract as EventSim::net_waveform.
  [[nodiscard]] DigitalWaveform net_waveform(
      const std::vector<bool>& pi_values, const std::vector<bool>& ff_q_values,
      const std::optional<set::Strike>& strike, NetId net) const;

  [[nodiscard]] const Netlist& netlist() const {
    return context_->view->netlist();
  }

  void set_cancel_token(const CancelToken* token) { cancel_ = token; }

  /// Clean-run step: settled PO values and next FF state for one stimulus,
  /// served from the golden cache. Semantically identical to one scalar
  /// LogicSim evaluate()/clock() step. The reference is valid until the
  /// next call into this simulator.
  [[nodiscard]] const GoldenCycle& golden_eval(
      const std::vector<bool>& pi_values,
      const std::vector<bool>& ff_q_values) const {
    return golden_cycle(pi_values, ff_q_values);
  }

  /// Golden-cache telemetry (for benchmarks and tests).
  [[nodiscard]] std::size_t golden_cache_hits() const { return cache_hits_; }
  [[nodiscard]] std::size_t golden_cache_misses() const {
    return cache_misses_;
  }
  /// Entries kept before the cache is wholesale-evicted (bounds memory on
  /// pathological stimulus diversity). Clears the cache when shrunk below
  /// the current population.
  void set_golden_cache_capacity(std::size_t entries);

 private:
  struct StimulusKey {
    std::vector<std::uint64_t> words;
    bool operator==(const StimulusKey& other) const {
      return words == other.words;
    }
  };
  struct StimulusKeyHash {
    std::size_t operator()(const StimulusKey& key) const {
      std::uint64_t h = 0x9e3779b97f4a7c15ULL;
      for (std::uint64_t w : key.words) {
        h ^= w + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      }
      return static_cast<std::size_t>(h);
    }
  };

  /// Cached golden evaluation of one stimulus (single logic pass on miss).
  const GoldenCycle& golden_cycle(const std::vector<bool>& pi_values,
                                  const std::vector<bool>& ff_q_values) const;

  /// Event-simulates the struck net's cone against `golden`, filling the
  /// scratch waveform pool. Returns the cone (topo-sorted gate indices).
  void propagate_cone(const GoldenCycle& golden,
                      const set::Strike& strike) const;

  std::shared_ptr<const CompiledKernelContext> context_;
  const CancelToken* cancel_ = nullptr;

  // Golden-waveform cache.
  mutable std::unordered_map<StimulusKey, GoldenCycle, StimulusKeyHash>
      golden_cache_;
  std::size_t golden_cache_capacity_ = 4096;
  mutable std::size_t cache_hits_ = 0;
  mutable std::size_t cache_misses_ = 0;

  // Reusable scratch (valid between propagate_cone and endpoint
  // sampling; wiped lazily at the start of the next propagation).
  mutable std::vector<DigitalWaveform> wave_;
  mutable std::vector<char> touched_;
  mutable std::vector<std::uint32_t> touched_list_;
  mutable std::vector<double> times_;
};

/// 64-way bit-parallel zero-delay logic simulator. Lane `l` of every word
/// is an independent simulation: 64 stimulus patterns settle per
/// topological pass. Mirrors LogicSim's API with words instead of bools.
class LogicSim64 {
 public:
  explicit LogicSim64(const Netlist& netlist);
  explicit LogicSim64(std::shared_ptr<const FlatNetlistView> view);

  [[nodiscard]] std::size_t num_lanes() const { return 64; }

  void set_input_word(std::size_t pi, std::uint64_t bits);
  void set_input_lane(std::size_t pi, std::size_t lane, bool value);
  void set_ff_word(std::size_t ff, std::uint64_t bits);
  void set_ff_lane(std::size_t ff, std::size_t lane, bool value);

  /// Settles combinational logic for all 64 lanes in one topo pass.
  void evaluate();
  /// Latches every flip-flop in every lane (Q ← D).
  void clock();

  /// Re-evaluates only `site`'s fanout cone with the site word inverted
  /// in every lane, against the values of the last evaluate(). The base
  /// words are untouched; compare via flip_diff. O(|cone|), so sweeping
  /// many sites against one stimulus batch costs one full pass plus one
  /// cone pass per site instead of a full pass per site.
  void evaluate_with_flip(NetId site);
  /// Per-lane XOR between the flipped overlay and the base evaluation of
  /// `net` (zero for nets outside the flipped site's cone). Only valid
  /// after evaluate_with_flip; cleared by the next evaluate().
  [[nodiscard]] std::uint64_t flip_diff(NetId net) const;

  [[nodiscard]] std::uint64_t value_word(NetId net) const;
  [[nodiscard]] bool value(NetId net, std::size_t lane) const;
  [[nodiscard]] std::uint64_t output_word(std::size_t po_index) const;
  [[nodiscard]] std::uint64_t ff_word(std::size_t ff) const;

  [[nodiscard]] const Netlist& netlist() const { return view_->netlist(); }

 private:
  std::shared_ptr<const FlatNetlistView> view_;
  std::vector<std::uint64_t> net_words_;
  std::vector<std::uint64_t> pi_words_;
  std::vector<std::uint64_t> ff_words_;

  // Flip-overlay scratch (evaluate_with_flip / flip_diff). Sparse: only
  // the nets in overlay_nets_ carry overlay values; reset is O(touched).
  std::vector<std::uint64_t> overlay_words_;
  std::vector<char> overlay_valid_;
  std::vector<std::uint32_t> overlay_nets_;
};

}  // namespace cwsp::sim
