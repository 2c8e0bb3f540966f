#pragma once
// Compiled simulation kernel: the allocation-free fast path the campaign,
// coverage, certify and protection-protocol layers run on.
//
// Two cooperating pieces, both built over a shared FlatNetlistView:
//
//   * CompiledEventSim — the production timed simulator, with three
//     structural optimisations over a full-netlist event propagation:
//     (1) golden (no-strike) cycles collapse to a single table-driven
//     logic pass whose result is memoized per (PI, FF-state) stimulus;
//     (2) struck cycles only event-simulate the gates inside the struck
//     net's fanout cone, reading golden constants everywhere else, and
//     a cone gate with one toggling input shifts that input's toggles
//     (or blocks them) instead of re-evaluating the gate per event;
//     (3) all per-cycle state lives in reusable scratch buffers (one
//     transition arena and one slot per toggling net) — steady-state
//     simulation performs no heap allocation. Tests pin it bit for bit
//     to the full-netlist EventSim oracle (tests/oracle). A resolution
//     reads the golden value of the struck net and of the cone gates'
//     side inputs only, from a GoldenCycle (resolve_strike) or in place
//     from one lane of a settled WideLogicSim plane
//     (resolve_lane_strike, which returns just the endpoints the pulse
//     reached).
//
//   * CompiledKernelContext — the shareable immutable part (flat view,
//     STA gate delays, the capture aperture and every net's path-delay
//     bounds to the flip-flop D pins, which decide the strikes that
//     cannot latch: capture_masked), built once per netlist and handed
//     to every worker thread of a campaign.
//
// A CompiledEventSim instance is NOT thread-safe (it owns mutable scratch
// and the golden cache); create one per worker and share the context.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "netlist/flat_view.hpp"
#include "set/strike_plan.hpp"
#include "sim/cancel.hpp"
#include "sim/digital_waveform.hpp"

namespace cwsp::sim {

struct CycleResult {
  /// Per-FF D value with no strike (golden) and with the strike, sampled
  /// at the capture edge.
  std::vector<bool> golden_d;
  std::vector<bool> latched_d;
  /// True where the glitch toggles inside the setup/hold aperture (the
  /// latch may capture either value; pessimistically treated as corrupt
  /// by unprotected-design analyses).
  std::vector<bool> aperture_violation;

  /// Primary-output values at the capture edge (golden / struck).
  std::vector<bool> golden_po;
  std::vector<bool> struck_po;

  /// True if the strike's pulse reached any timing endpoint (FF D pin or
  /// primary output) at all — the pessimistic criterion gate-resizing
  /// approaches use, ignoring latching-window masking.
  bool glitch_reached_endpoint = false;

  [[nodiscard]] bool any_ff_corrupted() const {
    for (std::size_t i = 0; i < latched_d.size(); ++i) {
      if (latched_d[i] != golden_d[i] || aperture_violation[i]) return true;
    }
    return false;
  }
};

/// Immutable per-netlist data shared by compiled kernels across threads:
/// the flattened topology, the STA-derived per-gate delays and the
/// per-net path-delay bounds to the flip-flop D pins.
struct CompiledKernelContext {
  std::shared_ptr<const FlatNetlistView> view;
  std::shared_ptr<const std::vector<double>> gate_delay_ps;
  /// Per net, the shortest and longest sum of gate_delay_ps over the gate
  /// paths from it to any flip-flop D pin: 0 for a net that drives one,
  /// +inf / -inf where no D pin is reachable.
  std::vector<double> d_pin_min_ps;
  std::vector<double> d_pin_max_ps;
  /// The regular flip-flop's setup and hold, which bound the capture
  /// aperture [T - setup, T + hold] around a capture edge T.
  double setup_ps = 0.0;
  double hold_ps = 0.0;

  /// Slack (ps) every capture_masked comparison keeps against the
  /// rounding between the kernel's path sums and the bounds' (see
  /// capture_masked).
  static constexpr double kMaskMarginPs = 1e-6;

  /// Builds the view, runs STA once and fills the D-pin bounds in one
  /// reverse topological pass. The netlist must outlive the returned
  /// context.
  [[nodiscard]] static std::shared_ptr<const CompiledKernelContext> build(
      const Netlist& netlist);

  /// True when `strike` provably latches golden at every flip-flop with
  /// no aperture violation for a capture at `capture_time`: no D pin is
  /// reachable from its net, or every toggle it can put on a D pin falls
  /// before both T - setup and T (start + width + d_pin_max), or after
  /// both T + hold and T (start + d_pin_min), by more than kMaskMarginPs.
  /// Exact because every toggle the timed resolver emits is a toggle of
  /// the struck net delayed by the gate delays of one path, the inertial
  /// filter only removes toggles, and every waveform starts and ends at
  /// its golden value (docs/perf.md §5). Says nothing about primary
  /// outputs. False for a strike the resolver would reject (an invalid
  /// net, a negative width, a non-finite time), which keeps its error
  /// path.
  [[nodiscard]] bool capture_masked(const set::Strike& strike,
                                    Picoseconds capture_time) const;
};

/// One memoized golden (no-strike) cycle: the settled value of every net
/// plus the endpoint samples derived from them.
struct GoldenCycle {
  std::vector<unsigned char> net_values;
  std::vector<bool> ff_d;
  std::vector<bool> po;
};

/// One timing endpoint a strike's pulse reached (a net with toggles that
/// drives an FF D pin or a primary output), as resolve_lane_strike
/// reports it.
struct ReachedEndpoint {
  /// Flip-flop e's D pin for e < #FFs, else primary output e - #FFs.
  std::uint32_t endpoint = 0;
  /// The golden sample: the net's initial value, which is always its
  /// golden value (docs/perf.md §3).
  bool golden = false;
  /// The value at the capture edge.
  bool latched = false;
  /// A toggle inside the setup/hold aperture (false for an output).
  bool aperture = false;
};

/// How the cone gates of the strikes a simulator resolved propagated the
/// pulse (observability only; flushed as kernel.resolve.* counters).
struct ResolveCounts {
  /// One toggling input whose side inputs hold the output constant.
  std::uint64_t gates_blocked = 0;
  /// One toggling input passed or inverted: its toggles, delayed.
  std::uint64_t gates_shifted = 0;
  /// Two or more toggling inputs, evaluated at every input event.
  std::uint64_t gates_merged = 0;
  /// Pulses (toggle pairs) the inertial filter removed.
  std::uint64_t pulses_filtered = 0;
};

class CompiledEventSim {
 public:
  /// Builds a private context (flat view + STA).
  explicit CompiledEventSim(const Netlist& netlist);
  /// Shares a prebuilt context (the campaign worker path).
  CompiledEventSim(const Netlist& netlist,
                   std::shared_ptr<const CompiledKernelContext> context);
  /// Flushes this instance's golden-cache hit/miss totals and its
  /// ResolveCounts into the global metrics registry (kernel.golden_cache_*,
  /// kernel.resolve.*) — zero hot-path overhead.
  ~CompiledEventSim();

  /// Simulates one cycle: sources take `pi_values` / `ff_q_values` at
  /// t=0, flip-flops capture at `capture_time`. The optional strike
  /// inverts its net during [start, start+width); the pulse propagates
  /// with per-gate STA delays under logical, electrical (inertial) and
  /// latching-window masking.
  [[nodiscard]] CycleResult simulate_cycle(
      const std::vector<bool>& pi_values, const std::vector<bool>& ff_q_values,
      Picoseconds capture_time,
      const std::optional<set::Strike>& strike) const;

  /// Timed strike resolution against a caller-provided golden cycle: it
  /// skips the golden cache and goes straight to the cone-restricted
  /// event propagation + endpoint sampling. Bit-identical to
  /// simulate_cycle() on the stimulus that produced `golden`.
  /// `golden.net_values` must span every net, but the only entries read
  /// are the struck net's and the inputs of the gates in
  /// FlatNetlistView::cone_of(strike.node); ff_d and po are read whole.
  /// Callers may leave every other entry stale.
  [[nodiscard]] CycleResult resolve_strike(const GoldenCycle& golden,
                                           Picoseconds capture_time,
                                           const set::Strike& strike) const;
  /// The same resolution written into `out`, reusing its storage.
  void resolve_strike(const GoldenCycle& golden, Picoseconds capture_time,
                      const set::Strike& strike, CycleResult& out) const;

  /// The strike-lane kernel's entry: the same resolution on the golden
  /// cycle that lane `lane` of a settled WideLogicSim plane holds — net
  /// n's golden bit is bit lane % 64 of plane[n * words_per_net + lane /
  /// 64], read in place and only for the nets resolve_strike reads. It
  /// returns in `reached` (cleared first) only the endpoints the pulse
  /// reached, in slot order; every other flip-flop latches its golden
  /// value without an aperture violation, and every other output samples
  /// golden. So a caller never copies or compares the unreached ones.
  void resolve_lane_strike(const std::uint64_t* plane,
                           std::size_t words_per_net, std::size_t lane,
                           Picoseconds capture_time, const set::Strike& strike,
                           std::vector<ReachedEndpoint>& reached) const;

  /// The waveform on `net` for the same scenario (for inspection and
  /// tests).
  [[nodiscard]] DigitalWaveform net_waveform(
      const std::vector<bool>& pi_values, const std::vector<bool>& ff_q_values,
      const std::optional<set::Strike>& strike, NetId net) const;

  [[nodiscard]] const Netlist& netlist() const {
    return context_->view->netlist();
  }

  /// Installs a cooperative cancellation token (nullptr detaches),
  /// polled per cone gate (CancelToken::cancelled_at: an explicit cancel
  /// is seen at the next gate, a deadline at the first gate and then
  /// every CancelToken::kClockStride gates); a cancelled token throws
  /// CancelledError.
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
  /// Gate-class totals over every resolution so far (for tests).
  [[nodiscard]] const ResolveCounts& resolve_counts() const {
    return counts_;
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

  /// One net that toggles in the current resolution: its initial value
  /// (always its golden value) and its toggle times,
  /// arena_[offset, offset + length), length > 0.
  struct Slot {
    std::uint32_t net = 0;
    std::uint32_t offset = 0;
    std::uint32_t length = 0;
    bool initial = false;
  };
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Event-simulates the struck net's cone, leaving one slot per
  /// toggling net in slots_ (cone order) until the next call.
  /// `golden_bit(n)` is net n's settled golden value (a GoldenCycle entry
  /// or a lane of a plane).
  template <class GoldenBit>
  void propagate_cone(GoldenBit golden_bit, const set::Strike& strike) const;
  /// Calls visit(ReachedEndpoint) for each endpoint on a slot's net, in
  /// slot order, sampled at `capture_time`.
  template <class Visit>
  void visit_reached(Picoseconds capture_time, Visit visit) const;

  [[nodiscard]] std::span<const double> toggles(const Slot& slot) const {
    return {arena_.data() + slot.offset, slot.length};
  }

  std::shared_ptr<const CompiledKernelContext> context_;
  const CancelToken* cancel_ = nullptr;
  /// Endpoints whose net is n: endpoint_first_[n], then endpoint_next_[e]
  /// until kNone. Endpoint e < #FFs is the D pin of FF e, else primary
  /// output e - #FFs (one net may drive several of either).
  std::vector<std::uint32_t> endpoint_first_;
  std::vector<std::uint32_t> endpoint_next_;

  // Golden-waveform cache.
  mutable std::unordered_map<StimulusKey, GoldenCycle, StimulusKeyHash>
      golden_cache_;
  std::size_t golden_cache_capacity_ = 4096;
  mutable std::size_t cache_hits_ = 0;
  mutable std::size_t cache_misses_ = 0;

  // One resolution's waveforms (valid from propagate_cone until the next
  // one, which first resets slot_of_ through slots_ — also after a
  // resolution that threw mid-cone).
  mutable std::vector<Slot> slots_;
  mutable std::vector<double> arena_;
  /// net -> index into slots_, kNone for every net without a slot.
  mutable std::vector<std::uint32_t> slot_of_;
  mutable std::vector<double> times_;
  mutable ResolveCounts counts_;
};

}  // namespace cwsp::sim
