#pragma once
// Fault-parallel strike-lane kernel: pack N strike scenarios into SIMD
// lanes and advance them all with one structure-of-arrays topo sweep per
// cycle.
//
// Two cooperating pieces:
//
//   * WideLogicSim — the bit-parallel zero-delay simulator: every net
//     carries K consecutive 64-bit words (K = 1/4/8 → 64/256/512
//     lanes). A sweep settles the PI, FF-Q and constant nets from the
//     view's source lists and evaluates each gate record in topological
//     order with one branch-free mux-tree body per arity
//     (strike_lanes_impl.hpp). The bodies — sweeps, flip sweeps and the
//     packed-stimulus body pack_stream_draws — are instantiated per K for
//     the baseline ISA, and again in separate translation units for AVX2
//     (K=4) and AVX-512 (K=8) when the compiler supports the flags.
//     Dispatch is resolved at runtime from CPUID, with an explicit width
//     override for differential tests, so every width is runnable on
//     every machine and results are bit-identical between the portable
//     and vectorized bodies by construction (same scalar semantics,
//     word-parallel).
//
//   * StrikeLaneSim — the campaign batch engine built on two
//     WideLogicSim planes. Lane l of a batch carries one functional
//     strike scenario: the golden plane advances the clean trajectory
//     of every lane's stimulus, which arrives already packed as lane
//     words (run_packed; run_batch packs per-lane vectors first); on
//     each lane's strike cycle the timed CompiledEventSim resolves the
//     strike against that lane of the settled golden plane, reading the
//     bits it needs in place (resolve_lane_strike), and returns only the
//     FF-D and PO endpoints the pulse reached — the multi-SEU image of
//     the SET (latching / aperture masking are analog-time questions
//     the boolean planes cannot answer); lanes whose capture escapes the
//     CWSP envelope seed the faulty plane with the flip-flops they
//     flipped, whose lane-diff against the golden plane then counts
//     silently-corrupted commits cycle by cycle. Everything else about
//     the §3.2 protocol (bubbles, detected errors, spurious recomputes)
//     is a deterministic function of these per-lane facts and is
//     reconstructed analytically by the campaign layer — which is what
//     keeps lane-kernel reports byte-identical to the scalar
//     ProtectionSim at any lane width and any job count.
//
// A WideLogicSim / StrikeLaneSim instance is NOT thread-safe; create one
// per worker and share the immutable context.

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/compiled_kernel.hpp"

namespace cwsp::sim {

/// One compiled set of lane bodies: the function-pointer vtable the
/// runtime dispatcher selects from. `words` is the per-net word count K;
/// every array holds K words per entity (strike_lanes_impl.hpp).
struct LaneOps {
  const char* name = "";
  std::size_t words = 1;
  /// Settles `net` from the primary-input and flip-flop words.
  void (*evaluate)(const FlatNetlistView& view, const std::uint64_t* pi,
                   const std::uint64_t* ff, std::uint64_t* net) = nullptr;
  /// Writes `site` inverted and its fanout cone into `overlay`, reading
  /// inputs from `overlay` where `valid` is set and from `net` elsewhere;
  /// sets `valid` on every net it writes.
  void (*evaluate_with_flip)(const FlatNetlistView& view, std::uint32_t site,
                             const std::uint64_t* net, std::uint64_t* overlay,
                             char* valid) = nullptr;
  /// pack_stream_draws for `count` <= words * 64 streams.
  void (*pack_stream_draws)(std::uint64_t seed, const std::size_t* streams,
                            std::size_t count, std::size_t draws,
                            std::uint64_t* out) = nullptr;
};

/// What the dispatcher resolved: lane count plus the lane bodies' name
/// ("scalar-64", "portable-256", "avx2-256", "avx512-512").
struct LaneIsa {
  std::size_t lanes = 64;
  const char* name = "scalar-64";
};

/// Width-generic bit-parallel zero-delay logic simulator. Net n's lane
/// words live at net_words()[n * words_per_net() .. +words_per_net()).
class WideLogicSim {
 public:
  /// lane_width 0 picks the widest ISA-accelerated width this CPU
  /// supports; otherwise it must be one of supported_lane_widths().
  explicit WideLogicSim(std::shared_ptr<const FlatNetlistView> view,
                        std::size_t lane_width = 0);

  /// The widths every build can run (vectorized when the ISA allows,
  /// portable otherwise): {64, 256, 512}.
  [[nodiscard]] static const std::vector<std::size_t>& supported_lane_widths();
  /// What lane_width == 0 resolves to on this machine.
  [[nodiscard]] static LaneIsa dispatched_isa();
  /// The body a specific width resolves to on this machine.
  [[nodiscard]] static LaneIsa isa_for(std::size_t lane_width);
  /// ISA-accelerated widths compiled into this binary (subset of
  /// supported widths; informational, for `cwsp_tool version`).
  [[nodiscard]] static std::vector<std::size_t> accelerated_lane_widths();

  [[nodiscard]] std::size_t lanes() const { return words_ * 64; }
  [[nodiscard]] std::size_t words_per_net() const { return words_; }
  [[nodiscard]] const char* isa_name() const { return ops_->name; }

  void set_input_lane(std::size_t pi, std::size_t lane, bool value);
  void set_ff_lane(std::size_t ff, std::size_t lane, bool value);
  /// Word `w` (64 lanes) of one primary input / flip-flop.
  void set_input_word(std::size_t pi, std::size_t w, std::uint64_t bits);
  void set_ff_word(std::size_t ff, std::size_t w, std::uint64_t bits);
  /// Every primary input's lane words at once: word w of input p is
  /// words[p * words_per_net() + w].
  void set_input_words(const std::uint64_t* words);
  /// Same value in every lane.
  void fill_ff(std::size_t ff, bool value);

  /// Settles combinational logic for all lanes in one topo pass.
  void evaluate();
  /// Latches every flip-flop in every lane (Q ← D).
  void clock();
  /// Re-evaluates only `site`'s fanout cone with the site inverted in
  /// every lane, against the values of the last evaluate(). The base
  /// words are untouched; compare via flip_diff_word. O(|cone|), so
  /// sweeping many sites against one stimulus batch costs one full pass
  /// plus one cone pass per site instead of a full pass per site.
  void evaluate_with_flip(NetId site);
  /// Word `w` of the per-lane XOR between the flip overlay and the base
  /// evaluation of `net` (zero outside the flipped cone).
  [[nodiscard]] std::uint64_t flip_diff_word(NetId net, std::size_t w) const;

  [[nodiscard]] std::uint64_t value_word(NetId net, std::size_t w) const;
  [[nodiscard]] bool value(NetId net, std::size_t lane) const;
  [[nodiscard]] std::uint64_t ff_word(std::size_t ff, std::size_t w) const;

  /// Raw lane words of one net (words_per_net() consecutive words) —
  /// the extraction fast path for StrikeLaneSim.
  [[nodiscard]] const std::uint64_t* net_words(std::size_t net) const {
    return net_words_.data() + net * words_;
  }

  [[nodiscard]] const FlatNetlistView& view() const { return *view_; }
  [[nodiscard]] const Netlist& netlist() const { return view_->netlist(); }

 private:
  /// Drops the last flip overlay (marks its nets invalid again).
  void clear_overlay();

  std::shared_ptr<const FlatNetlistView> view_;
  const LaneOps* ops_;
  std::size_t words_;
  // SoA lane state: element i*words_ + w is word w of entity i.
  std::vector<std::uint64_t> net_words_;
  std::vector<std::uint64_t> pi_words_;
  std::vector<std::uint64_t> ff_words_;

  // Flip-overlay scratch (evaluate_with_flip / flip_diff_word). Sparse:
  // only the flipped site and its cone's outputs carry overlay values;
  // reset walks that cone again.
  std::vector<std::uint64_t> overlay_words_;
  std::vector<char> overlay_valid_;
  static constexpr std::uint32_t kNoSite = 0xffffffffu;
  std::uint32_t overlay_site_ = kNoSite;
};

/// Coin flips straight from RNG streams into lane words, on the body that
/// `lane_width` (one of WideLogicSim::supported_lane_widths()) dispatches
/// to: bit l % 64 of out[d * lane_width / 64 + l / 64] is the d-th
/// Rng::stream(seed, streams[l]).next_bool(), and lanes at or past
/// streams.size() read 0. `out` holds draws * lane_width / 64 words.
void pack_stream_draws(std::size_t lane_width, std::uint64_t seed,
                       const std::vector<std::size_t>& streams,
                       std::size_t draws, std::uint64_t* out);

/// One functional-strike scenario occupying one lane of a batch.
struct LaneScenario {
  set::Strike strike;
  /// Second simultaneous strike node (charge-sharing double-SET fault
  /// models); shares `strike`'s start/width. Invalid = single-node.
  NetId node2;
  /// Cycle the strike fires on; at or past the run length it never
  /// fires.
  std::size_t cycle = 0;
  /// The equivalence check of the strike cycle reads EQ low spuriously
  /// (a FF Q-net glitch spanning the CLK_DEL sample — computed
  /// statically by the caller), so the protocol squashes the cycle and
  /// discards its capture.
  bool squash_at_strike = false;
  /// Per-cycle primary-input stimulus, one bit per primary input; every
  /// scenario of a batch must have the same length. Must outlive
  /// run_batch. run_packed ignores it.
  const std::vector<std::vector<bool>>* inputs = nullptr;
};

/// The per-lane facts a batch resolves to. The protocol verdict
/// (covered/escape, bubbles, detected errors, spurious recomputes) is a
/// pure function of these — see campaign::CampaignEngine's lane path.
struct LaneOutcome {
  /// strike cycle < run length (a never-firing strike is a clean run).
  bool fired = false;
  /// Timed resolution latched a non-golden value into some flip-flop.
  bool latched_diff = false;
  /// Some flip-flop saw a transition inside its setup/hold aperture.
  bool aperture = false;
  /// Commits after an undetected (width > δ, non-squashed) capture whose
  /// outputs differ from golden — the protocol's silent corruptions.
  std::uint64_t silent_corruptions = 0;
};

/// Batch engine: resolves up to lanes() strike scenarios per pass. See
/// the file comment for the golden/faulty two-plane algorithm.
class StrikeLaneSim {
 public:
  /// `delta` is the CWSP protection envelope (ProtectionParams::delta);
  /// `clock_period` is both the cycle length and the capture time the
  /// timed resolver samples at (matching ProtectionSim).
  StrikeLaneSim(std::shared_ptr<const CompiledKernelContext> context,
                Picoseconds clock_period, Picoseconds delta,
                std::size_t lane_width = 0);

  [[nodiscard]] std::size_t lanes() const { return golden_.lanes(); }
  [[nodiscard]] const char* isa_name() const { return golden_.isa_name(); }

  /// Resolves batch.size() <= lanes() scenarios. `out` is resized to the
  /// batch size. Outcomes are independent of batch composition and lane
  /// width: each lane computes exactly what a scalar run would. Packs
  /// every scenario's `inputs` and runs run_packed; throws cwsp::Error
  /// for a missing stimulus, unequal run lengths or a row whose width is
  /// not the primary-input count.
  void run_batch(const std::vector<LaneScenario>& batch,
                 std::vector<LaneOutcome>& out);

  /// run_batch on stimulus already packed in the lane-plane layout: lane
  /// l's bit for primary input p on cycle t is bit l % 64 of
  /// stimulus[(t * PIs + p) * (lanes() / 64) + l / 64], so each cycle is
  /// one contiguous WideLogicSim input block. `stimulus` holds exactly
  /// `cycles` such blocks; the scenarios' `inputs` are not read. A strike
  /// half that CompiledKernelContext::capture_masked masks at the clock
  /// period is neither resolved nor given a cone: it latches golden. The
  /// campaign engine's entry.
  void run_packed(const std::vector<LaneScenario>& batch, std::size_t cycles,
                  const std::vector<std::uint64_t>& stimulus,
                  std::vector<LaneOutcome>& out);

  /// Occupancy telemetry (for the campaign's metrics and benchmarks).
  [[nodiscard]] std::uint64_t batches_run() const { return batches_; }
  [[nodiscard]] std::uint64_t lanes_filled() const { return lanes_filled_; }
  [[nodiscard]] std::uint64_t lane_slots() const { return lane_slots_; }
  [[nodiscard]] std::uint64_t timed_resolutions() const {
    return timed_resolutions_;
  }

 private:
  std::shared_ptr<const CompiledKernelContext> context_;
  Picoseconds clock_period_;
  Picoseconds delta_;
  WideLogicSim golden_;
  WideLogicSim faulty_;
  /// Timed strike-cycle resolver (golden cache unused on this path: the
  /// golden plane already settled the cycle; see resolve_lane_strike).
  CompiledEventSim event_;
  /// The endpoints the lane being resolved reached (each half of a
  /// double strike in turn).
  std::vector<ReachedEndpoint> reached_;
  /// run_batch's packed copy of the scenarios' stimulus.
  std::vector<std::uint64_t> stimulus_;

  std::uint64_t batches_ = 0;
  std::uint64_t lanes_filled_ = 0;
  std::uint64_t lane_slots_ = 0;
  std::uint64_t timed_resolutions_ = 0;
};

}  // namespace cwsp::sim
