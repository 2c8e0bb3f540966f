#pragma once
// Per-site glitch-survival window dataflow over the flat netlist.
//
// For one strike site (a gate output or flip-flop Q net), propagate a
// conservative abstraction of every SET pulse the site can emit through
// the site's fanout cone, in one topological pass over
// FlatNetlistView::cone_of — a meet-over-paths fixpoint (the cone is
// acyclic, so a single pass in topological order reaches it).
//
// The abstract value per net is a GlitchWindow:
//
//   * reachable            — some disturbance can arrive here at all
//     (logical masking refutes it when no gate input along the way is
//     statically sensitizable given its constant side inputs);
//   * earliest/latest      — every strike-induced toggle on this net lies
//     inside [strike_start + earliest, strike_start + width + latest];
//     latest - earliest is the path-delay slack, which bounds how much a
//     pulse can widen through multi-path merging;
//   * width_threshold      — a lower bound on the original strike width
//     required for any disturbance to arrive (electrical masking: a gate
//     whose inertial delay exceeds the widest pulse that can reach it
//     filters the disturbance out);
//   * ambiguous/merge_gate — reconvergent fanout merged paths of
//     different delay into this net. The window stays sound, but the
//     *absence* of static sensitization no longer implies the absence of
//     a dynamic pulse, so proofs for ambiguous endpoints must fall back
//     to simulation (docs/certify.md, "fallback policy").
//
// Soundness direction: windows over-approximate. Everything the timed
// event simulator (sim::CompiledEventSim) can produce is inside the
// window; the certifier only derives "proved-covered" from window facts,
// never "proved-escape" (escapes are always confirmed by replay).

#include <cstdint>
#include <limits>
#include <vector>

#include "netlist/flat_view.hpp"

namespace cwsp::analysis {

struct GlitchWindow {
  static constexpr std::uint32_t kNone = 0xffffffffu;

  bool reachable = false;
  /// Paths of differing delay merged into this net (reconvergent fanout).
  bool ambiguous = false;
  /// Earliest strike-induced toggle, ps after the strike start.
  double earliest_ps = 0.0;
  /// Latest toggle is bounded by strike_start + strike_width + latest_ps.
  double latest_ps = 0.0;
  /// No disturbance arrives here from strikes narrower than this, ps.
  double width_threshold_ps = 0.0;
  /// Predecessor net on the minimal-threshold chain (witness paths).
  std::uint32_t pred_net = kNone;
  /// First reconvergent gate responsible for `ambiguous`.
  std::uint32_t merge_gate = kNone;

  /// Path-delay spread: how much wider than the original strike a merged
  /// pulse train on this net can be.
  [[nodiscard]] double slack_ps() const { return latest_ps - earliest_ps; }
};

/// The windows of one site, stored only for the nets the disturbance
/// reaches (the site and the reached outputs of its cone gates), so size
/// and cost follow the fanout cone, not the netlist.
struct SiteWindows {
  NetId site;
  /// Reached nets in topological order; nets[0] is the site.
  std::vector<std::uint32_t> nets;
  /// windows[i] is the window of nets[i]; every stored window is reachable.
  std::vector<GlitchWindow> windows;
  /// Slot of windows[i].pred_net (GlitchWindow::kNone for the site).
  std::vector<std::uint32_t> pred_slots;

  /// The window of `net`; an unreachable GlitchWindow{} for every net
  /// without a stored window. Linear in the stored count.
  [[nodiscard]] const GlitchWindow& at(NetId net) const;
};

/// Runs the window dataflow for one site. `gate_delay_ps` is the STA
/// per-gate delay vector (TimingResult::gate_delay_ps). Safe to call
/// concurrently on one shared view.
[[nodiscard]] SiteWindows propagate_windows(
    const FlatNetlistView& view, const std::vector<double>& gate_delay_ps,
    NetId site);

/// True when flipping input `pin` of a gate with the given truth table
/// can flip the output for some assignment of the other inputs, where
/// inputs in `const_mask` are fixed to the corresponding `const_vals`
/// bits and all other inputs are free (static side inputs hold unknown
/// but arbitrary values; co-reachable inputs can transiently be either).
[[nodiscard]] bool pin_sensitizable(std::uint16_t truth, unsigned arity,
                                    unsigned pin, unsigned const_mask,
                                    unsigned const_vals);

/// Backtracks the minimal-threshold chain from `endpoint` to the site,
/// returning nets source-first (site, ..., endpoint). Empty when the
/// endpoint is unreachable.
[[nodiscard]] std::vector<NetId> witness_path(const SiteWindows& site_windows,
                                              NetId endpoint);

}  // namespace cwsp::analysis
