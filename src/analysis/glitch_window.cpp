#include "analysis/glitch_window.hpp"

#include <algorithm>

namespace cwsp::analysis {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint32_t find_slot(const SiteWindows& site_windows, NetId net) {
  const auto& nets = site_windows.nets;
  const auto it = std::find(nets.begin(), nets.end(), net.index());
  return it == nets.end() ? GlitchWindow::kNone
                          : static_cast<std::uint32_t>(it - nets.begin());
}

}  // namespace

bool pin_sensitizable(std::uint16_t truth, unsigned arity, unsigned pin,
                      unsigned const_mask, unsigned const_vals) {
  const unsigned combos = 1u << arity;
  const unsigned pin_bit = 1u << pin;
  const unsigned fixed = const_mask & ~pin_bit;
  for (unsigned a = 0; a < combos; ++a) {
    if ((a & pin_bit) != 0) continue;
    if ((a & fixed) != (const_vals & fixed)) continue;
    const bool out0 = ((truth >> a) & 1u) != 0;
    const bool out1 = ((truth >> (a | pin_bit)) & 1u) != 0;
    if (out0 != out1) return true;
  }
  return false;
}

const GlitchWindow& SiteWindows::at(NetId net) const {
  static const GlitchWindow kUnreachable{};
  const std::uint32_t slot = find_slot(*this, net);
  return slot == GlitchWindow::kNone ? kUnreachable : windows[slot];
}

SiteWindows propagate_windows(const FlatNetlistView& view,
                              const std::vector<double>& gate_delay_ps,
                              NetId site) {
  const std::vector<std::uint32_t>& cone = view.cone_of(site);

  // Net -> slot of its window in `result`, kNone for nets without one.
  // Every entry set below is reset before returning, so the scratch is
  // all kNone between calls and only ever grows to the largest netlist.
  thread_local std::vector<std::uint32_t> slot_of;
  if (slot_of.size() < view.num_nets()) {
    slot_of.resize(view.num_nets(), GlitchWindow::kNone);
  }

  // Reserved up front, so nothing below can throw while `slot_of` holds
  // entries for this call.
  SiteWindows result;
  result.site = site;
  result.nets.reserve(cone.size() + 1);
  result.windows.reserve(cone.size() + 1);
  result.pred_slots.reserve(cone.size() + 1);

  GlitchWindow base;
  base.reachable = true;
  result.nets.push_back(static_cast<std::uint32_t>(site.index()));
  result.windows.push_back(base);
  result.pred_slots.push_back(GlitchWindow::kNone);
  slot_of[site.index()] = 0;

  for (std::uint32_t g : cone) {
    const std::uint32_t* inputs = view.gate_inputs_begin(g);
    const std::uint32_t arity = view.gate_num_inputs(g);
    const std::uint16_t truth = view.gate_truth(g);

    // Constant side inputs restrict the sensitization check; everything
    // else (static-but-unknown side inputs, co-disturbed inputs) is free.
    unsigned const_mask = 0;
    unsigned const_vals = 0;
    for (std::uint32_t i = 0; i < arity; ++i) {
      if (view.source_kind(inputs[i]) ==
          FlatNetlistView::SourceKind::kConstant) {
        const_mask |= 1u << i;
        if (view.source_index(inputs[i]) != 0) const_vals |= 1u << i;
      }
    }

    // Reachable inputs whose pin can actually steer the output, by slot.
    std::uint32_t reach_slots[4];
    std::uint32_t reach_count = 0;
    for (std::uint32_t i = 0; i < arity; ++i) {
      const std::uint32_t slot = slot_of[inputs[i]];
      if (slot == GlitchWindow::kNone) continue;
      if (!pin_sensitizable(truth, arity, i, const_mask, const_vals)) {
        continue;
      }
      reach_slots[reach_count++] = slot;
    }
    if (reach_count == 0) continue;

    const double delay = gate_delay_ps[g];
    const double inertial = view.gate_inertial_delay_ps(g);

    GlitchWindow out;
    out.reachable = true;
    out.earliest_ps = kInf;
    out.latest_ps = -kInf;
    for (std::uint32_t k = 0; k < reach_count; ++k) {
      const GlitchWindow& in = result.windows[reach_slots[k]];
      out.earliest_ps = std::min(out.earliest_ps, in.earliest_ps + delay);
      out.latest_ps = std::max(out.latest_ps, in.latest_ps + delay);
      if (in.ambiguous && out.merge_gate == GlitchWindow::kNone) {
        out.merge_gate = in.merge_gate;
      }
      out.ambiguous = out.ambiguous || in.ambiguous;
    }
    if (reach_count >= 2) {
      out.ambiguous = true;
      out.merge_gate = g;
    }

    // Electrical-masking threshold: a disturbance reaches the output only
    // if some nonempty subset S of the reachable inputs is disturbed
    // (each needs width >= its own threshold) and the merged pulse train
    // of S — at most width + slack(S) wide — survives this gate's
    // inertial filter. Minimize over subsets for the tightest sound
    // bound; arity is at most 4, so at most 15 subsets.
    double best = kInf;
    for (std::uint32_t s = 1; s < (1u << reach_count); ++s) {
      double th = 0.0;
      double lo = kInf;
      double hi = -kInf;
      for (std::uint32_t k = 0; k < reach_count; ++k) {
        if (((s >> k) & 1u) == 0) continue;
        const GlitchWindow& in = result.windows[reach_slots[k]];
        th = std::max(th, in.width_threshold_ps);
        lo = std::min(lo, in.earliest_ps);
        hi = std::max(hi, in.latest_ps);
      }
      best = std::min(best, std::max(th, inertial - (hi - lo)));
    }
    out.width_threshold_ps = best;

    // Witness-path predecessor: the reachable input with the smallest own
    // threshold (ties break towards the lowest pin for determinism).
    std::uint32_t pred = reach_slots[0];
    for (std::uint32_t k = 1; k < reach_count; ++k) {
      if (result.windows[reach_slots[k]].width_threshold_ps <
          result.windows[pred].width_threshold_ps) {
        pred = reach_slots[k];
      }
    }
    out.pred_net = result.nets[pred];

    const std::uint32_t output = view.gate_output(g);
    slot_of[output] = static_cast<std::uint32_t>(result.nets.size());
    result.nets.push_back(output);
    result.windows.push_back(out);
    result.pred_slots.push_back(pred);
  }

  for (std::uint32_t net : result.nets) slot_of[net] = GlitchWindow::kNone;
  return result;
}

std::vector<NetId> witness_path(const SiteWindows& site_windows,
                                NetId endpoint) {
  std::vector<NetId> path;
  std::uint32_t slot = find_slot(site_windows, endpoint);
  while (slot != GlitchWindow::kNone) {
    path.push_back(NetId{site_windows.nets[slot]});
    slot = site_windows.pred_slots[slot];
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace cwsp::analysis
