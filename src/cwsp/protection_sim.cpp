#include "cwsp/protection_sim.hpp"

#include <algorithm>

namespace cwsp::core {
namespace {

const ScheduledStrike* strike_at(const std::vector<ScheduledStrike>& strikes,
                                 std::size_t cycle) {
  for (const auto& s : strikes) {
    if (s.cycle == cycle) return &s;
  }
  return nullptr;
}

}  // namespace

void check_protection_config(const Netlist& netlist,
                             const ProtectionParams& params,
                             Picoseconds clock_period) {
  params.validate();
  CWSP_REQUIRE_MSG(netlist.num_flip_flops() > 0,
                   "protection protocol requires flip-flops");
  CWSP_REQUIRE_MSG(clock_period >= min_clock_period_for_delta(params),
                   "clock period " << clock_period.value()
                       << " ps violates Eq. 6 minimum "
                       << min_clock_period_for_delta(params).value()
                       << " ps for delta " << params.delta.value() << " ps");
}

ProtectionSim::ProtectionSim(
    const Netlist& netlist, const ProtectionParams& params,
    Picoseconds clock_period, ProtectionSimOptions options,
    std::shared_ptr<const sim::CompiledKernelContext> context)
    : netlist_(&netlist),
      params_(params),
      clock_period_(clock_period),
      options_(options),
      sim_(netlist, context != nullptr
                        ? std::move(context)
                        : sim::CompiledKernelContext::build(netlist)) {
  check_protection_config(netlist, params_, clock_period);
}

std::vector<std::vector<bool>> ProtectionSim::golden_run(
    const std::vector<std::vector<bool>>& inputs) const {
  std::vector<std::vector<bool>> outputs;
  outputs.reserve(inputs.size());
  // Clean runs are pure boolean steps — serve them from the kernel's
  // golden cache (one table-driven pass per distinct stimulus). The
  // protected/unprotected run pair then shares every cycle's entry.
  std::vector<bool> q(netlist_->num_flip_flops(), false);
  for (const auto& x : inputs) {
    const sim::GoldenCycle& g = sim_.golden_eval(x, q);
    outputs.push_back(g.po);
    q = g.ff_d;
  }
  return outputs;
}

ProtectionRunResult ProtectionSim::run(
    const std::vector<std::vector<bool>>& inputs,
    const std::vector<ScheduledStrike>& strikes) const {
  const Netlist& nl = *netlist_;
  const std::size_t num_ffs = nl.num_flip_flops();

  ProtectionRunResult result;
  result.golden_outputs = golden_run(inputs);

  std::vector<bool> q(num_ffs, false);        // actual FF state
  std::vector<bool> cw_prev(num_ffs, false);  // CW during the current cycle
  std::vector<bool> cw_star(num_ffs, false);  // DFF2 contents
  bool suppress = false;                      // EQGLBF low → EQ forced high

  std::size_t pi = 0;
  std::size_t global_cycle = 0;
  const std::size_t cycle_budget = inputs.size() * 4 + 100;

  while (pi < inputs.size()) {
    check_cancelled();
    if (global_cycle >= cycle_budget) {
      // Forward progress lost. With EQGLBF modelled this is a library bug;
      // without it, it is the §3.2 failure mode the flip-flop prevents.
      CWSP_REQUIRE_MSG(!options_.eqglbf_suppression,
                       "protocol failed to make progress (livelock) with "
                       "EQGLBF suppression enabled — library bug");
      result.livelocked = true;
      break;
    }
    const std::vector<bool>& x = inputs[pi];
    const ScheduledStrike* scheduled = strike_at(strikes, global_cycle);

    // ---- equivalence check during this cycle (at CLK_DEL) -------------
    // EQ_i = (Q_i == CW_i), forced high while EQGLBF is low.
    bool mismatch = false;
    for (std::size_t f = 0; f < num_ffs; ++f) {
      if (q[f] != cw_prev[f]) {
        mismatch = true;
        break;
      }
    }

    // Scenario strikes that perturb the check itself.
    bool spurious_eq = false;
    bool force_suppress_next = false;
    if (scheduled != nullptr) {
      const double t0 = scheduled->strike.start.value();
      const double t1 = t0 + scheduled->strike.width.value();
      switch (scheduled->target) {
        case StrikeTarget::kEqChecker:
          // Only a glitch present at the next positive CLK edge triggers
          // a (needless) recomputation; any other timing is ignored
          // (paper §3.2).
          if (t1 >= clock_period_.value()) spurious_eq = true;
          break;
        case StrikeTarget::kEqglbfDff:
          // EQGLBF corrupted low → checks suppressed for one cycle.
          force_suppress_next = true;
          break;
        case StrikeTarget::kCwspOutput:
          // Neutralised by CWSP device upsizing (paper §3.2 last bullet).
          break;
        case StrikeTarget::kFunctional: {
          // A glitch on a FF Q net that spans the CLK_DEL sampling moment
          // can flip the comparison spuriously.
          const Net& net = nl.net(scheduled->strike.node);
          const double t_sample = params_.clk_del_delay().value();
          if (net.driver_kind == DriverKind::kFlipFlop && t0 <= t_sample &&
              t1 >= t_sample) {
            spurious_eq = true;
          }
          break;
        }
        case StrikeTarget::kCwStarDff:
          break;  // handled below
      }
    }

    const bool eq_low = !suppress && (mismatch || spurious_eq);
    if (eq_low) {
      cw_star = cw_prev;  // DFF2 latches the guaranteed-correct value
      ++result.bubbles;
      if (mismatch) {
        ++result.detected_errors;
      } else {
        ++result.spurious_recomputes;
      }
    }
    // A hit on DFF2 flips one stored CW* bit. Benign unless a real error
    // needs CW* in this very cycle (excluded by the one-strike-per-two-
    // cycles assumption, footnote 2).
    if (scheduled != nullptr &&
        scheduled->target == StrikeTarget::kCwStarDff && !cw_star.empty()) {
      const std::size_t f = scheduled->ff_index % num_ffs;
      if (!eq_low) cw_star[f] = !cw_star[f];
    }

    // ---- cycle body: combinational evaluation with optional strike ----
    std::optional<set::Strike> functional_strike;
    if (scheduled != nullptr &&
        scheduled->target == StrikeTarget::kFunctional) {
      functional_strike = scheduled->strike;
    }
    const sim::CycleResult cr = simulate_cycle(x, q, functional_strike);

    // CW for the next cycle: the CWSP element reconstructs the settled D
    // whenever the glitch is no wider than the delay element δ; beyond δ
    // the guarantee is void and CW may carry the corrupted sample (used by
    // the ablation experiments).
    std::vector<bool> cw_next = cr.golden_d;
    if (functional_strike.has_value() &&
        functional_strike->width > params_.delta) {
      cw_next = cr.latched_d;
    }

    // ---- edge at the end of this cycle --------------------------------
    if (eq_low) {
      // Squash: repair the state from CW*, replay the same input vector,
      // suppress the (now meaningless) check of the next cycle. Without
      // EQGLBF the next check compares the repaired Q against the stale D
      // of the squashed cycle and re-triggers forever (§3.2).
      q = cw_star;
      suppress = options_.eqglbf_suppression;
    } else {
      // Commit this cycle's outputs; capture the (possibly corrupted) D.
      result.committed_outputs.push_back(cr.golden_po);
      if (cr.golden_po != result.golden_outputs[pi]) {
        ++result.silent_corruptions;
      }
      q = cr.latched_d;
      suppress = force_suppress_next;
      ++pi;
    }
    cw_prev = std::move(cw_next);
    ++global_cycle;
  }

  result.total_cycles = global_cycle;
  return result;
}

UnprotectedRunResult ProtectionSim::run_unprotected(
    const std::vector<std::vector<bool>>& inputs,
    const std::vector<ScheduledStrike>& strikes) const {
  const Netlist& nl = *netlist_;
  UnprotectedRunResult result;
  result.golden_outputs = golden_run(inputs);

  std::vector<bool> q(nl.num_flip_flops(), false);
  for (std::size_t cycle = 0; cycle < inputs.size(); ++cycle) {
    check_cancelled();
    const ScheduledStrike* scheduled = strike_at(strikes, cycle);
    std::optional<set::Strike> functional_strike;
    if (scheduled != nullptr &&
        scheduled->target == StrikeTarget::kFunctional) {
      functional_strike = scheduled->strike;
    }
    const sim::CycleResult cr =
        simulate_cycle(inputs[cycle], q, functional_strike);

    result.outputs.push_back(cr.golden_po);
    bool corrupted = cr.golden_po != result.golden_outputs[cycle];
    // Capture corruption propagates into all later cycles.
    if (cr.any_ff_corrupted()) corrupted = true;
    if (corrupted) ++result.corrupted_cycles;
    q = cr.latched_d;
  }
  return result;
}

}  // namespace cwsp::core
