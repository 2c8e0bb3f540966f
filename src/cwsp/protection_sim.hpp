#pragma once
// Executable semantics of the paper's recovery protocol (§3.2/§3.3):
// CWSP watchdog per flip-flop, equivalence check at CLK_DEL, EQGLB
// reduction, CW* repair latch, EQGLBF suppression flip-flop, and the
// architectural bubble (input replay) on EQGLB low at a clock edge.
//
// Strikes inside the functional logic propagate through the event-driven
// timing simulator (logical/electrical/latching-window masking); strikes
// inside the protection circuitry itself are modelled behaviourally,
// one scenario class per bullet of the paper's §3.2 case analysis.

#include <memory>
#include <optional>
#include <vector>

#include "cwsp/protection_params.hpp"
#include "cwsp/timing.hpp"
#include "sim/compiled_kernel.hpp"

namespace cwsp::core {

enum class StrikeTarget {
  /// Gate output or FF Q net inside the functional logic (strike.node).
  kFunctional,
  /// Equivalence checker XNOR/MUX or the AND1 (NOR) gate.
  kEqChecker,
  /// DFF1, the EQGLBF suppression flip-flop.
  kEqglbfDff,
  /// DFF2, the CW* repair latch.
  kCwStarDff,
  /// CWSP element output (protected by device upsizing).
  kCwspOutput,
};

struct ScheduledStrike {
  /// Global cycle index (squashed cycles count).
  std::size_t cycle = 0;
  StrikeTarget target = StrikeTarget::kFunctional;
  set::Strike strike;
  /// For kCwStarDff / protection-FF scenarios: which protected FF's
  /// circuitry is hit.
  std::size_t ff_index = 0;
};

struct ProtectionSimOptions {
  /// Model DFF1/EQGLBF (ignore the equivalence check for one cycle after
  /// a recomputation). Disabling it reproduces the failure mode the paper
  /// explains in §3.2: EQ stays low forever and the pipeline livelocks.
  bool eqglbf_suppression = true;
};

struct ProtectionRunResult {
  /// Outputs committed by the architecture, in program order (one entry
  /// per consumed input vector).
  std::vector<std::vector<bool>> committed_outputs;
  /// Golden outputs of the same input sequence.
  std::vector<std::vector<bool>> golden_outputs;
  std::size_t total_cycles = 0;
  std::size_t bubbles = 0;
  std::size_t detected_errors = 0;
  std::size_t spurious_recomputes = 0;
  /// Committed outputs that differ from golden — must be zero whenever the
  /// strike widths respect the design's protected glitch width.
  std::size_t silent_corruptions = 0;
  /// True if the protocol stopped making forward progress (only possible
  /// with eqglbf_suppression disabled).
  bool livelocked = false;

  [[nodiscard]] bool recovered() const {
    return silent_corruptions == 0 && !livelocked;
  }
};

struct UnprotectedRunResult {
  std::vector<std::vector<bool>> outputs;
  std::vector<std::vector<bool>> golden_outputs;
  /// Cycles whose outputs or captured state differ from golden.
  std::size_t corrupted_cycles = 0;
};

/// The configuration every protocol run rests on: valid params, at least
/// one flip-flop, and a clock period meeting Eq. 6 for the params' δ.
/// Throws cwsp::Error. ProtectionSim's constructor and the campaign engine
/// (on either kernel) both check through here, with the same messages.
void check_protection_config(const Netlist& netlist,
                             const ProtectionParams& params,
                             Picoseconds clock_period);

class ProtectionSim {
 public:
  /// The clock period must satisfy both the functional constraint
  /// (hardened period for the design's D_max) and Eq. 6 for the params' δ
  /// (check_protection_config).
  /// `context` optionally shares a prebuilt compiled-kernel context (flat
  /// view + STA) so campaign workers skip the per-instance rebuild; pass
  /// nullptr to build privately.
  ProtectionSim(const Netlist& netlist, const ProtectionParams& params,
                Picoseconds clock_period, ProtectionSimOptions options = {},
                std::shared_ptr<const sim::CompiledKernelContext> context =
                    nullptr);

  [[nodiscard]] ProtectionRunResult run(
      const std::vector<std::vector<bool>>& inputs,
      const std::vector<ScheduledStrike>& strikes) const;

  /// Reference: the same strikes against the unhardened design.
  [[nodiscard]] UnprotectedRunResult run_unprotected(
      const std::vector<std::vector<bool>>& inputs,
      const std::vector<ScheduledStrike>& strikes) const;

  [[nodiscard]] const Netlist& netlist() const { return *netlist_; }
  [[nodiscard]] const ProtectionParams& params() const { return params_; }
  [[nodiscard]] Picoseconds clock_period() const { return clock_period_; }

  /// Cooperative cancellation (nullptr detaches): run()/run_unprotected()
  /// poll the token once per cycle (and per gate inside the event
  /// simulator) and throw sim::CancelledError once cancelled.
  void set_cancel_token(const sim::CancelToken* token) {
    cancel_ = token;
    sim_.set_cancel_token(token);
  }

 private:
  void check_cancelled() const {
    if (cancel_ != nullptr && cancel_->cancelled()) {
      throw sim::CancelledError("protection simulation cancelled");
    }
  }

  /// One functional cycle on the compiled kernel, captured at the
  /// clock period.
  [[nodiscard]] sim::CycleResult simulate_cycle(
      const std::vector<bool>& pi_values, const std::vector<bool>& ff_q_values,
      const std::optional<set::Strike>& strike) const {
    return sim_.simulate_cycle(pi_values, ff_q_values, clock_period_, strike);
  }

  [[nodiscard]] std::vector<std::vector<bool>> golden_run(
      const std::vector<std::vector<bool>>& inputs) const;

  const Netlist* netlist_;
  ProtectionParams params_;
  Picoseconds clock_period_;
  ProtectionSimOptions options_;
  sim::CompiledEventSim sim_;
  const sim::CancelToken* cancel_ = nullptr;
};

}  // namespace cwsp::core
