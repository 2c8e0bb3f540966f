#pragma once
// Full-netlist event-driven glitch-propagation simulator for a single
// clock cycle: the test oracle sim::CompiledEventSim is pinned to bit for
// bit. It walks the whole netlist on every cycle and allocates per
// propagation, so production code runs the compiled kernel instead.
//
// Model: at cycle start all sources (PIs, FF Q outputs, constants) hold
// static values; an optional SET strike inverts one net for a window.
// The resulting pulse propagates through the combinational logic with
// per-gate propagation delays (from STA loads) subject to:
//   * logical masking  — a glitch dies at a gate whose side inputs are
//     controlling,
//   * electrical masking — pulses narrower than a gate's inertial delay
//     are filtered,
//   * latching-window masking — a flip-flop is only corrupted if the
//     pulse is present at (or toggling across) the capture aperture.

#include <optional>
#include <vector>

#include "set/strike_plan.hpp"
#include "sim/cancel.hpp"
#include "sim/compiled_kernel.hpp"
#include "sim/digital_waveform.hpp"
#include "sta/sta.hpp"

namespace cwsp::sim {

class EventSim {
 public:
  /// Precomputes topological order and per-gate delays.
  explicit EventSim(const Netlist& netlist);

  /// Simulates one cycle: sources take `pi_values` / `ff_q_values` at t=0,
  /// flip-flops capture at `capture_time`. The optional strike inverts its
  /// net during [start, start+width).
  [[nodiscard]] CycleResult simulate_cycle(
      const std::vector<bool>& pi_values, const std::vector<bool>& ff_q_values,
      Picoseconds capture_time,
      const std::optional<set::Strike>& strike) const;

  /// The waveform on a given net for the same scenario (for inspection
  /// and tests).
  [[nodiscard]] DigitalWaveform net_waveform(
      const std::vector<bool>& pi_values, const std::vector<bool>& ff_q_values,
      const std::optional<set::Strike>& strike, NetId net) const;

  [[nodiscard]] const Netlist& netlist() const { return *netlist_; }

  /// Installs a cooperative cancellation token (nullptr detaches). While
  /// set, propagate() polls it per gate and throws CancelledError once it
  /// is cancelled — the hook campaign timeouts use to interrupt a run.
  void set_cancel_token(const CancelToken* token) { cancel_ = token; }

 private:
  [[nodiscard]] std::vector<DigitalWaveform> propagate(
      const std::vector<bool>& pi_values, const std::vector<bool>& ff_q_values,
      const std::optional<set::Strike>& strike) const;

  const Netlist* netlist_;
  std::vector<GateId> topo_order_;
  std::vector<double> gate_delay_ps_;
  const CancelToken* cancel_ = nullptr;
};

}  // namespace cwsp::sim
