#pragma once
// Multi-cycle trace recording and VCD export.
//
// TraceRecorder captures selected nets of a LogicSim run cycle by cycle;
// write_vcd emits the standard Value Change Dump format any waveform
// viewer (GTKWave etc.) opens. An intra-cycle glitch waveform from the
// timed simulator (CompiledEventSim::net_waveform) is written by
// write_waveform_vcd (timestamps in ps within a cycle).

#include <iosfwd>
#include <string>
#include <vector>

#include "sim/digital_waveform.hpp"
#include "sim/logic_sim.hpp"

namespace cwsp::sim {

class TraceRecorder {
 public:
  /// Records the given nets (by name, resolved against the netlist).
  TraceRecorder(const Netlist& netlist, std::vector<std::string> net_names);

  /// Samples the current values from the simulator (call once per cycle,
  /// after evaluate()).
  void sample(const LogicSim& sim);

  [[nodiscard]] std::size_t num_cycles() const { return cycles_; }
  [[nodiscard]] const std::vector<std::string>& names() const {
    return names_;
  }
  /// Value of signal `s` at cycle `c`.
  [[nodiscard]] bool value(std::size_t signal, std::size_t cycle) const;

  /// Emits a VCD with one timestamp per cycle (timescale 1 ns/cycle).
  void write_vcd(std::ostream& os, const std::string& module_name) const;

  /// Renders an ASCII timing diagram (one row per signal).
  [[nodiscard]] std::string ascii_waves() const;

 private:
  const Netlist* netlist_;
  std::vector<std::string> names_;
  std::vector<NetId> nets_;
  std::vector<std::vector<bool>> samples_;  // per signal
  std::size_t cycles_ = 0;
};

/// Emits a single intra-cycle DigitalWaveform as a VCD (1 ps timescale).
void write_waveform_vcd(const DigitalWaveform& waveform,
                        const std::string& signal_name, double t_end_ps,
                        std::ostream& os);

}  // namespace cwsp::sim
