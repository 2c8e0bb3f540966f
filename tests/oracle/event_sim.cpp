#include "oracle/event_sim.hpp"

#include <algorithm>

namespace cwsp::sim {

EventSim::EventSim(const Netlist& netlist)
    : netlist_(&netlist), topo_order_(netlist.topological_order()) {
  const auto sta = run_sta(netlist);
  gate_delay_ps_ = sta.gate_delay_ps;
}

std::vector<DigitalWaveform> EventSim::propagate(
    const std::vector<bool>& pi_values, const std::vector<bool>& ff_q_values,
    const std::optional<set::Strike>& strike) const {
  const Netlist& nl = *netlist_;
  CWSP_REQUIRE(pi_values.size() == nl.primary_inputs().size());
  CWSP_REQUIRE(ff_q_values.size() == nl.num_flip_flops());

  std::vector<DigitalWaveform> waves(nl.num_nets());

  // Seed source nets with static values.
  for (std::size_t i = 0; i < nl.num_nets(); ++i) {
    const Net& net = nl.net(NetId{i});
    switch (net.driver_kind) {
      case DriverKind::kPrimaryInput:
        waves[i] = DigitalWaveform(pi_values[net.driver_index]);
        break;
      case DriverKind::kFlipFlop:
        waves[i] = DigitalWaveform(ff_q_values[net.driver_index]);
        break;
      case DriverKind::kConstant:
        waves[i] = DigitalWaveform(net.constant_value);
        break;
      default:
        break;
    }
  }

  auto apply_strike_if_here = [&](NetId net) {
    if (strike.has_value() && strike->node == net) {
      waves[net.index()].xor_pulse(strike->start.value(),
                                   strike->start.value() +
                                       strike->width.value());
    }
  };

  // Strike on a source (FF Q) net applies before propagation.
  if (strike.has_value()) {
    const Net& struck = nl.net(strike->node);
    if (struck.driver_kind != DriverKind::kGate) {
      apply_strike_if_here(strike->node);
    }
  }

  for (GateId g : topo_order_) {
    if (cancel_ != nullptr && cancel_->cancelled()) {
      throw CancelledError("event simulation cancelled");
    }
    const Gate& gate = nl.gate(g);
    const Cell& cell = nl.cell_of(g);
    const double delay = gate_delay_ps_[g.index()];

    // Union of input event times.
    std::vector<double> times;
    for (NetId in : gate.inputs) {
      const auto& t = waves[in.index()].transitions();
      times.insert(times.end(), t.begin(), t.end());
    }
    std::sort(times.begin(), times.end());
    times.erase(std::unique(times.begin(), times.end()), times.end());

    auto eval_at = [&](double t) {
      unsigned bits = 0;
      for (std::size_t i = 0; i < gate.inputs.size(); ++i) {
        if (waves[gate.inputs[i].index()].value_at(t)) bits |= 1u << i;
      }
      return cell.evaluate(bits);
    };

    // Initial output value from values just before any event.
    unsigned init_bits = 0;
    for (std::size_t i = 0; i < gate.inputs.size(); ++i) {
      if (waves[gate.inputs[i].index()].initial()) init_bits |= 1u << i;
    }
    DigitalWaveform out(cell.evaluate(init_bits));

    bool current = out.initial();
    std::vector<double> out_transitions;
    for (double t : times) {
      const bool v = eval_at(t);
      if (v != current) {
        out_transitions.push_back(t + delay);
        current = v;
      }
    }
    out.set_transitions(std::move(out_transitions));
    out.inertial_filter(cell.inertial_delay().value());

    waves[gate.output.index()] = std::move(out);
    apply_strike_if_here(gate.output);
  }

  return waves;
}

CycleResult EventSim::simulate_cycle(
    const std::vector<bool>& pi_values, const std::vector<bool>& ff_q_values,
    Picoseconds capture_time, const std::optional<set::Strike>& strike) const {
  const Netlist& nl = *netlist_;
  const auto struck = propagate(pi_values, ff_q_values, strike);
  const auto golden = propagate(pi_values, ff_q_values, std::nullopt);

  CycleResult result;
  const double t_capture = capture_time.value();
  const double setup = nl.library().regular_ff().setup.value();
  const double hold = nl.library().regular_ff().hold.value();

  result.golden_d.reserve(nl.num_flip_flops());
  result.latched_d.reserve(nl.num_flip_flops());
  result.aperture_violation.reserve(nl.num_flip_flops());
  for (std::size_t f = 0; f < nl.num_flip_flops(); ++f) {
    const NetId d = nl.flip_flop(FlipFlopId{f}).d;
    result.golden_d.push_back(golden[d.index()].final_value());
    result.latched_d.push_back(struck[d.index()].value_at(t_capture));
    result.aperture_violation.push_back(
        struck[d.index()].has_transition_in(t_capture - setup,
                                            t_capture + hold));
    // All sources are static within a cycle, so any endpoint transition
    // was caused by the strike.
    if (!struck[d.index()].is_constant()) {
      result.glitch_reached_endpoint = true;
    }
  }

  for (NetId po : nl.primary_outputs()) {
    result.golden_po.push_back(golden[po.index()].final_value());
    result.struck_po.push_back(struck[po.index()].value_at(t_capture));
    if (!struck[po.index()].is_constant()) {
      result.glitch_reached_endpoint = true;
    }
  }
  return result;
}

DigitalWaveform EventSim::net_waveform(
    const std::vector<bool>& pi_values, const std::vector<bool>& ff_q_values,
    const std::optional<set::Strike>& strike, NetId net) const {
  const auto waves = propagate(pi_values, ff_q_values, strike);
  return waves[net.index()];
}

}  // namespace cwsp::sim
