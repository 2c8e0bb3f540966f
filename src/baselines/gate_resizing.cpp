#include "baselines/gate_resizing.hpp"

#include <algorithm>

#include <cmath>
#include <map>

#include "common/rng.hpp"
#include "cwsp/timing.hpp"
#include "sim/compiled_kernel.hpp"
#include "spice/subckt.hpp"
#include "sta/sta.hpp"

namespace cwsp::baselines {
namespace {

/// Electrically measured glitch width vs device-size multiplier: the same
/// MiniSpice strike harness as Fig. 6, with the struck gate's KP and node
/// capacitance scaled by the multiplier. Memoised per multiplier level.
class SpiceWidthModel {
 public:
  explicit SpiceWidthModel(Femtocoulombs charge) : charge_(charge) {}

  Picoseconds width(double mult) {
    const auto it = cache_.find(mult);
    if (it != cache_.end()) return it->second;
    spice::SpiceTech tech;
    tech.kp_n_min *= mult;
    tech.kp_p_min *= mult;
    tech.c_node_ff *= mult;
    const auto w = spice::measure_strike_glitch_width(charge_, tech);
    cache_.emplace(mult, w);
    return w;
  }

 private:
  Femtocoulombs charge_;
  std::map<double, Picoseconds> cache_;
};

struct Sample {
  GateId gate;
  Picoseconds start{0.0};
  std::vector<bool> pi_values;
  std::vector<bool> ff_values;
};

bool sample_fails(const sim::CompiledEventSim& esim, const Netlist& netlist,
                  const Sample& sample, Picoseconds capture,
                  Picoseconds width, bool pessimistic) {
  if (width.value() <= 1.0) return false;  // fully quenched by upsizing
  set::Strike strike;
  strike.node = netlist.gate(sample.gate).output;
  strike.start = sample.start;
  strike.width = width;
  const auto r = esim.simulate_cycle(sample.pi_values, sample.ff_values,
                                     capture, strike);
  if (pessimistic) return r.glitch_reached_endpoint;
  if (r.any_ff_corrupted()) return true;
  return r.struck_po != r.golden_po;
}

}  // namespace

Picoseconds resized_dmax(const Netlist& netlist,
                         const std::vector<double>& multipliers) {
  CWSP_REQUIRE(multipliers.size() == netlist.num_gates());
  const CellLibrary& lib = netlist.library();

  // Per-net load with size-scaled pin capacitances.
  auto load_of = [&](NetId id) {
    const Net& net = netlist.net(id);
    double load = 0.0;
    for (GateId g : net.fanout_gates) {
      const Gate& gate = netlist.gate(g);
      load += lib.cell(gate.cell).input_capacitance().value() *
              multipliers[g.index()];
    }
    load += static_cast<double>(net.fanout_ffs.size()) *
            lib.regular_ff().d_capacitance.value();
    load += lib.wire_capacitance_per_fanout().value() *
            static_cast<double>(net.fanout_gates.size() +
                                net.fanout_ffs.size());
    return load;
  };

  std::vector<double> arrival(netlist.num_nets(), 0.0);
  double dmax = 0.0;
  for (GateId g : netlist.topological_order()) {
    const Gate& gate = netlist.gate(g);
    const Cell& cell = netlist.cell_of(g);
    const double delay =
        cell.intrinsic_delay().value() +
        cell.drive_resistance().value() / multipliers[g.index()] *
            load_of(gate.output);
    double in_max = 0.0;
    for (NetId in : gate.inputs) {
      in_max = std::max(in_max, arrival[in.index()]);
    }
    arrival[gate.output.index()] = in_max + delay;
  }
  for (NetId po : netlist.primary_outputs()) {
    dmax = std::max(dmax, arrival[po.index()]);
  }
  for (FlipFlopId f : netlist.flip_flop_ids()) {
    dmax = std::max(dmax, arrival[netlist.flip_flop(f).d.index()]);
  }
  return Picoseconds(dmax);
}

GateResizingResult harden_gate_resizing(const Netlist& netlist,
                                        const GateResizingOptions& options) {
  CWSP_REQUIRE(options.coverage_target > 0.0 &&
               options.coverage_target <= 1.0);
  CWSP_REQUIRE_MSG(options.samples > 0,
                   "gate resizing needs at least one sampled strike");
  const CellLibrary& lib = netlist.library();
  const auto sta = run_sta(netlist);
  const Picoseconds capture = core::regular_clock_period(sta.dmax, lib);
  const sim::CompiledEventSim esim(netlist);
  Rng rng(options.seed);

  // Sampled strike population: random gate, time, inputs and state.
  std::vector<Sample> samples;
  samples.reserve(options.samples);
  for (std::size_t i = 0; i < options.samples; ++i) {
    Sample s;
    s.gate = GateId{rng.next_below(netlist.num_gates())};
    s.start = Picoseconds(rng.next_double_in(0.0, capture.value()));
    s.pi_values.resize(netlist.primary_inputs().size());
    for (std::size_t p = 0; p < s.pi_values.size(); ++p) {
      s.pi_values[p] = rng.next_bool();
    }
    s.ff_values.resize(netlist.num_flip_flops());
    for (std::size_t f = 0; f < s.ff_values.size(); ++f) {
      s.ff_values[f] = rng.next_bool();
    }
    samples.push_back(std::move(s));
  }

  std::vector<double> mult(netlist.num_gates(), 1.0);
  std::vector<char> fails(samples.size(), 0);
  SpiceWidthModel spice_model(options.charge);
  auto width_for = [&](GateId g) {
    const double m = mult[g.index()];
    if (options.use_spice_width_model) return spice_model.width(m);
    return Picoseconds(options.base_glitch.value() / m);
  };
  for (std::size_t i = 0; i < samples.size(); ++i) {
    fails[i] = sample_fails(esim, netlist, samples[i], capture,
                            width_for(samples[i].gate),
                            options.pessimistic_latching);
  }

  auto coverage = [&]() {
    const auto failing =
        static_cast<std::size_t>(std::count(fails.begin(), fails.end(), 1));
    return 1.0 - static_cast<double>(failing) /
                     static_cast<double>(samples.size());
  };

  while (coverage() < options.coverage_target) {
    // Upsize the gate implicated in the most failing samples.
    std::vector<std::size_t> fail_count(netlist.num_gates(), 0);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      if (fails[i]) ++fail_count[samples[i].gate.index()];
    }
    GateId worst;
    std::size_t worst_count = 0;
    for (std::size_t g = 0; g < netlist.num_gates(); ++g) {
      if (fail_count[g] > worst_count && mult[g] < options.max_multiplier) {
        worst_count = fail_count[g];
        worst = GateId{g};
      }
    }
    if (!worst.valid()) break;  // nothing left to upsize
    mult[worst.index()] = std::min(options.max_multiplier,
                                   mult[worst.index()] * 2.0);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      if (samples[i].gate == worst) {
        fails[i] = sample_fails(esim, netlist, samples[i], capture,
                                width_for(worst),
                                options.pessimistic_latching);
      }
    }
  }

  GateResizingResult result;
  result.multipliers = mult;
  result.achieved_coverage_pct = coverage() * 100.0;
  for (double m : mult) {
    if (m > 1.0) ++result.resized_gates;
  }

  BaselineReport& report = result.report;
  report.technique = "Zhou06 gate resizing [13]";
  report.area_regular = netlist.total_area();
  SquareMicrons resized_area{0.0};
  for (GateId g : netlist.gate_ids()) {
    resized_area += netlist.cell_of(g).active_area() * mult[g.index()];
  }
  report.area_hardened =
      resized_area +
      lib.regular_ff().area * static_cast<double>(netlist.num_flip_flops());
  report.period_regular = core::regular_clock_period(sta.dmax, lib);
  report.period_hardened =
      core::regular_clock_period(resized_dmax(netlist, mult), lib);
  report.protection_pct = result.achieved_coverage_pct;
  report.max_glitch = options.base_glitch;
  return result;
}

}  // namespace cwsp::baselines
