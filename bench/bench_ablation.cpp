// Ablations of the design choices DESIGN.md calls out:
//   (a) glitch width vs coverage — protection is total up to δ and
//       degrades beyond it (the CWSP guarantee boundary);
//   (b) EQGLBF suppression on/off — without DFF1 the recovery protocol
//       livelocks or commits corrupted outputs (paper §3.2);
//   (c) secondary-path vs in-path CWSP — where the 2δ penalty lands;
//   (d) EQGLB tree structure vs FF count.

#include <iostream>

#include "baselines/anghel00.hpp"
#include "bencharness/generator.hpp"
#include "campaign/campaign.hpp"
#include "common/table.hpp"
#include "cwsp/eqglb_tree.hpp"
#include "cwsp/timing.hpp"
#include "netlist/bench_parser.hpp"
#include "scheme/fault_model.hpp"
#include "spice/subckt.hpp"

int main() {
  using namespace cwsp;
  const CellLibrary library = make_default_library();
  const auto params = core::ProtectionParams::q100();

  const Netlist fsm = parse_bench_string(R"(
INPUT(a)
INPUT(b)
OUTPUT(q1)
OUTPUT(y)
t1 = NAND(a, q2)
t2 = XOR(t1, b)
d1 = NOT(t2)
q1 = DFF(d1)
q2 = DFF(t1)
y  = AND(q1, q2)
)",
                                         library, "fsm");
  const Picoseconds period{2000.0};

  // --- (a) glitch width sweep -------------------------------------------
  std::cout << "(a) Coverage vs glitch width (delta = "
            << params.delta.value() << " ps)\n";
  TextTable sweep;
  sweep.set_header({"width ps", "protected cov %", "unprotected fail %"});
  const campaign::CampaignEngine engine(fsm, params, period);
  for (double width : {100.0, 300.0, 500.0, 700.0, 900.0}) {
    set::StrikePlanOptions plan_options;
    plan_options.functional_strikes = 120;
    plan_options.cycles_per_run = 10;
    plan_options.glitch_width = Picoseconds(width);
    plan_options.clock_period = period;
    campaign::EngineOptions engine_options;
    engine_options.seed = 99;
    engine_options.cycles_per_run = plan_options.cycles_per_run;
    const auto r =
        engine
            .run(scheme::default_fault_model().build_plan(
                     fsm, plan_options, engine_options.seed),
                 engine_options)
            .report;
    sweep.add_row({TextTable::num(width, 0),
                   TextTable::num(r.protected_coverage_pct(), 1),
                   TextTable::num(r.unprotected_failure_pct(), 1)});
  }
  sweep.print(std::cout);

  // --- (b) EQGLBF ablation ------------------------------------------------
  std::cout << "\n(b) EQGLBF suppression flip-flop (DFF1) ablation\n";
  std::vector<std::vector<bool>> inputs;
  for (int i = 0; i < 10; ++i) inputs.push_back({(i % 2) == 0, (i % 3) == 0});
  core::ScheduledStrike strike;
  strike.cycle = 3;
  strike.target = core::StrikeTarget::kFunctional;
  strike.strike.node = *fsm.find_net("d1");
  strike.strike.start = Picoseconds(1800.0);
  strike.strike.width = Picoseconds(400.0);
  for (bool with_eqglbf : {true, false}) {
    core::ProtectionSimOptions options;
    options.eqglbf_suppression = with_eqglbf;
    core::ProtectionSim sim(fsm, params, period, options);
    const auto r = sim.run(inputs, {strike});
    std::cout << "  EQGLBF " << (with_eqglbf ? "on " : "off") << ": "
              << (r.recovered() ? "recovered" : "FAILED") << " (bubbles "
              << r.bubbles << ", livelocked " << (r.livelocked ? "yes" : "no")
              << ", silent corruptions " << r.silent_corruptions << ")\n";
  }

  // --- (c) secondary path vs functional path -----------------------------
  std::cout << "\n(c) Where the 2*delta penalty lands (alu2-scale design)\n";
  const auto gen =
      bench::generate_benchmark(bench::find_benchmark("alu2"), library);
  const auto ours = core::harden_assuming_balanced_paths(gen.netlist, params);
  const auto inpath = baselines::harden_anghel00(
      gen.netlist, {Picoseconds(params.delta.value())});
  TextTable paths;
  paths.set_header({"placement", "delay ovh %", "area ovh %"});
  paths.add_row({"secondary path (this work)",
                 TextTable::num(ours.delay_overhead_pct(), 2),
                 TextTable::num(ours.area_overhead_pct(), 2)});
  paths.add_row({"functional path [15]",
                 TextTable::num(inpath.delay_overhead_pct(), 2),
                 TextTable::num(inpath.area_overhead_pct(), 2)});
  paths.print(std::cout);

  // --- (e) latching-window profile ----------------------------------------
  // Sweep the strike time across the cycle for a fixed site: the windowed
  // structure of vulnerability (only strikes whose propagated glitch
  // overlaps the capture edge matter) is the paper's premise for
  // latching-window masking.
  std::cout << "\n(e) Strike-time profile on net d1 (capture at 2000 ps)\n";
  TextTable profile;
  profile.set_header({"strike start ps", "unprotected corrupts?",
                      "protected recovers?", "bubbles"});
  {
    core::ProtectionSim sim(fsm, params, period);
    std::vector<std::vector<bool>> inputs2;
    for (int i = 0; i < 6; ++i) {
      inputs2.push_back({(i % 2) == 0, (i % 3) == 0});
    }
    for (double start = 100.0; start < 2000.0; start += 200.0) {
      core::ScheduledStrike s;
      s.cycle = 2;
      s.target = core::StrikeTarget::kFunctional;
      s.strike.node = *fsm.find_net("d1");
      s.strike.start = Picoseconds(start);
      s.strike.width = Picoseconds(400.0);
      const auto protected_r = sim.run(inputs2, {s});
      const auto unprotected_r = sim.run_unprotected(inputs2, {s});
      profile.add_row({TextTable::num(start, 0),
                       unprotected_r.corrupted_cycles > 0 ? "yes" : "no",
                       protected_r.recovered() ? "yes" : "NO",
                       std::to_string(protected_r.bubbles)});
    }
  }
  profile.print(std::cout);

  // --- (d) EQGLB tree scaling ---------------------------------------------
  std::cout << "\n(d) EQGLB tree vs protected-FF count\n";
  TextTable tree;
  tree.set_header({"FFs", "levels", "chunks", "extra area um^2",
                   "delay ps"});
  for (int n : {6, 30, 35, 36, 108, 123, 300}) {
    const auto t = core::build_eqglb_tree(n);
    tree.add_row({std::to_string(n), std::to_string(t.levels),
                  std::to_string(t.first_level_gates),
                  TextTable::num(t.extra_area.value(), 4),
                  TextTable::num(t.delay.value(), 0)});
  }
  tree.print(std::cout);

  // --- (f) protection-logic sizing: noise margin cost ----------------------
  // Paper §3.3: "There was a 66mV reduction in the noise margin of an
  // inverter in the protection logic due to our modified sizing approach"
  // (PMOS width = NMOS width). Harmless because the skewed sizing only
  // appears on the SET-immune secondary path.
  const auto balanced = spice::measure_noise_margins(2.0, 1.0);
  const auto equal = spice::measure_noise_margins(1.0, 1.0);
  std::cout << "\n(f) Equal-width sizing noise-margin cost (paper: 66 mV)\n";
  TextTable nm;
  nm.set_header({"sizing", "switch point V", "NM_L V", "NM_H V"});
  nm.add_row({"balanced Wp=2Wn",
              TextTable::num(balanced.switch_point.value(), 3),
              TextTable::num(balanced.nm_low.value(), 3),
              TextTable::num(balanced.nm_high.value(), 3)});
  nm.add_row({"equal Wp=Wn (protection logic)",
              TextTable::num(equal.switch_point.value(), 3),
              TextTable::num(equal.nm_low.value(), 3),
              TextTable::num(equal.nm_high.value(), 3)});
  nm.print(std::cout);
  std::cout << "  NM_L reduction: "
            << TextTable::num(
                   (balanced.nm_low.value() - equal.nm_low.value()) * 1000.0,
                   0)
            << " mV\n";
  return 0;
}
