// End-to-end integration: the full pipeline a user of the library runs —
// parse/generate → analyse → harden → elaborate → inject faults →
// estimate SER — on one benchmark circuit, with every stage's outputs
// feeding the next.

#include <gtest/gtest.h>

#include "bencharness/generator.hpp"
#include "campaign/campaign.hpp"
#include "cwsp/elaborate.hpp"
#include "cwsp/harden.hpp"
#include "cwsp/timing.hpp"
#include "netlist/transform.hpp"
#include "netlist/verilog_writer.hpp"
#include "netlist/writer.hpp"
#include "scheme/fault_model.hpp"
#include "set/ser.hpp"
#include "sta/sta.hpp"

namespace cwsp {
namespace {

TEST(Integration, FullPipelineOnAlu2) {
  const CellLibrary lib = make_default_library();

  // 1. Generate the calibrated benchmark.
  const auto gen =
      bench::generate_benchmark(bench::find_benchmark("alu2"), lib);
  ASSERT_NEAR(gen.measured_dmax.value(), 1624.53789, 8.0);

  // 2. Optimisation passes must not change area materially (the
  //    generator emits no foldable logic) nor break validity.
  const auto [optimized, stats] = optimize(gen.netlist);
  EXPECT_EQ(stats.gates_after, stats.gates_before);

  // 3. Harden at Q = 100 fC; alu2's Dmax > 1415 ps ⇒ full protection.
  const auto params = core::ProtectionParams::q100();
  const auto design = core::harden_assuming_balanced_paths(gen.netlist,
                                                           params);
  EXPECT_TRUE(design.full_designed_protection);
  EXPECT_NEAR(design.area_overhead_pct(), 28.78, 0.2);
  EXPECT_LT(design.delay_overhead_pct(), 1.0);

  // 4. Elaborate the checker for this FF count and sanity-check it.
  const auto checker =
      core::elaborate_protection(core::protected_ff_count(gen.netlist), lib);
  EXPECT_EQ(checker.num_protected_ffs, 6);
  EXPECT_NO_THROW(checker.netlist.validate());

  // 5. Sequentialise and run a fault campaign: zero escapes.
  const auto seq = bench::clone_with_output_flip_flops(gen.netlist);
  const Picoseconds period =
      std::max(core::hardened_clock_period(gen.measured_dmax, lib),
               core::min_clock_period_for_delta(params));
  set::StrikePlanOptions plan_options;
  plan_options.functional_strikes = 15;
  plan_options.cycles_per_run = 8;
  plan_options.glitch_width = Picoseconds(450.0);
  plan_options.clock_period = period;
  campaign::EngineOptions engine_options;
  engine_options.seed = 77;
  engine_options.cycles_per_run = plan_options.cycles_per_run;
  const auto coverage =
      campaign::CampaignEngine(seq, params, period)
          .run(scheme::default_fault_model().build_plan(seq, plan_options,
                                                        engine_options.seed),
               engine_options)
          .report;
  EXPECT_EQ(coverage.protected_failures, 0u);
  EXPECT_GT(coverage.unprotected_failures, 0u);

  // 6. SER estimate improves by a meaningful factor.
  set::SerAnalyzer analyzer;
  const auto ser = analyzer.analyze(
      design.hardened_area, design.max_glitch,
      coverage.unprotected_failure_pct() / 100.0);
  EXPECT_GT(ser.improvement_factor, 5.0);

  // 7. Exports parse/print without errors.
  EXPECT_FALSE(to_bench_string(gen.netlist).empty());
  EXPECT_NE(to_verilog_string(gen.netlist).find("endmodule"),
            std::string::npos);
}

TEST(Integration, ConsecutiveCycleStrikesAreTheKnownLimit) {
  // The paper's recovery rests on footnote 2: two strikes in consecutive
  // cycles are essentially impossible (p ≈ 4.78e-10). This test documents
  // the boundary: a second capture-corrupting strike in the suppressed
  // cycle right after a repair CAN slip through, because EQ is forced
  // high while it lands.
  const CellLibrary lib = make_default_library();
  Netlist n(lib, "toggle");
  const NetId a = n.add_primary_input("a");
  const GateId g1 = n.add_gate(lib.cell_for(CellKind::kXor2),
                               {a, n.add_net("q_fwd")}, "d");
  // Build the toggle by wiring the FF onto the forward-declared net.
  const FlipFlopId ff = n.add_flip_flop_onto(n.gate(g1).output,
                                             *n.find_net("q_fwd"));
  n.mark_primary_output(n.flip_flop(ff).q);
  n.validate();

  const auto params = core::ProtectionParams::q100();
  core::ProtectionSim sim(n, params, Picoseconds(1600.0));

  std::vector<std::vector<bool>> inputs(12, {true});
  auto strike_at = [&](std::size_t cycle) {
    core::ScheduledStrike s;
    s.cycle = cycle;
    s.target = core::StrikeTarget::kFunctional;
    s.strike.node = *n.find_net("d");
    s.strike.start = Picoseconds(1400.0);
    s.strike.width = Picoseconds(400.0);
    return s;
  };

  // Strike cycle 3 corrupts the capture; detection squashes cycle 4
  // (global cycle 4); a second strike during that suppressed cycle is the
  // double-strike scenario.
  const auto r = sim.run(inputs, {strike_at(3), strike_at(4)});
  // The protocol is allowed to fail here — and the environment makes the
  // case astronomically rare (footnote 2). What must NOT happen is a
  // livelock.
  EXPECT_FALSE(r.livelocked);
  set::SerAnalyzer analyzer;
  EXPECT_LT(analyzer.consecutive_cycle_strike_probability(
                SquareMicrons(473.4), Picoseconds(5500.0)),
            1e-9);
}

}  // namespace
}  // namespace cwsp
