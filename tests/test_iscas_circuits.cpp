// The two classic public-domain ISCAS circuits small enough to embed
// verbatim: c17 (ISCAS85, six NAND2s) and s27 (ISCAS89, 10 gates + 3
// DFFs). They exercise the parser on authentic input and give the
// protection protocol a real sequential benchmark.

#include <gtest/gtest.h>

#include "campaign/campaign.hpp"
#include "cwsp/elaborate_system.hpp"
#include "cwsp/harden.hpp"
#include "netlist/bench_parser.hpp"
#include "iscas_data.hpp"
#include "scheme/fault_model.hpp"
#include "sim/logic_sim.hpp"
#include "sta/sta.hpp"

namespace cwsp {
namespace {

using testdata::kC17;
using testdata::kS27;

class IscasTest : public ::testing::Test {
 protected:
  CellLibrary lib_ = make_default_library();
};

TEST_F(IscasTest, C17Structure) {
  const auto c17 = parse_bench_string(kC17, lib_, "c17");
  const auto s = c17.stats();
  EXPECT_EQ(s.num_gates, 6u);
  EXPECT_EQ(s.num_primary_inputs, 5u);
  EXPECT_EQ(s.num_primary_outputs, 2u);
  EXPECT_EQ(s.num_flip_flops, 0u);
}

TEST_F(IscasTest, C17ExhaustiveTruth) {
  const auto c17 = parse_bench_string(kC17, lib_, "c17");
  sim::LogicSim sim(c17);
  for (unsigned v = 0; v < 32; ++v) {
    const bool i1 = v & 1, i2 = (v >> 1) & 1, i3 = (v >> 2) & 1;
    const bool i6 = (v >> 3) & 1, i7 = (v >> 4) & 1;
    sim.set_inputs({i1, i2, i3, i6, i7});
    sim.evaluate();
    // Reference: direct evaluation of the NAND network.
    const bool n10 = !(i1 && i3);
    const bool n11 = !(i3 && i6);
    const bool n16 = !(i2 && n11);
    const bool n19 = !(n11 && i7);
    const bool o22 = !(n10 && n16);
    const bool o23 = !(n16 && n19);
    const auto out = sim.output_values();
    EXPECT_EQ(out[0], o22) << "v=" << v;
    EXPECT_EQ(out[1], o23) << "v=" << v;
  }
}

TEST_F(IscasTest, C17TimingAndHardening) {
  const auto c17 = parse_bench_string(kC17, lib_, "c17");
  const auto sta = run_sta(c17);
  // Longest path is three NAND2 levels.
  EXPECT_GT(sta.dmax.value(), 3 * 12.0);
  EXPECT_LT(sta.dmax.value(), 150.0);

  const auto design = core::harden(c17, core::ProtectionParams::q100());
  EXPECT_EQ(core::protected_ff_count(c17), 2);
  // c17 is far too fast for the full 500 ps envelope.
  EXPECT_FALSE(design.full_designed_protection);
}

TEST_F(IscasTest, S27Structure) {
  const auto s27 = parse_bench_string(kS27, lib_, "s27");
  const auto s = s27.stats();
  EXPECT_EQ(s.num_gates, 10u);
  EXPECT_EQ(s.num_flip_flops, 3u);
  EXPECT_EQ(s.num_primary_inputs, 4u);
  EXPECT_EQ(s.num_primary_outputs, 1u);
}

TEST_F(IscasTest, S27KnownStateEvolution) {
  // From the all-zero state with inputs G0..G3 = 0: G14=1, G8=AND(1,0)=0,
  // G12=NOR(0,0)=1, G15=OR(1,0)=1, G16=OR(0,0)=0, G9=NAND(0,1)=1,
  // G11=NOR(0,1)=0, G17=NOT(0)=1, G10=NOR(1,0)=0, G13=NAND(0,1)=1.
  const auto s27 = parse_bench_string(kS27, lib_, "s27");
  sim::LogicSim sim(s27);
  sim.set_inputs({false, false, false, false});
  sim.evaluate();
  EXPECT_TRUE(sim.output_values()[0]);  // G17 = 1
  sim.clock();
  // Next state: G5←G10=0, G6←G11=0, G7←G13=1.
  const auto state = sim.ff_state();
  EXPECT_FALSE(state[0]);
  EXPECT_FALSE(state[1]);
  EXPECT_TRUE(state[2]);
}

TEST_F(IscasTest, S27ProtectedCampaign) {
  const auto s27 = parse_bench_string(kS27, lib_, "s27");
  const auto params = core::ProtectionParams::q100();
  // s27 is tiny; the clock period is set by the protection path (Eq. 6).
  const Picoseconds period = core::min_clock_period_for_delta(params);

  set::StrikePlanOptions plan_options;
  plan_options.functional_strikes = 60;
  plan_options.cycles_per_run = 12;
  plan_options.glitch_width = Picoseconds(400.0);
  plan_options.clock_period = period;
  campaign::EngineOptions engine_options;
  engine_options.seed = 2027;
  engine_options.cycles_per_run = plan_options.cycles_per_run;
  const auto report =
      campaign::CampaignEngine(s27, params, period)
          .run(scheme::default_fault_model().build_plan(s27, plan_options,
                                                        engine_options.seed),
               engine_options)
          .report;
  EXPECT_EQ(report.protected_failures, 0u);
  EXPECT_GT(report.unprotected_failures, 0u);
}

TEST_F(IscasTest, S27HardenedSystemElaborates) {
  const auto s27 = parse_bench_string(kS27, lib_, "s27");
  const auto sys = core::elaborate_hardened_system(s27);
  // 3 system + 3 shadow + EQGLBF.
  EXPECT_EQ(sys.netlist.num_flip_flops(), 7u);
  sim::LogicSim sim(sys.netlist);
  // Clean run: EQGLB settles high after the arming cycle and stays there.
  for (int i = 0; i < 10; ++i) {
    sim.set_inputs({(i % 2) == 0, false, true, (i % 3) == 0});
    sim.evaluate();
    if (i > 0) {
      EXPECT_TRUE(sim.value(sys.eqglb)) << "cycle " << i;
    }
    sim.clock();
  }
}

}  // namespace
}  // namespace cwsp
