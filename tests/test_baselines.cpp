#include "baselines/compare.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "bencharness/generator.hpp"
#include "netlist/bench_parser.hpp"

namespace cwsp::baselines {
namespace {

/// FNV-1a over (gate index, log2 multiplier) of every upsized gate:
/// which gates the greedy loop picked, and how far it grew each.
std::uint64_t multiplier_digest(const std::vector<double>& multipliers) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t g = 0; g < multipliers.size(); ++g) {
    if (multipliers[g] == 1.0) continue;
    const auto level = static_cast<std::uint64_t>(std::log2(multipliers[g]));
    for (const std::uint64_t v : {std::uint64_t{g}, level}) {
      h ^= v;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

class BaselinesTest : public ::testing::Test {
 protected:
  CellLibrary lib_ = make_default_library();
  // A benchmark-scale circuit so overhead percentages are meaningful.
  bench::GeneratedBenchmark gen_ =
      bench::generate_benchmark(bench::find_benchmark("alu2"), lib_);
};

TEST_F(BaselinesTest, Anghel00DelayDominatedByTwoDelta) {
  const auto r = harden_anghel00(gen_.netlist, {Picoseconds(450.0)});
  // 2δ = 900 ps in the functional path → large delay overhead.
  EXPECT_GT(r.period_hardened.value() - r.period_regular.value(), 900.0);
  EXPECT_GT(r.delay_overhead_pct(), 20.0);
  // Min-sized elements → small area overhead.
  EXPECT_LT(r.area_overhead_pct(), 10.0);
  EXPECT_DOUBLE_EQ(r.protection_pct, 100.0);
}

TEST_F(BaselinesTest, Anghel00ScalesWithDelta) {
  const auto small = harden_anghel00(gen_.netlist, {Picoseconds(200.0)});
  const auto large = harden_anghel00(gen_.netlist, {Picoseconds(600.0)});
  EXPECT_NEAR(large.period_hardened.value() - small.period_hardened.value(),
              800.0, 1e-9);
}

TEST_F(BaselinesTest, Nicolaidis99FlagsWideGatesInfeasible) {
  // alu2's synthetic netlist has XOR2 frontier joins (2-input) — check
  // feasibility logic on crafted netlists instead.
  const auto two_input = parse_bench_string(R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
y = NAND(a, b)
)",
                                            lib_);
  EXPECT_TRUE(harden_nicolaidis99(two_input).feasible);

  const auto three_input = parse_bench_string(R"(
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
y = AND(a, b, c)
)",
                                              lib_);
  EXPECT_FALSE(harden_nicolaidis99(three_input).feasible);
}

TEST_F(BaselinesTest, Nicolaidis99AreaBelowAnghelButDelaySimilar) {
  const auto n99 = harden_nicolaidis99(gen_.netlist);
  EXPECT_GT(n99.delay_overhead_pct(), 20.0);
  EXPECT_GT(n99.area_hardened.value(), n99.area_regular.value());
}

TEST_F(BaselinesTest, GateResizingReachesCoverageTarget) {
  GateResizingOptions options;
  options.samples = 150;
  options.seed = 3;
  const auto r = harden_gate_resizing(gen_.netlist, options);
  EXPECT_GE(r.achieved_coverage_pct, 90.0);
  EXPECT_GT(r.resized_gates, 0);
  EXPECT_GT(r.report.area_overhead_pct(), 0.0);
  // Resizing touches the functional path but only mildly (paper: ~2.8%).
  EXPECT_LT(r.report.delay_overhead_pct(), 10.0);
  EXPECT_LT(r.report.protection_pct, 100.0);
}

TEST_F(BaselinesTest, GateResizingResultIsPinned) {
  // Values recorded with the full-netlist EventSim oracle. One flipped
  // sample verdict changes the greedy upsizing sequence and so the
  // resized set. Both criteria run: glitch-reaches-endpoint and latched
  // corruption.
  GateResizingOptions options;
  options.samples = 150;
  options.seed = 3;
  options.coverage_target = 0.95;
  const auto pessimistic = harden_gate_resizing(gen_.netlist, options);
  EXPECT_EQ(pessimistic.resized_gates, 132);
  // 7 of the 150 samples still fail.
  EXPECT_DOUBLE_EQ(pessimistic.achieved_coverage_pct,
                   (1.0 - 7.0 / 150.0) * 100.0);
  EXPECT_DOUBLE_EQ(pessimistic.report.protection_pct,
                   pessimistic.achieved_coverage_pct);
  EXPECT_EQ(multiplier_digest(pessimistic.multipliers),
            0xd8046cb33b2b3798ULL);

  options.pessimistic_latching = false;
  const auto latched = harden_gate_resizing(gen_.netlist, options);
  EXPECT_EQ(latched.resized_gates, 32);
  EXPECT_DOUBLE_EQ(latched.achieved_coverage_pct,
                   (1.0 - 7.0 / 150.0) * 100.0);
  EXPECT_EQ(multiplier_digest(latched.multipliers), 0x76bfc298c68b4e42ULL);
}

TEST_F(BaselinesTest, GateResizingRejectsZeroSamples) {
  // With no sampled strikes the coverage ratio is 0/0.
  GateResizingOptions options;
  options.samples = 0;
  EXPECT_THROW((void)harden_gate_resizing(gen_.netlist, options), Error);
}

TEST_F(BaselinesTest, ResizedDmaxIdentityWhenAllOnes) {
  const std::vector<double> ones(gen_.netlist.num_gates(), 1.0);
  const auto base = resized_dmax(gen_.netlist, ones);
  EXPECT_NEAR(base.value(), gen_.measured_dmax.value(), 1e-6);
}

TEST_F(BaselinesTest, ResizingASingleGateRaisesUpstreamDelay) {
  std::vector<double> mult(gen_.netlist.num_gates(), 1.0);
  // Upsizing every gate doubles every load: strictly slower upstream but
  // faster drive — net effect must keep dmax positive and finite; spot
  // check monotonicity of a pure load increase instead: only the critical
  // endpoint's driver gets larger inputs.
  mult[0] = 8.0;
  const auto changed = resized_dmax(gen_.netlist, mult);
  EXPECT_GT(changed.value(), 0.0);
}

TEST_F(BaselinesTest, SpatialTmrTriplicatesArea) {
  const auto r = harden_spatial_tmr(gen_.netlist);
  EXPECT_GT(r.area_overhead_pct(), 180.0);
  EXPECT_LT(r.delay_overhead_pct(), 5.0);
  EXPECT_DOUBLE_EQ(r.protection_pct, 100.0);
}

TEST_F(BaselinesTest, MultiStrobeDelayCarriesTwoDelta) {
  const auto r = harden_multistrobe(gen_.netlist, {Picoseconds(450.0), 3});
  EXPECT_NEAR(r.period_hardened.value() - r.period_regular.value(),
              2.0 * 450.0 + 35.0, 1e-9);
  // Glitch tolerance capped by Dmin/2.
  EXPECT_LE(r.max_glitch.value(), gen_.measured_dmin.value() / 2.0 + 1e-9);
}

TEST_F(BaselinesTest, MultiStrobeRequiresOddStrobes) {
  EXPECT_THROW(harden_multistrobe(gen_.netlist, {Picoseconds(450.0), 4}),
               Error);
}

TEST_F(BaselinesTest, CompareAllOrdersOurApproachFirst) {
  CompareOptions options;
  options.resizing.samples = 100;
  const auto reports = compare_all(gen_.netlist, options);
  ASSERT_EQ(reports.size(), 6u);
  EXPECT_NE(reports[0].technique.find("This work"), std::string::npos);

  // The paper's headline shape: our delay overhead is far below [15]'s
  // and below [13]'s, at comparable-or-higher area than [13].
  const auto& ours = reports[0];
  const auto& anghel = reports[1];
  EXPECT_LT(ours.delay_overhead_pct(), 1.5);
  EXPECT_GT(anghel.delay_overhead_pct(), 10.0 * ours.delay_overhead_pct());
  EXPECT_DOUBLE_EQ(ours.protection_pct, 100.0);
}

}  // namespace
}  // namespace cwsp::baselines
