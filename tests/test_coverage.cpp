// The paper's §3.2 coverage claim on the campaign engine: the runs the
// coverage op makes (single-set functional strikes, protection-seu
// strikes across the four §3.2 sites), and the CoverageReport accounting
// they aggregate into.

#include "campaign/campaign.hpp"

#include <gtest/gtest.h>

#include "netlist/bench_parser.hpp"
#include "scheme/fault_model.hpp"

namespace cwsp::core {
namespace {

class CoverageTest : public ::testing::Test {
 protected:
  /// Plans `options.functional_strikes` strikes with fault model `model`
  /// into plan_ and runs them on the campaign engine.
  campaign::CampaignResult run(const char* model,
                               set::StrikePlanOptions options,
                               std::uint64_t seed) {
    options.clock_period = period_;
    plan_ = scheme::find_fault_model(model)->build_plan(netlist_, options,
                                                        seed);
    campaign::EngineOptions engine_options;
    engine_options.seed = seed;
    engine_options.cycles_per_run = options.cycles_per_run;
    engine_options.fault_model = model;
    return campaign::CampaignEngine(netlist_, params_, period_)
        .run(plan_, engine_options);
  }

  CellLibrary lib_ = make_default_library();
  Netlist netlist_ = parse_bench_string(R"(
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(q1)
OUTPUT(y)
t1 = NAND(a, q2)
t2 = XOR(t1, b)
t3 = OR(t2, c)
d1 = NOT(t3)
q1 = DFF(d1)
q2 = DFF(t1)
y  = AND(q1, q2)
)",
                                        lib_);
  ProtectionParams params_ = ProtectionParams::q100();
  Picoseconds period_{2000.0};
  set::StrikePlan plan_;
};

TEST_F(CoverageTest, FunctionalCampaignFullyProtected) {
  set::StrikePlanOptions options;
  options.functional_strikes = 60;
  options.cycles_per_run = 12;
  options.glitch_width = Picoseconds(400.0);
  const auto report = run("single-set", options, 42).report;
  EXPECT_EQ(report.runs, 60u);
  EXPECT_EQ(report.protected_failures, 0u);
  EXPECT_DOUBLE_EQ(report.protected_coverage_pct(), 100.0);
  // The harness has teeth: the unprotected design must fail for at least
  // some of the same strikes.
  EXPECT_GT(report.unprotected_failures, 0u);
}

TEST_F(CoverageTest, ScenarioSweepFullyProtected) {
  set::StrikePlanOptions options;
  options.functional_strikes = 4 * 25;
  options.cycles_per_run = 10;
  options.glitch_width = Picoseconds(400.0);
  const auto report = run("protection-seu", options, 7).report;
  EXPECT_EQ(report.runs, 4u * 25u);
  EXPECT_EQ(report.protected_failures, 0u);
}

TEST_F(CoverageTest, DetectionsAndBubblesAccounted) {
  set::StrikePlanOptions options;
  options.functional_strikes = 60;
  options.glitch_width = Picoseconds(400.0);
  const auto report = run("single-set", options, 3).report;
  // Some strikes land on capture edges → bubbles appear; every detection
  // costs exactly one bubble.
  EXPECT_GT(report.bubbles, 0u);
  EXPECT_EQ(report.bubbles,
            report.detected_errors + report.spurious_recomputes);
}

TEST_F(CoverageTest, OverwideGlitchesReduceCoverage) {
  set::StrikePlanOptions options;
  options.functional_strikes = 80;
  options.glitch_width = Picoseconds(900.0);  // > δ: guarantee void
  const auto report = run("single-set", options, 11).report;
  EXPECT_GT(report.protected_failures, 0u);
  EXPECT_LT(report.protected_coverage_pct(), 100.0);
}

TEST_F(CoverageTest, AreaWeightedCampaignAlsoFullyProtected) {
  set::StrikePlanOptions options;
  options.functional_strikes = 40;
  options.glitch_width = Picoseconds(400.0);
  options.area_weighted_sites = true;
  const auto report = run("single-set", options, 21).report;
  EXPECT_EQ(report.protected_failures, 0u);
  EXPECT_GT(report.unprotected_failures, 0u);
}

TEST_F(CoverageTest, ZeroStrikeCampaignIsInvalidNotFullyCovered) {
  // A campaign that injected nothing used to report 100% coverage — a
  // vacuous claim. It must now be flagged invalid with 0% coverage.
  CoverageReport empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_DOUBLE_EQ(empty.protected_coverage_pct(), 0.0);
  EXPECT_DOUBLE_EQ(empty.unprotected_failure_pct(), 0.0);

  set::StrikePlanOptions options;
  options.functional_strikes = 0;
  const auto report = run("single-set", options, 1).report;
  EXPECT_FALSE(report.valid());
  EXPECT_DOUBLE_EQ(report.protected_coverage_pct(), 0.0);
}

TEST_F(CoverageTest, AllInconclusiveCampaignIsNotCovered) {
  CoverageReport report;
  report.strikes_injected = 10;
  report.inconclusive = 10;
  report.timeouts = 4;
  EXPECT_TRUE(report.valid());
  EXPECT_EQ(report.conclusive_strikes(), 0u);
  // No verdicts → no coverage claim, even though strikes were injected.
  EXPECT_DOUBLE_EQ(report.protected_coverage_pct(), 0.0);
}

TEST_F(CoverageTest, ScenarioSweepReportsPerScenarioBreakdown) {
  set::StrikePlanOptions options;
  options.functional_strikes = 4 * 10;
  options.cycles_per_run = 8;
  const auto result = run("protection-seu", options, 9);
  const auto slices = campaign::protection_site_slices(plan_, result);
  ASSERT_EQ(slices.size(), 4u);
  EXPECT_EQ(slices[0].name, "eq-checker");
  EXPECT_EQ(slices[1].name, "eqglbf-dff");
  EXPECT_EQ(slices[2].name, "cwstar-dff");
  EXPECT_EQ(slices[3].name, "cwsp-output");
  std::size_t total = 0;
  for (const auto& s : slices) total += s.strikes;
  EXPECT_EQ(total, result.report.strikes_injected);
}

TEST_F(CoverageTest, ScenarioFindOrAppendAccumulates) {
  CoverageReport report;
  report.scenario("functional").strikes = 3;
  report.scenario("functional").escapes = 1;
  ASSERT_EQ(report.scenarios.size(), 1u);
  EXPECT_EQ(report.scenarios[0].strikes, 3u);
  EXPECT_EQ(report.scenarios[0].escapes, 1u);
}

TEST_F(CoverageTest, DeterministicForSeed) {
  set::StrikePlanOptions options;
  options.functional_strikes = 20;
  const auto a = run("single-set", options, 5).report;
  const auto b = run("single-set", options, 5).report;
  EXPECT_EQ(a.bubbles, b.bubbles);
  EXPECT_EQ(a.unprotected_failures, b.unprotected_failures);
}

}  // namespace
}  // namespace cwsp::core
