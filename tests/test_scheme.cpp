#include "scheme/scheme.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/report.hpp"
#include "cwsp/coverage.hpp"
#include "iscas_data.hpp"
#include "netlist/bench_parser.hpp"
#include "scheme/compare.hpp"
#include "scheme/fault_model.hpp"
#include "service/handlers.hpp"
#include "service/session.hpp"
#include "set/strike_plan.hpp"

namespace cwsp::scheme {
namespace {

class SchemeTest : public ::testing::Test {
 protected:
  CellLibrary lib_ = make_default_library();
  Netlist netlist_ = parse_bench_string(testdata::kS27, lib_, "s27");
  core::ProtectionParams params_ = core::ProtectionParams::q100();
  Picoseconds period_{2000.0};

  [[nodiscard]] set::StrikePlanOptions plan_options() const {
    set::StrikePlanOptions po;
    po.functional_strikes = 12;
    po.protection_path_strikes = 4;
    po.clock_edge_strikes = 4;
    po.out_of_envelope_strikes = 4;
    po.cycles_per_run = 10;
    po.clock_period = period_;
    po.out_of_envelope_width = params_.delta + Picoseconds(400.0);
    return po;
  }

  [[nodiscard]] campaign::CampaignEngine engine() const {
    return campaign::CampaignEngine(netlist_, params_, period_);
  }

  [[nodiscard]] std::string run_json(const set::StrikePlan& plan,
                                     const ProtectionScheme* scheme,
                                     const char* model,
                                     std::size_t jobs) const {
    campaign::EngineOptions options;
    options.seed = 9;
    options.cycles_per_run = 10;
    options.jobs = jobs;
    options.scheme = scheme;
    options.fault_model = model;
    const campaign::CampaignResult result = engine().run(plan, options);
    return campaign::format_campaign_json(result, plan, netlist_, options,
                                          period_);
  }

  /// Runs `plan` expecting a cwsp::Error whose message contains `needle`
  /// and names no retired option.
  void expect_rejected(const set::StrikePlan& plan,
                       const campaign::EngineOptions& options,
                       const std::string& needle) const {
    try {
      (void)engine().run(plan, options);
      ADD_FAILURE() << "campaign ran; expected a rejection naming " << needle;
    } catch (const Error& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find(needle), std::string::npos) << message;
      EXPECT_EQ(message.find("legacy"), std::string::npos) << message;
    }
  }
};

// ---- registry -------------------------------------------------------

TEST(SchemeRegistry, RegistersCwspTmrLocoInStableOrder) {
  const auto& schemes = registered_schemes();
  ASSERT_EQ(schemes.size(), 3u);
  EXPECT_STREQ(schemes[0]->name(), "cwsp");
  EXPECT_STREQ(schemes[1]->name(), "tmr");
  EXPECT_STREQ(schemes[2]->name(), "loco");
  EXPECT_EQ(&default_scheme(), schemes[0]);
  EXPECT_EQ(find_scheme("tmr"), schemes[1]);
  EXPECT_EQ(find_scheme("nonesuch"), nullptr);
  EXPECT_EQ(known_scheme_names(), "cwsp, tmr, loco");
  EXPECT_TRUE(default_scheme().certifiable());
  EXPECT_FALSE(schemes[1]->certifiable());
  EXPECT_FALSE(schemes[2]->certifiable());
}

TEST(SchemeRegistry, RegistersFaultModelsInStableOrder) {
  const auto& models = registered_fault_models();
  ASSERT_EQ(models.size(), 3u);
  EXPECT_STREQ(models[0]->name(), "single-set");
  EXPECT_STREQ(models[1]->name(), "double-set");
  EXPECT_STREQ(models[2]->name(), "protection-seu");
  EXPECT_EQ(&default_fault_model(), models[0]);
  EXPECT_EQ(find_fault_model("double-set"), models[1]);
  EXPECT_EQ(find_fault_model("nonesuch"), nullptr);
  EXPECT_EQ(known_fault_model_names(),
            "single-set, double-set, protection-seu");
}

// ---- CWSP-as-scheme differential ------------------------------------

TEST_F(SchemeTest, CwspSchemeIsByteIdenticalToEngineDefault) {
  const set::StrikePlan plan =
      set::build_strike_plan(netlist_, plan_options(), 9);
  const std::string baseline = run_json(plan, nullptr, "single-set", 1);
  EXPECT_EQ(run_json(plan, &default_scheme(), "single-set", 1), baseline);
  EXPECT_EQ(run_json(plan, &default_scheme(), "single-set", 8), baseline);
}

TEST_F(SchemeTest, SingleSetModelMatchesPlannerVerbatim) {
  const set::StrikePlan direct =
      set::build_strike_plan(netlist_, plan_options(), 9);
  const set::StrikePlan modelled =
      default_fault_model().build_plan(netlist_, plan_options(), 9);
  EXPECT_EQ(set::plan_fingerprint(direct), set::plan_fingerprint(modelled));
  EXPECT_EQ(direct.size(), modelled.size());
}

// ---- non-CWSP determinism -------------------------------------------

TEST_F(SchemeTest, TmrAndLocoReportsAreByteIdenticalAcrossJobCounts) {
  for (const char* name : {"tmr", "loco"}) {
    const ProtectionScheme* scheme = find_scheme(name);
    ASSERT_NE(scheme, nullptr);
    for (const FaultModel* model : registered_fault_models()) {
      const set::StrikePlan plan =
          model->build_plan(netlist_, plan_options(), 9);
      const std::string one = run_json(plan, scheme, model->name(), 1);
      EXPECT_EQ(run_json(plan, scheme, model->name(), 8), one)
          << name << " x " << model->name();
    }
  }
}

// ---- rejections -----------------------------------------------------

TEST_F(SchemeTest, TimedNonCwspCampaignsAreRejected) {
  const set::StrikePlan plan =
      set::build_strike_plan(netlist_, plan_options(), 9);
  for (const char* name : {"tmr", "loco"}) {
    campaign::EngineOptions options;
    options.cycles_per_run = 10;
    options.scheme = find_scheme(name);
    options.timeout_ms = 1000.0;
    expect_rejected(plan, options, name);
    expect_rejected(plan, options, "timeout");
  }
}

TEST_F(SchemeTest, TimedDoubleSetPlansAreRejected) {
  const set::StrikePlan plan =
      find_fault_model("double-set")->build_plan(netlist_, plan_options(), 9);
  campaign::EngineOptions options;
  options.cycles_per_run = 10;
  options.fault_model = "double-set";
  options.timeout_ms = 1000.0;
  expect_rejected(plan, options, "timeout");
}

TEST_F(SchemeTest, LocoEscapeMinimizationIsRejected) {
  const set::StrikePlan plan =
      set::build_strike_plan(netlist_, plan_options(), 9);
  campaign::EngineOptions options;
  options.cycles_per_run = 10;
  options.scheme = find_scheme("loco");
  options.minimize_escapes = true;
  expect_rejected(plan, options, "loco");
}

// ---- double-set model -----------------------------------------------

TEST_F(SchemeTest, DoubleSetPlanIsDeterministicAndPairsOnlyFunctional) {
  const FaultModel* model = find_fault_model("double-set");
  ASSERT_NE(model, nullptr);
  const set::StrikePlan a = model->build_plan(netlist_, plan_options(), 9);
  const set::StrikePlan b = model->build_plan(netlist_, plan_options(), 9);
  EXPECT_EQ(set::plan_fingerprint(a), set::plan_fingerprint(b));

  std::size_t paired = 0;
  for (const set::PlannedStrike& p : a.strikes) {
    if (p.klass == set::StrikeClass::kProtectionPath) {
      EXPECT_FALSE(p.node2.valid());
      continue;
    }
    if (!p.node2.valid()) continue;
    ++paired;
    EXPECT_NE(p.node2, p.strike.node);
    const std::vector<NetId> candidates =
        adjacent_strike_sites(netlist_, p.strike.node);
    EXPECT_NE(std::find(candidates.begin(), candidates.end(), p.node2),
              candidates.end());
  }
  EXPECT_GT(paired, 0u);

  // A different seed draws different partners (streams are decorrelated).
  const set::StrikePlan c = model->build_plan(netlist_, plan_options(), 10);
  EXPECT_NE(set::plan_fingerprint(a), set::plan_fingerprint(c));
}

TEST_F(SchemeTest, DoubleSetPartnersSurviveSharding) {
  const FaultModel* model = find_fault_model("double-set");
  const set::StrikePlan full = model->build_plan(netlist_, plan_options(), 9);
  const std::vector<set::StrikePlan> shards = set::shard_plan(full, 3);
  std::size_t pos = 0;
  for (const set::StrikePlan& shard : shards) {
    for (const set::PlannedStrike& p : shard.strikes) {
      ASSERT_LT(pos, full.size());
      EXPECT_EQ(p.node2, full.strikes[pos].node2);
      EXPECT_EQ(p.index, full.strikes[pos].index);
      ++pos;
    }
  }
  EXPECT_EQ(pos, full.size());
}

TEST_F(SchemeTest, AdjacentStrikeSitesAreSortedAndExcludeTheNode) {
  for (const NetId node : set::strike_sites(netlist_)) {
    const std::vector<NetId> sites = adjacent_strike_sites(netlist_, node);
    EXPECT_TRUE(std::is_sorted(sites.begin(), sites.end()));
    EXPECT_EQ(std::adjacent_find(sites.begin(), sites.end()), sites.end());
    EXPECT_EQ(std::find(sites.begin(), sites.end(), node), sites.end());
  }
}

// ---- protection-seu model -------------------------------------------

TEST_F(SchemeTest, ProtectionSeuSpendsTheWholeBudgetOnProtectionPath) {
  const FaultModel* model = find_fault_model("protection-seu");
  ASSERT_NE(model, nullptr);
  const set::StrikePlan plan = model->build_plan(netlist_, plan_options(), 9);
  // 12 functional + 4 + 4 + 4 adversarial = 24 strikes, all re-aimed at
  // the protection circuitry.
  EXPECT_EQ(plan.size(), 24u);
  for (const set::PlannedStrike& p : plan.strikes) {
    EXPECT_EQ(p.klass, set::StrikeClass::kProtectionPath);
    EXPECT_FALSE(p.node2.valid());
  }
}

// ---- coverage keying ------------------------------------------------

TEST(CoverageScenario, SchemeAndModelKeyDistinctRows) {
  core::CoverageReport report;
  report.scenario("functional", "cwsp", "single-set").strikes = 1;
  report.scenario("functional", "cwsp", "double-set").strikes = 2;
  report.scenario("functional", "tmr", "single-set").strikes = 3;
  ASSERT_EQ(report.scenarios.size(), 3u);
  EXPECT_EQ(report.scenario("functional", "cwsp", "single-set").strikes, 1u);
  EXPECT_EQ(report.scenario("functional", "cwsp", "double-set").strikes, 2u);
  // The 1-arg overload keys on empty scheme/model and never aliases the
  // scheme-qualified rows.
  report.scenario("functional").strikes = 9;
  EXPECT_EQ(report.scenarios.size(), 4u);
  EXPECT_EQ(report.scenario("functional", "cwsp", "single-set").strikes, 1u);
}

// ---- service plumbing -----------------------------------------------

TEST(SchemeService, DefaultSpecFingerprintIsStableAcrossSpellings) {
  service::CampaignSpec implicit;
  service::CampaignSpec explicit_default;
  explicit_default.schemes = {"cwsp"};
  explicit_default.fault_models = {"single-set"};
  EXPECT_EQ(service::campaign_spec_fingerprint(implicit, 42),
            service::campaign_spec_fingerprint(explicit_default, 42));
  service::CampaignSpec tmr;
  tmr.schemes = {"tmr"};
  EXPECT_NE(service::campaign_spec_fingerprint(implicit, 42),
            service::campaign_spec_fingerprint(tmr, 42));
}

TEST(SchemeService, DefaultSpecFingerprintIsPinned) {
  // Campaign fingerprints key the service result cache and the fabric's
  // shard checks; retiring a spec field must not move them.
  EXPECT_EQ(service::campaign_spec_fingerprint(service::CampaignSpec{}, 42),
            0x9358f692ff3433f7ULL);
}

// One spec per fingerprinted field set off its default, at design key 42.
// Each digest keys the result cache and the fabric's shard checks, so a
// change to how any field is mixed (order, tag, default rule) shows here.

TEST(SchemeService, CampaignFingerprintOfEveryFieldIsPinned) {
  using Spec = service::CampaignSpec;
  const auto fp = [](void (*edit)(Spec&)) {
    Spec spec;
    edit(spec);
    return service::campaign_spec_fingerprint(spec, 42);
  };
  EXPECT_EQ(fp([](Spec& s) { s.runs = 7; }), 0x8c2ad2baee2d41a2ULL);
  EXPECT_EQ(fp([](Spec& s) { s.cycles = 9; }), 0xd0dced8a0ca4e45eULL);
  EXPECT_EQ(fp([](Spec& s) { s.width_ps = 412.5; }), 0x9ae6b170921257dfULL);
  EXPECT_EQ(fp([](Spec& s) { s.seed = 3; }), 0x5e486b2beed97e35ULL);
  EXPECT_EQ(fp([](Spec& s) { s.timeout_ms = 250.0; }), 0x5cb9741318dde130ULL);
  EXPECT_EQ(fp([](Spec& s) { s.adversarial = true; }), 0xf3ff714b5c283a56ULL);
  EXPECT_EQ(fp([](Spec& s) { s.shard_index = 2, s.shard_total = 3; }),
            0xf50e5761a7c113b6ULL);
  EXPECT_EQ(fp([](Spec& s) { s.json = false; }), 0x745e2f89f444e9d6ULL);
  EXPECT_EQ(fp([](Spec& s) { s.schemes = {"tmr"}; }), 0xf46e90d59a05bd72ULL);
  EXPECT_EQ(fp([](Spec& s) {
              s.fault_models = {"double-set", "protection-seu"};
            }),
            0x6b35f55f9d38e869ULL);
  // Execution controls never reach the report, so they are not mixed.
  EXPECT_EQ(fp([](Spec& s) {
              s.jobs = 4;
              s.distribute = true;
              s.deadline_ms = 900.0;
            }),
            0x9358f692ff3433f7ULL);
}

TEST(SchemeService, CoverageFingerprintOfEveryFieldIsPinned) {
  using Spec = service::CoverageSpec;
  const auto fp = [](void (*edit)(Spec&)) {
    Spec spec;
    edit(spec);
    return service::coverage_spec_fingerprint(spec, 42);
  };
  EXPECT_EQ(fp([](Spec&) {}), 0xc36c9f819eebb290ULL);
  EXPECT_EQ(fp([](Spec& s) { s.runs = 7; }), 0x9cd2e4c3d9233145ULL);
  EXPECT_EQ(fp([](Spec& s) { s.cycles = 9; }), 0xe8f68379709760fdULL);
  EXPECT_EQ(fp([](Spec& s) { s.width_ps = 412.5; }), 0x11a070e4be213678ULL);
  EXPECT_EQ(fp([](Spec& s) { s.seed = 3; }), 0x10bbf1f919bf8752ULL);
  EXPECT_EQ(fp([](Spec& s) { s.scenarios = true; }), 0xb26417cba1b52e91ULL);
  EXPECT_EQ(fp([](Spec& s) { s.json = false; }), 0xe267668aa9dafcb1ULL);
}

TEST(SchemeService, CertifyFingerprintOfEveryFieldIsPinned) {
  using Spec = service::CertifySpec;
  const auto fp = [](void (*edit)(Spec&)) {
    Spec spec;
    edit(spec);
    return service::certify_spec_fingerprint(spec, 42);
  };
  EXPECT_EQ(fp([](Spec&) {}), 0x2f7d8e7d6d286a8cULL);  // delta absent
  EXPECT_EQ(fp([](Spec& s) { s.delta_ps = 600.0; }), 0x0199b3227dd1de5fULL);
  EXPECT_EQ(fp([](Spec& s) { s.q150 = true; }), 0xe9ff36b2e50a292dULL);
  EXPECT_EQ(fp([](Spec& s) { s.skew_ps = 25.0; }), 0x483ab4238eb004fdULL);
  EXPECT_EQ(fp([](Spec& s) { s.envelope_ps = 900.0; }), 0x7d3d024602133f40ULL);
  EXPECT_EQ(fp([](Spec& s) { s.seed = 3; }), 0xcd79ba0d93529b0eULL);
  EXPECT_EQ(fp([](Spec& s) { s.json = false; }), 0x4e7855867817b4adULL);
  EXPECT_EQ(fp([](Spec& s) { s.scheme = "loco"; }), 0x73abcecdc4ca05a0ULL);
  // The default scheme spelled out is the default spec.
  EXPECT_EQ(fp([](Spec& s) { s.scheme = "cwsp"; }), fp([](Spec&) {}));
}

TEST(SchemeService, CompareFingerprintOfEveryFieldIsPinned) {
  using Spec = service::CompareSpec;
  const auto fp = [](void (*edit)(Spec&)) {
    Spec spec;
    edit(spec);
    return service::compare_spec_fingerprint(spec, 42);
  };
  EXPECT_EQ(fp([](Spec&) {}), 0x7ed96911c322fb20ULL);
  EXPECT_EQ(fp([](Spec& s) { s.runs = 7; }), 0xe8f31755b4808dd5ULL);
  EXPECT_EQ(fp([](Spec& s) { s.cycles = 9; }), 0xce4190050dea5709ULL);
  EXPECT_EQ(fp([](Spec& s) { s.width_ps = 412.5; }), 0xe7a6ca62b0fe8808ULL);
  EXPECT_EQ(fp([](Spec& s) { s.seed = 3; }), 0x898acedf090f7c22ULL);
  EXPECT_EQ(fp([](Spec& s) { s.json = false; }), 0x9dd4301ace124541ULL);
  // Compare mixes its name lists always: naming the registry's first
  // entry is not the empty (every scheme) list.
  EXPECT_EQ(fp([](Spec& s) { s.schemes = {"cwsp"}; }), 0x61255b3879cc443cULL);
  EXPECT_EQ(fp([](Spec& s) {
              s.schemes = {"cwsp", "tmr"};
              s.fault_models = {"single-set", "double-set"};
            }),
            0x00521f34f75f8932ULL);
  EXPECT_EQ(fp([](Spec& s) { s.jobs = 4; }), fp([](Spec&) {}));
}

TEST(SchemeService, CampaignCellsFormTheCrossProduct) {
  service::CampaignSpec spec;
  spec.schemes = {"tmr", "loco"};
  spec.fault_models = {"single-set", "protection-seu"};
  const std::vector<service::CampaignCell> cells =
      service::campaign_cells(spec);
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_STREQ(cells[0].scheme->name(), "tmr");
  EXPECT_STREQ(cells[0].model->name(), "single-set");
  EXPECT_STREQ(cells[3].scheme->name(), "loco");
  EXPECT_STREQ(cells[3].model->name(), "protection-seu");
  spec.schemes = {"nonesuch"};
  EXPECT_THROW((void)service::campaign_cells(spec), Error);
}

TEST(SchemeService, SweepEmbedsTheSameReportsAsSingleCellRuns) {
  const CellLibrary lib = make_default_library();
  const auto session =
      service::DesignSession::build("s27", testdata::kS27, lib);
  service::CampaignSpec sweep;
  sweep.runs = 8;
  sweep.cycles = 8;
  sweep.seed = 5;
  sweep.schemes = {"cwsp", "tmr"};
  const service::CampaignOutcome out = service::run_campaign(*session, sweep);
  EXPECT_NE(out.output.find("cwsp-campaign-sweep-v1"), std::string::npos);
  for (const char* name : {"cwsp", "tmr"}) {
    service::CampaignSpec one = sweep;
    one.schemes = {name};
    const service::CampaignOutcome single =
        service::run_campaign(*session, one);
    // The embedded report is the single-cell report minus its trailing
    // newline, indentation-verbatim.
    std::string body = single.output;
    while (!body.empty() && body.back() == '\n') body.pop_back();
    EXPECT_NE(out.output.find(body), std::string::npos) << name;
  }
}

TEST(SchemeService, NonCertifiableSchemeDegradesEverySiteToUnknown) {
  const CellLibrary lib = make_default_library();
  const auto session =
      service::DesignSession::build("s27", testdata::kS27, lib);
  service::CertifySpec spec;
  spec.scheme = "tmr";
  const service::CertifyOutcome outcome = service::run_certify(*session, spec);
  EXPECT_EQ(outcome.escapes, 0u);
  EXPECT_EQ(outcome.unknowns,
            set::strike_sites(*session->netlist).size());
  EXPECT_NE(outcome.output.find("not expressible"), std::string::npos);
}

TEST(SchemeService, NonCwspHardenedLintWarnsInsteadOfSilentlyPassing) {
  service::LintSpec spec;
  spec.text = testdata::kS27;
  spec.name = "s27";
  spec.hardened = true;
  spec.scheme = "loco";
  spec.json = false;
  const CellLibrary lib = make_default_library();
  const service::LintOutcome outcome = service::run_lint(spec, lib);
  EXPECT_NE(outcome.output.find("scheme-unsupported"), std::string::npos);
}

// ---- compare --------------------------------------------------------

TEST(SchemeCompare, ReportIsByteIdenticalAcrossJobCounts) {
  const CellLibrary lib = make_default_library();
  const auto session =
      service::DesignSession::build("s27", testdata::kS27, lib);
  service::CompareSpec spec;
  spec.runs = 8;
  spec.cycles = 8;
  spec.seed = 5;
  spec.jobs = 1;
  const service::CompareOutcome one = service::run_compare(*session, spec);
  spec.jobs = 8;
  const service::CompareOutcome eight = service::run_compare(*session, spec);
  EXPECT_EQ(one.output, eight.output);
  EXPECT_NE(one.output.find("cwsp-compare-v1"), std::string::npos);
  // Every registered (scheme, model) cell gets a Table-4 row.
  for (const ProtectionScheme* s : registered_schemes()) {
    EXPECT_NE(one.output.find(std::string("\"scheme\": \"") + s->name()),
              std::string::npos);
  }
}

TEST(SchemeCompare, CombinationalDesignsSkipTable4Honestly) {
  const CellLibrary lib = make_default_library();
  const auto session =
      service::DesignSession::build("c17", testdata::kC17, lib);
  service::CompareSpec spec;
  spec.runs = 4;
  const service::CompareOutcome outcome = service::run_compare(*session, spec);
  EXPECT_NE(outcome.output.find("table4_skipped"), std::string::npos);
  EXPECT_EQ(outcome.unexpected_escapes, 0u);
}

}  // namespace
}  // namespace cwsp::scheme
