#include "campaign/campaign.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "campaign/journal.hpp"
#include "campaign/report.hpp"
#include "netlist/bench_parser.hpp"

namespace cwsp::campaign {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory (removed on construction so reruns
/// start clean; the pid keeps concurrent ctest invocations apart).
fs::path scratch_dir(const std::string& label) {
  const fs::path dir = fs::temp_directory_path() /
                       ("cwsp_test_campaign_" + label + "_" +
                        std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

class CampaignTest : public ::testing::Test {
 protected:
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
  core::ProtectionParams params_ = core::ProtectionParams::q100();
  Picoseconds period_{2000.0};

  [[nodiscard]] set::StrikePlan mixed_plan(std::uint64_t seed) const {
    set::StrikePlanOptions po;
    po.functional_strikes = 12;
    po.protection_path_strikes = 4;
    po.clock_edge_strikes = 4;
    po.out_of_envelope_strikes = 4;
    po.cycles_per_run = 10;
    po.clock_period = period_;
    po.out_of_envelope_width = params_.delta + Picoseconds(400.0);
    return set::build_strike_plan(netlist_, po, seed);
  }

  [[nodiscard]] CampaignEngine engine() const {
    return CampaignEngine(netlist_, params_, period_);
  }
};

TEST_F(CampaignTest, ReportIsByteIdenticalAcrossJobCounts) {
  const auto plan = mixed_plan(9);
  EngineOptions a;
  a.seed = 9;
  a.cycles_per_run = 10;
  a.jobs = 1;
  EngineOptions b = a;
  b.jobs = 8;
  const auto ra = engine().run(plan, a);
  const auto rb = engine().run(plan, b);
  EXPECT_EQ(format_campaign_json(ra, plan, netlist_, a, period_),
            format_campaign_json(rb, plan, netlist_, b, period_));
  EXPECT_EQ(ra.report.bubbles, rb.report.bubbles);
  EXPECT_EQ(ra.report.protected_failures, rb.report.protected_failures);
  EXPECT_EQ(ra.unexpected_escapes, rb.unexpected_escapes);
}

TEST_F(CampaignTest, ResumedCampaignMatchesUninterruptedRun) {
  const auto dir = scratch_dir("resume");
  const auto plan = mixed_plan(3);
  const std::string journal = (dir / "campaign.journal").string();

  EngineOptions full;
  full.seed = 3;
  full.cycles_per_run = 10;
  full.jobs = 2;
  const auto uninterrupted = engine().run(plan, full);

  EngineOptions interrupted = full;
  interrupted.journal_path = journal;
  interrupted.stop_after = 7;
  const auto partial = engine().run(plan, interrupted);
  EXPECT_TRUE(partial.interrupted);
  EXPECT_EQ(partial.executed, 7u);
  EXPECT_EQ(campaign_status(partial), CampaignStatus::kInterrupted);

  EngineOptions resume = full;
  resume.journal_path = journal;
  resume.resume = true;
  const auto resumed = engine().run(plan, resume);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.resumed, 7u);
  EXPECT_EQ(resumed.executed, plan.size() - 7u);
  // The journal must restore the exact per-strike outcomes: the merged
  // report is byte-identical to the run that was never interrupted.
  EXPECT_EQ(format_campaign_json(resumed, plan, netlist_, resume, period_),
            format_campaign_json(uninterrupted, plan, netlist_, full,
                                 period_));
  fs::remove_all(dir);
}

TEST_F(CampaignTest, InjectedHangDegradesToInconclusiveTimeout) {
  const auto plan = mixed_plan(5);
  // Inline (jobs 1) and pooled workers both break the hang: each worker's
  // own token carries the strike's deadline.
  for (std::size_t jobs : {std::size_t{1}, std::size_t{2}}) {
    EngineOptions opts;
    opts.seed = 5;
    opts.cycles_per_run = 10;
    opts.jobs = jobs;
    opts.timeout_ms = 50.0;
    // Strike 2 hangs until its budget cancels it — the failure mode a
    // livelocked simulator would produce.
    opts.test_hook = [](std::size_t index, const sim::CancelToken& token) {
      if (index != 2) return;
      while (!token.cancelled()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      throw sim::CancelledError("test hook observed cancellation");
    };
    const auto result = engine().run(plan, opts);
    ASSERT_EQ(result.strikes.size(), plan.size()) << "jobs " << jobs;
    EXPECT_EQ(result.strikes[2].status, StrikeStatus::kTimeout);
    EXPECT_NE(result.strikes[2].diagnostic.find("budget"), std::string::npos);
    EXPECT_EQ(result.report.timeouts, 1u) << "jobs " << jobs;
    EXPECT_EQ(result.report.inconclusive, 1u) << "jobs " << jobs;
    // The hang is isolated: every other strike still ran to a verdict.
    EXPECT_FALSE(result.interrupted);
    for (const auto& s : result.strikes) {
      EXPECT_TRUE(s.completed());
      if (s.index != 2) {
        EXPECT_TRUE(s.conclusive()) << "jobs " << jobs << " strike "
                                    << s.index;
      }
    }
  }
}

TEST_F(CampaignTest, SubMillisecondBudgetTimesOutEveryStrike) {
  const auto plan = mixed_plan(8);
  EngineOptions opts;
  opts.seed = 8;
  opts.cycles_per_run = 10;
  opts.jobs = 2;
  opts.timeout_ms = 0.001;
  // Each strike outlives its 1 µs budget before the simulator's first
  // cycle poll, which must then see the expired deadline.
  opts.test_hook = [](std::size_t, const sim::CancelToken&) {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  };
  const auto result = engine().run(plan, opts);
  ASSERT_EQ(result.strikes.size(), plan.size());
  for (const auto& s : result.strikes) {
    EXPECT_EQ(s.status, StrikeStatus::kTimeout) << "strike " << s.index;
    EXPECT_EQ(s.diagnostic, "per-strike budget of 0.001 ms exhausted");
  }
  EXPECT_EQ(result.report.timeouts, plan.size());
  EXPECT_EQ(result.report.inconclusive, plan.size());
  EXPECT_FALSE(result.interrupted);
}

TEST_F(CampaignTest, StopAfterRunsTheFirstUndoneStrikesAtAnyJobs) {
  const auto dir = scratch_dir("stop_after");
  const auto plan = mixed_plan(4);
  EngineOptions base;
  base.seed = 4;
  base.cycles_per_run = 10;

  // Positions 0..2 done in a journal, so "undone" starts at position 3.
  const fs::path seeded = dir / "seeded.journal";
  EngineOptions seed_run = base;
  seed_run.journal_path = seeded.string();
  seed_run.stop_after = 3;
  ASSERT_EQ(engine().run(plan, seed_run).executed, 3u);

  // Resumes a copy of the seeded journal and stops after 7 fresh strikes.
  const auto partial = [&](const std::string& label, bool lane,
                           std::size_t jobs) {
    const fs::path journal = dir / (label + ".journal");
    fs::copy_file(seeded, journal);
    EngineOptions opts = base;
    opts.journal_path = journal.string();
    opts.resume = true;
    opts.stop_after = 7;
    opts.use_lane_kernel = lane;
    opts.jobs = jobs;
    // A budget no strike comes near, as a timed campaign carries.
    if (!lane) opts.timeout_ms = 60'000.0;
    const CampaignResult result = engine().run(plan, opts);
    EXPECT_EQ(result.resumed, 3u) << label;
    EXPECT_EQ(result.executed, 7u) << label;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      EXPECT_EQ(result.strikes[i].completed(), i < 10) << label << " @" << i;
    }
    return format_campaign_json(result, plan, netlist_, opts, period_);
  };
  const std::string lane = partial("lane", true, 2);
  EXPECT_EQ(partial("scalar_j1", false, 1), lane);
  EXPECT_EQ(partial("scalar_j4", false, 4), lane);
  fs::remove_all(dir);
}

TEST_F(CampaignTest, SimulatorExceptionIsolatedToOneStrike) {
  const auto plan = mixed_plan(6);
  EngineOptions opts;
  opts.seed = 6;
  opts.cycles_per_run = 10;
  opts.jobs = 2;
  opts.test_hook = [](std::size_t index, const sim::CancelToken&) {
    if (index == 1) throw std::runtime_error("injected simulator fault");
  };
  const auto result = engine().run(plan, opts);
  ASSERT_EQ(result.strikes.size(), plan.size());
  EXPECT_EQ(result.strikes[1].status, StrikeStatus::kError);
  EXPECT_NE(result.strikes[1].diagnostic.find("injected simulator fault"),
            std::string::npos);
  EXPECT_EQ(result.report.inconclusive, 1u);
  EXPECT_EQ(result.report.timeouts, 0u);
  EXPECT_FALSE(result.interrupted);
}

TEST_F(CampaignTest, EscapeIsMinimizedToReplayableArtifact) {
  const auto dir = scratch_dir("repro");
  set::StrikePlanOptions po;
  po.functional_strikes = 0;
  po.out_of_envelope_strikes = 12;  // > δ: escapes expected
  po.cycles_per_run = 10;
  po.clock_period = period_;
  po.out_of_envelope_width = params_.delta + Picoseconds(400.0);
  const auto plan = set::build_strike_plan(netlist_, po, 1);

  EngineOptions opts;
  opts.seed = 1;
  opts.cycles_per_run = 10;
  opts.jobs = 2;
  opts.minimize_escapes = true;
  opts.artifact_dir = dir.string();
  const auto result = engine().run(plan, opts);
  ASSERT_GT(result.report.protected_failures, 0u)
      << "out-of-envelope strikes must produce at least one escape";
  // Expected escapes never count against the coverage claim.
  EXPECT_EQ(result.unexpected_escapes, 0u);
  EXPECT_EQ(campaign_status(result), CampaignStatus::kOk);
  ASSERT_EQ(result.repros.size(), result.report.protected_failures);
  for (const EscapeRepro& repro : result.repros) {
    EXPECT_LE(repro.minimized.strike.width.value(),
              repro.original_width.value());
    // Still out of envelope: the minimizer cannot shrink below δ, or it
    // would have found a genuine (unexpected) escape.
    EXPECT_GT(repro.minimized.strike.width.value(), params_.delta.value());
    ASSERT_FALSE(repro.spec_path.empty());
    EXPECT_TRUE(fs::exists(repro.spec_path));
    EXPECT_TRUE(fs::exists(repro.bench_path));
    // A fresh parse + fresh simulator must reproduce the escape.
    EXPECT_TRUE(replay_repro(repro.spec_path, lib_));
  }
  fs::remove_all(dir);
}

TEST_F(CampaignTest, ZeroStrikePlanIsInvalidNotVacuouslyCovered) {
  set::StrikePlanOptions po;
  po.functional_strikes = 0;
  const auto plan = set::build_strike_plan(netlist_, po, 1);
  ASSERT_TRUE(plan.empty());
  EngineOptions opts;
  const auto result = engine().run(plan, opts);
  EXPECT_FALSE(result.report.valid());
  EXPECT_DOUBLE_EQ(result.report.protected_coverage_pct(), 0.0);
  EXPECT_EQ(campaign_status(result), CampaignStatus::kInvalid);
}

TEST_F(CampaignTest, ResumeRejectsJournalFromDifferentCampaign) {
  const auto dir = scratch_dir("fingerprint");
  const std::string journal = (dir / "campaign.journal").string();
  const auto plan = mixed_plan(3);
  EngineOptions opts;
  opts.seed = 3;
  opts.cycles_per_run = 10;
  opts.journal_path = journal;
  (void)engine().run(plan, opts);

  // Same plan, different stimulus seed → different fingerprint.
  EngineOptions other = opts;
  other.seed = 4;
  other.resume = true;
  EXPECT_THROW((void)engine().run(plan, other), Error);
  fs::remove_all(dir);
}

TEST_F(CampaignTest, JournalReaderSkipsTruncatedFinalLine) {
  const auto dir = scratch_dir("journal");
  const std::string path = (dir / "truncated.journal").string();
  {
    JournalWriter writer(path, 0xabcdef12u, 5, /*append=*/false);
    StrikeResult r;
    r.index = 0;
    r.status = StrikeStatus::kCovered;
    r.bubbles = 2;
    writer.append(r);
    r.index = 1;
    r.status = StrikeStatus::kEscape;
    r.diagnostic = "1 corrupted commit(s)";
    writer.append(r);
  }
  {
    // Emulate a crash mid-write: a strike line cut off without a newline.
    std::ofstream out(path, std::ios::app);
    out << "strike idx=2 status=cov";
  }
  const Journal journal = read_journal(path);
  EXPECT_EQ(journal.fingerprint, 0xabcdef12u);
  EXPECT_EQ(journal.total_strikes, 5u);
  ASSERT_EQ(journal.results.size(), 2u);
  EXPECT_EQ(journal.results[0].index, 0u);
  EXPECT_EQ(journal.results[0].bubbles, 2u);
  EXPECT_EQ(journal.results[1].status, StrikeStatus::kEscape);
  EXPECT_EQ(journal.results[1].diagnostic, "1 corrupted commit(s)");
  fs::remove_all(dir);
}

TEST_F(CampaignTest, FreshJournalIsCreatedAtomically) {
  const auto dir = scratch_dir("journal_atomic");
  const std::string path = (dir / "atomic.journal").string();

  // A previous (resumable) journal with strike lines.
  {
    JournalWriter writer(path, 0x1111u, 3, /*append=*/false);
    StrikeResult r;
    r.index = 0;
    writer.append(r);
  }
  // Starting a fresh campaign replaces it with a new valid header and
  // leaves no staging file behind — at no point does `path` hold a
  // truncated journal.
  {
    JournalWriter writer(path, 0x2222u, 7, /*append=*/false);
  }
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  const Journal journal = read_journal(path);
  EXPECT_EQ(journal.fingerprint, 0x2222u);
  EXPECT_EQ(journal.total_strikes, 7u);
  EXPECT_TRUE(journal.results.empty());
  fs::remove_all(dir);
}

TEST_F(CampaignTest, AppendModePreservesExistingJournal) {
  const auto dir = scratch_dir("journal_append");
  const std::string path = (dir / "resume.journal").string();
  {
    JournalWriter writer(path, 0x3333u, 4, /*append=*/false);
    StrikeResult r;
    r.index = 0;
    writer.append(r);
  }
  {
    // The resume path must append, never restage: the header and prior
    // strikes survive.
    JournalWriter writer(path, 0x3333u, 4, /*append=*/true);
    StrikeResult r;
    r.index = 1;
    writer.append(r);
  }
  const Journal journal = read_journal(path);
  EXPECT_EQ(journal.fingerprint, 0x3333u);
  ASSERT_EQ(journal.results.size(), 2u);
  EXPECT_EQ(journal.results[0].index, 0u);
  EXPECT_EQ(journal.results[1].index, 1u);
  fs::remove_all(dir);
}

TEST_F(CampaignTest, CancelTokenInterruptsBetweenStrikes) {
  sim::CancelToken cancel;
  cancel.cancel();  // cancelled before the first claim
  EngineOptions opts;
  opts.cycles_per_run = 10;
  opts.cancel = &cancel;
  const CampaignEngine engine(netlist_, params_, period_);
  const auto result = engine.run(mixed_plan(5), opts);
  EXPECT_TRUE(result.interrupted);
  EXPECT_EQ(result.executed, 0u);
  EXPECT_EQ(campaign_status(result), CampaignStatus::kInterrupted);
}

TEST_F(CampaignTest, SharedKernelContextMatchesPrivateBuild) {
  const auto context = sim::CompiledKernelContext::build(netlist_);
  EngineOptions opts;
  opts.cycles_per_run = 10;
  const CampaignEngine private_engine(netlist_, params_, period_);
  const CampaignEngine shared_engine(netlist_, params_, period_, context);
  const auto plan = mixed_plan(9);
  const auto a = private_engine.run(plan, opts);
  const auto b = shared_engine.run(plan, opts);
  ASSERT_EQ(a.strikes.size(), b.strikes.size());
  for (std::size_t i = 0; i < a.strikes.size(); ++i) {
    EXPECT_EQ(a.strikes[i].status, b.strikes[i].status) << "strike " << i;
    EXPECT_EQ(a.strikes[i].bubbles, b.strikes[i].bubbles) << "strike " << i;
  }
}

TEST_F(CampaignTest, StrikeInputsAreDeterministicPerIndex) {
  const auto a = CampaignEngine::strike_inputs(netlist_, 10, 42, 3);
  const auto b = CampaignEngine::strike_inputs(netlist_, 10, 42, 3);
  const auto c = CampaignEngine::strike_inputs(netlist_, 10, 42, 4);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_EQ(a.size(), 10u);
  EXPECT_EQ(a[0].size(), netlist_.primary_inputs().size());
}

}  // namespace
}  // namespace cwsp::campaign
