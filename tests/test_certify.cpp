// Static SET-coverage certifier: window-dataflow units on hand-built
// reconvergent netlists, the cone-local dataflow against a dense
// full-netlist reference, full-classification checks on s27, reports
// pinned on generated C880, and the two soundness cross-checks against
// the protection-protocol oracle — proved-covered sites survive an
// exhaustive in-envelope strike sweep, and every proved-escape witness
// replays to a real escape.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>

#include "analysis/certify.hpp"
#include "analysis/glitch_window.hpp"
#include "bencharness/generator.hpp"
#include "campaign/minimize.hpp"
#include "cwsp/protection_sim.hpp"
#include "cwsp/timing.hpp"
#include "iscas_data.hpp"
#include "netlist/bench_parser.hpp"
#include "netlist_fuzz.hpp"
#include "set/strike_plan.hpp"
#include "sta/sta.hpp"

namespace cwsp {
namespace {

using analysis::CoveredReason;
using analysis::GlitchWindow;
using analysis::SiteVerdict;

// ---- pin_sensitizable ----------------------------------------------
// Truth tables are FlatNetlistView-encoded: bit i of the table is the
// output under input assignment i (input pin p contributes bit p of i).
constexpr std::uint16_t kAnd2 = 0x8;
constexpr std::uint16_t kXor2 = 0x6;

TEST(PinSensitizable, AndGateNeedsTheOtherInputHigh) {
  // With pin 1 free, some assignment (pin1=1) sensitizes pin 0.
  EXPECT_TRUE(analysis::pin_sensitizable(kAnd2, 2, 0, 0b00, 0b00));
  // Pin 1 pinned to constant 0 masks pin 0 entirely.
  EXPECT_FALSE(analysis::pin_sensitizable(kAnd2, 2, 0, 0b10, 0b00));
  // Pin 1 pinned to constant 1 sensitizes it again.
  EXPECT_TRUE(analysis::pin_sensitizable(kAnd2, 2, 0, 0b10, 0b10));
}

TEST(PinSensitizable, ConstantFunctionsNeverSensitize) {
  EXPECT_FALSE(analysis::pin_sensitizable(0x0, 2, 0, 0b00, 0b00));
  EXPECT_FALSE(analysis::pin_sensitizable(0xF, 2, 1, 0b00, 0b00));
}

TEST(PinSensitizable, XorSensitizesUnderEveryConstant) {
  EXPECT_TRUE(analysis::pin_sensitizable(kXor2, 2, 0, 0b10, 0b00));
  EXPECT_TRUE(analysis::pin_sensitizable(kXor2, 2, 0, 0b10, 0b10));
  EXPECT_TRUE(analysis::pin_sensitizable(kXor2, 2, 1, 0b01, 0b01));
}

// ---- window dataflow ------------------------------------------------

// Reconvergent fanout with unequal path delays: s forks into a 3-NOT
// chain and a single NOT, remerging at m.
constexpr const char* kReconvergent = R"(
INPUT(a)
INPUT(b)
OUTPUT(q)
s = AND(a, b)
x1 = NOT(s)
x2 = NOT(x1)
x3 = NOT(x2)
y = NOT(s)
m = AND(x3, y)
q = DFF(m)
)";

class WindowDataflowTest : public ::testing::Test {
 protected:
  CellLibrary lib_ = make_default_library();
};

TEST_F(WindowDataflowTest, ReconvergenceMarksTheMergeAmbiguous) {
  const auto netlist = parse_bench_string(kReconvergent, lib_, "reconv");
  const FlatNetlistView view(netlist);
  const auto sta = run_sta(netlist);
  const NetId site = *netlist.find_net("s");

  const auto sw = analysis::propagate_windows(view, sta.gate_delay_ps, site);

  // The site itself: the strike window, untouched.
  const GlitchWindow& at_site = sw.at(site);
  EXPECT_TRUE(at_site.reachable);
  EXPECT_FALSE(at_site.ambiguous);
  EXPECT_DOUBLE_EQ(at_site.earliest_ps, 0.0);
  EXPECT_DOUBLE_EQ(at_site.latest_ps, 0.0);

  // Single-path nets stay unambiguous and accumulate delay.
  const GlitchWindow& at_x1 = sw.at(*netlist.find_net("x1"));
  EXPECT_TRUE(at_x1.reachable);
  EXPECT_FALSE(at_x1.ambiguous);
  EXPECT_GT(at_x1.earliest_ps, 0.0);
  EXPECT_DOUBLE_EQ(at_x1.earliest_ps, at_x1.latest_ps);

  // The merge: both paths arrive, with the path-delay spread as slack.
  const GlitchWindow& at_m = sw.at(*netlist.find_net("m"));
  EXPECT_TRUE(at_m.reachable);
  EXPECT_TRUE(at_m.ambiguous);
  EXPECT_NE(at_m.merge_gate, GlitchWindow::kNone);
  EXPECT_GT(at_m.slack_ps(), 0.0);
  // Earliest via the short path (y), latest via the three-NOT chain.
  const GlitchWindow& at_y = sw.at(*netlist.find_net("y"));
  const GlitchWindow& at_x3 = sw.at(*netlist.find_net("x3"));
  EXPECT_LE(at_y.earliest_ps, at_m.earliest_ps);
  EXPECT_GE(at_m.latest_ps, at_x3.latest_ps);

  // Nets outside the cone are unreachable.
  EXPECT_FALSE(sw.at(*netlist.find_net("a")).reachable);
}

TEST_F(WindowDataflowTest, WitnessPathBacktracksToTheSite) {
  const auto netlist = parse_bench_string(kReconvergent, lib_, "reconv");
  const FlatNetlistView view(netlist);
  const auto sta = run_sta(netlist);
  const NetId site = *netlist.find_net("s");
  const auto sw = analysis::propagate_windows(view, sta.gate_delay_ps, site);

  const NetId x3 = *netlist.find_net("x3");
  const auto path = analysis::witness_path(sw, x3);
  ASSERT_EQ(path.size(), 4u);  // s > x1 > x2 > x3
  EXPECT_EQ(path.front(), site);
  EXPECT_EQ(path[1], *netlist.find_net("x1"));
  EXPECT_EQ(path[2], *netlist.find_net("x2"));
  EXPECT_EQ(path.back(), x3);

  // Unreachable endpoint: empty path.
  EXPECT_TRUE(analysis::witness_path(sw, *netlist.find_net("a")).empty());
}

// ---- cone-local dataflow vs. the dense reference ---------------------

/// The full-netlist window dataflow, one GlitchWindow per net: the
/// reference the cone-local propagate_windows must reproduce exactly
/// (same arithmetic, dense storage indexed by NetId).
std::vector<GlitchWindow> dense_windows(const FlatNetlistView& view,
                                        const std::vector<double>& delays,
                                        NetId site) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<GlitchWindow> windows(view.num_nets());
  windows[site.index()].reachable = true;
  for (std::uint32_t g : view.cone_of(site)) {
    const std::uint32_t* inputs = view.gate_inputs_begin(g);
    const std::uint32_t arity = view.gate_num_inputs(g);
    unsigned const_mask = 0;
    unsigned const_vals = 0;
    for (std::uint32_t i = 0; i < arity; ++i) {
      if (view.source_kind(inputs[i]) ==
          FlatNetlistView::SourceKind::kConstant) {
        const_mask |= 1u << i;
        if (view.source_index(inputs[i]) != 0) const_vals |= 1u << i;
      }
    }
    std::vector<std::uint32_t> reach;  // reachable, sensitizable inputs
    for (std::uint32_t i = 0; i < arity; ++i) {
      if (windows[inputs[i]].reachable &&
          analysis::pin_sensitizable(view.gate_truth(g), arity, i,
                                     const_mask, const_vals)) {
        reach.push_back(inputs[i]);
      }
    }
    if (reach.empty()) continue;

    const double delay = delays[g];
    GlitchWindow out;
    out.reachable = true;
    out.earliest_ps = kInf;
    out.latest_ps = -kInf;
    for (std::uint32_t net : reach) {
      const GlitchWindow& in = windows[net];
      out.earliest_ps = std::min(out.earliest_ps, in.earliest_ps + delay);
      out.latest_ps = std::max(out.latest_ps, in.latest_ps + delay);
      if (in.ambiguous && out.merge_gate == GlitchWindow::kNone) {
        out.merge_gate = in.merge_gate;
      }
      out.ambiguous = out.ambiguous || in.ambiguous;
    }
    if (reach.size() >= 2) {
      out.ambiguous = true;
      out.merge_gate = g;
    }
    double best = kInf;
    for (std::uint32_t s = 1; s < (1u << reach.size()); ++s) {
      double th = 0.0;
      double lo = kInf;
      double hi = -kInf;
      for (std::size_t k = 0; k < reach.size(); ++k) {
        if (((s >> k) & 1u) == 0) continue;
        th = std::max(th, windows[reach[k]].width_threshold_ps);
        lo = std::min(lo, windows[reach[k]].earliest_ps);
        hi = std::max(hi, windows[reach[k]].latest_ps);
      }
      best = std::min(best,
                      std::max(th, view.gate_inertial_delay_ps(g) - (hi - lo)));
    }
    out.width_threshold_ps = best;
    out.pred_net = reach[0];
    for (std::uint32_t net : reach) {
      if (windows[net].width_threshold_ps <
          windows[out.pred_net].width_threshold_ps) {
        out.pred_net = net;
      }
    }
    windows[view.gate_output(g)] = out;
  }
  return windows;
}

std::vector<NetId> dense_witness_path(const std::vector<GlitchWindow>& windows,
                                      NetId site, NetId endpoint) {
  std::vector<NetId> path;
  if (!windows[endpoint.index()].reachable) return path;
  std::uint32_t net = static_cast<std::uint32_t>(endpoint.index());
  while (net != GlitchWindow::kNone) {
    path.push_back(NetId{net});
    if (NetId{net} == site) break;
    net = windows[net].pred_net;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

bool same_window(const GlitchWindow& a, const GlitchWindow& b) {
  return a.reachable == b.reachable && a.ambiguous == b.ambiguous &&
         a.earliest_ps == b.earliest_ps && a.latest_ps == b.latest_ps &&
         a.width_threshold_ps == b.width_threshold_ps &&
         a.pred_net == b.pred_net && a.merge_gate == b.merge_gate;
}

/// Compares the cone-local dataflow with the dense reference at every
/// `stride`-th strike site from `first`: every net's window, the witness
/// path to every flip-flop D and primary-output net, and the cone bound
/// on the stored windows. Returns the first mismatch, empty when none.
std::string compare_with_dense(const Netlist& netlist,
                               const FlatNetlistView& view,
                               const std::vector<double>& delays,
                               std::size_t first, std::size_t stride) {
  std::vector<std::uint32_t> endpoints = view.po_nets();
  for (std::size_t f = 0; f < view.num_flip_flops(); ++f) {
    endpoints.push_back(view.ff_d_net(f));
  }
  const std::vector<NetId> sites = set::strike_sites(netlist);
  for (std::size_t i = first; i < sites.size(); i += stride) {
    const NetId site = sites[i];
    const std::string where =
        netlist.name() + " site " + netlist.net(site).name;
    const auto dense = dense_windows(view, delays, site);
    const auto sw = analysis::propagate_windows(view, delays, site);
    if (sw.windows.size() > view.cone_of(site).size() + 1) {
      return where + ": more windows stored than the cone has nets";
    }
    for (std::size_t n = 0; n < view.num_nets(); ++n) {
      if (!same_window(sw.at(NetId{n}), dense[n])) {
        return where + ": window differs at " + netlist.net(NetId{n}).name;
      }
    }
    for (std::uint32_t e : endpoints) {
      if (analysis::witness_path(sw, NetId{e}) !=
          dense_witness_path(dense, site, NetId{e})) {
        return where + ": witness path differs to " +
               netlist.net(NetId{e}).name;
      }
    }
  }
  return "";
}

TEST(ConeLocalWindows, MatchDenseReferenceOnFuzzedDesigns) {
  const CellLibrary lib = make_default_library();
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    cwsp::testing::FuzzOptions options;
    options.num_gates = 40;
    options.num_flip_flops = 3;
    const auto netlist = cwsp::testing::make_random_netlist(lib, seed, options);
    const FlatNetlistView view(netlist);
    const auto sta = run_sta(netlist);
    EXPECT_EQ(compare_with_dense(netlist, view, sta.gate_delay_ps, 0, 1), "")
        << "seed " << seed;
  }
}

TEST(ConeLocalWindows, MatchDenseReferenceOnC880FromFourThreads) {
  // One shared view queried from four threads at once: the per-thread
  // net->slot scratch must stay private, and the cone memo is shared.
  const CellLibrary lib = make_default_library();
  const Netlist netlist = bench::clone_with_output_flip_flops(
      bench::generate_benchmark(bench::find_benchmark("C880"), lib).netlist);
  const FlatNetlistView view(netlist);
  const auto sta = run_sta(netlist);
  ASSERT_EQ(set::strike_sites(netlist).size(), 3600u);

  constexpr std::size_t kThreads = 4;
  std::vector<std::string> mismatch(kThreads);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      mismatch[t] =
          compare_with_dense(netlist, view, sta.gate_delay_ps, t, kThreads);
    });
  }
  for (std::thread& w : workers) w.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatch[t], "") << "thread " << t;
  }
}

// ---- certify on s27 -------------------------------------------------

class CertifyS27Test : public ::testing::Test {
 protected:
  CellLibrary lib_ = make_default_library();
  Netlist netlist_ = parse_bench_string(testdata::kS27, lib_, "s27");
  core::ProtectionParams params_ = core::ProtectionParams::q100();

  [[nodiscard]] Picoseconds period() const {
    const auto sta = run_sta(netlist_);
    return std::max(core::hardened_clock_period(sta.dmax, lib_),
                    core::min_clock_period_for_delta(params_));
  }
};

TEST_F(CertifyS27Test, DefaultEnvelopeClassifiesEverySiteCovered) {
  const auto result =
      analysis::certify_design(netlist_, params_, period());

  const auto sites = set::strike_sites(netlist_);
  ASSERT_EQ(result.sites.size(), sites.size());
  EXPECT_EQ(result.covered_count(), sites.size());
  EXPECT_EQ(result.escape_count(), 0u);
  EXPECT_EQ(result.unknown_count(), 0u);
  for (const auto& cert : result.sites) {
    EXPECT_EQ(cert.verdict, SiteVerdict::kProvedCovered);
    // W == δ: the protocol repairs the whole envelope, except for sites
    // with no path to state at all.
    EXPECT_TRUE(cert.reason == CoveredReason::kCwspEnvelope ||
                cert.reason == CoveredReason::kNoPath);
    if (!cert.margin_unbounded) {
      EXPECT_GE(cert.margin_ps, 0.0);
    }
  }
}

TEST_F(CertifyS27Test, ReportsAreDeterministic) {
  analysis::CertifyOptions options;
  options.envelope_ps = 900.0;
  const auto a = analysis::certify_design(netlist_, params_, period(),
                                          options);
  const auto b = analysis::certify_design(netlist_, params_, period(),
                                          options);
  EXPECT_EQ(analysis::format_certify_json(a, netlist_),
            analysis::format_certify_json(b, netlist_));
}

TEST_F(CertifyS27Test, ProvedCoveredAgreesWithExhaustiveInEnvelopeSweep) {
  // Certifier claim: at the default envelope (W = δ) every site is
  // proved-covered. Oracle: protocol replay of in-envelope strikes at
  // every site across the cycle must never silently corrupt an output.
  const auto result =
      analysis::certify_design(netlist_, params_, period());
  ASSERT_EQ(result.covered_count(), result.sites.size());

  const core::ProtectionSim psim(netlist_, params_, period());
  const std::vector<std::vector<bool>> inputs = {
      {false, false, false, false}, {true, false, true, false},
      {false, true, true, true},    {true, true, false, true},
      {true, true, true, true},     {false, true, false, false},
  };
  const double period_ps = period().value();
  for (const NetId site : set::strike_sites(netlist_)) {
    for (const double frac : {0.0, 0.3, 0.6, 0.9}) {
      core::ScheduledStrike strike;
      strike.cycle = 1;
      strike.target = core::StrikeTarget::kFunctional;
      strike.strike.node = site;
      strike.strike.start = Picoseconds(frac * period_ps);
      strike.strike.width = params_.delta;
      const auto run = psim.run(inputs, {strike});
      EXPECT_TRUE(run.recovered())
          << "in-envelope strike escaped at site " << site.value()
          << " start-fraction " << frac
          << " — contradicts proved-covered";
    }
  }
}

TEST_F(CertifyS27Test, EscapeWitnessesReplayThroughTheCampaignEngine) {
  analysis::CertifyOptions options;
  options.envelope_ps = 900.0;  // beyond δ: escapes must exist on s27
  options.artifact_dir =
      ::testing::TempDir() + "cwsp_certify_repro";
  const auto result = analysis::certify_design(netlist_, params_,
                                               period(), options);

  EXPECT_GE(result.escape_count(), 1u);
  for (const auto& cert : result.sites) {
    if (cert.verdict == SiteVerdict::kProvedEscape) {
      // An escape needs width > δ (everything narrower is repaired).
      EXPECT_GT(cert.witness_width_ps, params_.delta.value());
      EXPECT_FALSE(cert.path.empty());
      ASSERT_FALSE(cert.repro_spec_path.empty());
      EXPECT_TRUE(campaign::replay_repro(cert.repro_spec_path, lib_))
          << "witness at site " << cert.site.value()
          << " did not replay to a real escape";
    } else if (cert.verdict == SiteVerdict::kUnknown) {
      // Unknown verdicts always identify their cause.
      EXPECT_FALSE(cert.note.empty());
    }
  }
}

TEST_F(CertifyS27Test, SubEqSixPeriodDegradesToUnknownInsteadOfThrowing) {
  analysis::CertifyOptions options;
  options.envelope_ps = 900.0;
  const Picoseconds short_period(
      core::min_clock_period_for_delta(params_).value() - 100.0);
  const auto result = analysis::certify_design(netlist_, params_,
                                               short_period, options);
  // Dangerous sites cannot be confirmed (ProtectionSim would reject the
  // period), so they degrade to unknown with an Eq. 6 note.
  EXPECT_EQ(result.escape_count(), 0u);
  EXPECT_GE(result.unknown_count(), 1u);
  bool saw_eq6_note = false;
  for (const auto& cert : result.sites) {
    if (cert.verdict == SiteVerdict::kUnknown &&
        cert.note.find("Eq. 6") != std::string::npos) {
      saw_eq6_note = true;
    }
  }
  EXPECT_TRUE(saw_eq6_note);
}

// ---- reports pinned on a paper-scale design ------------------------

std::string hex_fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(h));
  return buffer;
}

class CertifyC880Test : public ::testing::Test {
 protected:
  CellLibrary lib_ = make_default_library();
  Netlist netlist_ = bench::clone_with_output_flip_flops(
      bench::generate_benchmark(bench::find_benchmark("C880"), lib_).netlist);
  core::ProtectionParams params_ = core::ProtectionParams::q100();

  [[nodiscard]] analysis::CertifyResult certify(double envelope_ps) const {
    const Picoseconds period =
        std::max(core::hardened_clock_period(run_sta(netlist_).dmax, lib_),
                 core::min_clock_period_for_delta(params_));
    analysis::CertifyOptions options;
    options.envelope_ps = envelope_ps;
    return analysis::certify_design(netlist_, params_, period, options);
  }
};

// Digests of both reports, recorded before the window dataflow, the
// endpoint scan and the JSON writer were made cone-local: any change to a
// verdict, margin, path, witness or byte of formatting shows here.
TEST_F(CertifyC880Test, DesignedEnvelopeReportsArePinned) {
  const auto result = certify(0.0);  // Phase A alone decides every site
  EXPECT_EQ(result.covered_count(), result.sites.size());
  EXPECT_EQ(result.fallback_count(), 0u);
  EXPECT_EQ(hex_fnv1a(analysis::format_certify_json(result, netlist_)),
            "66efd0aa952a591e");
  EXPECT_EQ(hex_fnv1a(analysis::format_certify_text(result, netlist_)),
            "57217271f17cd312");
}

TEST_F(CertifyC880Test, AboveDeltaReportsArePinned) {
  // 600 ps > δ: Phases B and C sweep states and confirm escapes.
  const auto result = certify(600.0);
  EXPECT_EQ(result.escape_count(), 3574u);
  EXPECT_EQ(result.covered_count(), 26u);
  EXPECT_EQ(result.swept_states, 64u);
  EXPECT_EQ(hex_fnv1a(analysis::format_certify_json(result, netlist_)),
            "37dbc04e67845677");
  EXPECT_EQ(hex_fnv1a(analysis::format_certify_text(result, netlist_)),
            "9406475ef841951b");
}

// c17 is purely combinational: no state, nothing to certify — every site
// is no-path covered.
TEST(CertifyC17Test, CombinationalDesignIsTriviallyCovered) {
  const CellLibrary lib = make_default_library();
  const auto netlist = parse_bench_string(testdata::kC17, lib, "c17");
  const auto params = core::ProtectionParams::q100();
  const auto sta = run_sta(netlist);
  const Picoseconds period =
      std::max(core::hardened_clock_period(sta.dmax, lib),
               core::min_clock_period_for_delta(params));

  analysis::CertifyOptions options;
  options.envelope_ps = 2000.0;  // far beyond δ — still nothing to hit
  const auto result =
      analysis::certify_design(netlist, params, period, options);
  ASSERT_EQ(result.sites.size(), set::strike_sites(netlist).size());
  EXPECT_EQ(result.covered_count(), result.sites.size());
  for (const auto& cert : result.sites) {
    EXPECT_EQ(cert.reason, CoveredReason::kNoPath);
    EXPECT_TRUE(cert.margin_unbounded);
  }
}

}  // namespace
}  // namespace cwsp
