#include "oracle/event_sim.hpp"

#include <gtest/gtest.h>

#include "netlist/bench_parser.hpp"

namespace cwsp::sim {
namespace {

using namespace cwsp::literals;

class EventSimTest : public ::testing::Test {
 protected:
  CellLibrary lib_ = make_default_library();

  // a chain: in -> INV -> INV -> d -> DFF
  Netlist chain_ = parse_bench_string(R"(
INPUT(in)
OUTPUT(q)
t1 = NOT(in)
d  = NOT(t1)
q  = DFF(d)
)",
                                      lib_);
};

TEST_F(EventSimTest, NoStrikeMatchesLogicSim) {
  const auto n = parse_bench_string(R"(
INPUT(a)
INPUT(b)
OUTPUT(q)
t1 = NAND(a, b)
t2 = XOR(t1, a)
q  = DFF(t2)
)",
                                    lib_);
  EventSim esim(n);
  for (unsigned bits = 0; bits < 4; ++bits) {
    const std::vector<bool> pis{(bits & 1) != 0, (bits & 2) != 0};
    const auto r = esim.simulate_cycle(pis, {false}, 2000.0_ps, std::nullopt);
    EXPECT_EQ(r.golden_d, r.latched_d) << "bits=" << bits;
    EXPECT_FALSE(r.any_ff_corrupted());
  }
}

TEST_F(EventSimTest, GlitchPropagatesWithDelay) {
  EventSim esim(chain_);
  // Strike on t1 (output of first inverter): a 300 ps pulse from t=500.
  set::Strike strike;
  strike.node = *chain_.find_net("t1");
  strike.start = 500.0_ps;
  strike.width = 300.0_ps;

  const auto w =
      esim.net_waveform({true}, {false}, strike, *chain_.find_net("d"));
  // The pulse appears on d shifted by the second inverter's delay.
  ASSERT_EQ(w.transitions().size(), 2u);
  EXPECT_GT(w.transitions()[0], 500.0);
  EXPECT_NEAR(w.transitions()[1] - w.transitions()[0], 300.0, 1e-9);
}

TEST_F(EventSimTest, LatchingWindowMasking) {
  EventSim esim(chain_);
  set::Strike strike;
  strike.node = *chain_.find_net("t1");
  strike.width = 300.0_ps;

  // Glitch well before capture: filtered by latching-window masking.
  strike.start = 200.0_ps;
  auto r = esim.simulate_cycle({true}, {false}, 2000.0_ps, strike);
  EXPECT_FALSE(r.any_ff_corrupted());

  // Glitch spanning the capture edge: corrupts the latch.
  strike.start = 1900.0_ps;
  r = esim.simulate_cycle({true}, {false}, 2000.0_ps, strike);
  EXPECT_TRUE(r.any_ff_corrupted());
  EXPECT_NE(r.latched_d[0], r.golden_d[0]);
}

TEST_F(EventSimTest, LogicalMaskingBlocksGlitch) {
  // Glitch on one AND input while the other input is 0 (controlling).
  const auto n = parse_bench_string(R"(
INPUT(a)
INPUT(b)
OUTPUT(q)
t1 = NOT(a)
d  = AND(t1, b)
q  = DFF(d)
)",
                                    lib_);
  EventSim esim(n);
  set::Strike strike;
  strike.node = *n.find_net("t1");
  strike.start = 100.0_ps;
  strike.width = 400.0_ps;

  // b = 0 masks the glitch entirely.
  auto w = esim.net_waveform({false, false}, {false}, strike,
                             *n.find_net("d"));
  EXPECT_TRUE(w.is_constant());

  // b = 1 lets it through.
  w = esim.net_waveform({false, true}, {false}, strike, *n.find_net("d"));
  EXPECT_FALSE(w.is_constant());
}

TEST_F(EventSimTest, ElectricalMaskingFiltersNarrowGlitch) {
  EventSim esim(chain_);
  set::Strike strike;
  strike.node = *chain_.find_net("t1");
  strike.start = 500.0_ps;
  strike.width = 5.0_ps;  // narrower than the INV inertial delay (10 ps)

  const auto w =
      esim.net_waveform({true}, {false}, strike, *chain_.find_net("d"));
  EXPECT_TRUE(w.is_constant());
}

TEST_F(EventSimTest, StrikeOnFfOutputPropagatesDownstream) {
  const auto n = parse_bench_string(R"(
INPUT(a)
OUTPUT(q2)
q1 = DFF(a)
d2 = NOT(q1)
q2 = DFF(d2)
)",
                                    lib_);
  EventSim esim(n);
  set::Strike strike;
  strike.node = *n.find_net("q1");
  strike.start = 1950.0_ps;
  strike.width = 300.0_ps;  // spans capture at 2000 ps

  const auto r = esim.simulate_cycle({false}, {false, false}, 2000.0_ps,
                                     strike);
  // d2 = NOT(q1): the glitch reaches the second FF's D across the capture.
  EXPECT_TRUE(r.any_ff_corrupted());
}

TEST_F(EventSimTest, ApertureViolationFlagged) {
  EventSim esim(chain_);
  const double setup = lib_.regular_ff().setup.value();
  set::Strike strike;
  strike.node = *chain_.find_net("t1");
  strike.width = 100.0_ps;
  // Place the glitch so its trailing edge lands inside [T-setup, T].
  strike.start = Picoseconds(2000.0 - setup - 100.0 + 10.0);

  const auto r = esim.simulate_cycle({true}, {false}, 2000.0_ps, strike);
  EXPECT_TRUE(r.aperture_violation[0]);
}

TEST_F(EventSimTest, ReconvergentGlitchCancellation) {
  // A glitch reaching both XOR inputs with equal delays cancels (the two
  // inversions arrive simultaneously through symmetric paths).
  const auto n = parse_bench_string(R"(
INPUT(a)
OUTPUT(q)
s  = NOT(a)
p1 = NOT(s)
p2 = NOT(s)
d  = XOR(p1, p2)
q  = DFF(d)
)",
                                    lib_);
  EventSim esim(n);
  set::Strike strike;
  strike.node = *n.find_net("s");
  strike.start = 300.0_ps;
  strike.width = 400.0_ps;
  const auto w = esim.net_waveform({true}, {false}, strike, *n.find_net("d"));
  // p1/p2 drive identical loads → equal delays → XOR output unchanged.
  EXPECT_TRUE(w.is_constant());
}

}  // namespace
}  // namespace cwsp::sim
