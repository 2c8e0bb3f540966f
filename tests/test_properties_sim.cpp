// Property-based cross-checks between the zero-delay golden simulator and
// the event-driven timing simulator, over randomly generated netlists.

#include <gtest/gtest.h>

#include "netlist_fuzz.hpp"
#include "oracle/event_sim.hpp"
#include "sim/logic_sim.hpp"

namespace cwsp {
namespace {

class SimEquivalence : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  CellLibrary lib_ = make_default_library();
};

TEST_P(SimEquivalence, EventSimSettledValuesMatchLogicSim) {
  const auto netlist = testing::make_random_netlist(lib_, GetParam());
  sim::LogicSim logic(netlist);
  sim::EventSim event(netlist);
  Rng rng(GetParam() ^ 0xabcdef);

  for (int trial = 0; trial < 8; ++trial) {
    std::vector<bool> pis(netlist.primary_inputs().size());
    for (std::size_t i = 0; i < pis.size(); ++i) pis[i] = rng.next_bool();
    std::vector<bool> ffs(netlist.num_flip_flops());
    for (std::size_t i = 0; i < ffs.size(); ++i) ffs[i] = rng.next_bool();

    logic.set_ff_state(ffs);
    logic.set_inputs(pis);
    logic.evaluate();

    const auto cycle = event.simulate_cycle(pis, ffs, Picoseconds(1e6),
                                            std::nullopt);
    // Settled D values equal the zero-delay evaluation.
    for (std::size_t f = 0; f < netlist.num_flip_flops(); ++f) {
      EXPECT_EQ(cycle.golden_d[f],
                logic.value(netlist.flip_flop(FlipFlopId{f}).d))
          << "seed " << GetParam() << " trial " << trial << " ff " << f;
    }
    const auto po = logic.output_values();
    for (std::size_t i = 0; i < po.size(); ++i) {
      EXPECT_EQ(cycle.golden_po[i], po[i]) << "seed " << GetParam();
    }
    // Without a strike nothing is corrupted and no glitch exists.
    EXPECT_EQ(cycle.latched_d, cycle.golden_d);
    EXPECT_FALSE(cycle.glitch_reached_endpoint);
  }
}

TEST_P(SimEquivalence, StrikeNeverChangesSettledValues) {
  const auto netlist = testing::make_random_netlist(lib_, GetParam());
  sim::EventSim event(netlist);
  Rng rng(GetParam() ^ 0x5555);
  const auto sites = set::strike_sites(netlist);

  for (int trial = 0; trial < 6; ++trial) {
    std::vector<bool> pis(netlist.primary_inputs().size());
    for (std::size_t i = 0; i < pis.size(); ++i) pis[i] = rng.next_bool();
    std::vector<bool> ffs(netlist.num_flip_flops());
    for (std::size_t i = 0; i < ffs.size(); ++i) ffs[i] = rng.next_bool();

    set::Strike strike;
    strike.node = sites[rng.next_below(sites.size())];
    strike.start = Picoseconds(rng.next_double_in(0.0, 500.0));
    strike.width = Picoseconds(rng.next_double_in(20.0, 400.0));

    // Sampling far after the glitch: the SET is transient, so the settled
    // state must be identical with and without it.
    const auto struck =
        event.simulate_cycle(pis, ffs, Picoseconds(1e6), strike);
    const auto clean =
        event.simulate_cycle(pis, ffs, Picoseconds(1e6), std::nullopt);
    EXPECT_EQ(struck.latched_d, clean.latched_d) << "seed " << GetParam();
    EXPECT_EQ(struck.struck_po, clean.struck_po) << "seed " << GetParam();
  }
}

TEST_P(SimEquivalence, StrikeOutsideSensitizedConeIsMasked) {
  // A strike whose glitch is reported at no endpoint must not corrupt any
  // capture regardless of the capture time.
  const auto netlist = testing::make_random_netlist(lib_, GetParam());
  sim::EventSim event(netlist);
  Rng rng(GetParam() ^ 0x77);
  const auto sites = set::strike_sites(netlist);

  std::vector<bool> pis(netlist.primary_inputs().size());
  for (std::size_t i = 0; i < pis.size(); ++i) pis[i] = rng.next_bool();
  std::vector<bool> ffs(netlist.num_flip_flops());
  for (std::size_t i = 0; i < ffs.size(); ++i) ffs[i] = rng.next_bool();

  set::Strike strike;
  strike.node = sites[rng.next_below(sites.size())];
  strike.start = Picoseconds(100.0);
  strike.width = Picoseconds(300.0);

  const auto probe =
      event.simulate_cycle(pis, ffs, Picoseconds(1e6), strike);
  if (!probe.glitch_reached_endpoint) {
    for (double capture : {200.0, 400.0, 600.0, 1000.0}) {
      const auto r =
          event.simulate_cycle(pis, ffs, Picoseconds(capture), strike);
      EXPECT_FALSE(r.any_ff_corrupted()) << "capture " << capture;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimEquivalence,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

}  // namespace
}  // namespace cwsp
