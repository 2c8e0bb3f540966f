// Differential tests of the compiled simulation kernel against the
// full-netlist EventSim oracle (tests/oracle), over fuzzed netlists:
// CompiledEventSim must reproduce EventSim bit-for-bit (waveforms,
// latched values, aperture flags — strike and no-strike), and its golden
// steps must match scalar LogicSim. Plus unit tests of the
// golden-waveform cache and of resolve_strike's read set on a generated
// C880.

#include <gtest/gtest.h>

#include "bencharness/generator.hpp"
#include "netlist_fuzz.hpp"
#include "oracle/event_sim.hpp"
#include "set/strike_plan.hpp"
#include "sim/compiled_kernel.hpp"
#include "sim/logic_sim.hpp"

namespace cwsp {
namespace {

std::vector<bool> random_bits(std::size_t n, Rng& rng) {
  std::vector<bool> bits(n);
  for (std::size_t i = 0; i < n; ++i) bits[i] = rng.next_bool();
  return bits;
}

void expect_cycles_equal(const sim::CycleResult& a, const sim::CycleResult& b,
                         const std::string& context) {
  EXPECT_EQ(a.golden_d, b.golden_d) << context;
  EXPECT_EQ(a.latched_d, b.latched_d) << context;
  EXPECT_EQ(a.aperture_violation, b.aperture_violation) << context;
  EXPECT_EQ(a.golden_po, b.golden_po) << context;
  EXPECT_EQ(a.struck_po, b.struck_po) << context;
  EXPECT_EQ(a.glitch_reached_endpoint, b.glitch_reached_endpoint) << context;
}

class CompiledKernelDifferential
    : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  CellLibrary lib_ = make_default_library();
};

TEST_P(CompiledKernelDifferential, MatchesEventSimWithoutStrike) {
  const auto netlist = testing::make_random_netlist(lib_, GetParam());
  const sim::EventSim legacy(netlist);
  const sim::CompiledEventSim compiled(netlist);
  Rng rng(GetParam() ^ 0x5117);

  for (int trial = 0; trial < 8; ++trial) {
    const auto pis = random_bits(netlist.primary_inputs().size(), rng);
    const auto ffs = random_bits(netlist.num_flip_flops(), rng);
    const Picoseconds capture(1200.0 + 100.0 * trial);
    expect_cycles_equal(
        legacy.simulate_cycle(pis, ffs, capture, std::nullopt),
        compiled.simulate_cycle(pis, ffs, capture, std::nullopt),
        "seed " + std::to_string(GetParam()) + " trial " +
            std::to_string(trial));
  }
}

TEST_P(CompiledKernelDifferential, MatchesEventSimUnderStrikes) {
  const auto netlist = testing::make_random_netlist(lib_, GetParam());
  const sim::EventSim legacy(netlist);
  const sim::CompiledEventSim compiled(netlist);
  Rng rng(GetParam() ^ 0xbeef);

  // Strike every net in turn: exercises cones of every shape, including
  // nets with empty fanout (PO-only) and full-depth cones.
  for (std::size_t n = 0; n < netlist.num_nets(); ++n) {
    const auto pis = random_bits(netlist.primary_inputs().size(), rng);
    const auto ffs = random_bits(netlist.num_flip_flops(), rng);
    set::Strike strike;
    strike.node = NetId{n};
    strike.start = Picoseconds(rng.next_double_in(0.0, 1500.0));
    strike.width = Picoseconds(rng.next_double_in(1.0, 600.0));
    const Picoseconds capture(1400.0);
    const std::string context = "seed " + std::to_string(GetParam()) +
                                " struck net " + std::to_string(n);

    expect_cycles_equal(legacy.simulate_cycle(pis, ffs, capture, strike),
                        compiled.simulate_cycle(pis, ffs, capture, strike),
                        context);

    // Waveform on every net — inside and outside the cone — must match
    // both initial value and the full transition list.
    for (std::size_t m = 0; m < netlist.num_nets(); ++m) {
      const auto wl = legacy.net_waveform(pis, ffs, strike, NetId{m});
      const auto wc = compiled.net_waveform(pis, ffs, strike, NetId{m});
      ASSERT_EQ(wl.initial(), wc.initial()) << context << " net " << m;
      ASSERT_EQ(wl.transitions(), wc.transitions()) << context << " net " << m;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledKernelDifferential,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(CompiledKernelTest, GoldenEvalMatchesLogicSimStep) {
  const CellLibrary lib = make_default_library();
  const auto netlist = testing::make_random_netlist(lib, 42);
  const sim::CompiledEventSim compiled(netlist);
  sim::LogicSim scalar(netlist);
  Rng rng(42);

  std::vector<bool> q(netlist.num_flip_flops(), false);
  for (int step = 0; step < 6; ++step) {
    const auto pis = random_bits(netlist.primary_inputs().size(), rng);
    scalar.set_ff_state(q);
    scalar.set_inputs(pis);
    scalar.evaluate();
    const sim::GoldenCycle& g = compiled.golden_eval(pis, q);
    EXPECT_EQ(g.po, scalar.output_values());
    scalar.clock();
    EXPECT_EQ(g.ff_d, scalar.ff_state());
    q = g.ff_d;
  }
}

TEST(CompiledKernelTest, GoldenCacheHitsOnRepeatedStimulus) {
  const CellLibrary lib = make_default_library();
  const auto netlist = testing::make_random_netlist(lib, 5);
  const sim::CompiledEventSim compiled(netlist);
  const std::vector<bool> pis(netlist.primary_inputs().size(), true);
  const std::vector<bool> ffs(netlist.num_flip_flops(), false);

  (void)compiled.simulate_cycle(pis, ffs, Picoseconds(1500.0), std::nullopt);
  EXPECT_EQ(compiled.golden_cache_misses(), 1u);
  EXPECT_EQ(compiled.golden_cache_hits(), 0u);
  for (int i = 0; i < 5; ++i) {
    (void)compiled.simulate_cycle(pis, ffs, Picoseconds(1500.0), std::nullopt);
  }
  EXPECT_EQ(compiled.golden_cache_misses(), 1u);
  EXPECT_EQ(compiled.golden_cache_hits(), 5u);

  // A different FF state is a different key.
  std::vector<bool> other = ffs;
  if (!other.empty()) {
    other[0] = !other[0];
    (void)compiled.simulate_cycle(pis, other, Picoseconds(1500.0),
                                  std::nullopt);
    EXPECT_EQ(compiled.golden_cache_misses(), 2u);
  }
}

TEST(CompiledKernelTest, GoldenCacheCapacityBoundsPopulation) {
  const CellLibrary lib = make_default_library();
  testing::FuzzOptions fuzz;
  fuzz.num_inputs = 8;
  const auto netlist = testing::make_random_netlist(lib, 6, fuzz);
  sim::CompiledEventSim compiled(netlist);
  compiled.set_golden_cache_capacity(4);

  Rng rng(6);
  std::vector<bool> ffs(netlist.num_flip_flops(), false);
  // Far more distinct stimuli than capacity: the sim must keep answering
  // correctly (differential check) while the cache stays bounded.
  sim::LogicSim scalar(netlist);
  for (int i = 0; i < 64; ++i) {
    const auto pis = random_bits(netlist.primary_inputs().size(), rng);
    const auto cycle =
        compiled.simulate_cycle(pis, ffs, Picoseconds(1500.0), std::nullopt);
    scalar.set_ff_state(ffs);
    scalar.set_inputs(pis);
    scalar.evaluate();
    EXPECT_EQ(cycle.golden_po, scalar.output_values());
  }
  EXPECT_GE(compiled.golden_cache_misses(), 60u);
}

TEST(CompiledKernelTest, SharedContextAcrossInstances) {
  const CellLibrary lib = make_default_library();
  const auto netlist = testing::make_random_netlist(lib, 9);
  const auto context = sim::CompiledKernelContext::build(netlist);
  const sim::CompiledEventSim a(netlist, context);
  const sim::CompiledEventSim b(netlist, context);
  Rng rng(9);
  const auto pis = random_bits(netlist.primary_inputs().size(), rng);
  const auto ffs = random_bits(netlist.num_flip_flops(), rng);
  set::Strike strike;
  strike.node = netlist.gate(GateId{0}).output;
  strike.start = Picoseconds(300.0);
  strike.width = Picoseconds(250.0);
  expect_cycles_equal(a.simulate_cycle(pis, ffs, Picoseconds(1400.0), strike),
                      b.simulate_cycle(pis, ffs, Picoseconds(1400.0), strike),
                      "shared context");
}

TEST(CompiledKernelTest, ResolveStrikeReadsOnlyTheStruckConesInputs) {
  // The strike-lane kernel hands resolve_strike a GoldenCycle whose
  // net_values are current only on the struck net and its cone's gate
  // inputs (both nodes' for a double strike). Inverting every other
  // entry must leave the result unchanged.
  const CellLibrary lib = make_default_library();
  const auto generated =
      bench::generate_benchmark(bench::find_benchmark("C880"), lib);
  const Netlist netlist =
      bench::clone_with_output_flip_flops(generated.netlist);
  const auto context = sim::CompiledKernelContext::build(netlist);
  const FlatNetlistView& view = *context->view;
  const sim::CompiledEventSim sim(netlist, context);
  const Picoseconds capture = generated.measured_dmax;
  Rng rng(880);

  std::size_t reached = 0;
  for (std::size_t n = 0; n < view.num_nets(); n += 9) {
    const auto pis = random_bits(netlist.primary_inputs().size(), rng);
    const auto ffs = random_bits(netlist.num_flip_flops(), rng);
    const sim::GoldenCycle full = sim.golden_eval(pis, ffs);
    set::Strike first;
    first.node = NetId{n};
    first.start = Picoseconds(rng.next_double_in(0.0, capture.value()));
    first.width = Picoseconds(rng.next_double_in(50.0, 700.0));
    set::Strike second = first;
    second.node = NetId{rng.next_below(view.num_nets())};
    const bool double_strike = n % 2 == 0;

    std::vector<set::Strike> struck{first};
    if (double_strike) struck.push_back(second);
    std::vector<char> read(view.num_nets(), 0);
    for (const set::Strike& s : struck) {
      read[s.node.index()] = 1;
      for (std::uint32_t g : view.cone_of(s.node)) {
        const std::uint32_t* in = view.gate_inputs_begin(g);
        for (std::uint32_t i = 0; i < view.gate_num_inputs(g); ++i) {
          read[in[i]] = 1;
        }
      }
    }
    sim::GoldenCycle stale = full;
    for (std::size_t m = 0; m < view.num_nets(); ++m) {
      if (read[m] == 0) stale.net_values[m] ^= 1;
    }

    const std::string context_label = "struck net " + std::to_string(n);
    const auto reference = sim.resolve_strike(full, capture, first);
    expect_cycles_equal(reference, sim.resolve_strike(stale, capture, first),
                        context_label);
    if (reference.glitch_reached_endpoint) ++reached;
    if (double_strike) {
      expect_cycles_equal(sim.resolve_strike(full, capture, second),
                          sim.resolve_strike(stale, capture, second),
                          context_label + " second node " +
                              std::to_string(second.node.index()));
    }
  }
  EXPECT_GT(reached, 0u) << "no sampled strike reached an endpoint";
}

}  // namespace
}  // namespace cwsp
