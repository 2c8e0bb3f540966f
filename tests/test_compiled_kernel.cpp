// Differential tests of the compiled simulation kernel against the
// full-netlist EventSim oracle (tests/oracle), over fuzzed netlists:
// CompiledEventSim must reproduce EventSim bit-for-bit (waveforms,
// latched values, aperture flags — strike and no-strike), and its golden
// steps must match scalar LogicSim. The CompiledKernelOracle suite drives
// every branch of the timed resolver (blocked, shifted and merged gates,
// filtered pulses, coincident toggles, shared D nets, cancellation, the
// reusing overload) against the same oracle. The CaptureMask suite pins
// CompiledKernelContext::capture_masked to the oracle: every strike it
// masks latches golden there. Plus unit tests of the golden-waveform
// cache and of resolve_strike's read set on a generated C880.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>

#include "bencharness/generator.hpp"
#include "netlist/bench_parser.hpp"
#include "netlist/flat_view.hpp"
#include "netlist_fuzz.hpp"
#include "oracle/event_sim.hpp"
#include "set/strike_plan.hpp"
#include "sim/compiled_kernel.hpp"
#include "sim/logic_sim.hpp"
#include "sim/strike_lanes.hpp"

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

// ---- the lane entry against the full resolution ----------------------

/// Every 7th site of `netlist` resolved through resolve_lane_strike on a
/// settled 512-lane WideLogicSim plane, against resolve_strike on the
/// GoldenCycle of the same lane's stimulus: the reached endpoints must be
/// exactly the full result's flipped flip-flops, aperture violations and
/// struck outputs, and each double strike's superposition (flip-flops one
/// half flips) must match the full results'. Returns the number of double
/// strikes whose halves flipped a flip-flop in common.
std::size_t expect_lane_entry_matches_full(const Netlist& netlist,
                                           Picoseconds capture,
                                           std::uint64_t seed,
                                           const std::string& label) {
  const auto context = sim::CompiledKernelContext::build(netlist);
  const FlatNetlistView& view = *context->view;
  const sim::CompiledEventSim compiled(netlist, context);
  const std::size_t npi = netlist.primary_inputs().size();
  const std::size_t nff = netlist.num_flip_flops();
  const std::size_t npo = view.po_nets().size();
  sim::WideLogicSim plane(context->view, 512);
  Rng rng(seed);
  std::vector<std::vector<bool>> pis(plane.lanes());
  std::vector<std::vector<bool>> ffs(plane.lanes());
  for (std::size_t l = 0; l < plane.lanes(); ++l) {
    pis[l] = random_bits(npi, rng);
    ffs[l] = random_bits(nff, rng);
    for (std::size_t i = 0; i < npi; ++i) plane.set_input_lane(i, l, pis[l][i]);
    for (std::size_t f = 0; f < nff; ++f) plane.set_ff_lane(f, l, ffs[l][f]);
  }
  plane.evaluate();

  std::vector<sim::ReachedEndpoint> reached;
  std::size_t shared = 0;
  for (std::size_t n = 0; n < view.num_nets(); n += 7) {
    // Lanes at word edges and in every word of the plane.
    const std::size_t lane = (n * 37 + (n % 3 == 0 ? 63 : 0)) % plane.lanes();
    const std::string at = label + " net " + std::to_string(n) + " lane " +
                           std::to_string(lane);
    const sim::GoldenCycle golden = compiled.golden_eval(pis[lane], ffs[lane]);
    set::Strike first;
    first.node = NetId{n};
    first.start = Picoseconds(rng.next_double_in(0.0, capture.value()));
    first.width = Picoseconds(rng.next_double_in(50.0, 700.0));
    set::Strike second = first;
    const auto& cone = view.cone_of(first.node);
    second.node = n % 2 == 0 || cone.empty()
                      ? NetId{rng.next_below(view.num_nets())}
                      : NetId{view.gate_output(cone.front())};

    std::vector<char> flipped_by_full(nff, 0);
    std::vector<char> flipped_by_lane(nff, 0);
    std::vector<char> flipped_by_first(nff, 0);
    const set::Strike halves[] = {first, second};
    for (std::size_t h = 0; h < 2; ++h) {
      const set::Strike& strike = halves[h];
      const sim::CycleResult full =
          compiled.resolve_strike(golden, capture, strike);
      compiled.resolve_lane_strike(plane.net_words(0), plane.words_per_net(),
                                   lane, capture, strike, reached);
      std::vector<bool> latched = full.golden_d;
      std::vector<bool> aperture(nff, false);
      std::vector<bool> po = full.golden_po;
      for (const sim::ReachedEndpoint& r : reached) {
        if (r.endpoint < nff) {
          EXPECT_EQ(r.golden, full.golden_d[r.endpoint]) << at;
          latched[r.endpoint] = r.latched;
          aperture[r.endpoint] = r.aperture;
        } else if (r.endpoint - nff >= npo) {
          ADD_FAILURE() << at << ": endpoint " << r.endpoint << " out of range";
        } else {
          EXPECT_FALSE(r.aperture) << at;
          EXPECT_EQ(r.golden, full.golden_po[r.endpoint - nff]) << at;
          po[r.endpoint - nff] = r.latched;
        }
      }
      EXPECT_EQ(latched, full.latched_d) << at;
      EXPECT_EQ(aperture, full.aperture_violation) << at;
      EXPECT_EQ(po, full.struck_po) << at;
      EXPECT_EQ(!reached.empty(), full.glitch_reached_endpoint) << at;
      for (std::size_t f = 0; f < nff; ++f) {
        if (full.latched_d[f] != full.golden_d[f]) {
          if (h == 0) {
            flipped_by_first[f] = 1;
          } else if (flipped_by_first[f] != 0) {
            ++shared;
          }
          flipped_by_full[f] ^= 1;
        }
        if (latched[f] != full.golden_d[f]) flipped_by_lane[f] ^= 1;
      }
    }
    EXPECT_EQ(flipped_by_lane, flipped_by_full) << at << " double strike";
  }
  return shared;
}

TEST(CompiledKernelLaneEntry, MatchesFullResolutionOnGeneratedC880) {
  const CellLibrary lib = make_default_library();
  const auto generated =
      bench::generate_benchmark(bench::find_benchmark("C880"), lib);
  const Netlist netlist =
      bench::clone_with_output_flip_flops(generated.netlist);
  EXPECT_GT(expect_lane_entry_matches_full(netlist, generated.measured_dmax,
                                           880, "C880"),
            10u)
      << "double strikes whose halves flip a flip-flop in common";
}

TEST(CompiledKernelLaneEntry, MatchesFullResolutionOnFuzzedDesigns) {
  const CellLibrary lib = make_default_library();
  std::size_t shared = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    testing::FuzzOptions fuzz;
    fuzz.num_gates = 40;
    fuzz.num_flip_flops = 4;
    const Netlist netlist = testing::make_random_netlist(lib, 300 + seed, fuzz);
    shared += expect_lane_entry_matches_full(netlist, Picoseconds(400.0), seed,
                                             "fuzz " + std::to_string(seed));
  }
  EXPECT_GT(shared, 0u);
}

// ---- CompiledKernelOracle: every branch of the timed resolver ---------

/// The default library with every inertial delay at zero. Nothing is
/// filtered, so two toggles that round to one instant survive on a net,
/// and the next gate must cancel them as EventSim's union/unique does.
CellLibrary zero_inertial_library() {
  const CellLibrary base = make_default_library();
  CellLibrary lib;
  for (std::size_t i = 0; i < base.size(); ++i) {
    const Cell& c = base.cell(CellId{i});
    lib.add_cell(Cell(c.name(), c.kind(), c.num_inputs(), c.truth_table(),
                      c.devices(), c.intrinsic_delay(), c.drive_resistance(),
                      c.input_capacitance(), Picoseconds(0.0)));
  }
  lib.set_regular_ff(base.regular_ff());
  lib.set_modified_ff(base.modified_ff());
  lib.set_wire_capacitance_per_fanout(base.wire_capacitance_per_fanout());
  return lib;
}

/// A reconvergent fuzzed design in which every D net drives two
/// flip-flops: the original one and a twin whose Q is a primary output.
Netlist with_shared_d_nets(const CellLibrary& lib, std::uint64_t seed) {
  testing::FuzzOptions fuzz;
  fuzz.num_gates = 40;
  fuzz.num_flip_flops = 3;
  Netlist netlist = testing::make_random_netlist(lib, seed, fuzz);
  const std::size_t originals = netlist.num_flip_flops();
  for (std::size_t f = 0; f < originals; ++f) {
    const NetId q = netlist.add_net("twin_q" + std::to_string(f));
    netlist.add_flip_flop_onto(netlist.flip_flop(FlipFlopId{f}).d, q);
    netlist.mark_primary_output(q);
  }
  netlist.validate();
  return netlist;
}

void add_counts(sim::ResolveCounts& total, const sim::ResolveCounts& more) {
  total.gates_blocked += more.gates_blocked;
  total.gates_shifted += more.gates_shifted;
  total.gates_merged += more.gates_merged;
  total.pulses_filtered += more.pulses_filtered;
}

TEST(CompiledKernelOracle, GateClassesAndEndpointsMatchEventSim) {
  // Every net of 12 reconvergent designs struck four ways: narrower than
  // the library's inertial delays (10-24 ps), zero width, starting at 0,
  // and wide. Results and the waveform of every net, inside and outside
  // the struck cone, must equal the oracle's.
  const CellLibrary lib = make_default_library();
  sim::ResolveCounts total;
  std::size_t ff_d_reached = 0, po_reached = 0, twin_flipped = 0;
  std::size_t inside = 0, outside = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Netlist netlist = with_shared_d_nets(lib, 100 + seed);
    const auto view = FlatNetlistView::build(netlist);
    const sim::EventSim oracle(netlist);
    const sim::CompiledEventSim compiled(netlist);
    const std::size_t first_twin = netlist.num_flip_flops() / 2;
    Rng rng(seed);
    for (std::size_t n = 0; n < netlist.num_nets(); ++n) {
      std::vector<char> in_cone(netlist.num_nets(), 0);
      in_cone[n] = 1;
      for (std::uint32_t g : view->cone_of(NetId{n})) {
        in_cone[view->gate_output(g)] = 1;
      }
      for (int kind = 0; kind < 4; ++kind) {
        const auto pis = random_bits(netlist.primary_inputs().size(), rng);
        const auto ffs = random_bits(netlist.num_flip_flops(), rng);
        set::Strike strike;
        strike.node = NetId{n};
        strike.start = Picoseconds(kind == 2 ? 0.0
                                             : rng.next_double_in(0.0, 1300.0));
        strike.width = Picoseconds(
            kind == 0   ? rng.next_double_in(1.0, 24.0)
            : kind == 1 ? 0.0
                        : rng.next_double_in(100.0, 700.0));
        const Picoseconds capture(rng.next_double_in(200.0, 1500.0));
        const std::string context = "seed " + std::to_string(seed) +
                                    " net " + std::to_string(n) + " kind " +
                                    std::to_string(kind);
        const auto expected =
            oracle.simulate_cycle(pis, ffs, capture, strike);
        expect_cycles_equal(
            expected, compiled.simulate_cycle(pis, ffs, capture, strike),
            context);
        const Net& net = netlist.net(NetId{n});
        if (expected.glitch_reached_endpoint) {
          if (!net.fanout_ffs.empty()) ++ff_d_reached;
          if (net.is_primary_output) ++po_reached;
        }
        for (std::size_t f = first_twin; f < netlist.num_flip_flops(); ++f) {
          if (expected.latched_d[f] != expected.golden_d[f] ||
              expected.aperture_violation[f]) {
            ++twin_flipped;
          }
        }
        for (std::size_t m = 0; m < netlist.num_nets(); ++m) {
          const auto wl = oracle.net_waveform(pis, ffs, strike, NetId{m});
          const auto wc = compiled.net_waveform(pis, ffs, strike, NetId{m});
          ASSERT_EQ(wl.initial(), wc.initial()) << context << " on " << m;
          ASSERT_EQ(wl.transitions(), wc.transitions())
              << context << " on " << m;
          if (in_cone[m] != 0 && !wc.is_constant()) ++inside;
          if (in_cone[m] == 0) ++outside;
        }
      }
    }
    add_counts(total, compiled.resolve_counts());
  }
  EXPECT_GE(total.gates_blocked, 50u);
  EXPECT_GE(total.gates_shifted, 50u);
  EXPECT_GE(total.gates_merged, 50u);
  EXPECT_GE(total.pulses_filtered, 50u);
  EXPECT_GE(ff_d_reached, 50u) << "struck FF D nets whose pulse was sampled";
  EXPECT_GE(po_reached, 50u) << "struck primary outputs";
  EXPECT_GE(twin_flipped, 50u) << "corrupted twins on shared D nets";
  EXPECT_GT(inside, 0u);
  EXPECT_GT(outside, 0u);
}

TEST(CompiledKernelOracle, CoincidentTogglesCancelAsInEventSim) {
  // One- and two-ulp pulses just below 1024 ps: the first gate's delay
  // carries both toggles into the next binade, where about half of the
  // one-ulp pairs round to the same instant. With no inertial filtering
  // those survive, and the next gate sees an even number of toggles at
  // one instant.
  const CellLibrary lib = zero_inertial_library();
  std::size_t coincident = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Netlist netlist = with_shared_d_nets(lib, 200 + seed);
    const sim::EventSim oracle(netlist);
    const sim::CompiledEventSim compiled(netlist);
    Rng rng(seed ^ 0x1024);
    for (std::size_t n = 0; n < netlist.num_nets(); ++n) {
      for (int k = 0; k < 4; ++k) {
        const auto pis = random_bits(netlist.primary_inputs().size(), rng);
        const auto ffs = random_bits(netlist.num_flip_flops(), rng);
        const double start = rng.next_double_in(1016.0, 1024.0);
        double end = start;
        for (int ulps = 0; ulps <= k % 2; ++ulps) {
          end = std::nextafter(end, std::numeric_limits<double>::infinity());
        }
        set::Strike strike;
        strike.node = NetId{n};
        strike.start = Picoseconds(start);
        strike.width = Picoseconds(end - start);
        const Picoseconds capture(1100.0 + 50.0 * k);
        const std::string context =
            "seed " + std::to_string(seed) + " net " + std::to_string(n);
        expect_cycles_equal(
            oracle.simulate_cycle(pis, ffs, capture, strike),
            compiled.simulate_cycle(pis, ffs, capture, strike), context);
        for (std::size_t m = 0; m < netlist.num_nets(); ++m) {
          const auto wl = oracle.net_waveform(pis, ffs, strike, NetId{m});
          const auto wc = compiled.net_waveform(pis, ffs, strike, NetId{m});
          ASSERT_EQ(wl.initial(), wc.initial()) << context << " on " << m;
          ASSERT_EQ(wl.transitions(), wc.transitions())
              << context << " on " << m;
          const auto& t = wl.transitions();
          for (std::size_t i = 0; i + 1 < t.size(); ++i) {
            if (t[i] == t[i + 1]) ++coincident;
          }
        }
      }
    }
  }
  EXPECT_GE(coincident, 50u) << "instants holding two toggles";
}

TEST(CompiledKernelOracle, GeneratedC880MatchesEventSim) {
  const CellLibrary lib = make_default_library();
  const auto generated =
      bench::generate_benchmark(bench::find_benchmark("C880"), lib);
  const Netlist netlist =
      bench::clone_with_output_flip_flops(generated.netlist);
  const sim::EventSim oracle(netlist);
  const sim::CompiledEventSim compiled(netlist);
  const double period = generated.measured_dmax.value();
  Rng rng(880880);
  std::size_t reached = 0;
  for (std::size_t n = 0; n < netlist.num_nets(); n += 23) {
    for (int kind = 0; kind < 4; ++kind) {
      const auto pis = random_bits(netlist.primary_inputs().size(), rng);
      const auto ffs = random_bits(netlist.num_flip_flops(), rng);
      set::Strike strike;
      strike.node = NetId{n};
      strike.start =
          Picoseconds(kind == 2 ? 0.0 : rng.next_double_in(0.0, period));
      strike.width = Picoseconds(kind == 0   ? rng.next_double_in(1.0, 24.0)
                                 : kind == 1 ? 0.0
                                             : rng.next_double_in(100.0, 900.0));
      const Picoseconds capture(period);
      const auto expected = oracle.simulate_cycle(pis, ffs, capture, strike);
      expect_cycles_equal(expected,
                          compiled.simulate_cycle(pis, ffs, capture, strike),
                          "C880 net " + std::to_string(n) + " kind " +
                              std::to_string(kind));
      if (expected.glitch_reached_endpoint) ++reached;
    }
  }
  const sim::ResolveCounts& counts = compiled.resolve_counts();
  EXPECT_GT(reached, 50u);
  EXPECT_GT(counts.gates_blocked, 0u);
  EXPECT_GT(counts.gates_shifted, 0u);
  EXPECT_GT(counts.pulses_filtered, 0u);
}

TEST(CompiledKernelOracle, CancelledResolutionLeavesNoStaleSlot) {
  // a and b meet at one XOR. A resolution of a strike on a that throws at
  // the XOR has given a a slot; the next resolution, of a strike on b,
  // must not read that slot as a's waveform.
  const CellLibrary lib = make_default_library();
  Netlist netlist(lib, "xor");
  const NetId a = netlist.add_primary_input("a");
  const NetId b = netlist.add_primary_input("b");
  const GateId x = netlist.add_gate(lib.cell_for(CellKind::kXor2), {a, b}, "x");
  const GateId y = netlist.add_gate(lib.cell_for(CellKind::kBuf),
                                    {netlist.gate(x).output}, "y");
  netlist.mark_primary_output(netlist.gate(y).output);
  netlist.validate();

  sim::CompiledEventSim compiled(netlist);
  const sim::CompiledEventSim fresh(netlist);
  const sim::EventSim oracle(netlist);
  const std::vector<bool> pis{false, true};
  const sim::GoldenCycle golden = compiled.golden_eval(pis, {});
  const Picoseconds capture(300.0);
  const set::Strike on_a{a, Picoseconds(100.0), Picoseconds(80.0)};
  const set::Strike on_b{b, Picoseconds(120.0), Picoseconds(90.0)};

  sim::CancelToken token;
  token.cancel();
  compiled.set_cancel_token(&token);
  EXPECT_THROW((void)compiled.resolve_strike(golden, capture, on_a),
               sim::CancelledError);
  compiled.set_cancel_token(nullptr);
  const auto after = compiled.resolve_strike(golden, capture, on_b);
  expect_cycles_equal(fresh.resolve_strike(golden, capture, on_b), after,
                      "after a cancelled resolution");
  expect_cycles_equal(oracle.simulate_cycle(pis, {}, capture, on_b), after,
                      "oracle");
  EXPECT_TRUE(after.glitch_reached_endpoint);
  const auto wave = compiled.net_waveform(pis, {}, on_b, netlist.gate(y).output);
  EXPECT_EQ(wave.transitions(),
            oracle.net_waveform(pis, {}, on_b, netlist.gate(y).output)
                .transitions());
}

TEST(CancelTokenPolls, CancelIsSeenAtEveryPollADeadlineAtEveryStride) {
  // The resolver polls cancelled_at(k) at its k-th cone gate.
  sim::CancelToken token;
  for (std::size_t k = 0; k < 100; ++k) EXPECT_FALSE(token.cancelled_at(k));
  token.set_deadline(sim::CancelToken::Clock::now() - std::chrono::seconds(1));
  for (std::size_t k = 0; k < 100; ++k) {
    EXPECT_EQ(token.cancelled_at(k), k % sim::CancelToken::kClockStride == 0)
        << "poll " << k;
  }
  token.reset();
  token.cancel();
  for (std::size_t k = 0; k < 100; ++k) {
    EXPECT_TRUE(token.cancelled_at(k)) << "poll " << k;
  }
}

TEST(CompiledKernelOracle, ResolutionsAfterADeadlineMatchAFreshSimulator) {
  // Deadlines 0-3 us from now cut C880 resolutions at the first cone
  // gate or part-way through the cone; every resolution that follows one
  // must equal a simulator that never threw.
  const CellLibrary lib = make_default_library();
  const auto generated =
      bench::generate_benchmark(bench::find_benchmark("C880"), lib);
  const Netlist netlist =
      bench::clone_with_output_flip_flops(generated.netlist);
  const auto context = sim::CompiledKernelContext::build(netlist);
  sim::CompiledEventSim compiled(netlist, context);
  const sim::CompiledEventSim fresh(netlist, context);
  const Picoseconds capture = generated.measured_dmax;
  Rng rng(3000);
  const sim::GoldenCycle golden = compiled.golden_eval(
      random_bits(netlist.primary_inputs().size(), rng),
      random_bits(netlist.num_flip_flops(), rng));
  sim::CancelToken token;
  std::size_t thrown = 0;
  for (std::size_t n = 0, step = 0; n < netlist.num_nets(); n += 11, ++step) {
    set::Strike cut;
    cut.node = NetId{n};
    cut.start = Picoseconds(rng.next_double_in(0.0, capture.value()));
    cut.width = Picoseconds(400.0);
    token.reset();
    token.set_deadline(sim::CancelToken::Clock::now() +
                       std::chrono::nanoseconds(100 * (step % 31)));
    compiled.set_cancel_token(&token);
    try {
      (void)compiled.resolve_strike(golden, capture, cut);
    } catch (const sim::CancelledError&) {
      ++thrown;
    }
    compiled.set_cancel_token(nullptr);
    set::Strike next = cut;
    next.node = NetId{rng.next_below(netlist.num_nets())};
    expect_cycles_equal(fresh.resolve_strike(golden, capture, next),
                        compiled.resolve_strike(golden, capture, next),
                        "after cutting net " + std::to_string(n));
  }
  EXPECT_GT(thrown, 0u);
}

TEST(CompiledKernelOracle, ReusedResultEqualsByValueResolution) {
  // The reusing overload after a different strike: every field of the
  // previous result, its endpoint flag included, is overwritten.
  const CellLibrary lib = make_default_library();
  const Netlist netlist = with_shared_d_nets(lib, 77);
  const sim::CompiledEventSim compiled(netlist);
  Rng rng(77);
  sim::CycleResult reused;
  reused.latched_d.assign(3, true);  // stale sizes from nowhere
  reused.glitch_reached_endpoint = true;
  std::size_t reached_then_not = 0;
  bool previous_reached = true;
  for (std::size_t i = 0; i < 400; ++i) {
    const sim::GoldenCycle golden =
        compiled.golden_eval(random_bits(netlist.primary_inputs().size(), rng),
                             random_bits(netlist.num_flip_flops(), rng));
    set::Strike strike;
    strike.node = NetId{rng.next_below(netlist.num_nets())};
    strike.start = Picoseconds(rng.next_double_in(0.0, 1200.0));
    strike.width = Picoseconds(rng.next_double_in(0.0, 500.0));
    const Picoseconds capture(rng.next_double_in(300.0, 1500.0));
    compiled.resolve_strike(golden, capture, strike, reused);
    const auto by_value = compiled.resolve_strike(golden, capture, strike);
    expect_cycles_equal(by_value, reused, "strike " + std::to_string(i));
    if (previous_reached && !by_value.glitch_reached_endpoint) {
      ++reached_then_not;
    }
    previous_reached = by_value.glitch_reached_endpoint;
  }
  EXPECT_GT(reached_then_not, 10u);
}

// ------------------------------------------------ capture-aperture mask

/// Offsets (ps) of a start from a bound edge: on it, and ±1e-3, ±1e-5 and
/// ±1e-7 from it (the last pair inside the mask's margin).
constexpr double kEdgeOffsets[] = {0.0, 1e-3, -1e-3, 1e-5, -1e-5, 1e-7, -1e-7};

/// A capture time that keeps every edge-placed start of a strike up to
/// 600 ps wide non-negative.
Picoseconds capture_after_longest_path(
    const sim::CompiledKernelContext& context) {
  double longest = 0.0;
  for (double d : context.d_pin_max_ps) longest = std::max(longest, d);
  return Picoseconds(longest + 700.0);
}

struct MaskTally {
  std::size_t masked = 0;
  /// Kept strikes the oracle saw flip a flip-flop or violate an aperture.
  std::size_t kept_corrupting = 0;
};

/// Strikes on `samples` sampled sites under random stimulus, each started
/// so that its last toggle at a D pin lands on T - setup, or its first on
/// T + hold, give or take kEdgeOffsets. The mask must decide exactly the
/// starts beyond an edge by more than its margin, and the oracle must
/// latch golden with no aperture violation at every flip-flop for each
/// strike it masks.
MaskTally expect_mask_sound(const Netlist& netlist, std::size_t samples,
                            std::uint64_t seed) {
  const auto context = sim::CompiledKernelContext::build(netlist);
  const sim::EventSim oracle(netlist);
  const Picoseconds capture = capture_after_longest_path(*context);
  const double early = capture.value() - context->setup_ps;
  const double late = capture.value() + context->hold_ps;
  const double margin = sim::CompiledKernelContext::kMaskMarginPs;
  const std::vector<NetId> sites = set::strike_sites(netlist);
  Rng rng(seed);
  MaskTally tally;
  for (std::size_t s = 0; s < samples; ++s) {
    const NetId site = sites[rng.next_below(sites.size())];
    const auto pis = random_bits(netlist.primary_inputs().size(), rng);
    const auto ffs = random_bits(netlist.num_flip_flops(), rng);
    const double width = rng.next_double_in(0.0, 600.0);
    const double shortest = context->d_pin_min_ps[site.index()];
    const double longest = context->d_pin_max_ps[site.index()];
    struct Placed {
      double start;
      bool masked;
    };
    std::vector<Placed> placed;
    if (std::isinf(shortest)) {
      placed.push_back({rng.next_double_in(0.0, capture.value()), true});
    } else {
      for (double off : kEdgeOffsets) {
        placed.push_back({early - width - longest + off, off < -margin});
        placed.push_back({late - shortest + off, off > margin});
      }
    }
    for (const Placed& p : placed) {
      const set::Strike strike{site, Picoseconds(p.start), Picoseconds(width)};
      const std::string at = netlist.net(site).name + " start " +
                             std::to_string(p.start) + " width " +
                             std::to_string(width);
      const bool masked = context->capture_masked(strike, capture);
      EXPECT_EQ(masked, p.masked) << at;
      const bool corrupts =
          oracle.simulate_cycle(pis, ffs, capture, strike).any_ff_corrupted();
      if (masked) {
        ++tally.masked;
        EXPECT_FALSE(corrupts) << "masked strike latches non-golden: " << at;
      } else if (corrupts) {
        ++tally.kept_corrupting;
      }
    }
  }
  return tally;
}

/// Double strikes whose first half the mask decides and whose second half
/// it keeps, through run_packed on cycle 0 of a one-cycle run: each
/// lane's outcome must equal the oracle's superposition of both halves,
/// from one resolution per lane.
void expect_masked_half_skipped(const Netlist& netlist, std::uint64_t seed) {
  const auto context = sim::CompiledKernelContext::build(netlist);
  const sim::EventSim oracle(netlist);
  const Picoseconds capture = capture_after_longest_path(*context);
  const double early = capture.value() - context->setup_ps;
  const std::vector<NetId> sites = set::strike_sites(netlist);
  const std::size_t npi = netlist.primary_inputs().size();
  Rng rng(seed);
  sim::StrikeLaneSim lanes(context, capture, Picoseconds(500.0), 64);
  std::vector<sim::LaneScenario> batch;
  std::vector<std::uint64_t> stimulus(npi, 0);
  std::vector<std::vector<bool>> inputs;
  for (std::size_t tries = 0; batch.size() < 64 && tries < 100000; ++tries) {
    const NetId first = sites[rng.next_below(sites.size())];
    const NetId second = sites[rng.next_below(sites.size())];
    const double width = rng.next_double_in(0.0, 600.0);
    sim::LaneScenario sc;
    sc.strike = {first, Picoseconds(early - width -
                                    context->d_pin_max_ps[first.index()] -
                                    1e-3),
                 Picoseconds(width)};
    sc.node2 = second;
    const set::Strike second_half{second, sc.strike.start, sc.strike.width};
    if (!std::isfinite(sc.strike.start.value()) ||
        !context->capture_masked(sc.strike, capture) ||
        context->capture_masked(second_half, capture)) {
      continue;
    }
    inputs.push_back(random_bits(npi, rng));
    for (std::size_t p = 0; p < npi; ++p) {
      if (inputs.back()[p]) stimulus[p] |= 1ull << batch.size();
    }
    batch.push_back(sc);
  }
  ASSERT_EQ(batch.size(), 64u);
  std::vector<sim::LaneOutcome> out;
  lanes.run_packed(batch, 1, stimulus, out);
  EXPECT_EQ(lanes.timed_resolutions(), batch.size());

  const std::vector<bool> reset(netlist.num_flip_flops(), false);
  std::size_t latched = 0;
  for (std::size_t l = 0; l < batch.size(); ++l) {
    std::vector<bool> flips(reset.size(), false);
    bool aperture = false;
    for (const set::Strike& half :
         {batch[l].strike, set::Strike{batch[l].node2, batch[l].strike.start,
                                       batch[l].strike.width}}) {
      const sim::CycleResult r =
          oracle.simulate_cycle(inputs[l], reset, capture, half);
      for (std::size_t f = 0; f < flips.size(); ++f) {
        if (r.latched_d[f] != r.golden_d[f]) flips[f] = !flips[f];
        aperture = aperture || r.aperture_violation[f];
      }
    }
    const bool latched_diff =
        std::find(flips.begin(), flips.end(), true) != flips.end();
    EXPECT_TRUE(out[l].fired) << "lane " << l;
    EXPECT_EQ(out[l].latched_diff, latched_diff) << "lane " << l;
    EXPECT_EQ(out[l].aperture, aperture) << "lane " << l;
    if (latched_diff || aperture) ++latched;
  }
  EXPECT_GT(latched, 0u) << "no kept half latched anything";
}

TEST(CaptureMask, MaskedStrikesLatchGoldenInTheOracleOnPipeline4) {
  const CellLibrary lib = make_default_library();
  const Netlist netlist = parse_bench_file(
      std::string(CWSP_EXAMPLE_DESIGNS) + "/pipeline4.bench", lib);
  const MaskTally tally = expect_mask_sound(netlist, 400, 41);
  EXPECT_GT(tally.masked, 1000u);
  EXPECT_GT(tally.kept_corrupting, 100u) << "the bound is not tight";
  expect_masked_half_skipped(netlist, 42);
}

TEST(CaptureMask, MaskedStrikesLatchGoldenInTheOracleOnC880) {
  const CellLibrary lib = make_default_library();
  const Netlist netlist = bench::clone_with_output_flip_flops(
      bench::generate_benchmark(bench::find_benchmark("C880"), lib).netlist);
  const MaskTally tally = expect_mask_sound(netlist, 300, 43);
  EXPECT_GT(tally.masked, 1000u);
  EXPECT_GT(tally.kept_corrupting, 100u) << "the bound is not tight";
  expect_masked_half_skipped(netlist, 44);
}

}  // namespace
}  // namespace cwsp
