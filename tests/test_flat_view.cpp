// FlatNetlistView: the CSR arrays must be a faithful lowering of the
// Netlist, the topological order must match the memoized Netlist order,
// and the memoized fanout cones must equal a brute-force BFS reference,
// also when several threads build them at once.

#include <algorithm>
#include <queue>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "bencharness/generator.hpp"
#include "netlist/flat_view.hpp"
#include "netlist_fuzz.hpp"

namespace cwsp {
namespace {

const CellLibrary& library() {
  static const CellLibrary lib = make_default_library();
  return lib;
}

/// Reference cone: forward BFS over Netlist fanout edges.
std::set<std::size_t> reference_cone(const Netlist& netlist, NetId start) {
  std::set<std::size_t> cone;
  std::queue<NetId> frontier;
  std::set<std::size_t> seen_nets;
  frontier.push(start);
  seen_nets.insert(start.value());
  while (!frontier.empty()) {
    const NetId net = frontier.front();
    frontier.pop();
    for (const GateId g : netlist.net(net).fanout_gates) {
      if (cone.insert(g.value()).second) {
        const NetId out = netlist.gate(g).output;
        if (seen_nets.insert(out.value()).second) frontier.push(out);
      }
    }
  }
  return cone;
}

TEST(FlatViewTest, GateArraysMatchNetlist) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Netlist netlist = testing::make_random_netlist(library(), seed);
    const FlatNetlistView view(netlist);

    ASSERT_EQ(view.num_gates(), netlist.num_gates());
    ASSERT_EQ(view.num_nets(), netlist.num_nets());
    ASSERT_EQ(view.num_flip_flops(), netlist.num_flip_flops());
    ASSERT_EQ(view.num_primary_inputs(), netlist.primary_inputs().size());

    for (std::size_t g = 0; g < netlist.num_gates(); ++g) {
      const Gate& gate = netlist.gate(GateId{g});
      const Cell& cell = netlist.library().cell(gate.cell);
      ASSERT_EQ(view.gate_num_inputs(g), gate.inputs.size());
      const std::uint32_t* inputs = view.gate_inputs_begin(g);
      for (std::size_t i = 0; i < gate.inputs.size(); ++i) {
        EXPECT_EQ(inputs[i], gate.inputs[i].value());
      }
      EXPECT_EQ(view.gate_output(g), gate.output.value());
      EXPECT_EQ(view.gate_truth(g), cell.truth_table());
      EXPECT_DOUBLE_EQ(view.gate_inertial_delay_ps(g),
                       cell.inertial_delay().value());
    }
  }
}

TEST(FlatViewTest, SourceDescriptorsMatchDrivers) {
  Netlist netlist(library(), "sources");
  const NetId a = netlist.add_primary_input("a");
  const NetId k1 = netlist.add_constant(true, "one");
  const GateId g =
      netlist.add_gate(library().cell_for(CellKind::kAnd2), {a, k1}, "y");
  const NetId y = netlist.gate(g).output;
  const FlipFlopId ff = netlist.add_flip_flop(y, "q");
  const NetId q = netlist.flip_flop(ff).q;
  netlist.mark_primary_output(q);
  netlist.mark_primary_output(y);
  netlist.validate();

  const FlatNetlistView view(netlist);
  EXPECT_EQ(view.source_kind(a.value()), FlatNetlistView::SourceKind::kPrimaryInput);
  EXPECT_EQ(view.source_index(a.value()), 0u);
  EXPECT_EQ(view.source_kind(k1.value()), FlatNetlistView::SourceKind::kConstant);
  EXPECT_EQ(view.source_index(k1.value()), 1u);
  EXPECT_EQ(view.source_kind(y.value()), FlatNetlistView::SourceKind::kGate);
  EXPECT_EQ(view.source_index(y.value()), g.value());
  EXPECT_EQ(view.source_kind(q.value()), FlatNetlistView::SourceKind::kFlipFlop);
  EXPECT_EQ(view.source_index(q.value()), ff.value());
  ASSERT_EQ(view.ff_d_net(ff.value()), y.value());
  ASSERT_EQ(view.po_nets().size(), 2u);
}

TEST(FlatViewTest, FanoutAdjacencyMatchesNetlist) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Netlist netlist = testing::make_random_netlist(library(), seed);
    const FlatNetlistView view(netlist);
    for (std::size_t n = 0; n < netlist.num_nets(); ++n) {
      const Net& net = netlist.net(NetId{n});
      // The CSR list holds one entry per (gate, pin) pair; a gate reading
      // the net on two pins appears twice, exactly as in fanout_gates.
      ASSERT_EQ(view.net_fanout_size(n), net.fanout_gates.size());
      std::vector<std::uint32_t> expected;
      for (const GateId g : net.fanout_gates) expected.push_back(g.value());
      std::vector<std::uint32_t> actual(
          view.net_fanout_begin(n), view.net_fanout_begin(n) + view.net_fanout_size(n));
      std::sort(expected.begin(), expected.end());
      std::sort(actual.begin(), actual.end());
      EXPECT_EQ(actual, expected);
    }
  }
}

TEST(FlatViewTest, TopoOrderMatchesNetlistAndPositionsInvert) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Netlist netlist = testing::make_random_netlist(library(), seed);
    const FlatNetlistView view(netlist);
    const std::vector<GateId>& reference = netlist.topological_order();
    ASSERT_EQ(view.topo_order().size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(view.topo_order()[i], reference[i].value());
      EXPECT_EQ(view.topo_position(reference[i].value()), i);
    }
  }
}

TEST(FlatViewTest, SweepListsMatchTheNetlist) {
  // The source lists and the topologically ordered sweep records carry
  // exactly the drivers, inputs, outputs and truth tables of the netlist.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Netlist netlist = testing::make_random_netlist(library(), seed);
    const NetId zero = netlist.add_constant(false, "zero");
    const NetId one = netlist.add_constant(true, "one");
    netlist.mark_primary_output(zero);
    netlist.mark_primary_output(one);
    const FlatNetlistView view(netlist);
    ASSERT_EQ(view.pi_nets().size(), netlist.primary_inputs().size());
    for (std::size_t p = 0; p < view.pi_nets().size(); ++p) {
      EXPECT_EQ(view.pi_nets()[p], netlist.primary_inputs()[p].value());
    }
    ASSERT_EQ(view.ff_q_nets().size(), netlist.num_flip_flops());
    for (std::size_t f = 0; f < view.ff_q_nets().size(); ++f) {
      EXPECT_EQ(view.ff_q_nets()[f],
                netlist.flip_flop(FlipFlopId{f}).q.value());
    }
    EXPECT_EQ(view.constant_nets(),
              (std::vector<std::uint32_t>{zero.value(), one.value()}));

    ASSERT_EQ(view.sweep_gates().size(), netlist.num_gates());
    for (std::size_t pos = 0; pos < view.sweep_gates().size(); ++pos) {
      const FlatNetlistView::SweepGate& record = view.sweep_gates()[pos];
      const Gate& gate = netlist.gate(netlist.topological_order()[pos]);
      ASSERT_EQ(record.arity, gate.inputs.size());
      for (std::size_t i = 0; i < gate.inputs.size(); ++i) {
        EXPECT_EQ(record.in[i], gate.inputs[i].value());
      }
      EXPECT_EQ(record.out, gate.output.value());
      EXPECT_EQ(record.truth, netlist.library().cell(gate.cell).truth_table());
    }
  }
}

TEST(FlatViewTest, LevelsRespectDependencies) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Netlist netlist = testing::make_random_netlist(library(), seed);
    const FlatNetlistView view(netlist);
    for (std::size_t g = 0; g < netlist.num_gates(); ++g) {
      std::uint32_t max_input_level = 0;
      bool any_gate_input = false;
      const Gate& gate = netlist.gate(GateId{g});
      for (const NetId in : gate.inputs) {
        if (netlist.net(in).driver_kind == DriverKind::kGate) {
          any_gate_input = true;
          max_input_level = std::max(
              max_input_level, view.level(netlist.net(in).driver_index));
        }
      }
      EXPECT_EQ(view.level(g), any_gate_input ? max_input_level + 1 : 0u);
      EXPECT_LT(view.level(g), view.num_levels());
    }
  }
}

TEST(FlatViewTest, ConesMatchBfsReferenceAndAreTopoSorted) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Netlist netlist = testing::make_random_netlist(library(), seed);
    const FlatNetlistView view(netlist);
    for (std::size_t n = 0; n < netlist.num_nets(); ++n) {
      const auto& cone = view.cone_of(NetId{n});
      const std::set<std::size_t> reference =
          reference_cone(netlist, NetId{n});
      ASSERT_EQ(cone.size(), reference.size());
      for (std::size_t i = 0; i < cone.size(); ++i) {
        EXPECT_TRUE(reference.count(cone[i]));
        if (i > 0) {
          EXPECT_LT(view.topo_position(cone[i - 1]),
                    view.topo_position(cone[i]));
        }
      }
      // Acyclicity: the struck net's own driver can never be reached
      // again — the invariant cone-restricted propagation relies on.
      if (netlist.net(NetId{n}).driver_kind == DriverKind::kGate) {
        EXPECT_FALSE(reference.count(netlist.net(NetId{n}).driver_index));
      }
    }
  }
}

/// Every net's cone, queried by 4 threads at once on a cold view. Two
/// threads walk the nets upward and two downward, so cold builds of one
/// net race. All must return the reference contents in topological
/// order, and every thread must see the same vector for a net.
void expect_concurrent_cones_match_reference(const Netlist& netlist) {
  const FlatNetlistView view(netlist);
  const std::size_t nets = netlist.num_nets();
  std::vector<std::vector<std::uint32_t>> expected(nets);
  for (std::size_t n = 0; n < nets; ++n) {
    const std::set<std::size_t> reference = reference_cone(netlist, NetId{n});
    expected[n].assign(reference.begin(), reference.end());
    std::sort(expected[n].begin(), expected[n].end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return view.topo_position(a) < view.topo_position(b);
              });
  }
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<const std::vector<std::uint32_t>*>> seen(
      kThreads, std::vector<const std::vector<std::uint32_t>*>(nets));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t k = 0; k < nets; ++k) {
        const std::size_t n = t % 2 == 0 ? k : nets - 1 - k;
        seen[t][n] = &view.cone_of(NetId{n});
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t n = 0; n < nets; ++n) {
    for (std::size_t t = 1; t < kThreads; ++t) {
      ASSERT_EQ(seen[t][n], seen[0][n]) << "net " << n << " thread " << t;
    }
    ASSERT_EQ(*seen[0][n], expected[n]) << "net " << n;
  }
}

TEST(FlatViewTest, ConeMemoizationIsStableAndThreadSafe) {
  const Netlist netlist = testing::make_random_netlist(library(), 7);
  {
    // Same object back on repeat queries.
    const FlatNetlistView view(netlist);
    const auto& first = view.cone_of(NetId{0});
    EXPECT_EQ(&first, &view.cone_of(NetId{0}));
  }
  expect_concurrent_cones_match_reference(netlist);
}

TEST(FlatViewTest, EveryGeneratedC880ConeMatchesReferenceUnderThreads) {
  const Netlist netlist = bench::clone_with_output_flip_flops(
      bench::generate_benchmark(bench::find_benchmark("C880"), library())
          .netlist);
  expect_concurrent_cones_match_reference(netlist);
}

}  // namespace
}  // namespace cwsp
