// Cross-layer validation: the same structure simulated at transistor
// level (MiniSpice) and at gate level (EventSim) must agree on logic
// values and, to first order, on propagated SET glitch widths.

#include "spice/netlist_bridge.hpp"

#include <gtest/gtest.h>

#include "netlist/bench_parser.hpp"
#include "oracle/event_sim.hpp"
#include "sim/logic_sim.hpp"

namespace cwsp::spice {
namespace {

class NetlistBridgeTest : public ::testing::Test {
 protected:
  CellLibrary lib_ = make_default_library();
  SpiceTech tech_;
};

TEST_F(NetlistBridgeTest, StaticLevelsMatchLogicSim) {
  const auto netlist = parse_bench_string(R"(
INPUT(a)
INPUT(b)
OUTPUT(y1)
OUTPUT(y2)
t1 = NAND(a, b)
t2 = NOR(a, t1)
y1 = AND(t1, b)
y2 = OR(t2, a)
)",
                                          lib_);

  sim::LogicSim logic(netlist);
  for (unsigned bits = 0; bits < 4; ++bits) {
    const bool a = (bits & 1) != 0;
    const bool b = (bits & 2) != 0;
    logic.set_inputs({a, b});
    logic.evaluate();

    std::map<std::string, SourceFunction> drives;
    drives["a"] = SourceFunction::dc(a ? tech_.vdd : 0.0);
    drives["b"] = SourceFunction::dc(b ? tech_.vdd : 0.0);
    const auto elab = elaborate_to_spice(netlist, drives, tech_);
    const auto v = solve_dc(elab.circuit);

    for (const char* name : {"t1", "t2", "y1", "y2"}) {
      const NetId net = *netlist.find_net(name);
      const double electrical = v[static_cast<std::size_t>(elab.node(net))];
      const bool expected = logic.value(net);
      EXPECT_NEAR(electrical, expected ? tech_.vdd : 0.0, 0.05)
          << name << " at inputs " << bits;
    }
  }
}

TEST_F(NetlistBridgeTest, GlitchWidthAgreesAcrossLayers) {
  // Three-inverter chain; strike the first inverter's output with
  // Q = 100 fC. Electrically the glitch is ~500 ps wide; at gate level we
  // inject the calibrated 500 ps pulse. The far end must see comparable
  // pulse widths in both worlds.
  const auto netlist = parse_bench_string(R"(
INPUT(a)
OUTPUT(y)
t1 = NOT(a)
t2 = NOT(t1)
y  = NOT(t2)
)",
                                          lib_);

  // --- electrical -------------------------------------------------------
  std::map<std::string, SourceFunction> drives;
  drives["a"] = SourceFunction::dc(tech_.vdd);  // t1 settles low
  auto elab = elaborate_to_spice(netlist, drives, tech_);
  const int struck = elab.node(*netlist.find_net("t1"));
  const int out = elab.node(*netlist.find_net("y"));
  add_node_clamps(elab.circuit, "clamp", struck, elab.vdd, tech_);
  elab.circuit.add_current_source(
      "Istrike", kGround, struck,
      SourceFunction::double_exponential(Femtocoulombs(100.0),
                                         Picoseconds(200.0),
                                         Picoseconds(50.0),
                                         Picoseconds(100.0)));
  TransientOptions options;
  options.t_stop_ps = 2000.0;
  const auto result = run_transient(elab.circuit, options, {struck, out});
  // a=1 ⇒ t1=0, t2=1, y=0; the strike lifts t1, so y pulses high.
  const auto electrical_width =
      result.probe(out).pulse_width_above(tech_.vdd / 2.0);
  ASSERT_TRUE(electrical_width.has_value());

  // --- gate level ---------------------------------------------------------
  sim::EventSim esim(netlist);
  set::Strike strike;
  strike.node = *netlist.find_net("t1");
  strike.start = Picoseconds(100.0);
  strike.width = Picoseconds(500.0);  // calibrated width for 100 fC
  const auto w = esim.net_waveform({true}, {}, strike, *netlist.find_net("y"));
  ASSERT_EQ(w.transitions().size(), 2u);
  const double logical_width = w.transitions()[1] - w.transitions()[0];

  EXPECT_NEAR(*electrical_width, logical_width, 0.2 * logical_width);
}

TEST_F(NetlistBridgeTest, SequentialNetlistRejected) {
  const auto netlist = parse_bench_string(R"(
INPUT(a)
OUTPUT(q)
q = DFF(a)
)",
                                          lib_);
  EXPECT_THROW(elaborate_to_spice(netlist, {}, tech_), Error);
}

TEST_F(NetlistBridgeTest, UnsupportedCellRejected) {
  const auto netlist = parse_bench_string(R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
y = XOR(a, b)
)",
                                          lib_);
  EXPECT_THROW(elaborate_to_spice(netlist, {}, tech_), Error);
}

TEST_F(NetlistBridgeTest, ConstantsDriveRails) {
  const auto netlist = parse_bench_string(R"(
INPUT(a)
OUTPUT(y)
one = VDD
y = AND(a, one)
)",
                                          lib_);
  std::map<std::string, SourceFunction> drives;
  drives["a"] = SourceFunction::dc(tech_.vdd);
  const auto elab = elaborate_to_spice(netlist, drives, tech_);
  const auto v = solve_dc(elab.circuit);
  EXPECT_NEAR(v[static_cast<std::size_t>(elab.node(*netlist.find_net("y")))],
              tech_.vdd, 0.05);
}

}  // namespace
}  // namespace cwsp::spice
