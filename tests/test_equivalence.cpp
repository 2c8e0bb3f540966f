#include "sim/equivalence.hpp"

#include <gtest/gtest.h>

#include "netlist/bench_parser.hpp"
#include "netlist/transform.hpp"
#include "netlist_fuzz.hpp"
#include "sim/logic_sim.hpp"

namespace cwsp {
namespace {

class EquivalenceTest : public ::testing::Test {
 protected:
  CellLibrary lib_ = make_default_library();
};

TEST_F(EquivalenceTest, DeMorganPairExhaustive) {
  const auto a = parse_bench_string(R"(
INPUT(x)
INPUT(y)
OUTPUT(o)
o = NAND(x, y)
)",
                                    lib_);
  const auto b = parse_bench_string(R"(
INPUT(x)
INPUT(y)
OUTPUT(o)
nx = NOT(x)
ny = NOT(y)
o  = OR(nx, ny)
)",
                                    lib_);
  const auto r = check_equivalence(a, b);
  EXPECT_TRUE(r.equivalent);
  EXPECT_TRUE(r.exhaustive);
  EXPECT_EQ(r.vectors_checked, 4u);
}

TEST_F(EquivalenceTest, FindsCounterexample) {
  const auto a = parse_bench_string(R"(
INPUT(x)
INPUT(y)
OUTPUT(o)
o = AND(x, y)
)",
                                    lib_);
  const auto b = parse_bench_string(R"(
INPUT(x)
INPUT(y)
OUTPUT(o)
o = OR(x, y)
)",
                                    lib_);
  const auto r = check_equivalence(a, b);
  EXPECT_FALSE(r.equivalent);
  ASSERT_TRUE(r.counterexample.has_value());
  const auto& cex = *r.counterexample;
  // AND and OR differ exactly where inputs differ.
  EXPECT_NE(cex.inputs[0], cex.inputs[1]);
  EXPECT_NE(cex.value_a, cex.value_b);
}

TEST_F(EquivalenceTest, CounterexampleMatchesScalarEnumerationPastFirstBatch) {
  // 8 PIs → 256 exhaustive vectors in four 64-lane batches. b's o1 flips
  // only where x7·x6·x2·x0 holds, first at vector 197 (batch 3, lane 5);
  // o0 agrees everywhere.
  const char* const kCommon = R"(
INPUT(x0)
INPUT(x1)
INPUT(x2)
INPUT(x3)
INPUT(x4)
INPUT(x5)
INPUT(x6)
INPUT(x7)
OUTPUT(o0)
OUTPUT(o1)
o0 = OR(x1, x3)
u = XOR(x4, x5)
)";
  const auto a = parse_bench_string(std::string(kCommon) + "o1 = BUFF(u)\n",
                                    lib_);
  const auto b = parse_bench_string(std::string(kCommon) + R"(
hi = AND(x7, x6)
lo = AND(x2, x0)
t = AND(hi, lo)
o1 = XOR(u, t)
)",
                                    lib_);

  // Scalar reference: enumerate in the checker's order (bit i of the
  // vector index drives PI i) and stop at the first differing output.
  sim::LogicSim sim_a(a);
  sim::LogicSim sim_b(b);
  std::optional<Counterexample> expected;
  std::size_t expected_checked = 0;
  for (std::uint64_t v = 0; v < 256 && !expected.has_value(); ++v) {
    std::vector<bool> inputs(8);
    for (std::size_t i = 0; i < 8; ++i) inputs[i] = (v >> i) & 1u;
    sim_a.set_inputs(inputs);
    sim_b.set_inputs(inputs);
    sim_a.evaluate();
    sim_b.evaluate();
    ++expected_checked;
    const auto out_a = sim_a.output_values();
    const auto out_b = sim_b.output_values();
    for (std::size_t k = 0; k < out_a.size(); ++k) {
      if (out_a[k] != out_b[k]) {
        expected = Counterexample{inputs, {}, k, out_a[k], out_b[k]};
        break;
      }
    }
  }
  ASSERT_TRUE(expected.has_value());
  ASSERT_GT(expected_checked, 64u);  // the mismatch is past batch 0

  const auto r = check_equivalence(a, b);
  EXPECT_FALSE(r.equivalent);
  EXPECT_TRUE(r.exhaustive);
  EXPECT_EQ(r.vectors_checked, expected_checked);
  ASSERT_TRUE(r.counterexample.has_value());
  const Counterexample& cex = *r.counterexample;
  EXPECT_EQ(cex.inputs, expected->inputs);
  EXPECT_EQ(cex.state_a, expected->state_a);
  EXPECT_EQ(cex.output_index, expected->output_index);
  EXPECT_EQ(cex.value_a, expected->value_a);
  EXPECT_EQ(cex.value_b, expected->value_b);
}

TEST_F(EquivalenceTest, SequentialStateMatchedByName) {
  const auto a = parse_bench_string(R"(
INPUT(en)
OUTPUT(o)
d = XOR(en, q)
q = DFF(d)
o = BUFF(q)
)",
                                    lib_);
  // Same design with gates declared in a different order.
  const auto b = parse_bench_string(R"(
INPUT(en)
OUTPUT(o)
o = BUFF(q)
q = DFF(d)
d = XOR(en, q)
)",
                                    lib_);
  const auto r = check_equivalence(a, b);
  EXPECT_TRUE(r.equivalent);
  EXPECT_TRUE(r.exhaustive);
  EXPECT_EQ(r.vectors_checked, 4u);  // 1 PI + 1 FF
}

TEST_F(EquivalenceTest, OptimizedNetlistsEquivalent) {
  for (std::uint64_t seed : {41u, 42u, 43u, 44u}) {
    const auto original = testing::make_random_netlist(lib_, seed);
    const auto [optimized, stats] = optimize(original);
    (void)stats;
    EquivalenceOptions options;
    options.random_vectors = 512;
    options.seed = seed;
    const auto r = check_equivalence(original, optimized, options);
    EXPECT_TRUE(r.equivalent) << "seed " << seed;
  }
}

TEST_F(EquivalenceTest, InterfaceMismatchRejected) {
  const auto a = parse_bench_string("INPUT(x)\nOUTPUT(o)\no = NOT(x)\n",
                                    lib_);
  const auto b = parse_bench_string(
      "INPUT(x)\nINPUT(y)\nOUTPUT(o)\no = AND(x, y)\n", lib_);
  EXPECT_THROW(check_equivalence(a, b), Error);
}

TEST_F(EquivalenceTest, FfNameMismatchRejected) {
  const auto a = parse_bench_string(
      "INPUT(x)\nOUTPUT(qa)\nqa = DFF(x)\n", lib_);
  const auto b = parse_bench_string(
      "INPUT(x)\nOUTPUT(qb)\nqb = DFF(x)\n", lib_);
  EXPECT_THROW(check_equivalence(a, b), Error);
}

}  // namespace
}  // namespace cwsp
