// Differential tests of the fault-parallel strike-lane kernel.
//
// Three layers of byte-identity, each against an independently-tested
// reference:
//
//   * WideLogicSim at every supported lane width (64/256/512 — portable
//     or vectorized, whatever this build dispatches) against the scalar
//     LogicSim lane by lane, and its flip sweeps against a scalar
//     flipped evaluation lane by lane, over fuzzed netlists and the
//     embedded ISCAS circuits;
//   * the campaign engine's lane path against the scalar ProtectionSim
//     worker pool: identical plans produce byte-identical JSON reports
//     at every lane width and jobs value, including edge batches
//     (smaller than the lane count, strikes on PI/FF-Q/PO nets,
//     zero-width pulses, strike cycles beyond the run), on s27 and on a
//     generated C880, each plan sending strikes both to the
//     capture-aperture mask and through run_packed;
//   * certify at every lane width against its 64-wide reports.
//
// Plus the batch entries themselves: run_batch rejects malformed
// scenarios, the engine's packed stimulus equals strike_inputs bit for
// bit, and both entries' per-lane outcomes equal a scalar recomputation
// on full golden cycles.

#include "sim/strike_lanes.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "analysis/certify.hpp"
#include "bencharness/generator.hpp"
#include "campaign/campaign.hpp"
#include "campaign/report.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "cwsp/timing.hpp"
#include "iscas_data.hpp"
#include "netlist/bench_parser.hpp"
#include "netlist_fuzz.hpp"
#include "sim/compiled_kernel.hpp"
#include "sim/logic_sim.hpp"

namespace cwsp {
namespace {

std::vector<bool> random_bits(std::size_t n, Rng& rng) {
  std::vector<bool> bits(n);
  for (std::size_t i = 0; i < n; ++i) bits[i] = rng.next_bool();
  return bits;
}

// ---------------------------------------------------------- WideLogicSim

class WideLogicSimDifferential : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  CellLibrary lib_ = make_default_library();
};

TEST_P(WideLogicSimDifferential, EveryWidthTracksScalarLogicSimPerLane) {
  const auto netlist = testing::make_random_netlist(lib_, GetParam());
  const auto context = sim::CompiledKernelContext::build(netlist);
  const std::size_t npi = netlist.primary_inputs().size();

  for (std::size_t width : sim::WideLogicSim::supported_lane_widths()) {
    sim::WideLogicSim wide(context->view, width);
    ASSERT_EQ(wide.lanes(), width);
    Rng rng(GetParam() ^ width);

    // Every lane is an independent clocked simulation; three steps catch
    // FF-state evolution bugs, not just combinational ones.
    std::vector<sim::LogicSim> scalars;
    for (std::size_t l = 0; l < width; ++l) scalars.emplace_back(netlist);

    for (int step = 0; step < 3; ++step) {
      for (std::size_t l = 0; l < width; ++l) {
        const auto inputs = random_bits(npi, rng);
        for (std::size_t i = 0; i < npi; ++i) {
          wide.set_input_lane(i, l, inputs[i]);
        }
        scalars[l].set_inputs(inputs);
      }
      wide.evaluate();
      for (std::size_t l = 0; l < width; ++l) scalars[l].evaluate();

      for (std::size_t n = 0; n < netlist.num_nets(); ++n) {
        for (std::size_t l = 0; l < width; ++l) {
          ASSERT_EQ(wide.value(NetId{n}, l), scalars[l].value(NetId{n}))
              << "seed " << GetParam() << " width " << width << " step "
              << step << " net " << n << " lane " << l;
        }
      }

      wide.clock();
      for (std::size_t l = 0; l < width; ++l) scalars[l].clock();
    }
  }
}

/// Zero-delay value of every net for one stimulus, with `site` inverted
/// as soon as its value is set (an invalid site inverts nothing): the
/// scalar reference for WideLogicSim's flip sweeps.
std::vector<char> scalar_flip_values(const Netlist& netlist,
                                     const std::vector<bool>& inputs,
                                     const std::vector<bool>& state,
                                     NetId site) {
  std::vector<char> values(netlist.num_nets(), 0);
  auto set = [&](NetId net, bool value) {
    values[net.index()] = value != (net == site);
  };
  for (std::size_t n = 0; n < netlist.num_nets(); ++n) {
    const Net& net = netlist.net(NetId{n});
    switch (net.driver_kind) {
      case DriverKind::kPrimaryInput:
        set(NetId{n}, inputs[net.driver_index]);
        break;
      case DriverKind::kFlipFlop:
        set(NetId{n}, state[net.driver_index]);
        break;
      case DriverKind::kConstant:
        set(NetId{n}, net.constant_value);
        break;
      default:
        break;
    }
  }
  for (GateId g : netlist.topological_order()) {
    const Gate& gate = netlist.gate(g);
    unsigned bits = 0;
    for (std::size_t i = 0; i < gate.inputs.size(); ++i) {
      if (values[gate.inputs[i].index()] != 0) bits |= 1u << i;
    }
    set(gate.output, netlist.cell_of(g).evaluate(bits));
  }
  return values;
}

TEST_P(WideLogicSimDifferential, FlipSweepsMatchLogicSim64PerSubword) {
  const auto netlist = testing::make_random_netlist(lib_, GetParam());
  const auto context = sim::CompiledKernelContext::build(netlist);
  const std::size_t npi = netlist.primary_inputs().size();
  const std::size_t nff = netlist.num_flip_flops();

  for (std::size_t width : sim::WideLogicSim::supported_lane_widths()) {
    sim::WideLogicSim wide(context->view, width);
    Rng rng(GetParam() ^ (width << 8));

    std::vector<std::vector<bool>> lane_inputs(width);
    std::vector<std::vector<bool>> lane_state(width);
    std::vector<std::vector<char>> base(width);
    for (std::size_t l = 0; l < width; ++l) {
      lane_inputs[l] = random_bits(npi, rng);
      lane_state[l] = random_bits(nff, rng);
      for (std::size_t i = 0; i < npi; ++i) {
        wide.set_input_lane(i, l, lane_inputs[l][i]);
      }
      for (std::size_t f = 0; f < nff; ++f) {
        wide.set_ff_lane(f, l, lane_state[l][f]);
      }
      base[l] = scalar_flip_values(netlist, lane_inputs[l], lane_state[l],
                                   NetId{});
    }
    wide.evaluate();

    // Every lane's flip diff is (flipped != base) of its own scalar runs,
    // in every 64-lane subword.
    for (std::size_t site = 0; site < netlist.num_nets(); ++site) {
      wide.evaluate_with_flip(NetId{site});
      for (std::size_t l = 0; l < width; ++l) {
        const auto flipped = scalar_flip_values(netlist, lane_inputs[l],
                                                lane_state[l], NetId{site});
        for (std::size_t n = 0; n < netlist.num_nets(); ++n) {
          const bool diff =
              ((wide.flip_diff_word(NetId{n}, l / 64) >> (l % 64)) & 1u) != 0;
          ASSERT_EQ(diff, flipped[n] != base[l][n])
              << "seed " << GetParam() << " width " << width << " site "
              << site << " lane " << l << " net " << n;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, WideLogicSimDifferential,
                         ::testing::Values(11u, 23u, 47u));

// ------------------------------------------------- every gate body

/// The default library plus cells with seeded random truth tables of
/// every arity — the all-zero and all-one tables among them — so every
/// select line of every mux-tree body is asymmetric somewhere (the
/// library's own 2- and 4-input cells are all symmetric).
CellLibrary every_body_library(std::uint64_t seed) {
  CellLibrary lib = make_default_library();
  const Cell base = lib.cell(lib.cell_for(CellKind::kNand2));
  Rng rng(seed);
  for (int arity = 1; arity <= 4; ++arity) {
    const std::uint16_t rows = static_cast<std::uint16_t>(
        (1u << (1u << arity)) - 1);
    for (int k = 0; k < 4; ++k) {
      const std::uint16_t truth =
          k == 0   ? 0
          : k == 1 ? rows
                   : static_cast<std::uint16_t>(rng.next_u64() & rows);
      lib.add_cell(Cell("T" + std::to_string(arity) + "_" + std::to_string(k),
                        CellKind::kNand2, arity, truth, base.devices(),
                        base.intrinsic_delay(), base.drive_resistance(),
                        base.input_capacitance(), base.inertial_delay()));
    }
  }
  return lib;
}

/// Every cell of `lib` three times over random earlier nets, from PIs,
/// flip-flop Qs and both constants: generated C7552 has 65 four-input
/// gates, which the fuzzed designs never draw.
Netlist every_cell_netlist(const CellLibrary& lib, std::uint64_t seed) {
  Rng rng(seed);
  Netlist netlist(lib, "every_cell" + std::to_string(seed));
  std::vector<NetId> pool;
  for (int i = 0; i < 6; ++i) {
    pool.push_back(netlist.add_primary_input("pi" + std::to_string(i)));
  }
  pool.push_back(netlist.add_constant(false, "zero"));
  pool.push_back(netlist.add_constant(true, "one"));
  std::vector<NetId> d_nets;
  for (int i = 0; i < 3; ++i) {
    d_nets.push_back(netlist.add_net("ffd" + std::to_string(i)));
    const FlipFlopId ff = netlist.add_flip_flop_onto(
        d_nets.back(), netlist.add_net("ffq" + std::to_string(i)));
    pool.push_back(netlist.flip_flop(ff).q);
  }
  int gates = 0;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t c = 0; c < lib.size(); ++c) {
      const CellId cell{c};
      std::vector<NetId> inputs;
      for (int i = 0; i < lib.cell(cell).num_inputs(); ++i) {
        inputs.push_back(pool[rng.next_below(pool.size())]);
      }
      const GateId g =
          netlist.add_gate(cell, inputs, "g" + std::to_string(gates++));
      pool.push_back(netlist.gate(g).output);
    }
  }
  for (const NetId d : d_nets) {
    netlist.add_gate_onto(lib.cell_for(CellKind::kBuf),
                          {pool[pool.size() - 1 - rng.next_below(8)]}, d);
  }
  for (std::size_t n = 0; n < netlist.num_nets(); ++n) {
    const Net& net = netlist.net(NetId{n});
    if (net.fanout_gates.empty() && net.fanout_ffs.empty() &&
        !net.is_primary_output) {
      netlist.mark_primary_output(NetId{n});
    }
  }
  netlist.validate();
  return netlist;
}

TEST(WideLogicSimBodies, EveryCellEveryWidthTracksScalar) {
  for (std::uint64_t seed : {3u, 19u}) {
    const CellLibrary lib = every_body_library(seed);
    const Netlist netlist = every_cell_netlist(lib, seed);
    const auto context = sim::CompiledKernelContext::build(netlist);
    ASSERT_EQ(context->view->constant_nets().size(), 2u);
    const std::size_t npi = netlist.primary_inputs().size();
    const std::size_t nff = netlist.num_flip_flops();

    for (std::size_t width : sim::WideLogicSim::supported_lane_widths()) {
      sim::WideLogicSim wide(context->view, width);
      const std::string body = wide.isa_name();
      Rng rng(seed * 1000 + width);

      // Three clocked steps against one LogicSim per lane.
      std::vector<sim::LogicSim> scalars;
      for (std::size_t l = 0; l < width; ++l) scalars.emplace_back(netlist);
      for (int step = 0; step < 3; ++step) {
        for (std::size_t l = 0; l < width; ++l) {
          const auto inputs = random_bits(npi, rng);
          for (std::size_t i = 0; i < npi; ++i) {
            wide.set_input_lane(i, l, inputs[i]);
          }
          scalars[l].set_inputs(inputs);
        }
        wide.evaluate();
        for (std::size_t l = 0; l < width; ++l) scalars[l].evaluate();
        for (std::size_t n = 0; n < netlist.num_nets(); ++n) {
          for (std::size_t l = 0; l < width; ++l) {
            ASSERT_EQ(wide.value(NetId{n}, l), scalars[l].value(NetId{n}))
                << body << ": seed " << seed << " step " << step << " net "
                << netlist.net(NetId{n}).name << " lane " << l;
          }
        }
        wide.clock();
        for (std::size_t l = 0; l < width; ++l) scalars[l].clock();
      }

      // Flip sweeps of every site against the scalar flipped evaluation,
      // on a fresh random state per lane.
      std::vector<std::vector<bool>> lane_inputs(width);
      std::vector<std::vector<bool>> lane_state(width);
      std::vector<std::vector<char>> base(width);
      for (std::size_t l = 0; l < width; ++l) {
        lane_inputs[l] = random_bits(npi, rng);
        lane_state[l] = random_bits(nff, rng);
        for (std::size_t i = 0; i < npi; ++i) {
          wide.set_input_lane(i, l, lane_inputs[l][i]);
        }
        for (std::size_t f = 0; f < nff; ++f) {
          wide.set_ff_lane(f, l, lane_state[l][f]);
        }
        base[l] = scalar_flip_values(netlist, lane_inputs[l], lane_state[l],
                                     NetId{});
      }
      wide.evaluate();
      for (std::size_t site = 0; site < netlist.num_nets(); ++site) {
        wide.evaluate_with_flip(NetId{site});
        for (std::size_t l = 0; l < width; ++l) {
          const auto flipped = scalar_flip_values(
              netlist, lane_inputs[l], lane_state[l], NetId{site});
          for (std::size_t n = 0; n < netlist.num_nets(); ++n) {
            const bool diff =
                ((wide.flip_diff_word(NetId{n}, l / 64) >> (l % 64)) & 1u) !=
                0;
            ASSERT_EQ(diff, flipped[n] != base[l][n])
                << body << ": seed " << seed << " flip of "
                << netlist.net(NetId{site}).name << " lane " << l << " net "
                << netlist.net(NetId{n}).name;
          }
        }
      }
    }
  }
}

TEST(WideLogicSimIscas, EveryWidthTracksScalarOnEmbeddedCircuits) {
  const CellLibrary lib = make_default_library();
  for (const char* bench : {testdata::kC17, testdata::kS27}) {
    const auto netlist = parse_bench_string(bench, lib);
    const auto context = sim::CompiledKernelContext::build(netlist);
    const std::size_t npi = netlist.primary_inputs().size();

    for (std::size_t width : sim::WideLogicSim::supported_lane_widths()) {
      sim::WideLogicSim wide(context->view, width);
      Rng rng(width * 31u + netlist.num_nets());
      std::vector<sim::LogicSim> scalars;
      for (std::size_t l = 0; l < width; ++l) scalars.emplace_back(netlist);

      for (int step = 0; step < 2; ++step) {
        for (std::size_t l = 0; l < width; ++l) {
          const auto inputs = random_bits(npi, rng);
          for (std::size_t i = 0; i < npi; ++i) {
            wide.set_input_lane(i, l, inputs[i]);
          }
          scalars[l].set_inputs(inputs);
        }
        wide.evaluate();
        for (std::size_t l = 0; l < width; ++l) scalars[l].evaluate();
        for (std::size_t n = 0; n < netlist.num_nets(); ++n) {
          for (std::size_t l = 0; l < width; ++l) {
            ASSERT_EQ(wide.value(NetId{n}, l), scalars[l].value(NetId{n}))
                << netlist.name() << " width " << width << " net " << n
                << " lane " << l;
          }
        }
        wide.clock();
        for (std::size_t l = 0; l < width; ++l) scalars[l].clock();
      }
    }
  }
}

// ------------------------------------------------ run_batch validation

class LaneBatchValidation : public ::testing::Test {
 protected:
  CellLibrary lib_ = make_default_library();
  Netlist netlist_ = parse_bench_string(testdata::kS27, lib_);
  sim::StrikeLaneSim lanes_{sim::CompiledKernelContext::build(netlist_),
                            Picoseconds(2000.0),
                            core::ProtectionParams::q100().delta, 64};
  std::vector<std::vector<bool>> inputs_ = std::vector<std::vector<bool>>(
      4, std::vector<bool>(netlist_.primary_inputs().size(), true));
  std::vector<sim::LaneOutcome> out_;

  [[nodiscard]] sim::LaneScenario scenario(
      const std::vector<std::vector<bool>>* inputs) const {
    sim::LaneScenario s;
    s.strike.node = netlist_.gate(GateId{0}).output;
    s.strike.start = Picoseconds(300.0);
    s.strike.width = Picoseconds(250.0);
    s.cycle = 1;
    s.inputs = inputs;
    return s;
  }
};

TEST_F(LaneBatchValidation, WellFormedBatchRuns) {
  lanes_.run_batch({scenario(&inputs_), scenario(&inputs_)}, out_);
  ASSERT_EQ(out_.size(), 2u);
  EXPECT_TRUE(out_[0].fired);
}

TEST_F(LaneBatchValidation, NullStimulusIsAnError) {
  EXPECT_THROW(lanes_.run_batch({scenario(nullptr), scenario(&inputs_)}, out_),
               Error);
  EXPECT_THROW(lanes_.run_batch({scenario(&inputs_), scenario(nullptr)}, out_),
               Error);
}

TEST_F(LaneBatchValidation, ShortRunIsAnError) {
  auto short_run = inputs_;
  short_run.pop_back();
  EXPECT_THROW(
      lanes_.run_batch({scenario(&inputs_), scenario(&short_run)}, out_),
      Error);
}

TEST_F(LaneBatchValidation, ShortRowIsAnError) {
  auto short_row = inputs_;
  short_row[2].pop_back();
  EXPECT_THROW(
      lanes_.run_batch({scenario(&inputs_), scenario(&short_row)}, out_),
      Error);
  EXPECT_THROW(lanes_.run_batch({scenario(&short_row)}, out_), Error);
}

// ------------------------------------------------- packed stimulus

Netlist with_primary_inputs(const CellLibrary& lib, std::size_t count) {
  // strike_inputs reads nothing of the netlist but its PI count.
  Netlist netlist(lib, "inputs");
  for (std::size_t i = 0; i < count; ++i) {
    netlist.add_primary_input("i" + std::to_string(i));
  }
  return netlist;
}

TEST(PackedStimulus, EveryLaneMatchesStrikeInputsBitForBit) {
  const CellLibrary lib = make_default_library();
  struct Shape {
    std::size_t pis;
    std::size_t cycles;
  };
  // 207 × 16 = 3312 bits (C7552's shape: not a multiple of 64), and a
  // stimulus shorter than one 64-bit block. Each width runs the stimulus
  // body it dispatches to: portable at 64 lanes, and the AVX2 and
  // AVX-512 bodies at 256 and 512 where the CPU has them.
  for (const Shape shape : {Shape{207, 16}, Shape{4, 8}}) {
    const Netlist netlist = with_primary_inputs(lib, shape.pis);
    for (std::size_t lanes : sim::WideLogicSim::supported_lane_widths()) {
      // A full batch, a partial last batch, one lane and none: the words
      // past the last stream must read 0.
      for (std::size_t filled : {lanes, lanes - 37, std::size_t{1},
                                 std::size_t{0}}) {
        std::vector<std::size_t> indices;
        for (std::size_t l = 0; l < filled; ++l) indices.push_back(1000 + 7 * l);
        std::vector<std::uint64_t> stimulus;
        campaign::CampaignEngine::strike_inputs_packed(
            netlist, shape.cycles, 2026, indices, lanes, stimulus);
        const std::size_t words = lanes / 64;
        ASSERT_EQ(stimulus.size(), shape.cycles * shape.pis * words);
        const std::string label =
            std::string(sim::WideLogicSim::isa_for(lanes).name) + ", " +
            std::to_string(shape.pis) + " PIs x " +
            std::to_string(shape.cycles) + " cycles, filled " +
            std::to_string(filled);
        for (std::size_t l = 0; l < lanes; ++l) {
          const auto reference =
              l < filled ? campaign::CampaignEngine::strike_inputs(
                               netlist, shape.cycles, 2026, indices[l])
                         : std::vector<std::vector<bool>>(
                               shape.cycles, std::vector<bool>(shape.pis));
          for (std::size_t t = 0; t < shape.cycles; ++t) {
            for (std::size_t p = 0; p < shape.pis; ++p) {
              const std::uint64_t word =
                  stimulus[(t * shape.pis + p) * words + l / 64];
              ASSERT_EQ(((word >> (l % 64)) & 1u) != 0, reference[t][p])
                  << label << ": lane " << l << " cycle " << t << " pi " << p;
            }
          }
        }
      }
    }
  }
}

// -------------------------------------------------- campaign lane path

std::string report_for(const Netlist& netlist,
                       const core::ProtectionParams& params, Picoseconds period,
                       const set::StrikePlan& plan,
                       const campaign::EngineOptions& opts) {
  const campaign::CampaignEngine engine(netlist, params, period);
  const auto result = engine.run(plan, opts);
  return campaign::format_campaign_json(result, plan, netlist, opts, period);
}

/// Deltas of the lane path's counters over the runs between two reads.
struct LaneCounts {
  std::uint64_t batches = 0;
  std::uint64_t filled = 0;
  std::uint64_t masked = 0;

  static LaneCounts read() {
    auto& registry = metrics::Registry::global();
    return {registry.counter("campaign.lane_batches").value(),
            registry.counter("campaign.lane_slots_filled").value(),
            registry.counter("campaign.lane_masked_strikes").value()};
  }
  LaneCounts operator-(const LaneCounts& before) const {
    return {batches - before.batches, filled - before.filled,
            masked - before.masked};
  }
};

/// The scalar ProtectionSim pool's report is the oracle; the lane path
/// must reproduce it at every width and jobs value. Returns the lane
/// counters' deltas over those lane runs.
LaneCounts expect_lane_reports_match_scalar(
    const Netlist& netlist, const core::ProtectionParams& params,
    Picoseconds period, const set::StrikePlan& plan,
    campaign::EngineOptions base, const std::string& label) {
  base.use_lane_kernel = false;
  base.jobs = 1;
  const std::string scalar = report_for(netlist, params, period, plan, base);
  const LaneCounts before = LaneCounts::read();
  for (std::size_t width : sim::WideLogicSim::supported_lane_widths()) {
    for (std::size_t jobs : {std::size_t{1}, std::size_t{3}}) {
      campaign::EngineOptions lane = base;
      lane.use_lane_kernel = true;
      lane.lane_width = width;
      lane.jobs = jobs;
      EXPECT_EQ(scalar, report_for(netlist, params, period, plan, lane))
          << label << ": lane width " << width << " jobs " << jobs;
    }
  }
  return LaneCounts::read() - before;
}

/// expect_lane_reports_match_scalar on a plan that must send strikes down
/// both lane-path routes: some decided by the capture-aperture mask
/// before batching, some through run_packed.
void expect_width_and_jobs_invariant(const Netlist& netlist,
                                     const core::ProtectionParams& params,
                                     Picoseconds period,
                                     const set::StrikePlan& plan,
                                     const campaign::EngineOptions& base,
                                     const std::string& label) {
  const LaneCounts counts = expect_lane_reports_match_scalar(
      netlist, params, period, plan, base, label);
  EXPECT_GT(counts.masked, 0u) << label << ": no strike was masked";
  EXPECT_GT(counts.filled, 0u) << label << ": no strike took a lane";
}

class LaneCampaignTest : public ::testing::Test {
 protected:
  CellLibrary lib_ = make_default_library();
  Netlist netlist_ = parse_bench_string(testdata::kS27, lib_);
  core::ProtectionParams params_ = core::ProtectionParams::q100();
  Picoseconds period_{2000.0};

  [[nodiscard]] campaign::CampaignEngine engine() const {
    return campaign::CampaignEngine(netlist_, params_, period_);
  }

  /// The start that puts a `width`-wide pulse's trailing toggle on
  /// `net`'s latest flip-flop D pin exactly at the capture edge: inside
  /// the aperture, so the mask keeps it and it takes a lane.
  [[nodiscard]] double aperture_start(NetId net, double width) const {
    return period_.value() - width - context_->d_pin_max_ps[net.index()];
  }
  [[nodiscard]] bool reaches_d_pin(NetId net) const {
    return std::isfinite(context_->d_pin_max_ps[net.index()]);
  }

  std::shared_ptr<const sim::CompiledKernelContext> context_ =
      sim::CompiledKernelContext::build(netlist_);

  void expect_width_and_jobs_invariant(const set::StrikePlan& plan,
                                       const campaign::EngineOptions& base,
                                       const std::string& label) const {
    cwsp::expect_width_and_jobs_invariant(netlist_, params_, period_, plan,
                                          base, label);
  }
};

TEST_F(LaneCampaignTest, AdversarialPlanReportsAreByteIdentical) {
  set::StrikePlanOptions po;
  po.functional_strikes = 24;
  po.protection_path_strikes = 6;
  po.clock_edge_strikes = 6;
  po.out_of_envelope_strikes = 6;
  po.cycles_per_run = 8;
  po.clock_period = period_;
  po.out_of_envelope_width = params_.delta + Picoseconds(400.0);
  const auto plan = set::build_strike_plan(netlist_, po, 7);

  campaign::EngineOptions opts;
  opts.seed = 99;
  opts.cycles_per_run = 8;
  expect_width_and_jobs_invariant(plan, opts, "adversarial");
}

TEST_F(LaneCampaignTest, EveryNetEveryWidthClassMatchesScalar) {
  // Manual plan sweeping every net of s27 — primary inputs, FF Q nets,
  // gate outputs and PO-driving nets included — with a zero-width pulse,
  // an in-envelope pulse, and an out-of-envelope pulse per net, plus
  // strike cycles at and beyond the run length. Early in the 2000 ps
  // cycle every pulse ends long before the capture aperture, so the mask
  // decides them all; each class is struck again on every net that
  // reaches a D pin with its trailing toggle timed into the aperture,
  // which sends it through run_packed.
  const std::size_t cycles = 6;
  const double widths[] = {0.0, params_.delta.value() * 0.5,
                           params_.delta.value() + 400.0};
  set::StrikePlan plan;
  std::size_t index = 0;
  for (const bool aperture_timed : {false, true}) {
    for (std::size_t n = 0; n < netlist_.num_nets(); ++n) {
      if (aperture_timed && !reaches_d_pin(NetId{n})) continue;
      for (std::size_t v = 0; v < std::size(widths); ++v) {
        set::PlannedStrike p;
        p.index = index;
        p.klass = set::StrikeClass::kFunctional;
        // Lands some strikes on the final cycle and some past the run.
        p.cycle = index % (cycles + 2);
        p.strike.node = NetId{n};
        p.strike.start =
            Picoseconds(aperture_timed ? aperture_start(NetId{n}, widths[v])
                                       : 120.0 * static_cast<double>(v + 1));
        p.strike.width = Picoseconds(widths[v]);
        EXPECT_NE(context_->capture_masked(p.strike, period_), aperture_timed)
            << netlist_.net(NetId{n}).name << " width " << widths[v];
        plan.strikes.push_back(p);
        ++index;
      }
    }
  }

  campaign::EngineOptions opts;
  opts.seed = 2026;
  opts.cycles_per_run = cycles;
  expect_width_and_jobs_invariant(plan, opts, "every-net");
}

TEST_F(LaneCampaignTest, SpuriousEqWindowStrikesMatchScalar) {
  // Pulses on FF Q nets positioned exactly across the CLK_DEL sampling
  // moment exercise the spurious-EQ squash path analytically resolved by
  // the lane engine. Each pulse ends before the capture aperture, so the
  // mask decides it; the same pulse stretched until its trailing toggle
  // reaches the Q net's latest D pin at the capture edge still spans the
  // sample and takes a lane.
  const double t_sample = params_.clk_del_delay().value();
  set::StrikePlan plan;
  std::size_t index = 0;
  for (const bool aperture_timed : {false, true}) {
    for (std::size_t f = 0; f < netlist_.num_flip_flops(); ++f) {
      const NetId q = netlist_.flip_flop(FlipFlopId{f}).q;
      if (aperture_timed && !reaches_d_pin(q)) continue;
      for (double width : {params_.delta.value() * 0.5,
                           params_.delta.value() + 300.0}) {
        set::PlannedStrike p;
        p.index = index;
        p.klass = set::StrikeClass::kFunctional;
        p.cycle = index % 5;
        p.strike.node = q;
        p.strike.start = Picoseconds(t_sample - width * 0.5);
        p.strike.width =
            Picoseconds(aperture_timed ? aperture_start(q, 0.0) -
                                             p.strike.start.value()
                                       : width);
        EXPECT_NE(context_->capture_masked(p.strike, period_), aperture_timed)
            << netlist_.net(q).name << " width " << width;
        plan.strikes.push_back(p);
        ++index;
      }
    }
  }

  campaign::EngineOptions opts;
  opts.seed = 5;
  opts.cycles_per_run = 5;
  expect_width_and_jobs_invariant(plan, opts, "spurious-eq");
}

TEST_F(LaneCampaignTest, BatchSmallerThanLaneCountMatchesScalar) {
  set::StrikePlanOptions po;
  po.functional_strikes = 3;  // far below even the 64-lane width
  po.cycles_per_run = 6;
  po.clock_period = period_;
  const auto plan = set::build_strike_plan(netlist_, po, 13);

  campaign::EngineOptions opts;
  opts.seed = 17;
  opts.cycles_per_run = 6;
  expect_width_and_jobs_invariant(plan, opts, "small-batch");
}

TEST_F(LaneCampaignTest, LaneTelemetryCountsBatchesAndSlots) {
  set::StrikePlanOptions po;
  po.functional_strikes = 10;
  po.cycles_per_run = 4;
  po.clock_period = period_;
  const auto plan = set::build_strike_plan(netlist_, po, 3);

  const LaneCounts before = LaneCounts::read();
  campaign::EngineOptions opts;
  opts.seed = 4;
  opts.cycles_per_run = 4;
  opts.lane_width = 64;
  const auto result = engine().run(plan, opts);
  EXPECT_EQ(result.report.runs, plan.size());

  // A masked strike is decided before batching and takes no lane slot.
  const LaneCounts counts = LaneCounts::read() - before;
  EXPECT_EQ(counts.filled + counts.masked, plan.size());
  EXPECT_EQ(counts.batches, (counts.filled + 63) / 64);
}

TEST_F(LaneCampaignTest, AllMaskedPlanRunsNoBatch) {
  // Every net at every width class, each pulse ending 10 ps before the
  // aperture at every D pin it reaches: the whole plan is decided before
  // batching, and the report is still the scalar pool's.
  const std::size_t cycles = 6;
  const double setup = context_->setup_ps;
  set::StrikePlan plan;
  for (std::size_t n = 0; n < netlist_.num_nets(); ++n) {
    for (double width : {0.0, params_.delta.value() * 0.5,
                         params_.delta.value() + 400.0}) {
      set::PlannedStrike p;
      p.index = plan.strikes.size();
      p.klass = set::StrikeClass::kFunctional;
      p.cycle = p.index % (cycles + 1);
      p.strike.node = NetId{n};
      p.strike.width = Picoseconds(width);
      p.strike.start = Picoseconds(
          reaches_d_pin(NetId{n}) ? aperture_start(NetId{n}, width) - setup -
                                        10.0
                                  : 300.0);
      plan.strikes.push_back(p);
    }
  }

  campaign::EngineOptions opts;
  opts.seed = 8;
  opts.cycles_per_run = cycles;
  const LaneCounts counts = expect_lane_reports_match_scalar(
      netlist_, params_, period_, plan, opts, "all-masked");
  // Three lane widths at two jobs values each.
  EXPECT_EQ(counts.masked, 6 * plan.size());
  EXPECT_EQ(counts.filled, 0u);
  EXPECT_EQ(counts.batches, 0u);
}

// A paper-scale design: C880's 60 PIs × 10 cycles span ten 64-bit
// stimulus blocks, and its cones cover a small fraction of the nets — the
// regime where a packing or cone-gather slip shows, unlike on s27.
class LaneCampaignC880Test : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    library_ = new CellLibrary(make_default_library());
    const auto generated = bench::generate_benchmark(
        bench::find_benchmark("C880"), *library_);
    netlist_ = new Netlist(bench::clone_with_output_flip_flops(generated.netlist));
    period_ = std::max(
        core::hardened_clock_period(generated.measured_dmax, *library_),
        core::min_clock_period_for_delta(params_));
  }
  static void TearDownTestSuite() {
    delete netlist_;
    delete library_;
  }

  static inline CellLibrary* library_ = nullptr;
  static inline Netlist* netlist_ = nullptr;
  static inline const core::ProtectionParams params_ =
      core::ProtectionParams::q100();
  static inline Picoseconds period_{0.0};
};

TEST_F(LaneCampaignC880Test, AdversarialPlanReportsAreByteIdentical) {
  set::StrikePlanOptions po;
  po.functional_strikes = 240;
  po.protection_path_strikes = 20;
  po.clock_edge_strikes = 20;
  po.out_of_envelope_strikes = 40;
  po.cycles_per_run = 10;
  po.clock_period = period_;
  po.out_of_envelope_width = params_.delta + Picoseconds(400.0);
  const auto plan = set::build_strike_plan(*netlist_, po, 11);

  campaign::EngineOptions opts;
  opts.seed = 31;
  opts.cycles_per_run = 10;
  expect_width_and_jobs_invariant(*netlist_, params_, period_, plan, opts,
                                  "c880 adversarial");
}

/// What one lane must resolve to, recomputed on the scalar compiled
/// kernel from full golden cycles: golden steps up to the strike cycle,
/// each node's timed resolution superposed, then the faulty trajectory's
/// PO mismatches when the capture survives the envelope.
sim::LaneOutcome scalar_outcome(const sim::CompiledEventSim& event,
                                const sim::LaneScenario& s, Picoseconds period,
                                Picoseconds delta) {
  const std::vector<std::vector<bool>>& inputs = *s.inputs;
  sim::LaneOutcome o;
  if (s.cycle >= inputs.size()) return o;
  std::vector<bool> state(event.netlist().num_flip_flops(), false);
  for (std::size_t t = 0; t < s.cycle; ++t) {
    state = event.golden_eval(inputs[t], state).ff_d;
  }
  o.fired = true;
  std::vector<set::Strike> strikes{s.strike};
  if (s.node2.valid()) {
    strikes.push_back(set::Strike{s.node2, s.strike.start, s.strike.width});
  }
  std::vector<bool> golden;
  std::vector<bool> flips(state.size(), false);
  for (const set::Strike& strike : strikes) {
    const sim::CycleResult r =
        event.simulate_cycle(inputs[s.cycle], state, period, strike);
    golden = r.golden_d;
    for (std::size_t f = 0; f < flips.size(); ++f) {
      if (r.latched_d[f] != r.golden_d[f]) flips[f] = !flips[f];
      if (r.aperture_violation[f]) o.aperture = true;
    }
  }
  o.latched_diff = std::find(flips.begin(), flips.end(), true) != flips.end();
  if (!o.latched_diff || s.squash_at_strike || s.strike.width <= delta) {
    return o;
  }
  std::vector<bool> faulty = golden;
  for (std::size_t f = 0; f < flips.size(); ++f) faulty[f] = golden[f] != flips[f];
  for (std::size_t t = s.cycle + 1; t < inputs.size(); ++t) {
    const sim::GoldenCycle clean = event.golden_eval(inputs[t], golden);
    const sim::GoldenCycle& struck = event.golden_eval(inputs[t], faulty);
    if (clean.po != struck.po) ++o.silent_corruptions;
    golden = clean.ff_d;
    faulty = struck.ff_d;
  }
  return o;
}

/// Both entries — run_batch packing per-lane vectors, run_packed fed by
/// the engine's packer — against a per-lane scalar recomputation, over
/// single and double strikes at every width.
void expect_lane_outcomes_match_scalar(const Netlist& netlist,
                                       Picoseconds period, Picoseconds delta,
                                       std::size_t cycles) {
  const auto context = sim::CompiledKernelContext::build(netlist);
  const sim::CompiledEventSim event(netlist, context);
  Rng rng(5);
  for (std::size_t width : sim::WideLogicSim::supported_lane_widths()) {
    sim::StrikeLaneSim lanes(context, period, delta, width);
    const std::size_t filled = width - 5;
    std::vector<std::vector<std::vector<bool>>> stimuli;
    std::vector<std::size_t> indices;
    std::vector<sim::LaneScenario> batch(filled);
    for (std::size_t l = 0; l < filled; ++l) {
      indices.push_back(40 + 3 * l);
      stimuli.push_back(campaign::CampaignEngine::strike_inputs(
          netlist, cycles, 9, indices.back()));
      sim::LaneScenario& s = batch[l];
      s.strike.node = NetId{rng.next_below(netlist.num_nets())};
      if (l % 4 == 0) s.node2 = NetId{rng.next_below(netlist.num_nets())};
      s.strike.start = Picoseconds(rng.next_double_in(0.0, period.value()));
      s.strike.width = Picoseconds(rng.next_double_in(50.0, 900.0));
      s.cycle = rng.next_below(cycles + 1);
    }
    for (std::size_t l = 0; l < filled; ++l) batch[l].inputs = &stimuli[l];

    std::vector<sim::LaneOutcome> adapted;
    lanes.run_batch(batch, adapted);
    std::vector<std::uint64_t> stimulus;
    campaign::CampaignEngine::strike_inputs_packed(netlist, cycles, 9, indices,
                                                   width, stimulus);
    std::vector<sim::LaneOutcome> packed;
    lanes.run_packed(batch, cycles, stimulus, packed);

    ASSERT_EQ(adapted.size(), filled);
    ASSERT_EQ(packed.size(), filled);
    std::size_t corrupted = 0;
    for (std::size_t l = 0; l < filled; ++l) {
      const sim::LaneOutcome want =
          scalar_outcome(event, batch[l], period, delta);
      for (const sim::LaneOutcome* got : {&adapted[l], &packed[l]}) {
        const std::string at =
            std::string(got == &adapted[l] ? "run_batch" : "run_packed") +
            " width " + std::to_string(width) + " lane " + std::to_string(l);
        EXPECT_EQ(got->fired, want.fired) << at;
        EXPECT_EQ(got->latched_diff, want.latched_diff) << at;
        EXPECT_EQ(got->aperture, want.aperture) << at;
        EXPECT_EQ(got->silent_corruptions, want.silent_corruptions) << at;
      }
      if (want.silent_corruptions > 0) ++corrupted;
    }
    EXPECT_GT(corrupted, 0u) << "width " << width << ": no lane corrupted";
  }
}

TEST_F(LaneCampaignC880Test, LaneOutcomesMatchScalarKernel) {
  expect_lane_outcomes_match_scalar(*netlist_, period_, params_.delta, 6);
}

TEST_F(LaneCampaignC880Test, DoubleStrikesOnSharedFlipFlopsMatchScalarKernel) {
  // Both halves of these double strikes reach the same flip-flops: the
  // second node is the first one itself or a net of its cone. A flip-flop
  // both halves flip re-latches its golden value, so a lane whose halves
  // flip exactly the same flip-flops latches nothing.
  const Netlist& netlist = *netlist_;
  const auto context = sim::CompiledKernelContext::build(netlist);
  const sim::CompiledEventSim event(netlist, context);
  const FlatNetlistView& view = *context->view;
  const std::size_t cycles = 4;
  const std::vector<NetId> sites = set::strike_sites(netlist);
  Rng rng(2103);
  for (std::size_t width : sim::WideLogicSim::supported_lane_widths()) {
    sim::StrikeLaneSim lanes(context, period_, params_.delta, width);
    std::vector<sim::LaneScenario> batch(width);
    std::vector<std::size_t> indices;
    std::vector<std::vector<std::vector<bool>>> stimuli(width);
    for (std::size_t l = 0; l < width; ++l) {
      sim::LaneScenario& s = batch[l];
      s.strike.node = sites[rng.next_below(sites.size())];
      const auto& cone = view.cone_of(s.strike.node);
      s.node2 = l % 2 == 0 || cone.empty()
                    ? s.strike.node
                    : NetId{view.gate_output(cone[rng.next_below(
                          std::min<std::size_t>(cone.size(), 3))])};
      s.strike.start = Picoseconds(rng.next_double_in(0.0, period_.value()));
      s.strike.width = Picoseconds(rng.next_double_in(300.0, 900.0));
      s.cycle = l % cycles;
      indices.push_back(7 * l + 1);
      stimuli[l] = campaign::CampaignEngine::strike_inputs(netlist, cycles, 4,
                                                           indices.back());
      s.inputs = &stimuli[l];
    }
    std::vector<std::uint64_t> stimulus;
    campaign::CampaignEngine::strike_inputs_packed(netlist, cycles, 4, indices,
                                                   width, stimulus);
    std::vector<sim::LaneOutcome> got;
    lanes.run_packed(batch, cycles, stimulus, got);
    std::size_t cancelled = 0;
    for (std::size_t l = 0; l < width; ++l) {
      const sim::LaneOutcome want =
          scalar_outcome(event, batch[l], period_, params_.delta);
      const std::string at = std::string(lanes.isa_name()) + " lane " +
                             std::to_string(l);
      EXPECT_EQ(got[l].latched_diff, want.latched_diff) << at;
      EXPECT_EQ(got[l].aperture, want.aperture) << at;
      EXPECT_EQ(got[l].silent_corruptions, want.silent_corruptions) << at;
      sim::LaneScenario first_half = batch[l];
      first_half.node2 = NetId{};
      if (scalar_outcome(event, first_half, period_, params_.delta)
              .latched_diff &&
          !want.latched_diff) {
        ++cancelled;
      }
    }
    EXPECT_GT(cancelled, 5u)
        << "width " << width << ": too few lanes whose halves cancel";
  }
}

TEST_F(LaneCampaignTest, LaneOutcomesMatchScalarKernel) {
  // s27's FFs feed back, so every earlier cycle's stimulus reaches the
  // strike cycle; 4 PIs × 20 cycles span two 64-bit stimulus blocks.
  expect_lane_outcomes_match_scalar(netlist_, period_, params_.delta, 20);
}

// ------------------------------------------------ certify lane widths

TEST(CertifyLaneWidths, ReportsAreWidthInvariant) {
  const CellLibrary lib = make_default_library();
  const auto netlist = parse_bench_string(testdata::kS27, lib);
  const auto params = core::ProtectionParams::q100();
  const Picoseconds period{2000.0};
  const auto context = sim::CompiledKernelContext::build(netlist);

  analysis::CertifyOptions base;
  base.seed = 3;
  base.minimize_witnesses = false;
  base.lane_width = 64;
  const auto reference =
      analysis::certify_design(netlist, params, period, base, context);
  const std::string ref_text = analysis::format_certify_text(reference, netlist);
  const std::string ref_json = analysis::format_certify_json(reference, netlist);

  for (std::size_t width : {std::size_t{256}, std::size_t{512}, std::size_t{0}}) {
    analysis::CertifyOptions opts = base;
    opts.lane_width = width;
    const auto got =
        analysis::certify_design(netlist, params, period, opts, context);
    EXPECT_EQ(ref_text, analysis::format_certify_text(got, netlist))
        << "lane width " << width;
    EXPECT_EQ(ref_json, analysis::format_certify_json(got, netlist))
        << "lane width " << width;
  }
}

}  // namespace
}  // namespace cwsp
