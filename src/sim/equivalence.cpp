#include "sim/equivalence.hpp"

#include "common/rng.hpp"
#include "netlist/flat_view.hpp"
#include "sim/strike_lanes.hpp"

namespace cwsp {
namespace {

/// a's FF index for each of b's FFs, matched by Q-net name. B's state
/// must be a subset of A's (optimisation may drop dead flip-flops, whose
/// state by construction cannot influence outputs).
std::vector<std::size_t> match_ffs(const Netlist& a, const Netlist& b) {
  std::vector<std::size_t> map(b.num_flip_flops());
  for (std::size_t j = 0; j < b.num_flip_flops(); ++j) {
    const std::string& name = b.net(b.flip_flop(FlipFlopId{j}).q).name;
    bool found = false;
    for (std::size_t i = 0; i < a.num_flip_flops(); ++i) {
      if (a.net(a.flip_flop(FlipFlopId{i}).q).name == name) {
        map[j] = i;
        found = true;
        break;
      }
    }
    CWSP_REQUIRE_MSG(found, "equivalence: no matching flip-flop for " << name);
  }
  return map;
}

}  // namespace

EquivalenceResult check_equivalence(const Netlist& a, const Netlist& b,
                                    const EquivalenceOptions& options) {
  CWSP_REQUIRE_MSG(a.primary_inputs().size() == b.primary_inputs().size(),
                   "equivalence: input count mismatch");
  CWSP_REQUIRE_MSG(a.primary_outputs().size() == b.primary_outputs().size(),
                   "equivalence: output count mismatch");
  CWSP_REQUIRE_MSG(b.num_flip_flops() <= a.num_flip_flops(),
                   "equivalence: b has flip-flops a lacks");

  const std::size_t n_in = a.primary_inputs().size();
  const std::size_t n_ff = a.num_flip_flops();
  const std::size_t n_out = a.primary_outputs().size();
  const std::size_t space_bits = n_in + n_ff;
  const auto ff_map = match_ffs(a, b);

  // Bit-parallel sweep: 64 (input, state) vectors settle per topological
  // pass. Lanes are filled in enumeration order, so the counterexample —
  // lowest lane of the first failing batch, lowest output index — is the
  // same vector the scalar reference implementation would report.
  sim::WideLogicSim sim_a(FlatNetlistView::build(a), 64);
  sim::WideLogicSim sim_b(FlatNetlistView::build(b), 64);
  auto output_word = [](const sim::WideLogicSim& sim, std::size_t k) {
    return *sim.net_words(sim.view().po_nets()[k]);
  };

  EquivalenceResult result;
  result.exhaustive =
      space_bits < 63 && (1ull << space_bits) <= options.exhaustive_limit;

  // Per-lane copies of the current batch (for counterexample reporting).
  std::vector<std::vector<bool>> lane_inputs(64);
  std::vector<std::vector<bool>> lane_states(64);

  auto run_batch = [&](std::size_t lanes) -> bool {
    for (std::size_t l = 0; l < lanes; ++l) {
      for (std::size_t i = 0; i < n_in; ++i) {
        sim_a.set_input_lane(i, l, lane_inputs[l][i]);
        sim_b.set_input_lane(i, l, lane_inputs[l][i]);
      }
      for (std::size_t i = 0; i < n_ff; ++i) {
        sim_a.set_ff_lane(i, l, lane_states[l][i]);
      }
      for (std::size_t j = 0; j < b.num_flip_flops(); ++j) {
        sim_b.set_ff_lane(j, l, lane_states[l][ff_map[j]]);
      }
    }
    sim_a.evaluate();
    sim_b.evaluate();
    const std::uint64_t lane_mask =
        lanes == 64 ? ~0ull : (1ull << lanes) - 1;
    std::uint64_t any_diff = 0;
    for (std::size_t k = 0; k < n_out; ++k) {
      any_diff |= (output_word(sim_a, k) ^ output_word(sim_b, k)) & lane_mask;
      if (any_diff != 0) break;
    }
    if (any_diff == 0) {
      result.vectors_checked += lanes;
      return true;
    }
    for (std::size_t l = 0; l < lanes; ++l) {
      for (std::size_t k = 0; k < n_out; ++k) {
        const bool va = (output_word(sim_a, k) >> l) & 1u;
        const bool vb = (output_word(sim_b, k) >> l) & 1u;
        if (va != vb) {
          result.vectors_checked += l + 1;
          result.counterexample =
              Counterexample{lane_inputs[l], lane_states[l], k, va, vb};
          return false;
        }
      }
    }
    // Unreachable: any_diff != 0 implies some lane/output differs.
    result.vectors_checked += lanes;
    return true;
  };

  if (result.exhaustive) {
    const std::uint64_t combos = 1ull << space_bits;
    for (std::uint64_t base = 0; base < combos; base += 64) {
      const std::size_t lanes =
          static_cast<std::size_t>(std::min<std::uint64_t>(64, combos - base));
      for (std::size_t l = 0; l < lanes; ++l) {
        const std::uint64_t v = base + l;
        lane_inputs[l].assign(n_in, false);
        lane_states[l].assign(n_ff, false);
        for (std::size_t i = 0; i < n_in; ++i) {
          lane_inputs[l][i] = (v >> i) & 1u;
        }
        for (std::size_t i = 0; i < n_ff; ++i) {
          lane_states[l][i] = (v >> (n_in + i)) & 1u;
        }
      }
      if (!run_batch(lanes)) return result;
    }
  } else {
    Rng rng(options.seed);
    std::size_t remaining = options.random_vectors;
    while (remaining > 0) {
      const std::size_t lanes = std::min<std::size_t>(64, remaining);
      for (std::size_t l = 0; l < lanes; ++l) {
        lane_inputs[l].assign(n_in, false);
        lane_states[l].assign(n_ff, false);
        for (std::size_t i = 0; i < n_in; ++i) {
          lane_inputs[l][i] = rng.next_bool();
        }
        for (std::size_t i = 0; i < n_ff; ++i) {
          lane_states[l][i] = rng.next_bool();
        }
      }
      if (!run_batch(lanes)) return result;
      remaining -= lanes;
    }
  }
  result.equivalent = true;
  return result;
}

}  // namespace cwsp
