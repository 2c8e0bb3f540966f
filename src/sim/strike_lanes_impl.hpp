#pragma once
// Templated lane bodies, instantiated once per lane width K (words per
// net) and per ISA: the sweeps of WideLogicSim and the stimulus body
// behind pack_stream_draws. The code is plain word-parallel C++ — no
// intrinsics — so every instantiation shares one definition and
// identical scalar semantics at every width is structural, not something
// tests merely hope for.
//
// strike_lanes.cpp instantiates every body for the baseline ISA; the
// -mavx2 (K = 4) and -mavx512f (K = 8) translation units instantiate them
// again under their own tags, and the dispatcher picks a unit by CPUID.
// The bodies take raw arrays and call no out-of-line template, so an ISA
// unit defines no weak symbol the linker could hand to baseline callers
// (ci/check-isa-bodies.sh checks both that and the vector registers).
//
// A sweep settles the sources from the view's lists of PI, FF-Q and
// constant nets, then walks the view's topologically ordered gate records
// (FlatNetlistView::sweep_gates; a flip sweep reaches a cone gate's
// record through its topological position). Each gate runs one
// branch-free body for its arity: its input rows are copied to locals,
// and the output is a Shannon mux tree over the truth table's constant
// row masks — level 0 selects between adjacent rows on input 0, and each
// further level halves the tree on the next input. With K and the arity
// known at compile time the tree unrolls into straight-line bitwise
// selects on whole lane rows (on AVX-512 an inverter is two broadcasts,
// one vpternlogq and one store).

#include "common/rng.hpp"
#include "netlist/flat_view.hpp"

namespace cwsp::sim {

/// `Isa` is a tag type each including TU declares in an unnamed
/// namespace. It gives that TU's instantiations internal linkage:
/// without it, an -mavx512f instantiation and the baseline one of the
/// same K are one symbol to the linker, which keeps either copy for both.
template <std::size_t K, class Isa>
struct LaneKernelCore {
  /// All ones where row `row` of the truth table is 1.
  static std::uint64_t row_mask(std::uint16_t truth, unsigned row) {
    return 0 - static_cast<std::uint64_t>((truth >> row) & 1u);
  }

  /// One gate of arity A: out = truth[inputs], per lane. `row(n)` is net
  /// n's K input words.
  template <unsigned A, class Row>
  static void gate(std::uint16_t truth, const std::uint32_t* in, Row row,
                   std::uint64_t* out) {
    std::uint64_t x[A][K];
    for (unsigned i = 0; i < A; ++i) {
      const std::uint64_t* words = row(in[i]);
      for (std::size_t w = 0; w < K; ++w) x[i][w] = words[w];
    }
    constexpr unsigned kHalf = 1u << (A - 1);
    std::uint64_t node[kHalf][K];
    for (unsigned r = 0; r < kHalf; ++r) {
      const std::uint64_t lo = row_mask(truth, 2 * r);
      const std::uint64_t hi = row_mask(truth, 2 * r + 1);
      for (std::size_t w = 0; w < K; ++w) {
        node[r][w] = (x[0][w] & hi) | (~x[0][w] & lo);
      }
    }
    for (unsigned i = 1; i < A; ++i) {
      for (unsigned r = 0; r < (kHalf >> i); ++r) {
        for (std::size_t w = 0; w < K; ++w) {
          node[r][w] =
              (x[i][w] & node[2 * r + 1][w]) | (~x[i][w] & node[2 * r][w]);
        }
      }
    }
    for (std::size_t w = 0; w < K; ++w) out[w] = node[0][w];
  }

  /// One sweep record, inputs read through `row`.
  template <class Row>
  static void gate(const FlatNetlistView::SweepGate& g, Row row,
                   std::uint64_t* out) {
    switch (g.arity) {  // 1-4 (the view checks)
      case 1:
        gate<1>(g.truth, g.in, row, out);
        break;
      case 2:
        gate<2>(g.truth, g.in, row, out);
        break;
      case 3:
        gate<3>(g.truth, g.in, row, out);
        break;
      default:
        gate<4>(g.truth, g.in, row, out);
        break;
    }
  }

  /// Settles every net of every lane: sources from `pi` / `ff` (K words
  /// per entity), then one topological pass.
  static void evaluate(const FlatNetlistView& view, const std::uint64_t* pi,
                       const std::uint64_t* ff, std::uint64_t* net) {
    const std::vector<std::uint32_t>& pi_nets = view.pi_nets();
    for (std::size_t p = 0; p < pi_nets.size(); ++p) {
      std::uint64_t* dst = net + std::size_t{pi_nets[p]} * K;
      for (std::size_t w = 0; w < K; ++w) dst[w] = pi[p * K + w];
    }
    const std::vector<std::uint32_t>& ff_q_nets = view.ff_q_nets();
    for (std::size_t f = 0; f < ff_q_nets.size(); ++f) {
      std::uint64_t* dst = net + std::size_t{ff_q_nets[f]} * K;
      for (std::size_t w = 0; w < K; ++w) dst[w] = ff[f * K + w];
    }
    for (std::uint32_t n : view.constant_nets()) {
      const std::uint64_t fill = view.source_index(n) != 0 ? ~0ull : 0ull;
      for (std::size_t w = 0; w < K; ++w) net[std::size_t{n} * K + w] = fill;
    }
    const auto row = [net](std::uint32_t n) {
      return net + std::size_t{n} * K;
    };
    for (const FlatNetlistView::SweepGate& g : view.sweep_gates()) {
      gate(g, row, net + std::size_t{g.out} * K);
    }
  }

  /// Writes `site` inverted and its cone re-evaluated into `overlay`,
  /// reading each input from `overlay` where `valid` is set (the nets
  /// written so far) and from `net` elsewhere, and sets `valid` on every
  /// net it writes.
  static void evaluate_with_flip(const FlatNetlistView& view,
                                 std::uint32_t site, const std::uint64_t* net,
                                 std::uint64_t* overlay, char* valid) {
    for (std::size_t w = 0; w < K; ++w) {
      overlay[std::size_t{site} * K + w] = ~net[std::size_t{site} * K + w];
    }
    valid[site] = 1;
    const auto row = [net, overlay, valid](std::uint32_t n) {
      return (valid[n] != 0 ? overlay : net) + std::size_t{n} * K;
    };
    const FlatNetlistView::SweepGate* gates = view.sweep_gates().data();
    for (std::uint32_t g : view.cone_of(NetId{site})) {
      const FlatNetlistView::SweepGate& r = gates[view.topo_position(g)];
      gate(r, row, overlay + std::size_t{r.out} * K);
      valid[r.out] = 1;
    }
  }
};

/// pack_stream_draws' body for K words per lane plane. Lane l starts from
/// Rng::stream(seed, streams[l])'s state, and all lanes step together in
/// structure-of-arrays form, so the 64 steps behind one lane word are
/// independent and vectorize. next_bool() is a clear top bit, so a lane
/// word is the complement of its lanes' top bits, masked to the lanes
/// that carry a stream. `Isa` is the including TU's tag (see
/// LaneKernelCore).
template <std::size_t K, class Isa>
void pack_stream_draws_body(std::uint64_t seed, const std::size_t* streams,
                            std::size_t count, std::size_t draws,
                            std::uint64_t* out) {
  constexpr std::size_t kLanes = K * 64;
  alignas(64) std::uint64_t s0[kLanes];
  alignas(64) std::uint64_t s1[kLanes];
  alignas(64) std::uint64_t s2[kLanes];
  alignas(64) std::uint64_t s3[kLanes];
  // Words past the last stream are never stepped; they read 0.
  const std::size_t words = (count + 63) / 64;
  std::uint64_t live[K] = {};
  for (std::size_t w = 0; w < words; ++w) {
    const std::size_t in_word = count - w * 64;
    live[w] = in_word >= 64 ? ~0ull : (1ull << in_word) - 1;
  }
  for (std::size_t l = 0; l < words * 64; ++l) {
    const Rng rng = Rng::stream(seed, l < count ? streams[l] : 0);
    s0[l] = rng.state()[0];
    s1[l] = rng.state()[1];
    s2[l] = rng.state()[2];
    s3[l] = rng.state()[3];
  }
  for (std::size_t d = 0; d < draws; ++d) {
    std::uint64_t* dst = out + d * K;
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t top = 0;
      for (std::size_t i = 0; i < 64; ++i) {
        const std::size_t l = w * 64 + i;
        top |= (Rng::step(s0[l], s1[l], s2[l], s3[l]) >> 63) << i;
      }
      dst[w] = ~top & live[w];
    }
    for (std::size_t w = words; w < K; ++w) dst[w] = 0;
  }
}

}  // namespace cwsp::sim
