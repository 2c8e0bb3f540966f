#pragma once
// Templated lane bodies, instantiated once per lane width K (words per
// net): the sweeps of WideLogicSim and the stimulus body behind
// pack_stream_draws. The code is plain word-parallel C++ — no
// intrinsics — so every instantiation shares one definition and
// identical scalar semantics at every width is structural, not something
// tests merely hope for.
//
// strike_lanes.cpp instantiates the sweeps for the baseline ISA, and
// every width sweeps on them. The -mavx2 / -mavx512f translation units
// instantiate only the stimulus body, whose 64 independent RNG steps per
// lane word vectorize cleanly. The sweeps do not: compiled with
// -mavx512f at -O3, GCC 12 scalarizes the K = 8 sum-of-products loop and
// runs the C7552 golden sweep about 2x slower than the baseline build.

#include "common/rng.hpp"
#include "netlist/flat_view.hpp"
#include "sim/strike_lanes.hpp"

namespace cwsp::sim {

template <std::size_t K>
struct LaneKernelCore {
  static void evaluate(WideLogicSim& s) {
    const FlatNetlistView& view = *s.view_;
    std::uint64_t* net = s.net_words_.data();
    const std::uint64_t* pi = s.pi_words_.data();
    const std::uint64_t* ff = s.ff_words_.data();

    for (std::size_t n = 0; n < view.num_nets(); ++n) {
      std::uint64_t* dst = net + n * K;
      switch (view.source_kind(n)) {
        case FlatNetlistView::SourceKind::kPrimaryInput: {
          const std::uint64_t* src = pi + view.source_index(n) * K;
          for (std::size_t w = 0; w < K; ++w) dst[w] = src[w];
          break;
        }
        case FlatNetlistView::SourceKind::kFlipFlop: {
          const std::uint64_t* src = ff + view.source_index(n) * K;
          for (std::size_t w = 0; w < K; ++w) dst[w] = src[w];
          break;
        }
        case FlatNetlistView::SourceKind::kConstant: {
          const std::uint64_t fill = view.source_index(n) != 0 ? ~0ull : 0ull;
          for (std::size_t w = 0; w < K; ++w) dst[w] = fill;
          break;
        }
        default:
          break;
      }
    }
    for (std::uint32_t g : view.topo_order()) {
      const std::uint32_t* in = view.gate_inputs_begin(g);
      const std::uint32_t arity = view.gate_num_inputs(g);
      const std::uint16_t truth = view.gate_truth(g);
      // Sum-of-products over the truth table, lane-parallel per word.
      std::uint64_t out[K] = {};
      const unsigned combos = 1u << arity;
      for (unsigned a = 0; a < combos; ++a) {
        if (((truth >> a) & 1u) == 0) continue;
        std::uint64_t term[K];
        for (std::size_t w = 0; w < K; ++w) term[w] = ~0ull;
        for (std::uint32_t i = 0; i < arity; ++i) {
          const std::uint64_t* iw = net + in[i] * K;
          if (((a >> i) & 1u) != 0) {
            for (std::size_t w = 0; w < K; ++w) term[w] &= iw[w];
          } else {
            for (std::size_t w = 0; w < K; ++w) term[w] &= ~iw[w];
          }
        }
        for (std::size_t w = 0; w < K; ++w) out[w] |= term[w];
      }
      std::uint64_t* dst = net + view.gate_output(g) * K;
      for (std::size_t w = 0; w < K; ++w) dst[w] = out[w];
    }
    for (std::uint32_t n : s.overlay_nets_) s.overlay_valid_[n] = 0;
    s.overlay_nets_.clear();
  }

  static void evaluate_with_flip(WideLogicSim& s, std::uint32_t site) {
    const FlatNetlistView& view = *s.view_;
    const std::uint64_t* net = s.net_words_.data();
    if (s.overlay_words_.size() != s.net_words_.size()) {
      s.overlay_words_.assign(s.net_words_.size(), 0);
      s.overlay_valid_.assign(view.num_nets(), 0);
    }
    std::uint64_t* overlay = s.overlay_words_.data();
    for (std::uint32_t n : s.overlay_nets_) s.overlay_valid_[n] = 0;
    s.overlay_nets_.clear();

    for (std::size_t w = 0; w < K; ++w) {
      overlay[site * K + w] = ~net[site * K + w];
    }
    s.overlay_valid_[site] = 1;
    s.overlay_nets_.push_back(site);

    for (std::uint32_t g : view.cone_of(NetId{site})) {
      const std::uint32_t* in = view.gate_inputs_begin(g);
      const std::uint32_t arity = view.gate_num_inputs(g);
      const std::uint16_t truth = view.gate_truth(g);
      std::uint64_t out[K] = {};
      const unsigned combos = 1u << arity;
      for (unsigned a = 0; a < combos; ++a) {
        if (((truth >> a) & 1u) == 0) continue;
        std::uint64_t term[K];
        for (std::size_t w = 0; w < K; ++w) term[w] = ~0ull;
        for (std::uint32_t i = 0; i < arity; ++i) {
          const std::uint32_t n = in[i];
          const std::uint64_t* iw =
              (s.overlay_valid_[n] != 0 ? overlay : net) + n * K;
          if (((a >> i) & 1u) != 0) {
            for (std::size_t w = 0; w < K; ++w) term[w] &= iw[w];
          } else {
            for (std::size_t w = 0; w < K; ++w) term[w] &= ~iw[w];
          }
        }
        for (std::size_t w = 0; w < K; ++w) out[w] |= term[w];
      }
      const std::uint32_t out_net = view.gate_output(g);
      for (std::size_t w = 0; w < K; ++w) overlay[out_net * K + w] = out[w];
      s.overlay_valid_[out_net] = 1;
      s.overlay_nets_.push_back(out_net);
    }
  }
};

/// pack_stream_draws' body for K words per lane plane. Lane l starts from
/// Rng::stream(seed, streams[l])'s state, and all lanes step together in
/// structure-of-arrays form, so the 64 steps behind one lane word are
/// independent and vectorize. next_bool() is a clear top bit, so a lane
/// word is the complement of its lanes' top bits, masked to the lanes
/// that carry a stream.
///
/// `Isa` is a tag type each including TU declares in an unnamed
/// namespace. It gives that TU's instantiations internal linkage:
/// without it, an -mavx512f instantiation and the baseline one of the
/// same K are one symbol to the linker, which keeps either copy for both.
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
