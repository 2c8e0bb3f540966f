#pragma once
// Deterministic pseudo-random generator (xoshiro256**) used by the
// synthetic netlist generator and the fault-injection campaigns.
//
// A fixed, documented PRNG (rather than std::mt19937 with
// implementation-defined distributions) keeps every experiment bit-exact
// across platforms, which matters when EXPERIMENTS.md records numbers.

#include <array>
#include <cstdint>
#include <limits>

#include "common/error.hpp"

namespace cwsp {

class Rng {
 public:
  /// Seeds the four 64-bit lanes via SplitMix64 as recommended by the
  /// xoshiro authors.
  explicit Rng(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (auto& lane : state_) lane = split_mix(x);
  }

  /// Splittable sub-stream: the generator for a given (seed, stream_id)
  /// pair is a pure function of that pair — independent of how many other
  /// streams exist or in which order they are drawn. Campaign workers use
  /// one stream per strike index, which is what makes parallel campaigns
  /// produce results identical to single-threaded ones.
  [[nodiscard]] static Rng stream(std::uint64_t seed,
                                  std::uint64_t stream_id) {
    Rng r(0);
    std::uint64_t x = seed;
    // Decorrelate the stream chain from the seed chain with an arbitrary
    // odd constant so stream(s, 0) differs from Rng(s).
    std::uint64_t y = stream_id * 0x9e3779b97f4a7c15ULL +
                      0x2545f4914f6cdd1dULL;
    for (auto& lane : r.state_) lane = split_mix(x) ^ split_mix(y);
    return r;
  }

  /// The generator's four state words, in step()'s argument order.
  [[nodiscard]] const std::array<std::uint64_t, 4>& state() const {
    return state_;
  }

  /// One xoshiro256** step on state words (s0, s1, s2, s3): advances them
  /// and returns the output. next_u64() is this step on the generator's
  /// own state; the strike-lane stimulus bodies step 64 streams' states
  /// side by side with it (structure-of-arrays).
  static std::uint64_t step(std::uint64_t& s0, std::uint64_t& s1,
                            std::uint64_t& s2, std::uint64_t& s3) {
    const std::uint64_t result = rotl(s1 * 5, 7) * 9;
    const std::uint64_t t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = rotl(s3, 45);
    return result;
  }

  /// Uniform 64-bit value.
  std::uint64_t next_u64() {
    return step(state_[0], state_[1], state_[2], state_[3]);
  }

  /// Uniform in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) {
    CWSP_REQUIRE(bound > 0);
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform integer in the inclusive range [lo, hi].
  std::int64_t next_in_range(std::int64_t lo, std::int64_t hi) {
    CWSP_REQUIRE(lo <= hi);
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next_below(span));
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double next_double_in(double lo, double hi) {
    return lo + (hi - lo) * next_double();
  }

  /// Bernoulli trial with success probability p. At the default p = 0.5
  /// it is true exactly when next_u64()'s top bit is clear.
  bool next_bool(double p = 0.5) { return next_double() < p; }

 private:
  static std::uint64_t split_mix(std::uint64_t& x) {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  static std::uint64_t rotl(std::uint64_t v, int k) {
    return (v << k) | (v >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace cwsp
