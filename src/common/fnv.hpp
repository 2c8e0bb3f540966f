#pragma once
// 64-bit FNV-1a, the one digest behind every cache key, fingerprint and
// plan checksum in the project. Digests are persisted (campaign and fabric
// journals) and compared across processes (fabric shard checks), so the
// arithmetic here is a format: changing it orphans every stored identity.

#include <cstdint>
#include <string_view>

namespace cwsp::fnv {

inline constexpr std::uint64_t kOffsetBasis = 1469598103934665603ULL;
inline constexpr std::uint64_t kPrime = 1099511628211ULL;

/// Mixes the eight bytes of `v`, least significant first.
inline void mix(std::uint64_t& h, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (8 * byte)) & 0xffULL;
    h *= kPrime;
  }
}

/// Mixes every byte of `bytes`, in order (no length prefix).
inline void mix_bytes(std::uint64_t& h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kPrime;
  }
}

}  // namespace cwsp::fnv
