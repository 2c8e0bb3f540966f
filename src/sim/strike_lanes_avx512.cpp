// AVX-512F instantiation of the K=8 (512-lane) stimulus body (see
// strike_lanes_impl.hpp for why the sweeps stay on the baseline build).
// This TU is the only code compiled with -mavx512f, so the binary stays
// runnable on older CPUs: the dispatcher calls in here only after CPUID
// reports avx512f.
#include "sim/strike_lanes_impl.hpp"

namespace cwsp::sim::detail {

namespace {
struct Avx512 {};  // this TU's instantiation tag (see strike_lanes_impl.hpp)
}  // namespace

void pack_stream_draws_avx512(std::uint64_t seed, const std::size_t* streams,
                              std::size_t count, std::size_t draws,
                              std::uint64_t* out) {
  pack_stream_draws_body<8, Avx512>(seed, streams, count, draws, out);
}

}  // namespace cwsp::sim::detail
