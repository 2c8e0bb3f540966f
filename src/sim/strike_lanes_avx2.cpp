// AVX2 instantiation of the K=4 (256-lane) stimulus body (see
// strike_lanes_impl.hpp for why the sweeps stay on the baseline build).
// This TU is the only code compiled with -mavx2, so the binary stays
// runnable on older CPUs: the dispatcher calls in here only after CPUID
// reports avx2.
#include "sim/strike_lanes_impl.hpp"

namespace cwsp::sim::detail {

namespace {
struct Avx2 {};  // this TU's instantiation tag (see strike_lanes_impl.hpp)
}  // namespace

void pack_stream_draws_avx2(std::uint64_t seed, const std::size_t* streams,
                            std::size_t count, std::size_t draws,
                            std::uint64_t* out) {
  pack_stream_draws_body<4, Avx2>(seed, streams, count, draws, out);
}

}  // namespace cwsp::sim::detail
