// AVX-512F instantiation of the K=8 (512-lane) bodies: the sweeps and
// the stimulus (strike_lanes_impl.hpp). This TU is the only code compiled
// with -mavx512f, so the binary stays runnable on older CPUs: the
// dispatcher calls in here only after CPUID reports avx512f.
#include "sim/strike_lanes.hpp"
#include "sim/strike_lanes_impl.hpp"

namespace cwsp::sim::detail {

namespace {
struct Avx512 {};  // this TU's instantiation tag (see strike_lanes_impl.hpp)
using Core = LaneKernelCore<8, Avx512>;
}  // namespace

extern const LaneOps kAvx512Ops{"avx512-512", 8, &Core::evaluate,
                                &Core::evaluate_with_flip,
                                &pack_stream_draws_body<8, Avx512>};

}  // namespace cwsp::sim::detail
