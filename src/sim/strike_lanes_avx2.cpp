// AVX2 instantiation of the K=4 (256-lane) bodies: the sweeps and the
// stimulus (strike_lanes_impl.hpp). This TU is the only code compiled
// with -mavx2, so the binary stays runnable on older CPUs: the
// dispatcher calls in here only after CPUID reports avx2.
#include "sim/strike_lanes.hpp"
#include "sim/strike_lanes_impl.hpp"

namespace cwsp::sim::detail {

namespace {
struct Avx2 {};  // this TU's instantiation tag (see strike_lanes_impl.hpp)
using Core = LaneKernelCore<4, Avx2>;
}  // namespace

extern const LaneOps kAvx2Ops{"avx2-256", 4, &Core::evaluate,
                              &Core::evaluate_with_flip,
                              &pack_stream_draws_body<4, Avx2>};

}  // namespace cwsp::sim::detail
