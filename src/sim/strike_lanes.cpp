#include "sim/strike_lanes.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/metrics.hpp"
#include "sim/strike_lanes_impl.hpp"

namespace cwsp::sim {
namespace detail {
// Defined in strike_lanes_avx2.cpp / strike_lanes_avx512.cpp when the
// compiler supports the matching flags (CMake gates the sources and the
// CWSP_LANES_HAVE_* defines together, so the guarded references below
// never dangle).
extern const LaneOps kAvx2Ops;
extern const LaneOps kAvx512Ops;
}  // namespace detail

namespace {

bool cpu_has_avx2() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool cpu_has_avx512f() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx512f") != 0;
#else
  return false;
#endif
}

// Portable bodies — always compiled, so every width runs on every
// machine. The ISA units instantiate the same bodies (sweeps and
// stimulus) under -mavx2 / -mavx512f; the results are bit-identical.
struct Portable {};  // this TU's instantiation tag (see strike_lanes_impl.hpp)

template <std::size_t K>
constexpr LaneOps portable_ops(const char* name) {
  return LaneOps{name, K, &LaneKernelCore<K, Portable>::evaluate,
                 &LaneKernelCore<K, Portable>::evaluate_with_flip,
                 &pack_stream_draws_body<K, Portable>};
}

constexpr LaneOps kScalar64 = portable_ops<1>("scalar-64");
constexpr LaneOps kPortable256 = portable_ops<4>("portable-256");
constexpr LaneOps kPortable512 = portable_ops<8>("portable-512");

const LaneOps* resolve_ops(std::size_t lane_width) {
  if (lane_width == 0) {
#if defined(CWSP_LANES_HAVE_AVX512)
    if (cpu_has_avx512f()) return &detail::kAvx512Ops;
#endif
#if defined(CWSP_LANES_HAVE_AVX2)
    if (cpu_has_avx2()) return &detail::kAvx2Ops;
#endif
    return &kScalar64;
  }
  switch (lane_width) {
    case 64:
      return &kScalar64;
    case 256:
#if defined(CWSP_LANES_HAVE_AVX2)
      if (cpu_has_avx2()) return &detail::kAvx2Ops;
#endif
      return &kPortable256;
    case 512:
#if defined(CWSP_LANES_HAVE_AVX512)
      if (cpu_has_avx512f()) return &detail::kAvx512Ops;
#endif
      return &kPortable512;
    default:
      break;
  }
  CWSP_REQUIRE_MSG(false, "unsupported lane width " << lane_width
                                                    << " (supported: 64, "
                                                       "256, 512)");
  return &kScalar64;  // unreachable
}

}  // namespace

void pack_stream_draws(std::size_t lane_width, std::uint64_t seed,
                       const std::vector<std::size_t>& streams,
                       std::size_t draws, std::uint64_t* out) {
  const LaneOps* ops = resolve_ops(lane_width);
  CWSP_REQUIRE(ops->words * 64 == lane_width &&
               streams.size() <= lane_width);
  ops->pack_stream_draws(seed, streams.data(), streams.size(), draws, out);
}

// ------------------------------------------------------------------
// WideLogicSim

WideLogicSim::WideLogicSim(std::shared_ptr<const FlatNetlistView> view,
                           std::size_t lane_width)
    : view_(std::move(view)), ops_(resolve_ops(lane_width)) {
  CWSP_REQUIRE(view_ != nullptr);
  words_ = ops_->words;
  net_words_.assign(view_->num_nets() * words_, 0);
  pi_words_.assign(view_->num_primary_inputs() * words_, 0);
  ff_words_.assign(view_->num_flip_flops() * words_, 0);
  // Self-describing benchmark artifacts: record the width actually
  // dispatched. Observability only — never read back by any report.
  metrics::Registry::global()
      .gauge("sim.kernel.width")
      .set(static_cast<std::int64_t>(lanes()));
}

const std::vector<std::size_t>& WideLogicSim::supported_lane_widths() {
  static const std::vector<std::size_t> kWidths{64, 256, 512};
  return kWidths;
}

LaneIsa WideLogicSim::dispatched_isa() {
  const LaneOps* ops = resolve_ops(0);
  return LaneIsa{ops->words * 64, ops->name};
}

LaneIsa WideLogicSim::isa_for(std::size_t lane_width) {
  const LaneOps* ops = resolve_ops(lane_width);
  return LaneIsa{ops->words * 64, ops->name};
}

std::vector<std::size_t> WideLogicSim::accelerated_lane_widths() {
  std::vector<std::size_t> out;
#if defined(CWSP_LANES_HAVE_AVX2)
  if (cpu_has_avx2()) out.push_back(256);
#endif
#if defined(CWSP_LANES_HAVE_AVX512)
  if (cpu_has_avx512f()) out.push_back(512);
#endif
  return out;
}

void WideLogicSim::set_input_lane(std::size_t pi, std::size_t lane,
                                  bool value) {
  CWSP_REQUIRE(pi < view_->num_primary_inputs() && lane < lanes());
  std::uint64_t& w = pi_words_[pi * words_ + lane / 64];
  if (value) {
    w |= 1ull << (lane % 64);
  } else {
    w &= ~(1ull << (lane % 64));
  }
}

void WideLogicSim::set_ff_lane(std::size_t ff, std::size_t lane, bool value) {
  CWSP_REQUIRE(ff < view_->num_flip_flops() && lane < lanes());
  std::uint64_t& w = ff_words_[ff * words_ + lane / 64];
  if (value) {
    w |= 1ull << (lane % 64);
  } else {
    w &= ~(1ull << (lane % 64));
  }
}

void WideLogicSim::set_input_word(std::size_t pi, std::size_t w,
                                  std::uint64_t bits) {
  CWSP_REQUIRE(pi < view_->num_primary_inputs() && w < words_);
  pi_words_[pi * words_ + w] = bits;
}

void WideLogicSim::set_ff_word(std::size_t ff, std::size_t w,
                               std::uint64_t bits) {
  CWSP_REQUIRE(ff < view_->num_flip_flops() && w < words_);
  ff_words_[ff * words_ + w] = bits;
}

void WideLogicSim::set_input_words(const std::uint64_t* words) {
  std::copy(words, words + pi_words_.size(), pi_words_.begin());
}

void WideLogicSim::fill_ff(std::size_t ff, bool value) {
  CWSP_REQUIRE(ff < view_->num_flip_flops());
  const std::uint64_t fill = value ? ~0ull : 0ull;
  for (std::size_t w = 0; w < words_; ++w) {
    ff_words_[ff * words_ + w] = fill;
  }
}

void WideLogicSim::evaluate() {
  clear_overlay();
  ops_->evaluate(*view_, pi_words_.data(), ff_words_.data(),
                 net_words_.data());
}

void WideLogicSim::clear_overlay() {
  if (overlay_site_ == kNoSite) return;
  overlay_valid_[overlay_site_] = 0;
  for (std::uint32_t g : view_->cone_of(NetId{overlay_site_})) {
    overlay_valid_[view_->gate_output(g)] = 0;
  }
  overlay_site_ = kNoSite;
}

void WideLogicSim::evaluate_with_flip(NetId site) {
  CWSP_REQUIRE(site.valid() && site.index() < view_->num_nets());
  if (overlay_words_.size() != net_words_.size()) {
    overlay_words_.assign(net_words_.size(), 0);
    overlay_valid_.assign(view_->num_nets(), 0);
  }
  clear_overlay();
  overlay_site_ = static_cast<std::uint32_t>(site.index());
  ops_->evaluate_with_flip(*view_, overlay_site_, net_words_.data(),
                           overlay_words_.data(), overlay_valid_.data());
}

void WideLogicSim::clock() {
  for (std::size_t f = 0; f < view_->num_flip_flops(); ++f) {
    const std::uint64_t* d = net_words_.data() + view_->ff_d_net(f) * words_;
    std::uint64_t* q = ff_words_.data() + f * words_;
    for (std::size_t w = 0; w < words_; ++w) q[w] = d[w];
  }
}

std::uint64_t WideLogicSim::flip_diff_word(NetId net, std::size_t w) const {
  CWSP_REQUIRE(net.valid() && net.index() < view_->num_nets() && w < words_);
  const std::size_t n = net.index();
  if (overlay_valid_.empty() || overlay_valid_[n] == 0) return 0;
  return overlay_words_[n * words_ + w] ^ net_words_[n * words_ + w];
}

std::uint64_t WideLogicSim::value_word(NetId net, std::size_t w) const {
  CWSP_REQUIRE(net.valid() && net.index() < view_->num_nets() && w < words_);
  return net_words_[net.index() * words_ + w];
}

bool WideLogicSim::value(NetId net, std::size_t lane) const {
  CWSP_REQUIRE(lane < lanes());
  return ((value_word(net, lane / 64) >> (lane % 64)) & 1u) != 0;
}

std::uint64_t WideLogicSim::ff_word(std::size_t ff, std::size_t w) const {
  CWSP_REQUIRE(ff < view_->num_flip_flops() && w < words_);
  return ff_words_[ff * words_ + w];
}

// ------------------------------------------------------------------
// StrikeLaneSim

StrikeLaneSim::StrikeLaneSim(
    std::shared_ptr<const CompiledKernelContext> context,
    Picoseconds clock_period, Picoseconds delta, std::size_t lane_width)
    : context_(std::move(context)),
      clock_period_(clock_period),
      delta_(delta),
      golden_(context_ != nullptr ? context_->view : nullptr, lane_width),
      faulty_(context_->view, lane_width),
      event_(context_->view->netlist(), context_) {
  CWSP_REQUIRE(context_ != nullptr);
}

void StrikeLaneSim::run_batch(const std::vector<LaneScenario>& batch,
                              std::vector<LaneOutcome>& out) {
  const std::size_t npi = context_->view->num_primary_inputs();
  const std::size_t words = golden_.words_per_net();
  const std::size_t B = batch.size();
  std::size_t T = 0;
  for (std::size_t l = 0; l < B; ++l) {
    const std::vector<std::vector<bool>>* inputs = batch[l].inputs;
    CWSP_REQUIRE_MSG(inputs != nullptr,
                     "lane scenario " << l << " has no stimulus");
    if (l == 0) T = inputs->size();
    CWSP_REQUIRE_MSG(inputs->size() == T,
                     "every scenario of a lane batch needs the same run "
                     "length");
    for (const std::vector<bool>& row : *inputs) {
      CWSP_REQUIRE_MSG(row.size() == npi,
                       "lane scenario " << l << " has a stimulus row of "
                                        << row.size() << " bits for " << npi
                                        << " primary inputs");
    }
  }

  stimulus_.resize(T * npi * words);
  std::uint64_t* word = stimulus_.data();
  for (std::size_t t = 0; t < T; ++t) {
    for (std::size_t p = 0; p < npi; ++p) {
      for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t bits = 0;
        const std::size_t hi = std::min<std::size_t>(B, (w + 1) * 64);
        for (std::size_t l = w * 64; l < hi; ++l) {
          if ((*batch[l].inputs)[t][p]) bits |= 1ull << (l % 64);
        }
        *word++ = bits;
      }
    }
  }
  run_packed(batch, T, stimulus_, out);
}

void StrikeLaneSim::run_packed(const std::vector<LaneScenario>& batch,
                               std::size_t cycles,
                               const std::vector<std::uint64_t>& stimulus,
                               std::vector<LaneOutcome>& out) {
  // Chaos: an injected batch failure must degrade the campaign's lane
  // path to its scalar fallback without changing the report.
  CWSP_FAILPOINT("sim.lane.run_batch");
  const FlatNetlistView& view = *context_->view;
  const std::size_t B = batch.size();
  out.assign(B, LaneOutcome{});
  if (B == 0) return;
  CWSP_REQUIRE_MSG(B <= lanes(), "batch of " << B << " scenarios exceeds "
                                             << lanes() << " lanes");
  const std::size_t nff = view.num_flip_flops();
  const std::size_t words = golden_.words_per_net();
  const std::size_t cycle_words = view.num_primary_inputs() * words;
  CWSP_REQUIRE_MSG(stimulus.size() == cycles * cycle_words,
                   "packed stimulus of " << stimulus.size() << " words for "
                                         << cycles << " cycles of "
                                         << cycle_words << " words");

  ++batches_;
  lanes_filled_ += B;
  lane_slots_ += lanes();

  // A half the capture aperture masks latches golden everywhere
  // (CompiledKernelContext::capture_masked), so it is neither resolved
  // nor given a cone.
  const auto live = [&](const set::Strike& half) {
    return !context_->capture_masked(half, clock_period_);
  };
  const auto second_half = [](const LaneScenario& sc) {
    return set::Strike{sc.node2, sc.strike.start, sc.strike.width};
  };

  // Build the batch's cold cones back to back, before the planes' sweeps
  // evict the view from cache; resolution then only looks them up.
  for (const LaneScenario& sc : batch) {
    if (sc.cycle >= cycles) continue;
    if (live(sc.strike)) (void)view.cone_of(sc.strike.node);
    if (sc.node2.valid() && live(second_half(sc))) {
      (void)view.cone_of(sc.node2);
    }
  }

  // Reset both planes to the all-zero state (ProtectionSim's reset).
  for (std::size_t f = 0; f < nff; ++f) golden_.fill_ff(f, false);
  bool divergent = false;

  // Lanes whose capture escaped the envelope this cycle: the faulty
  // plane picks up their corrupted latch at the clock edge below.
  struct PendingDivergence {
    std::size_t lane = 0;
    std::vector<std::pair<std::size_t, bool>> flipped_ffs;
  };
  std::vector<PendingDivergence> pending;
  std::vector<std::size_t> diverged_lanes;
  // The golden plane's words, net-major: what resolution reads in place.
  const std::uint64_t* plane = golden_.net_words(0);

  for (std::size_t t = 0; t < cycles; ++t) {
    const std::uint64_t* cycle_stimulus = stimulus.data() + t * cycle_words;
    golden_.set_input_words(cycle_stimulus);
    if (divergent) faulty_.set_input_words(cycle_stimulus);
    golden_.evaluate();

    // Timed resolution for lanes striking this cycle, read straight from
    // the settled golden plane: latching-window and aperture questions
    // are decided in continuous time exactly as the scalar kernel decides
    // them, and only the endpoints a pulse reached come back.
    for (std::size_t l = 0; l < B; ++l) {
      if (batch[l].cycle != t) continue;
      out[l].fired = true;

      // A charge-sharing double strike resolves each node's SET against
      // the same settled cycle and superposes them: an FF that one half
      // flips latches the complement of golden, an FF both halves flip
      // re-latches golden (symmetric difference), and aperture
      // violations accumulate.
      PendingDivergence div;
      div.lane = l;
      const set::Strike halves[] = {batch[l].strike, second_half(batch[l])};
      for (std::size_t h = 0; h < (batch[l].node2.valid() ? 2u : 1u); ++h) {
        if (!live(halves[h])) continue;
        ++timed_resolutions_;
        event_.resolve_lane_strike(plane, words, l, clock_period_, halves[h],
                                   reached_);
        for (const ReachedEndpoint& r : reached_) {
          if (r.endpoint >= nff) continue;  // a primary output
          if (r.aperture) out[l].aperture = true;
          if (r.latched == r.golden) continue;
          // An FF appears once per half, so only the second half can
          // find one already flipped.
          const auto both =
              h == 0 ? div.flipped_ffs.end()
                     : std::find_if(div.flipped_ffs.begin(),
                                    div.flipped_ffs.end(),
                                    [&](const auto& flip) {
                                      return flip.first == r.endpoint;
                                    });
          if (both != div.flipped_ffs.end()) {
            div.flipped_ffs.erase(both);
          } else {
            div.flipped_ffs.emplace_back(r.endpoint, r.latched);
          }
        }
      }
      out[l].latched_diff = !div.flipped_ffs.empty();
      // Only a non-squashed capture beyond the CWSP envelope survives
      // into the architecture's state (width <= δ is repaired by the
      // check word; a squashed cycle discards its capture entirely).
      if (out[l].latched_diff && !batch[l].squash_at_strike &&
          batch[l].strike.width > delta_) {
        pending.push_back(std::move(div));
      }
    }

    // Silent-corruption accounting: one count per committed cycle whose
    // outputs differ from golden, for every already-diverged lane.
    if (divergent) {
      faulty_.evaluate();
      for (std::size_t l : diverged_lanes) {
        const std::size_t wl = l / 64;
        const std::uint64_t bit = 1ull << (l % 64);
        for (std::uint32_t po : view.po_nets()) {
          const std::uint64_t diff =
              golden_.net_words(po)[wl] ^ faulty_.net_words(po)[wl];
          if ((diff & bit) != 0) {
            ++out[l].silent_corruptions;
            break;
          }
        }
      }
    }

    golden_.clock();
    if (divergent) faulty_.clock();

    if (!pending.empty()) {
      if (!divergent) {
        // First divergence of the batch: fork the faulty plane from the
        // (post-clock) golden state; every still-clean lane keeps
        // tracking golden exactly, so its diff words stay zero.
        for (std::size_t f = 0; f < nff; ++f) {
          for (std::size_t w = 0; w < words; ++w) {
            faulty_.set_ff_word(f, w, golden_.ff_word(f, w));
          }
        }
        divergent = true;
      }
      for (const PendingDivergence& div : pending) {
        for (const auto& [f, v] : div.flipped_ffs) {
          faulty_.set_ff_lane(f, div.lane, v);
        }
        diverged_lanes.push_back(div.lane);
      }
      pending.clear();
    }
  }
}

}  // namespace cwsp::sim
