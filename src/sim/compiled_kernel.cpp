#include "sim/compiled_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/metrics.hpp"
#include "sta/sta.hpp"

namespace cwsp::sim {

std::shared_ptr<const CompiledKernelContext> CompiledKernelContext::build(
    const Netlist& netlist) {
  auto context = std::make_shared<CompiledKernelContext>();
  context->view = FlatNetlistView::build(netlist);
  context->gate_delay_ps = std::make_shared<const std::vector<double>>(
      run_sta(netlist).gate_delay_ps);
  context->setup_ps = netlist.library().regular_ff().setup.value();
  context->hold_ps = netlist.library().regular_ff().hold.value();

  // Reverse topological pass: a gate's output bounds are final before
  // its inputs are relaxed through it.
  const FlatNetlistView& view = *context->view;
  const std::vector<double>& delays = *context->gate_delay_ps;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double>& lo = context->d_pin_min_ps;
  std::vector<double>& hi = context->d_pin_max_ps;
  lo.assign(view.num_nets(), kInf);
  hi.assign(view.num_nets(), -kInf);
  for (std::size_t f = 0; f < view.num_flip_flops(); ++f) {
    lo[view.ff_d_net(f)] = 0.0;
    hi[view.ff_d_net(f)] = 0.0;
  }
  const std::vector<std::uint32_t>& order = view.topo_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::uint32_t g = *it;
    const std::uint32_t out = view.gate_output(g);
    if (lo[out] == kInf) continue;  // no D pin downstream of this gate
    const double shortest = delays[g] + lo[out];
    const double longest = delays[g] + hi[out];
    const std::uint32_t* in = view.gate_inputs_begin(g);
    for (std::uint32_t i = 0; i < view.gate_num_inputs(g); ++i) {
      lo[in[i]] = std::min(lo[in[i]], shortest);
      hi[in[i]] = std::max(hi[in[i]], longest);
    }
  }
  metrics::Registry::global().counter("kernel.context_builds").add();
  return context;
}

bool CompiledKernelContext::capture_masked(const set::Strike& strike,
                                           Picoseconds capture_time) const {
  const double start = strike.start.value();
  const double width = strike.width.value();
  if (!strike.node.valid() || strike.node.index() >= d_pin_min_ps.size() ||
      !std::isfinite(start) || !std::isfinite(width) || width < 0.0) {
    return false;
  }
  const double shortest = d_pin_min_ps[strike.node.index()];
  if (shortest == std::numeric_limits<double>::infinity()) return true;
  // The aperture widened to contain T, so a masked D pin also samples its
  // golden value at T: every toggle before it leaves the final (golden)
  // value, every toggle after it the initial (golden) one.
  const double t = capture_time.value();
  const double early = std::min(t - setup_ps, t);
  const double late = std::max(t + hold_ps, t);
  return start + width + d_pin_max_ps[strike.node.index()] <
             early - kMaskMarginPs ||
         start + shortest > late + kMaskMarginPs;
}

CompiledEventSim::~CompiledEventSim() {
  auto& registry = metrics::Registry::global();
  if (cache_hits_ != 0 || cache_misses_ != 0) {
    registry.counter("kernel.golden_cache_hits").add(cache_hits_);
    registry.counter("kernel.golden_cache_misses").add(cache_misses_);
  }
  if (counts_.gates_blocked != 0 || counts_.gates_shifted != 0 ||
      counts_.gates_merged != 0) {
    registry.counter("kernel.resolve.gates_blocked").add(counts_.gates_blocked);
    registry.counter("kernel.resolve.gates_shifted").add(counts_.gates_shifted);
    registry.counter("kernel.resolve.gates_merged").add(counts_.gates_merged);
    registry.counter("kernel.resolve.pulses_filtered")
        .add(counts_.pulses_filtered);
  }
}

CompiledEventSim::CompiledEventSim(const Netlist& netlist)
    : CompiledEventSim(netlist, CompiledKernelContext::build(netlist)) {}

CompiledEventSim::CompiledEventSim(
    const Netlist& netlist,
    std::shared_ptr<const CompiledKernelContext> context)
    : context_(std::move(context)) {
  CWSP_REQUIRE(context_ != nullptr);
  CWSP_REQUIRE_MSG(&context_->view->netlist() == &netlist,
                   "compiled-kernel context built for a different netlist");
  const FlatNetlistView& view = *context_->view;
  const std::size_t nff = view.num_flip_flops();
  endpoint_first_.assign(view.num_nets(), kNone);
  endpoint_next_.assign(nff + view.po_nets().size(), kNone);
  // Pushed in descending order, so each chain lists its endpoints in
  // ascending order.
  for (std::size_t e = endpoint_next_.size(); e-- > 0;) {
    const std::uint32_t net =
        e < nff ? view.ff_d_net(e) : view.po_nets()[e - nff];
    endpoint_next_[e] = endpoint_first_[net];
    endpoint_first_[net] = static_cast<std::uint32_t>(e);
  }
  slot_of_.assign(view.num_nets(), kNone);
}

void CompiledEventSim::set_golden_cache_capacity(std::size_t entries) {
  golden_cache_capacity_ = entries;
  if (golden_cache_.size() > golden_cache_capacity_) golden_cache_.clear();
}

const GoldenCycle& CompiledEventSim::golden_cycle(
    const std::vector<bool>& pi_values,
    const std::vector<bool>& ff_q_values) const {
  const FlatNetlistView& view = *context_->view;
  CWSP_REQUIRE(pi_values.size() == view.num_primary_inputs());
  CWSP_REQUIRE(ff_q_values.size() == view.num_flip_flops());

  StimulusKey key;
  const std::size_t bits = pi_values.size() + ff_q_values.size();
  key.words.assign((bits + 63) / 64, 0);
  for (std::size_t i = 0; i < pi_values.size(); ++i) {
    if (pi_values[i]) key.words[i / 64] |= 1ull << (i % 64);
  }
  for (std::size_t j = 0; j < ff_q_values.size(); ++j) {
    const std::size_t bit = pi_values.size() + j;
    if (ff_q_values[j]) key.words[bit / 64] |= 1ull << (bit % 64);
  }

  const auto it = golden_cache_.find(key);
  if (it != golden_cache_.end()) {
    ++cache_hits_;
    return it->second;
  }
  ++cache_misses_;
  if (golden_cache_.size() >= golden_cache_capacity_) golden_cache_.clear();

  // Single table-driven logic pass over the flat arrays.
  GoldenCycle golden;
  golden.net_values.assign(view.num_nets(), 0);
  for (std::size_t p = 0; p < pi_values.size(); ++p) {
    golden.net_values[view.pi_nets()[p]] = pi_values[p] ? 1 : 0;
  }
  for (std::size_t f = 0; f < ff_q_values.size(); ++f) {
    golden.net_values[view.ff_q_nets()[f]] = ff_q_values[f] ? 1 : 0;
  }
  for (std::uint32_t n : view.constant_nets()) {
    golden.net_values[n] = static_cast<unsigned char>(view.source_index(n));
  }
  for (const FlatNetlistView::SweepGate& g : view.sweep_gates()) {
    unsigned bits_in = 0;
    for (std::uint32_t i = 0; i < g.arity; ++i) {
      if (golden.net_values[g.in[i]] != 0) bits_in |= 1u << i;
    }
    golden.net_values[g.out] = (g.truth >> bits_in) & 1u;
  }
  golden.ff_d.reserve(view.num_flip_flops());
  for (std::size_t f = 0; f < view.num_flip_flops(); ++f) {
    golden.ff_d.push_back(golden.net_values[view.ff_d_net(f)] != 0);
  }
  golden.po.reserve(view.po_nets().size());
  for (std::uint32_t po : view.po_nets()) {
    golden.po.push_back(golden.net_values[po] != 0);
  }
  return golden_cache_.emplace(std::move(key), std::move(golden))
      .first->second;
}

namespace {

/// Net n's golden bit in a GoldenCycle.
struct CycleBit {
  const unsigned char* values;
  bool operator()(std::uint32_t n) const { return values[n] != 0; }
};

/// Net n's golden bit in lane `shift` of lane word `word` of a settled
/// plane with `stride` words per net.
struct LaneBit {
  const std::uint64_t* plane;
  std::size_t stride;
  std::size_t word;
  unsigned shift;
  bool operator()(std::uint32_t n) const {
    return ((plane[n * stride + word] >> shift) & 1u) != 0;
  }
};

}  // namespace

template <class GoldenBit>
void CompiledEventSim::propagate_cone(GoldenBit golden_bit,
                                      const set::Strike& strike) const {
  const FlatNetlistView& view = *context_->view;
  const std::vector<double>& delays = *context_->gate_delay_ps;
  CWSP_REQUIRE(strike.node.valid() && strike.node.index() < view.num_nets());

  for (const Slot& slot : slots_) slot_of_[slot.net] = kNone;
  slots_.clear();
  // arena_[0, used) holds this resolution's toggles; the arena only grows.
  std::size_t used = 0;
  auto room_for = [&](std::size_t count) {
    if (arena_.size() < used + count) {
      arena_.resize(std::max(used + count, 2 * arena_.size()));
    }
    return arena_.data() + used;
  };
  auto add_slot = [&](std::uint32_t net, bool initial, std::size_t length) {
    slot_of_[net] = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(Slot{net, static_cast<std::uint32_t>(used),
                          static_cast<std::uint32_t>(length), initial});
    used += length;
  };

  // Seed the struck net: its golden constant inverted during the strike.
  // (The struck net's own driver can never sit inside the cone — that
  // would be a combinational cycle — so this is the only place the pulse
  // enters.) A zero-width strike toggles nothing.
  const std::uint32_t struck = strike.node.value();
  const double t0 = strike.start.value();
  const double t1 = t0 + strike.width.value();
  CWSP_REQUIRE(t0 <= t1);
  if (t0 != t1) {
    double* pulse = room_for(2);
    pulse[0] = t0;
    pulse[1] = t1;
    add_slot(struck, golden_bit(struck), 2);
  }

  // Every net without a slot holds its golden constant, and every slot
  // starts at its golden value (docs/perf.md §3), so a gate is decided by
  // its golden input bits and the toggles of its inputs that have slots.
  const CancelToken* const cancel = cancel_;
  const std::uint32_t* const slot_of = slot_of_.data();
  const std::vector<std::uint32_t>& cone = view.cone_of(strike.node);
  for (std::size_t k = 0; k < cone.size(); ++k) {
    if (cancel != nullptr && cancel->cancelled_at(k)) {
      throw CancelledError("event simulation cancelled");
    }
    const std::uint32_t g = cone[k];
    const std::uint32_t* in = view.gate_inputs_begin(g);
    const std::uint32_t arity = view.gate_num_inputs(g);
    unsigned live_bits = 0;
    std::uint32_t live_slot = kNone;
    for (std::uint32_t i = 0; i < arity; ++i) {
      const std::uint32_t slot = slot_of[in[i]];
      const bool live = slot != kNone;
      live_bits |= static_cast<unsigned>(live) << i;
      live_slot = live ? slot : live_slot;
    }
    if (live_bits == 0) continue;  // no input toggles: the output is golden
    // A live input's golden bit is its slot's initial value, so only the
    // side inputs read the golden cycle.
    unsigned golden_bits = 0;
    for (std::uint32_t i = 0; i < arity; ++i) {
      const std::uint32_t slot = slot_of[in[i]];
      const bool bit =
          slot != kNone ? slots_[slot].initial : golden_bit(in[i]);
      golden_bits |= static_cast<unsigned>(bit) << i;
    }

    const std::uint16_t truth = view.gate_truth(g);
    const bool initial = ((truth >> golden_bits) & 1u) != 0;
    const double delay = delays[g];
    double* out = nullptr;
    std::size_t emitted = 0;
    if ((live_bits & (live_bits - 1)) == 0) {
      // One toggling input, the side inputs at golden: the gate blocks it
      // or passes/inverts it. The output toggles one delay after each
      // instant holding an odd number of input toggles (an even number
      // leaves the input, and so the output, where it was).
      if (((truth >> (golden_bits | live_bits)) & 1u) ==
          ((truth >> (golden_bits & ~live_bits)) & 1u)) {
        ++counts_.gates_blocked;
        continue;
      }
      ++counts_.gates_shifted;
      const Slot src = slots_[live_slot];
      out = room_for(src.length);
      const double* t = arena_.data() + src.offset;
      for (std::uint32_t k = 0; k < src.length;) {
        std::uint32_t next = k + 1;
        while (next < src.length && t[next] == t[k]) ++next;
        if ((next - k) % 2 != 0) out[emitted++] = t[k] + delay;
        k = next;
      }
    } else {
      // Two or more toggling inputs: evaluate the gate at every distinct
      // input event time.
      ++counts_.gates_merged;
      times_.clear();
      for (std::uint32_t i = 0; i < arity; ++i) {
        if (((live_bits >> i) & 1u) != 0) {
          const auto t = toggles(slots_[slot_of[in[i]]]);
          times_.insert(times_.end(), t.begin(), t.end());
        }
      }
      std::sort(times_.begin(), times_.end());
      times_.erase(std::unique(times_.begin(), times_.end()), times_.end());
      out = room_for(times_.size());
      bool current = initial;
      for (double t : times_) {
        unsigned bits_in = golden_bits & ~live_bits;
        for (std::uint32_t i = 0; i < arity; ++i) {
          if (((live_bits >> i) & 1u) == 0) continue;
          const Slot& slot = slots_[slot_of[in[i]]];
          if (waveform::value_at(toggles(slot), slot.initial, t)) {
            bits_in |= 1u << i;
          }
        }
        const bool v = ((truth >> bits_in) & 1u) != 0;
        if (v != current) {
          out[emitted++] = t + delay;
          current = v;
        }
      }
    }
    const std::size_t kept = waveform::inertial_filter(
        {out, emitted}, view.gate_inertial_delay_ps(g));
    counts_.pulses_filtered += (emitted - kept) / 2;
    if (kept > 0) add_slot(view.gate_output(g), initial, kept);
  }
}

template <class Visit>
void CompiledEventSim::visit_reached(Picoseconds capture_time,
                                     Visit visit) const {
  const std::size_t nff = context_->view->num_flip_flops();
  const double t_capture = capture_time.value();
  const double setup = context_->setup_ps;
  const double hold = context_->hold_ps;
  for (const Slot& slot : slots_) {
    for (std::uint32_t e = endpoint_first_[slot.net]; e != kNone;
         e = endpoint_next_[e]) {
      ReachedEndpoint reached;
      reached.endpoint = e;
      reached.golden = slot.initial;
      reached.latched =
          waveform::value_at(toggles(slot), slot.initial, t_capture);
      reached.aperture =
          e < nff && waveform::has_transition_in(toggles(slot),
                                                 t_capture - setup,
                                                 t_capture + hold);
      visit(reached);
    }
  }
}

namespace {

/// Every endpoint at its golden sample: what a cycle captures where no
/// toggle reaches.
void sample_golden(const GoldenCycle& golden, CycleResult& out) {
  out.golden_d = golden.ff_d;
  out.latched_d = golden.ff_d;
  out.aperture_violation.assign(golden.ff_d.size(), false);
  out.golden_po = golden.po;
  out.struck_po = golden.po;
  out.glitch_reached_endpoint = false;
}

}  // namespace

CycleResult CompiledEventSim::simulate_cycle(
    const std::vector<bool>& pi_values, const std::vector<bool>& ff_q_values,
    Picoseconds capture_time, const std::optional<set::Strike>& strike) const {
  const GoldenCycle& golden = golden_cycle(pi_values, ff_q_values);

  if (!strike.has_value()) {
    // All sources are static, so the struck run degenerates to golden:
    // every waveform is constant, nothing toggles, nothing reaches an
    // endpoint.
    CycleResult result;
    sample_golden(golden, result);
    return result;
  }

  return resolve_strike(golden, capture_time, *strike);
}

CycleResult CompiledEventSim::resolve_strike(const GoldenCycle& golden,
                                             Picoseconds capture_time,
                                             const set::Strike& strike) const {
  CycleResult result;
  resolve_strike(golden, capture_time, strike, result);
  return result;
}

void CompiledEventSim::resolve_strike(const GoldenCycle& golden,
                                      Picoseconds capture_time,
                                      const set::Strike& strike,
                                      CycleResult& out) const {
  const FlatNetlistView& view = *context_->view;
  const std::size_t nff = view.num_flip_flops();
  CWSP_REQUIRE(golden.net_values.size() == view.num_nets() &&
               golden.ff_d.size() == nff &&
               golden.po.size() == view.po_nets().size());

  propagate_cone(CycleBit{golden.net_values.data()}, strike);

  // Endpoints on nets without a slot sample their golden constant.
  sample_golden(golden, out);
  visit_reached(capture_time, [&](const ReachedEndpoint& reached) {
    out.glitch_reached_endpoint = true;
    if (reached.endpoint < nff) {
      out.latched_d[reached.endpoint] = reached.latched;
      out.aperture_violation[reached.endpoint] = reached.aperture;
    } else {
      out.struck_po[reached.endpoint - nff] = reached.latched;
    }
  });
}

void CompiledEventSim::resolve_lane_strike(
    const std::uint64_t* plane, std::size_t words_per_net, std::size_t lane,
    Picoseconds capture_time, const set::Strike& strike,
    std::vector<ReachedEndpoint>& reached) const {
  CWSP_REQUIRE(plane != nullptr && lane < words_per_net * 64);
  propagate_cone(LaneBit{plane, words_per_net, lane / 64,
                         static_cast<unsigned>(lane % 64)},
                 strike);
  reached.clear();
  visit_reached(capture_time,
                [&](const ReachedEndpoint& r) { reached.push_back(r); });
}

DigitalWaveform CompiledEventSim::net_waveform(
    const std::vector<bool>& pi_values, const std::vector<bool>& ff_q_values,
    const std::optional<set::Strike>& strike, NetId net) const {
  const FlatNetlistView& view = *context_->view;
  CWSP_REQUIRE(net.valid() && net.index() < view.num_nets());
  const GoldenCycle& golden = golden_cycle(pi_values, ff_q_values);
  if (strike.has_value()) {
    propagate_cone(CycleBit{golden.net_values.data()}, *strike);
    if (slot_of_[net.index()] != kNone) {
      const Slot& slot = slots_[slot_of_[net.index()]];
      DigitalWaveform wave(slot.initial);
      wave.set_transitions({toggles(slot).begin(), toggles(slot).end()});
      return wave;
    }
  }
  return DigitalWaveform(golden.net_values[net.index()] != 0);
}

}  // namespace cwsp::sim
