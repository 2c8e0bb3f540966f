#include "sim/compiled_kernel.hpp"

#include <algorithm>

#include "common/metrics.hpp"
#include "sta/sta.hpp"

namespace cwsp::sim {

std::shared_ptr<const CompiledKernelContext> CompiledKernelContext::build(
    const Netlist& netlist) {
  auto context = std::make_shared<CompiledKernelContext>();
  context->view = FlatNetlistView::build(netlist);
  context->gate_delay_ps = std::make_shared<const std::vector<double>>(
      run_sta(netlist).gate_delay_ps);
  metrics::Registry::global().counter("kernel.context_builds").add();
  return context;
}

CompiledEventSim::~CompiledEventSim() {
  if (cache_hits_ == 0 && cache_misses_ == 0) return;
  auto& registry = metrics::Registry::global();
  registry.counter("kernel.golden_cache_hits").add(cache_hits_);
  registry.counter("kernel.golden_cache_misses").add(cache_misses_);
}

CompiledEventSim::CompiledEventSim(const Netlist& netlist)
    : context_(CompiledKernelContext::build(netlist)) {}

CompiledEventSim::CompiledEventSim(
    const Netlist& netlist,
    std::shared_ptr<const CompiledKernelContext> context)
    : context_(std::move(context)) {
  CWSP_REQUIRE(context_ != nullptr);
  CWSP_REQUIRE_MSG(&context_->view->netlist() == &netlist,
                   "compiled-kernel context built for a different netlist");
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
  for (std::size_t n = 0; n < view.num_nets(); ++n) {
    switch (view.source_kind(n)) {
      case FlatNetlistView::SourceKind::kPrimaryInput:
        golden.net_values[n] = pi_values[view.source_index(n)] ? 1 : 0;
        break;
      case FlatNetlistView::SourceKind::kFlipFlop:
        golden.net_values[n] = ff_q_values[view.source_index(n)] ? 1 : 0;
        break;
      case FlatNetlistView::SourceKind::kConstant:
        golden.net_values[n] = static_cast<unsigned char>(view.source_index(n));
        break;
      default:
        break;
    }
  }
  for (std::uint32_t g : view.topo_order()) {
    const std::uint32_t* in = view.gate_inputs_begin(g);
    const std::uint32_t arity = view.gate_num_inputs(g);
    unsigned bits_in = 0;
    for (std::uint32_t i = 0; i < arity; ++i) {
      if (golden.net_values[in[i]] != 0) bits_in |= 1u << i;
    }
    golden.net_values[view.gate_output(g)] =
        (view.gate_truth(g) >> bits_in) & 1u;
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

void CompiledEventSim::propagate_cone(const GoldenCycle& golden,
                                      const set::Strike& strike) const {
  const FlatNetlistView& view = *context_->view;
  const std::vector<double>& delays = *context_->gate_delay_ps;
  CWSP_REQUIRE(strike.node.valid() && strike.node.index() < view.num_nets());

  if (wave_.size() != view.num_nets()) {
    wave_.resize(view.num_nets());
    touched_.assign(view.num_nets(), 0);
    touched_list_.clear();
  }
  // Wipe the previous propagation lazily (keeps buffer capacity, and
  // leaves the scratch consistent even if the last run threw).
  for (std::uint32_t n : touched_list_) touched_[n] = 0;
  touched_list_.clear();

  auto touch = [&](std::uint32_t n) {
    touched_[n] = 1;
    touched_list_.push_back(n);
  };

  // Seed the struck net: its golden constant with the strike pulse
  // XOR-ed in. (The struck net's own driver can never sit inside the
  // cone — that would be a combinational cycle — so this is the only
  // place the pulse enters.)
  const std::uint32_t struck = strike.node.value();
  wave_[struck].reset(golden.net_values[struck] != 0);
  wave_[struck].xor_pulse(strike.start.value(),
                          strike.start.value() + strike.width.value());
  touch(struck);

  for (std::uint32_t g : view.cone_of(strike.node)) {
    if (cancel_ != nullptr && cancel_->cancelled()) {
      throw CancelledError("event simulation cancelled");
    }
    const std::uint32_t* in = view.gate_inputs_begin(g);
    const std::uint32_t arity = view.gate_num_inputs(g);
    const std::uint16_t truth = view.gate_truth(g);

    // Union of input event times (untouched inputs are golden constants
    // and contribute none).
    times_.clear();
    for (std::uint32_t i = 0; i < arity; ++i) {
      if (touched_[in[i]] != 0) {
        const auto& t = wave_[in[i]].transitions();
        times_.insert(times_.end(), t.begin(), t.end());
      }
    }
    std::sort(times_.begin(), times_.end());
    times_.erase(std::unique(times_.begin(), times_.end()), times_.end());

    auto input_bit_at = [&](std::uint32_t i, double t) {
      return touched_[in[i]] != 0 ? wave_[in[i]].value_at(t)
                                  : golden.net_values[in[i]] != 0;
    };

    unsigned init_bits = 0;
    for (std::uint32_t i = 0; i < arity; ++i) {
      const bool v = touched_[in[i]] != 0 ? wave_[in[i]].initial()
                                          : golden.net_values[in[i]] != 0;
      if (v) init_bits |= 1u << i;
    }

    const std::uint32_t out_net = view.gate_output(g);
    DigitalWaveform& out = wave_[out_net];
    out.reset(((truth >> init_bits) & 1u) != 0);
    const double delay = delays[g];
    bool current = out.initial();
    for (double t : times_) {
      unsigned bits_in = 0;
      for (std::uint32_t i = 0; i < arity; ++i) {
        if (input_bit_at(i, t)) bits_in |= 1u << i;
      }
      const bool v = ((truth >> bits_in) & 1u) != 0;
      if (v != current) {
        out.push_transition(t + delay);
        current = v;
      }
    }
    out.inertial_filter(view.gate_inertial_delay_ps(g));
    touch(out_net);
  }
}

CycleResult CompiledEventSim::simulate_cycle(
    const std::vector<bool>& pi_values, const std::vector<bool>& ff_q_values,
    Picoseconds capture_time, const std::optional<set::Strike>& strike) const {
  const FlatNetlistView& view = *context_->view;
  const GoldenCycle& golden = golden_cycle(pi_values, ff_q_values);

  if (!strike.has_value()) {
    // All sources are static, so the struck run degenerates to golden:
    // every waveform is constant, nothing toggles, nothing reaches an
    // endpoint.
    CycleResult result;
    result.golden_d = golden.ff_d;
    result.golden_po = golden.po;
    result.latched_d = golden.ff_d;
    result.aperture_violation.assign(view.num_flip_flops(), false);
    result.struck_po = golden.po;
    return result;
  }

  return resolve_strike(golden, capture_time, *strike);
}

CycleResult CompiledEventSim::resolve_strike(const GoldenCycle& golden,
                                             Picoseconds capture_time,
                                             const set::Strike& strike) const {
  const FlatNetlistView& view = *context_->view;
  CWSP_REQUIRE(golden.net_values.size() == view.num_nets());

  CycleResult result;
  result.golden_d = golden.ff_d;
  result.golden_po = golden.po;

  propagate_cone(golden, strike);

  const Netlist& nl = view.netlist();
  const double t_capture = capture_time.value();
  const double setup = nl.library().regular_ff().setup.value();
  const double hold = nl.library().regular_ff().hold.value();

  result.latched_d.reserve(view.num_flip_flops());
  result.aperture_violation.reserve(view.num_flip_flops());
  for (std::size_t f = 0; f < view.num_flip_flops(); ++f) {
    const std::uint32_t d = view.ff_d_net(f);
    if (touched_[d] != 0) {
      const DigitalWaveform& w = wave_[d];
      result.latched_d.push_back(w.value_at(t_capture));
      result.aperture_violation.push_back(
          w.has_transition_in(t_capture - setup, t_capture + hold));
      if (!w.is_constant()) result.glitch_reached_endpoint = true;
    } else {
      result.latched_d.push_back(golden.ff_d[f]);
      result.aperture_violation.push_back(false);
    }
  }
  result.struck_po.reserve(view.po_nets().size());
  for (std::size_t p = 0; p < view.po_nets().size(); ++p) {
    const std::uint32_t po = view.po_nets()[p];
    if (touched_[po] != 0) {
      result.struck_po.push_back(wave_[po].value_at(t_capture));
      if (!wave_[po].is_constant()) result.glitch_reached_endpoint = true;
    } else {
      result.struck_po.push_back(golden.po[p]);
    }
  }
  return result;
}

DigitalWaveform CompiledEventSim::net_waveform(
    const std::vector<bool>& pi_values, const std::vector<bool>& ff_q_values,
    const std::optional<set::Strike>& strike, NetId net) const {
  const FlatNetlistView& view = *context_->view;
  CWSP_REQUIRE(net.valid() && net.index() < view.num_nets());
  const GoldenCycle& golden = golden_cycle(pi_values, ff_q_values);
  if (strike.has_value()) {
    propagate_cone(golden, *strike);
    if (touched_[net.index()] != 0) return wave_[net.index()];
  }
  return DigitalWaveform(golden.net_values[net.index()] != 0);
}

}  // namespace cwsp::sim
