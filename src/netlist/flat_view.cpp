#include "netlist/flat_view.hpp"

#include <algorithm>
#include <bit>
#include <limits>

namespace cwsp {

FlatNetlistView::FlatNetlistView(const Netlist& netlist)
    : netlist_(&netlist), cones_(netlist.num_nets()) {
  const std::size_t num_nets = netlist.num_nets();
  const std::size_t num_gates = netlist.num_gates();
  num_pis_ = netlist.primary_inputs().size();

  // ---- gate CSR + cell data -----------------------------------------
  gate_input_offsets_.reserve(num_gates + 1);
  gate_input_offsets_.push_back(0);
  gate_truth_.reserve(num_gates);
  gate_output_.reserve(num_gates);
  gate_inertial_ps_.reserve(num_gates);
  for (std::size_t g = 0; g < num_gates; ++g) {
    const Gate& gate = netlist.gate(GateId{g});
    for (NetId in : gate.inputs) {
      gate_input_nets_.push_back(in.value());
    }
    gate_input_offsets_.push_back(
        static_cast<std::uint32_t>(gate_input_nets_.size()));
    const Cell& cell = netlist.cell_of(GateId{g});
    gate_truth_.push_back(cell.truth_table());
    gate_output_.push_back(gate.output.value());
    gate_inertial_ps_.push_back(cell.inertial_delay().value());
  }

  // ---- net source descriptors + fanout CSR --------------------------
  source_kind_.resize(num_nets, SourceKind::kNone);
  source_index_.resize(num_nets, 0);
  pi_nets_.resize(num_pis_, 0);
  ff_q_nets_.resize(netlist.num_flip_flops(), 0);
  net_fanout_offsets_.reserve(num_nets + 1);
  net_fanout_offsets_.push_back(0);
  for (std::size_t n = 0; n < num_nets; ++n) {
    const Net& net = netlist.net(NetId{n});
    switch (net.driver_kind) {
      case DriverKind::kPrimaryInput:
        source_kind_[n] = SourceKind::kPrimaryInput;
        source_index_[n] = net.driver_index;
        pi_nets_[net.driver_index] = static_cast<std::uint32_t>(n);
        break;
      case DriverKind::kFlipFlop:
        source_kind_[n] = SourceKind::kFlipFlop;
        source_index_[n] = net.driver_index;
        ff_q_nets_[net.driver_index] = static_cast<std::uint32_t>(n);
        break;
      case DriverKind::kConstant:
        source_kind_[n] = SourceKind::kConstant;
        source_index_[n] = net.constant_value ? 1 : 0;
        constant_nets_.push_back(static_cast<std::uint32_t>(n));
        break;
      case DriverKind::kGate:
        source_kind_[n] = SourceKind::kGate;
        source_index_[n] = net.driver_index;
        break;
      case DriverKind::kNone:
        break;
    }
    for (GateId fan : net.fanout_gates) {
      net_fanout_gates_.push_back(fan.value());
    }
    net_fanout_offsets_.push_back(
        static_cast<std::uint32_t>(net_fanout_gates_.size()));
  }

  // ---- topological order, positions and levels ----------------------
  const std::vector<GateId>& order = netlist.topological_order();
  topo_order_.reserve(num_gates);
  topo_position_.resize(num_gates, 0);
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    topo_order_.push_back(order[pos].value());
    topo_position_[order[pos].index()] = static_cast<std::uint32_t>(pos);
  }
  fanout_pos_offsets_.reserve(num_gates + 1);
  fanout_pos_offsets_.push_back(0);
  for (std::uint32_t g : topo_order_) {
    const std::uint32_t* fan = net_fanout_begin(gate_output_[g]);
    const std::uint32_t count = net_fanout_size(gate_output_[g]);
    for (std::uint32_t i = 0; i < count; ++i) {
      fanout_pos_.push_back(topo_position_[fan[i]]);
    }
    fanout_pos_offsets_.push_back(
        static_cast<std::uint32_t>(fanout_pos_.size()));
  }
  sweep_gates_.reserve(num_gates);
  for (std::uint32_t g : topo_order_) {
    SweepGate& gate = sweep_gates_.emplace_back();
    gate.out = gate_output_[g];
    gate.truth = gate_truth_[g];
    gate.arity = static_cast<std::uint8_t>(gate_num_inputs(g));
    CWSP_REQUIRE(gate.arity >= 1 && gate.arity <= 4);  // Cell checks it too
    std::copy_n(gate_inputs_begin(g), gate.arity, gate.in);
  }
  level_.resize(num_gates, 0);
  for (std::uint32_t g : topo_order_) {
    std::uint32_t lvl = 0;
    const std::uint32_t* in = gate_inputs_begin(g);
    const std::uint32_t arity = gate_num_inputs(g);
    for (std::uint32_t i = 0; i < arity; ++i) {
      if (source_kind_[in[i]] == SourceKind::kGate) {
        lvl = std::max(lvl, level_[source_index_[in[i]]] + 1);
      }
    }
    level_[g] = lvl;
    num_levels_ = std::max(num_levels_, lvl + 1);
  }

  // ---- endpoints ----------------------------------------------------
  ff_d_net_.reserve(netlist.num_flip_flops());
  for (std::size_t f = 0; f < netlist.num_flip_flops(); ++f) {
    ff_d_net_.push_back(netlist.flip_flop(FlipFlopId{f}).d.value());
  }
  po_nets_.reserve(netlist.primary_outputs().size());
  for (NetId po : netlist.primary_outputs()) {
    po_nets_.push_back(po.value());
  }
}

FlatNetlistView::~FlatNetlistView() {
  for (const auto& cone : cones_) delete cone.load(std::memory_order_acquire);
}

const std::vector<std::uint32_t>& FlatNetlistView::cone_of(NetId net) const {
  CWSP_REQUIRE(net.valid() && net.index() < num_nets());
  std::atomic<const std::vector<std::uint32_t>*>& slot = cones_[net.index()];
  if (const auto* cone = slot.load(std::memory_order_acquire)) return *cone;

  // One forward sweep over a bitmap indexed by topological position. A
  // gate's fanouts sit at later positions, so scanning the marks upward
  // pops the cone already in topological order, and the scan clears each
  // mark as it pops it: `pending` is all zero between calls. `gates` is
  // reserved before the first mark, so nothing throws while it is not.
  thread_local std::vector<std::uint64_t> pending;
  thread_local std::vector<std::uint32_t> gates;
  const std::size_t words = (num_gates() + 63) / 64;
  if (pending.size() < words) pending.resize(words, 0);
  gates.clear();
  gates.reserve(num_gates());

  std::size_t first = std::numeric_limits<std::size_t>::max();
  std::size_t last = 0;
  const auto mark = [&](std::uint32_t pos) {
    pending[pos / 64] |= 1ull << (pos % 64);
    last = std::max<std::size_t>(last, pos / 64);
  };
  const std::uint32_t* fan = net_fanout_begin(net.index());
  for (std::uint32_t i = 0; i < net_fanout_size(net.index()); ++i) {
    const std::uint32_t pos = topo_position_[fan[i]];
    first = std::min<std::size_t>(first, pos / 64);
    mark(pos);
  }
  for (std::size_t w = first; w <= last; ++w) {
    while (pending[w] != 0) {
      const auto pos = static_cast<std::uint32_t>(
          w * 64 + static_cast<unsigned>(std::countr_zero(pending[w])));
      pending[w] &= pending[w] - 1;
      gates.push_back(topo_order_[pos]);
      for (std::uint32_t e = fanout_pos_offsets_[pos];
           e < fanout_pos_offsets_[pos + 1]; ++e) {
        mark(fanout_pos_[e]);
      }
    }
  }

  auto* built = new std::vector<std::uint32_t>(gates.begin(), gates.end());
  const std::vector<std::uint32_t>* published = nullptr;
  if (slot.compare_exchange_strong(published, built,
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    return *built;
  }
  delete built;  // another thread published the same cone first
  return *published;
}

}  // namespace cwsp
