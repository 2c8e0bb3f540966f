#pragma once
// Flattened, cache-friendly view of a Netlist for simulation kernels.
//
// The pointer-chasing Netlist API (std::vector per gate, std::string
// names, unordered maps) is the right structure for construction and
// transformation, but fault-injection campaigns evaluate the same netlist
// millions of times. A FlatNetlistView lowers everything a simulator
// needs into contiguous arrays built once per netlist:
//
//   * CSR gate-input lists and per-net fanout adjacency,
//   * per-gate truth tables, arities, output nets and inertial delays,
//   * per-net source descriptors (PI index / FF index / constant / gate)
//     and the lists of PI, FF-Q and constant nets a sweep settles,
//   * the memoized topological order, per-gate topo positions and levels,
//     and one sweep record per gate in that order,
//   * per-net fanout cones (the set of gates a glitch on that net can
//     reach), computed on demand and memoized — the basis for
//     cone-restricted event propagation.
//
// The view holds a non-owning pointer to the netlist it was built from
// and is immutable after construction apart from the cone memo, so one
// instance can be shared read-only across campaign worker threads.
//
// The cone memo is lock-free. Each net owns one atomic pointer, null
// until its cone is built. A warm cone_of is one acquire load. A cold
// one builds the cone in thread-local scratch, copies it into a vector
// of exactly its size and publishes that with a release compare-exchange
// from null. When two threads race on the same cold net, the loser
// deletes its identical copy and returns the winner's, so every caller
// sees one vector per net, at a stable address, until the view dies.

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "netlist/netlist.hpp"

namespace cwsp {

class FlatNetlistView {
 public:
  /// How a net gets its value at the start of a cycle.
  enum class SourceKind : std::uint8_t {
    kPrimaryInput,  // source_index = PI position
    kFlipFlop,      // source_index = FF position
    kConstant,      // source_index = 0/1 constant value
    kGate,          // source_index = driving gate
    kNone,          // undriven (only in not-yet-validated netlists)
  };

  /// The netlist must outlive the view and must not be mutated while the
  /// view is alive (the view caches its topology).
  explicit FlatNetlistView(const Netlist& netlist);
  ~FlatNetlistView();
  FlatNetlistView(const FlatNetlistView&) = delete;
  FlatNetlistView& operator=(const FlatNetlistView&) = delete;

  [[nodiscard]] static std::shared_ptr<const FlatNetlistView> build(
      const Netlist& netlist) {
    return std::make_shared<const FlatNetlistView>(netlist);
  }

  [[nodiscard]] const Netlist& netlist() const { return *netlist_; }

  [[nodiscard]] std::size_t num_nets() const { return source_kind_.size(); }
  [[nodiscard]] std::size_t num_gates() const { return gate_output_.size(); }
  [[nodiscard]] std::size_t num_flip_flops() const { return ff_d_net_.size(); }
  [[nodiscard]] std::size_t num_primary_inputs() const { return num_pis_; }

  // ---------------------------------------------------------- gates
  /// Input nets of gate `g` as a contiguous [begin, end) range.
  [[nodiscard]] const std::uint32_t* gate_inputs_begin(std::size_t g) const {
    return gate_input_nets_.data() + gate_input_offsets_[g];
  }
  [[nodiscard]] std::uint32_t gate_num_inputs(std::size_t g) const {
    return gate_input_offsets_[g + 1] - gate_input_offsets_[g];
  }
  [[nodiscard]] std::uint16_t gate_truth(std::size_t g) const {
    return gate_truth_[g];
  }
  [[nodiscard]] std::uint32_t gate_output(std::size_t g) const {
    return gate_output_[g];
  }
  [[nodiscard]] double gate_inertial_delay_ps(std::size_t g) const {
    return gate_inertial_ps_[g];
  }
  /// Position of gate `g` in the topological order.
  [[nodiscard]] std::uint32_t topo_position(std::size_t g) const {
    return topo_position_[g];
  }
  /// Logic level of gate `g`: 0 for gates fed only by sources, else
  /// 1 + max(level of gate-driven inputs).
  [[nodiscard]] std::uint32_t level(std::size_t g) const { return level_[g]; }
  [[nodiscard]] std::uint32_t num_levels() const { return num_levels_; }

  /// Gate indices in topological order (same order as
  /// Netlist::topological_order()).
  [[nodiscard]] const std::vector<std::uint32_t>& topo_order() const {
    return topo_order_;
  }

  /// Everything a zero-delay sweep reads of one gate, in one 24-byte
  /// record: the output net, the input nets in[0, arity) and the truth
  /// table.
  struct SweepGate {
    std::uint32_t out = 0;
    std::uint32_t in[4] = {};
    std::uint16_t truth = 0;
    std::uint8_t arity = 0;
  };
  static_assert(sizeof(SweepGate) == 24);
  /// One SweepGate per gate, at the gate's topological position: a
  /// sweep walks one contiguous array instead of the order plus four
  /// gate-indexed ones.
  [[nodiscard]] const std::vector<SweepGate>& sweep_gates() const {
    return sweep_gates_;
  }

  // ---------------------------------------------------------- nets
  [[nodiscard]] SourceKind source_kind(std::size_t net) const {
    return source_kind_[net];
  }
  [[nodiscard]] std::uint32_t source_index(std::size_t net) const {
    return source_index_[net];
  }
  /// The source nets a sweep settles before the first gate, so it never
  /// scans the other nets' kinds: the net of primary input p at
  /// pi_nets()[p], the Q net of flip-flop f at ff_q_nets()[f], and every
  /// constant-driven net (source_index() is its value) in net order.
  [[nodiscard]] const std::vector<std::uint32_t>& pi_nets() const {
    return pi_nets_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& ff_q_nets() const {
    return ff_q_nets_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& constant_nets() const {
    return constant_nets_;
  }
  /// Fanout gates of net `net` as a contiguous [begin, end) range.
  [[nodiscard]] const std::uint32_t* net_fanout_begin(std::size_t net) const {
    return net_fanout_gates_.data() + net_fanout_offsets_[net];
  }
  [[nodiscard]] std::uint32_t net_fanout_size(std::size_t net) const {
    return net_fanout_offsets_[net + 1] - net_fanout_offsets_[net];
  }

  // ---------------------------------------------------------- endpoints
  [[nodiscard]] std::uint32_t ff_d_net(std::size_t ff) const {
    return ff_d_net_[ff];
  }
  [[nodiscard]] const std::vector<std::uint32_t>& po_nets() const {
    return po_nets_;
  }

  // ---------------------------------------------------------- cones
  /// Gates inside the fanout cone of `net` — every gate a glitch on that
  /// net can influence — sorted by topological position. Memoized after
  /// the first request, and the reference stays valid for the view's
  /// lifetime; safe to call concurrently (see the file comment).
  [[nodiscard]] const std::vector<std::uint32_t>& cone_of(NetId net) const;

 private:
  const Netlist* netlist_;
  std::size_t num_pis_ = 0;

  // Gate arrays (indexed by gate).
  std::vector<std::uint32_t> gate_input_offsets_;  // size num_gates + 1
  std::vector<std::uint32_t> gate_input_nets_;
  std::vector<std::uint16_t> gate_truth_;
  std::vector<std::uint32_t> gate_output_;
  std::vector<double> gate_inertial_ps_;
  std::vector<std::uint32_t> topo_position_;
  std::vector<std::uint32_t> level_;
  std::uint32_t num_levels_ = 0;
  std::vector<std::uint32_t> topo_order_;
  std::vector<SweepGate> sweep_gates_;

  // Net arrays (indexed by net).
  std::vector<SourceKind> source_kind_;
  std::vector<std::uint32_t> source_index_;
  std::vector<std::uint32_t> net_fanout_offsets_;  // size num_nets + 1
  std::vector<std::uint32_t> net_fanout_gates_;
  std::vector<std::uint32_t> pi_nets_;
  std::vector<std::uint32_t> ff_q_nets_;
  std::vector<std::uint32_t> constant_nets_;

  // Fanout adjacency by topological position (the cone sweep's): the
  // gates that read the output of the gate at position p sit at positions
  // fanout_pos_[fanout_pos_offsets_[p] .. fanout_pos_offsets_[p + 1]).
  std::vector<std::uint32_t> fanout_pos_offsets_;  // size num_gates + 1
  std::vector<std::uint32_t> fanout_pos_;

  // Endpoint arrays.
  std::vector<std::uint32_t> ff_d_net_;
  std::vector<std::uint32_t> po_nets_;

  // Memoized per-net cones (indexed by net; null until built). The view
  // owns every published vector.
  mutable std::vector<std::atomic<const std::vector<std::uint32_t>*>> cones_;
};

}  // namespace cwsp
