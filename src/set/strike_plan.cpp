#include "set/strike_plan.hpp"
#include <algorithm>
#include <bit>

#include "common/fnv.hpp"

namespace cwsp::set {

std::vector<NetId> strike_sites(const Netlist& netlist) {
  std::vector<NetId> sites;
  for (std::size_t i = 0; i < netlist.num_nets(); ++i) {
    const NetId id{i};
    const auto kind = netlist.net(id).driver_kind;
    if (kind == DriverKind::kGate || kind == DriverKind::kFlipFlop) {
      sites.push_back(id);
    }
  }
  return sites;
}

std::vector<Strike> random_strikes(const Netlist& netlist, std::size_t count,
                                   Picoseconds width, Picoseconds window_start,
                                   Picoseconds window_end, Rng& rng) {
  CWSP_REQUIRE(window_end > window_start);
  const auto sites = strike_sites(netlist);
  CWSP_REQUIRE_MSG(!sites.empty(), "netlist has no strikeable nodes");
  std::vector<Strike> strikes;
  strikes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Strike s;
    s.node = sites[rng.next_below(sites.size())];
    s.start = Picoseconds(
        rng.next_double_in(window_start.value(), window_end.value()));
    s.width = width;
    strikes.push_back(s);
  }
  return strikes;
}

std::vector<Strike> area_weighted_strikes(const Netlist& netlist,
                                          std::size_t count,
                                          Picoseconds width,
                                          Picoseconds window_start,
                                          Picoseconds window_end, Rng& rng) {
  CWSP_REQUIRE(window_end > window_start);
  const auto sites = strike_sites(netlist);
  CWSP_REQUIRE_MSG(!sites.empty(), "netlist has no strikeable nodes");

  // Cumulative area distribution over the sites' driving cells.
  std::vector<double> cumulative(sites.size());
  double total = 0.0;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const Net& net = netlist.net(sites[i]);
    double area = 0.0;
    if (net.driver_kind == DriverKind::kGate) {
      area = netlist.cell_of(GateId{net.driver_index}).active_area().value();
    } else {
      area = netlist.library().regular_ff().area.value();
    }
    total += area;
    cumulative[i] = total;
  }
  CWSP_REQUIRE(total > 0.0);

  std::vector<Strike> strikes;
  strikes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double pick = rng.next_double_in(0.0, total);
    const auto it =
        std::lower_bound(cumulative.begin(), cumulative.end(), pick);
    const std::size_t index =
        static_cast<std::size_t>(it - cumulative.begin());
    Strike s;
    s.node = sites[std::min(index, sites.size() - 1)];
    s.start = Picoseconds(
        rng.next_double_in(window_start.value(), window_end.value()));
    s.width = width;
    strikes.push_back(s);
  }
  return strikes;
}

const char* to_string(StrikeClass klass) {
  switch (klass) {
    case StrikeClass::kFunctional:
      return "functional";
    case StrikeClass::kProtectionPath:
      return "protection-path";
    case StrikeClass::kClockEdge:
      return "clock-edge";
    case StrikeClass::kOutOfEnvelope:
      return "out-of-envelope";
  }
  return "unknown";
}

const char* to_string(ProtectionSite site) {
  switch (site) {
    case ProtectionSite::kEqChecker:
      return "eq-checker";
    case ProtectionSite::kEqglbfDff:
      return "eqglbf-dff";
    case ProtectionSite::kCwStarDff:
      return "cwstar-dff";
    case ProtectionSite::kCwspOutput:
      return "cwsp-output";
  }
  return "unknown";
}

StrikePlan build_strike_plan(const Netlist& netlist,
                             const StrikePlanOptions& options,
                             std::uint64_t seed) {
  CWSP_REQUIRE(options.cycles_per_run > 0);
  CWSP_REQUIRE(options.clock_period.value() > 1.0);
  const auto sites = strike_sites(netlist);
  const std::size_t functional_classes = options.functional_strikes +
                                         options.clock_edge_strikes +
                                         options.out_of_envelope_strikes;
  CWSP_REQUIRE_MSG(functional_classes == 0 || !sites.empty(),
                   "netlist has no strikeable nodes");
  CWSP_REQUIRE_MSG(
      options.protection_path_strikes == 0 || netlist.num_flip_flops() > 0,
      "protection-path strikes require a sequential design");

  Rng rng(seed);
  StrikePlan plan;
  plan.strikes.reserve(functional_classes + options.protection_path_strikes);

  auto pick_site = [&](Rng& r) -> NetId {
    if (options.area_weighted_sites) {
      return area_weighted_strikes(netlist, 1, Picoseconds(0.0),
                                   Picoseconds(0.0), Picoseconds(1.0), r)[0]
          .node;
    }
    return sites[r.next_below(sites.size())];
  };

  auto add = [&](StrikeClass klass, std::size_t count,
                 auto&& fill) {
    for (std::size_t i = 0; i < count; ++i) {
      PlannedStrike p;
      p.index = plan.strikes.size();
      p.klass = klass;
      p.cycle = rng.next_below(options.cycles_per_run);
      fill(p);
      plan.strikes.push_back(p);
    }
  };

  const double period = options.clock_period.value();
  add(StrikeClass::kFunctional, options.functional_strikes,
      [&](PlannedStrike& p) {
        p.strike.node = pick_site(rng);
        p.strike.width = options.glitch_width;
        p.strike.start = Picoseconds(rng.next_double_in(0.0, period - 1.0));
      });
  add(StrikeClass::kProtectionPath, options.protection_path_strikes,
      [&](PlannedStrike& p) {
        constexpr ProtectionSite kSites[] = {
            ProtectionSite::kEqChecker, ProtectionSite::kEqglbfDff,
            ProtectionSite::kCwStarDff, ProtectionSite::kCwspOutput};
        p.site = kSites[rng.next_below(4)];
        p.ff_index = rng.next_below(netlist.num_flip_flops());
        p.strike.width = options.glitch_width;
        p.strike.start = Picoseconds(rng.next_double_in(0.0, period));
      });
  add(StrikeClass::kClockEdge, options.clock_edge_strikes,
      [&](PlannedStrike& p) {
        // Start so the pulse is in flight across the capture edge.
        const double w = options.glitch_width.value();
        p.strike.node = pick_site(rng);
        p.strike.width = options.glitch_width;
        p.strike.start = Picoseconds(
            rng.next_double_in(std::max(0.0, period - w), period - 1.0));
      });
  add(StrikeClass::kOutOfEnvelope, options.out_of_envelope_strikes,
      [&](PlannedStrike& p) {
        p.strike.node = pick_site(rng);
        p.strike.width = options.out_of_envelope_width;
        p.strike.start = Picoseconds(rng.next_double_in(0.0, period - 1.0));
      });
  return plan;
}

std::vector<StrikePlan> shard_plan(const StrikePlan& plan,
                                   std::size_t num_shards) {
  CWSP_REQUIRE(num_shards > 0);
  std::vector<StrikePlan> shards(num_shards);
  const std::size_t n = plan.strikes.size();
  for (std::size_t s = 0; s < num_shards; ++s) {
    const std::size_t begin = n * s / num_shards;
    const std::size_t end = n * (s + 1) / num_shards;
    shards[s].strikes.assign(plan.strikes.begin() + begin,
                             plan.strikes.begin() + end);
  }
  return shards;
}

std::uint64_t plan_fingerprint(const StrikePlan& plan) {
  std::uint64_t h = fnv::kOffsetBasis;
  const auto mix = [&h](std::uint64_t v) { fnv::mix(h, v); };
  mix(plan.size());
  for (const PlannedStrike& p : plan.strikes) {
    mix(p.index);
    mix(static_cast<std::uint64_t>(p.klass));
    mix(static_cast<std::uint64_t>(p.site));
    mix(p.cycle);
    mix(p.ff_index);
    mix(p.strike.node.valid() ? p.strike.node.index()
                              : static_cast<std::size_t>(-1));
    mix(std::bit_cast<std::uint64_t>(p.strike.start.value()));
    mix(std::bit_cast<std::uint64_t>(p.strike.width.value()));
    if (p.node2.valid()) {
      // Multi-node extension, mixed only when present: single-node plans
      // keep their pre-registry fingerprints (journals stay resumable).
      mix(0x2e7a);
      mix(p.node2.index());
    }
  }
  return h;
}

std::vector<Strike> exhaustive_strikes(
    const Netlist& netlist, Picoseconds width,
    const std::vector<Picoseconds>& time_points) {
  const auto sites = strike_sites(netlist);
  std::vector<Strike> strikes;
  strikes.reserve(sites.size() * time_points.size());
  for (NetId site : sites) {
    for (Picoseconds t : time_points) {
      strikes.push_back(Strike{site, t, width});
    }
  }
  return strikes;
}

}  // namespace cwsp::set
