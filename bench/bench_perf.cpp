// Google-benchmark microbenchmarks of the library's hot paths: STA,
// event-driven glitch propagation, MiniSpice strike transients, the
// hardening transform and the static certifier. These guard against
// performance regressions in the kernels the table benches run thousands
// of times.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <numeric>

#include "analysis/certify.hpp"
#include "bencharness/generator.hpp"
#include "campaign/campaign.hpp"
#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "cwsp/harden.hpp"
#include "cwsp/protection_sim.hpp"
#include "cwsp/timing.hpp"
#include "netlist/writer.hpp"
#include "service/json.hpp"
#include "service/session.hpp"
#include "set/strike_plan.hpp"
#include "sim/compiled_kernel.hpp"
#include "sim/logic_sim.hpp"
#include "sim/strike_lanes.hpp"
#include "spice/subckt.hpp"
#include "sta/sta.hpp"

namespace {

using namespace cwsp;

const CellLibrary& library() {
  static const CellLibrary lib = make_default_library();
  return lib;
}

const Netlist& alu2() {
  static const bench::GeneratedBenchmark gen =
      bench::generate_benchmark(bench::find_benchmark("alu2"), library());
  return gen.netlist;
}

/// C880 with output flip-flops: the sequential design certify runs on.
const Netlist& c880() {
  static const Netlist netlist = bench::clone_with_output_flip_flops(
      bench::generate_benchmark(bench::find_benchmark("C880"), library())
          .netlist);
  return netlist;
}

void BM_Sta(benchmark::State& state) {
  const Netlist& netlist = alu2();
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_sta(netlist).dmax.value());
  }
}
BENCHMARK(BM_Sta);

void BM_CompiledEventSimCycle(benchmark::State& state) {
  // One struck cycle on the production timed kernel: cone-restricted
  // propagation + golden-cycle caching.
  const Netlist& netlist = alu2();
  const sim::CompiledEventSim esim(netlist);
  std::vector<bool> pis(netlist.primary_inputs().size(), true);
  set::Strike strike;
  strike.node = netlist.gate(GateId{0}).output;
  strike.start = Picoseconds(800.0);
  strike.width = Picoseconds(400.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        esim.simulate_cycle(pis, {}, Picoseconds(1800.0), strike)
            .struck_po.size());
  }
}
BENCHMARK(BM_CompiledEventSimCycle);

void BM_CompiledGoldenCycleCached(benchmark::State& state) {
  // The no-strike cycle every campaign pays per stimulus: a golden-cache
  // hit after the first iteration.
  const Netlist& netlist = alu2();
  const sim::CompiledEventSim esim(netlist);
  std::vector<bool> pis(netlist.primary_inputs().size(), true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        esim.simulate_cycle(pis, {}, Picoseconds(1800.0), std::nullopt)
            .golden_po.size());
  }
}
BENCHMARK(BM_CompiledGoldenCycleCached);

void BM_SpiceStrike(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        spice::measure_strike_glitch_width(Femtocoulombs(100.0)).value());
  }
}
BENCHMARK(BM_SpiceStrike);

void BM_Harden(benchmark::State& state) {
  const Netlist& netlist = alu2();
  const auto params = core::ProtectionParams::q100();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::harden_assuming_balanced_paths(netlist, params)
            .hardened_area.value());
  }
}
BENCHMARK(BM_Harden);

void BM_GenerateBenchmark(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bench::generate_benchmark(bench::find_benchmark("C432"), library())
            .netlist.num_gates());
  }
}
BENCHMARK(BM_GenerateBenchmark);

void BM_LogicSimCycle(benchmark::State& state) {
  const Netlist& netlist = alu2();
  sim::LogicSim sim(netlist);
  std::vector<bool> inputs(netlist.primary_inputs().size(), true);
  for (auto _ : state) {
    sim.step(inputs);
    benchmark::DoNotOptimize(sim.output_values().size());
    inputs[0] = !inputs[0];
  }
}
BENCHMARK(BM_LogicSimCycle);

void BM_WideLogicSimCycle(benchmark::State& state) {
  // One SoA topo sweep settles `width` stimulus patterns; the items/s
  // counter reports per-pattern throughput so the 64/256/512 rows
  // compare directly against BM_LogicSimCycle.
  const std::size_t width = static_cast<std::size_t>(state.range(0));
  const Netlist& netlist = alu2();
  static const auto context = sim::CompiledKernelContext::build(netlist);
  sim::WideLogicSim sim(context->view, width);
  const std::size_t words = sim.words_per_net();
  std::uint64_t pattern = 0x5555555555555555ull;
  for (auto _ : state) {
    for (std::size_t i = 0; i < netlist.primary_inputs().size(); ++i) {
      for (std::size_t w = 0; w < words; ++w) {
        sim.set_input_word(i, w, pattern + i + w);
      }
    }
    sim.evaluate();
    sim.clock();
    benchmark::DoNotOptimize(sim.value_word(netlist.primary_outputs()[0], 0));
    pattern = pattern * 6364136223846793005ull + 1442695040888963407ull;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(width));
  state.SetLabel(sim.isa_name());
}
BENCHMARK(BM_WideLogicSimCycle)->Arg(64)->Arg(256)->Arg(512);

/// C7552 with output flip-flops: the design campaign-c7552 strikes.
const Netlist& c7552() {
  static const Netlist netlist = bench::clone_with_output_flip_flops(
      bench::generate_benchmark(bench::find_benchmark("C7552"), library())
          .netlist);
  return netlist;
}

void BM_KernelContextBuild(benchmark::State& state) {
  // CompiledKernelContext::build on generated C7552: the flat view, STA
  // and the reverse topological pass that bounds every net's path delay
  // to the flip-flop D pins — the set-up every session and every
  // one-shot campaign pays once. items/s is builds/s.
  const Netlist& netlist = c7552();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::CompiledKernelContext::build(netlist));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_KernelContextBuild)->Unit(benchmark::kMillisecond);

void BM_LaneSweep(benchmark::State& state) {
  // One WideLogicSim::evaluate on generated C7552 (18,942 gates, 207 PIs
  // and 108 FFs settled per sweep), the lane kernel's per-cycle golden
  // step; items/s is sweeps/s, and the label names the dispatched body.
  const std::size_t width = static_cast<std::size_t>(state.range(0));
  static const auto context = sim::CompiledKernelContext::build(c7552());
  sim::WideLogicSim sim(context->view, width);
  Rng rng(7552);
  for (std::size_t p = 0; p < context->view->num_primary_inputs(); ++p) {
    for (std::size_t w = 0; w < sim.words_per_net(); ++w) {
      sim.set_input_word(p, w, rng.next_u64());
    }
  }
  for (auto _ : state) {
    sim.evaluate();
    benchmark::DoNotOptimize(sim.net_words(0));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(sim.isa_name());
}
BENCHMARK(BM_LaneSweep)->Arg(64)->Arg(256)->Arg(512);

void BM_StrikeLaneBatch(benchmark::State& state) {
  // Full strike-lane batch resolution: up to `width` faulty variants of a
  // 10-cycle run classified per pass. Counters land in BENCH_perf.json
  // for the CI perf ratchet: strikes_per_second (classified strikes per
  // wall second) and lane_occupancy (filled slots over offered slots).
  const std::size_t width = static_cast<std::size_t>(state.range(0));
  static const Netlist netlist = [] {
    return bench::clone_with_output_flip_flops(alu2());
  }();
  const auto params = core::ProtectionParams::q100();
  const Picoseconds period = core::min_clock_period_for_delta(params);
  sim::StrikeLaneSim lanes(sim::CompiledKernelContext::build(netlist), period,
                           params.delta, width);

  // Every lane runs the same stimulus, packed once in run_packed's
  // layout (the campaign engine's entry): one all-ones or all-zeros lane
  // word per cycle, primary input and 64 lanes.
  constexpr std::size_t kCycles = 10;
  const std::size_t words = lanes.lanes() / 64;
  std::vector<std::uint64_t> stimulus;
  std::uint64_t bits = 0x9e3779b97f4a7c15ull;
  for (std::size_t k = 0; k < kCycles * netlist.primary_inputs().size(); ++k) {
    bits = bits * 6364136223846793005ull + 1442695040888963407ull;
    stimulus.insert(stimulus.end(), words, ((bits >> 37) & 1) != 0 ? ~0ull : 0);
  }
  std::vector<sim::LaneScenario> batch(lanes.lanes());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    sim::LaneScenario& scenario = batch[i];
    scenario.strike.node = netlist.gate(GateId{i % netlist.num_gates()}).output;
    scenario.strike.start = Picoseconds(0.25 * period.value() +
                                        static_cast<double>(i % 7) * 40.0);
    scenario.strike.width = (i % 3 == 0)
                                ? params.delta + Picoseconds(400.0)
                                : params.delta * 0.5;
    scenario.cycle = i % kCycles;
  }
  std::vector<sim::LaneOutcome> outcomes;
  for (auto _ : state) {
    lanes.run_packed(batch, kCycles, stimulus, outcomes);
    benchmark::DoNotOptimize(outcomes.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size()));
  state.counters["strikes_per_second"] = benchmark::Counter(
      static_cast<double>(batch.size()),
      benchmark::Counter::kIsIterationInvariantRate);
  state.counters["lane_occupancy"] =
      static_cast<double>(lanes.lanes_filled()) /
      static_cast<double>(lanes.lane_slots());
  state.SetLabel(lanes.isa_name());
}
BENCHMARK(BM_StrikeLaneBatch)->Arg(64)->Arg(256)->Arg(512);

void BM_TopologicalOrderMemoized(benchmark::State& state) {
  // Memoized after the first call — this measures the cached lookup.
  const Netlist& netlist = alu2();
  for (auto _ : state) {
    benchmark::DoNotOptimize(netlist.topological_order().size());
  }
}
BENCHMARK(BM_TopologicalOrderMemoized);

void BM_ProtectionSimRun(benchmark::State& state) {
  // Protocol execution incl. one detection/repair on a small FSM.
  static const Netlist netlist = [] {
    Netlist n(library(), "fsm");
    const NetId a = n.add_primary_input("a");
    const GateId g = n.add_gate(library().cell_for(CellKind::kXor2),
                                {a, n.add_net("qf")}, "d");
    n.add_flip_flop_onto(n.gate(g).output, *n.find_net("qf"));
    n.mark_primary_output(*n.find_net("qf"));
    n.validate();
    return n;
  }();
  const auto params = core::ProtectionParams::q100();
  core::ProtectionSim sim(netlist, params, Picoseconds(1600.0));
  std::vector<std::vector<bool>> inputs(16, {true});
  core::ScheduledStrike strike;
  strike.cycle = 5;
  strike.target = core::StrikeTarget::kFunctional;
  strike.strike.node = *netlist.find_net("d");
  strike.strike.start = Picoseconds(1400.0);
  strike.strike.width = Picoseconds(350.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(inputs, {strike}).bubbles);
  }
}
BENCHMARK(BM_ProtectionSimRun);

void BM_PropagateWindows(benchmark::State& state) {
  // The certifier's per-site window dataflow (Phase A) over every strike
  // site of C880; items/s is sites/s. The fanout cones are memoized
  // before timing, so this measures the dataflow alone.
  const Netlist& netlist = c880();
  static const auto context = sim::CompiledKernelContext::build(netlist);
  const std::vector<NetId> sites = set::strike_sites(netlist);
  for (const NetId site : sites) (void)context->view->cone_of(site);
  for (auto _ : state) {
    for (const NetId site : sites) {
      const analysis::SiteWindows windows = analysis::propagate_windows(
          *context->view, *context->gate_delay_ps, site);
      benchmark::DoNotOptimize(windows.windows.data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sites.size()));
}
BENCHMARK(BM_PropagateWindows);

void BM_ConeOfCold(benchmark::State& state) {
  // Cold fanout cones: a fresh flat view per iteration (built outside the
  // timed region), then the cone of every C880 strike site, which is what
  // a campaign or certify run pays once per site; items/s is cones/s.
  const Netlist& netlist = c880();
  const std::vector<NetId> sites = set::strike_sites(netlist);
  std::unique_ptr<FlatNetlistView> view;
  for (auto _ : state) {
    state.PauseTiming();
    view = std::make_unique<FlatNetlistView>(netlist);
    state.ResumeTiming();
    for (const NetId site : sites) {
      benchmark::DoNotOptimize(view->cone_of(site).data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sites.size()));
}
BENCHMARK(BM_ConeOfCold);

void BM_ResolveStrike(benchmark::State& state) {
  // Timed strike resolution, the lane kernel's step per lane strike, on
  // C880: one settled golden cycle, every 7th strike site, 400 ps wide,
  // starts spread over the clock period (the capture time); cones warm.
  // items/s is resolutions/s.
  const Netlist& netlist = c880();
  static const auto context = sim::CompiledKernelContext::build(netlist);
  const sim::CompiledEventSim esim(netlist, context);
  const Picoseconds period =
      core::hardened_clock_period(run_sta(netlist).dmax, library());
  Rng rng(2026);
  std::vector<bool> pis(netlist.primary_inputs().size());
  std::vector<bool> ffs(netlist.num_flip_flops());
  for (std::size_t i = 0; i < pis.size(); ++i) pis[i] = rng.next_bool();
  for (std::size_t i = 0; i < ffs.size(); ++i) ffs[i] = rng.next_bool();
  const sim::GoldenCycle golden = esim.golden_eval(pis, ffs);
  std::vector<set::Strike> strikes;
  const std::vector<NetId> sites = set::strike_sites(netlist);
  for (std::size_t i = 0; i < sites.size(); i += 7) {
    set::Strike strike;
    strike.node = sites[i];
    strike.start = Picoseconds(period.value() *
                               static_cast<double>(strikes.size() % 16) / 16);
    strike.width = Picoseconds(400.0);
    strikes.push_back(strike);
    (void)context->view->cone_of(strike.node);
  }
  sim::CycleResult result;
  for (auto _ : state) {
    for (const set::Strike& strike : strikes) {
      esim.resolve_strike(golden, period, strike, result);
      benchmark::DoNotOptimize(result.glitch_reached_endpoint);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(strikes.size()));
}
BENCHMARK(BM_ResolveStrike);

void BM_StrikeInputsPacked(benchmark::State& state) {
  // One lane batch's stimulus at the dispatched width: C7552's 207
  // primary inputs over 16 cycles, one RNG stream per lane, packed into
  // run_packed's lane words; items/s is stimulus bits/s.
  static const Netlist netlist = [] {
    Netlist n(library(), "inputs");
    for (int i = 0; i < 207; ++i) n.add_primary_input("i" + std::to_string(i));
    return n;
  }();
  constexpr std::size_t kCycles = 16;
  const sim::LaneIsa isa = sim::WideLogicSim::dispatched_isa();
  std::vector<std::size_t> indices(isa.lanes);
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  std::vector<std::uint64_t> stimulus;
  for (auto _ : state) {
    campaign::CampaignEngine::strike_inputs_packed(netlist, kCycles, 2026,
                                                   indices, isa.lanes,
                                                   stimulus);
    benchmark::DoNotOptimize(stimulus.data());
    benchmark::ClobberMemory();
    for (std::size_t& index : indices) index += isa.lanes;
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(kCycles * netlist.primary_inputs().size() *
                                isa.lanes));
  state.SetLabel(isa.name);
}
BENCHMARK(BM_StrikeInputsPacked);

void BM_FormatCertifyJson(benchmark::State& state) {
  // The JSON report of a designed-envelope C880 certify run (3,600 sites,
  // ~1.9 MB, one witness path per site), formatted from a fixed result;
  // items/s is sites/s.
  const Netlist& netlist = c880();
  const auto params = core::ProtectionParams::q100();
  static const analysis::CertifyResult result = analysis::certify_design(
      netlist, params,
      std::max(core::hardened_clock_period(run_sta(netlist).dmax, library()),
               core::min_clock_period_for_delta(params)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string json = analysis::format_certify_json(result, netlist);
    bytes = json.size();
    benchmark::DoNotOptimize(json.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(result.sites.size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_FormatCertifyJson);

void BM_ServiceIngestHit(benchmark::State& state) {
  // What the daemon does with a result-cache hit before it queues it:
  // parse a C7552-size request line (~400 KB, the design inline) and
  // resolve the design key against the resident session, which compares
  // bytes instead of hashing; bytes/s is request-line bytes.
  static const std::string text =
      to_bench_string(bench::clone_with_output_flip_flops(
          bench::generate_benchmark(bench::find_benchmark("C7552"), library())
              .netlist));
  static service::SessionCache cache;
  static const std::uint64_t key = [] {
    auto shared = std::make_shared<const std::string>(text);
    const std::uint64_t k = cache.key_of("c7552", *shared);
    (void)cache.get_or_build("c7552", shared, k, library());
    return k;
  }();
  const std::string line =
      R"({"op":"campaign","runs":32,"cycles":10,"adversarial":true,)"
      R"("design_name":"c7552","design":")" +
      service::json::escape(text) + R"(","seed":1})";
  for (auto _ : state) {
    const service::json::Value request = service::json::parse(line);
    const auto design = request.shared_text("design");
    if (cache.key_of(request.text("design_name", ""), *design) != key) {
      state.SkipWithError("design key differs from the resident session's");
      break;
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(line.size()));
}
BENCHMARK(BM_ServiceIngestHit);

void BM_FailpointInactive(benchmark::State& state) {
  // The disarmed failpoint gate (docs/chaos.md): with nothing configured
  // the hot-path check is one relaxed atomic load, so instrumented seams
  // (journal writes, dispatch, enqueue) pay ~nothing in production. The
  // per-iteration time here must stay in the low single-digit ns —
  // anything resembling a lock or map lookup is a regression.
  failpoint::Registry::global().clear();
  for (auto _ : state) {
    CWSP_FAILPOINT("bench.inactive.site");
    bool armed = failpoint::armed();
    benchmark::DoNotOptimize(armed);
  }
}
BENCHMARK(BM_FailpointInactive);

}  // namespace

BENCHMARK_MAIN();
