// Campaign-engine throughput, kernel speedup and determinism check.
//
// Part A (identity): runs one adversarial strike plan on alu2 through the
// scalar compiled kernel and the strike-lane kernel at every supported
// lane width and several worker counts, and verifies the JSON report
// stays byte-identical — the engine's core guarantee (neither
// parallelism nor lane batching may change results). Speedups are
// relative to the scalar kernel at jobs 1.
//
// Part B (throughput): runs a large functional-heavy plan on an ISCAS85
// design (C880) with the scalar compiled kernel vs the strike-lane
// kernel, reporting strikes/second, lane occupancy (filled slots over
// offered slots, from the engine's metrics counters), the strikes the
// capture-aperture mask decided before batching (they take no lane slot)
// and the lane/scalar speedup. A lane-kernel run takes a few ms (one
// timing swung the speedup between 38× and 66× over 20 runs when it took
// ~15 ms), so each config's rate is the median of 9 rounds taken
// round-robin (rotating the first config), and every run must reproduce
// the first run's report (the scalar jobs-1 one). Results are emitted to
// BENCH_campaign.json (path overridable via argv[1]) for
// ci/check-perf.sh's regression ratchet.
//
// Part C (schemes): runs the same C880 plan per registered
// ProtectionScheme (cwsp, tmr, loco) on the lane kernel, checking each
// scheme's report stays byte-identical at jobs 1 vs 8 and reporting the
// scheme's throughput relative to CWSP — the cost of evaluating an
// alternative hardening technique through the registry. One jobs-8 run
// takes 5–30 ms on a shared 4-vCPU host, so each scheme's rate is the
// median of 21 runs taken round-robin across the schemes (resampling
// measured runs put the chance that the 0.675 ratio floor trips on
// noise at ~2% per bench run for a median of 9, 0.03% for 21), and
// every one of them must reproduce the scheme's jobs-1 report.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bencharness/generator.hpp"
#include "campaign/campaign.hpp"
#include "campaign/report.hpp"
#include "common/metrics.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "cwsp/timing.hpp"
#include "scheme/scheme.hpp"
#include "sim/strike_lanes.hpp"

namespace {

using namespace cwsp;

struct RunStats {
  double seconds = 0.0;
  double strikes_per_second = 0.0;
  /// Filled lane slots over offered lane slots; -1 off the lane path.
  double lane_occupancy = -1.0;
  /// Strikes decided by the capture-aperture mask before batching; -1 off
  /// the lane path.
  std::int64_t masked = -1;
  std::string json;
};

RunStats run_once(const campaign::CampaignEngine& engine,
                  const set::StrikePlan& plan, const Netlist& netlist,
                  Picoseconds period, const campaign::EngineOptions& options) {
  auto& registry = metrics::Registry::global();
  const std::uint64_t filled0 =
      registry.counter("campaign.lane_slots_filled").value();
  const std::uint64_t total0 =
      registry.counter("campaign.lane_slots_total").value();
  const std::uint64_t masked0 =
      registry.counter("campaign.lane_masked_strikes").value();
  Stopwatch watch;
  const auto result = engine.run(plan, options);
  RunStats stats;
  stats.seconds = watch.elapsed_ms() / 1000.0;
  stats.strikes_per_second = static_cast<double>(plan.size()) / stats.seconds;
  const std::uint64_t filled =
      registry.counter("campaign.lane_slots_filled").value() - filled0;
  const std::uint64_t total =
      registry.counter("campaign.lane_slots_total").value() - total0;
  if (total > 0) {
    stats.lane_occupancy =
        static_cast<double>(filled) / static_cast<double>(total);
  }
  if (options.use_lane_kernel) {
    stats.masked = static_cast<std::int64_t>(
        registry.counter("campaign.lane_masked_strikes").value() - masked0);
  }
  stats.json =
      campaign::format_campaign_json(result, plan, netlist, options, period);
  return stats;
}

struct Config {
  std::string kernel;  // "scalar" or "lane-<width>"
  bool lanes = false;
  std::size_t lane_width = 0;  // 0 = ISA auto
  std::size_t jobs = 1;
};

campaign::EngineOptions options_for(const Config& config, std::uint64_t seed,
                                    std::size_t cycles) {
  campaign::EngineOptions options;
  options.seed = seed;
  options.cycles_per_run = cycles;
  options.jobs = config.jobs;
  options.use_lane_kernel = config.lanes;
  options.lane_width = config.lane_width;
  return options;
}

double median(std::vector<double> values) {
  std::nth_element(values.begin(), values.begin() + values.size() / 2,
                   values.end());
  return values[values.size() / 2];
}

std::string occupancy_cell(double occupancy) {
  if (occupancy < 0.0) return "-";
  return TextTable::num(occupancy * 100.0, 1) + "%";
}

std::string masked_cell(std::int64_t masked) {
  return masked < 0 ? "-" : std::to_string(masked);
}

std::string masked_json(std::int64_t masked) {
  return masked < 0 ? "null" : std::to_string(masked);
}

}  // namespace

int main(int argc, char** argv) {
  const CellLibrary library = make_default_library();
  const auto params = core::ProtectionParams::q100();
  const sim::LaneIsa isa = sim::WideLogicSim::dispatched_isa();

  // ---- Part A: report identity across kernels, widths and job counts.
  const auto alu2_gen =
      bench::generate_benchmark(bench::find_benchmark("alu2"), library);
  const auto alu2 = bench::clone_with_output_flip_flops(alu2_gen.netlist);
  const Picoseconds alu2_period =
      std::max(core::hardened_clock_period(alu2_gen.measured_dmax, library),
               core::min_clock_period_for_delta(params));

  set::StrikePlanOptions plan_options;
  plan_options.functional_strikes = 48;
  plan_options.protection_path_strikes = 8;
  plan_options.clock_edge_strikes = 8;
  plan_options.out_of_envelope_strikes = 8;
  plan_options.cycles_per_run = 10;
  plan_options.clock_period = alu2_period;
  plan_options.out_of_envelope_width = params.delta + Picoseconds(400.0);
  const auto alu2_plan = set::build_strike_plan(alu2, plan_options, 2026);

  const campaign::CampaignEngine alu2_engine(alu2, params, alu2_period);

  std::vector<Config> identity_configs = {
      {"scalar", false, 0, 1},
      {"scalar", false, 0, 4},
  };
  for (const std::size_t width : sim::WideLogicSim::supported_lane_widths()) {
    identity_configs.push_back(
        {"lane-" + std::to_string(width), true, width, 1});
  }
  identity_configs.push_back({"lane-auto", true, 0, 8});

  TextTable identity_table;
  identity_table.set_header({"Kernel", "Jobs", "Wall s", "Strikes/s",
                             "Speedup", "Occupancy", "Report"});
  std::string baseline;
  double scalar_j1_rate = 0.0;
  bool identical = true;
  for (const Config& config : identity_configs) {
    const auto stats = run_once(alu2_engine, alu2_plan, alu2, alu2_period,
                                options_for(config, 2026, 10));
    if (baseline.empty()) {
      baseline = stats.json;
      scalar_j1_rate = stats.strikes_per_second;
    }
    const bool same = stats.json == baseline;
    identical = identical && same;
    identity_table.add_row(
        {config.kernel, std::to_string(config.jobs),
         TextTable::num(stats.seconds, 2),
         TextTable::num(stats.strikes_per_second, 1),
         TextTable::num(stats.strikes_per_second / scalar_j1_rate, 1) + "x",
         occupancy_cell(stats.lane_occupancy),
         same ? "identical" : "DIVERGED"});
    if (!same) {
      std::cerr << "FATAL: report changed with kernel=" << config.kernel
                << " jobs=" << config.jobs << "\n";
      return 1;
    }
  }

  std::cout << "Part A — report identity on alu2 (plan: 48 functional + 8 "
               "protection-path + 8 clock-edge + 8 out-of-envelope, ISA "
            << isa.name << "):\n\n";
  identity_table.print(std::cout);
  std::cout << "\nReports are byte-identical across the scalar and lane "
               "kernels, lane widths and job counts; wall-clock never feeds "
               "the report.\n\n";

  // ---- Part B: lane-kernel throughput on an ISCAS85 design.
  const auto c880_gen =
      bench::generate_benchmark(bench::find_benchmark("C880"), library);
  const auto c880 = bench::clone_with_output_flip_flops(c880_gen.netlist);
  const Picoseconds c880_period =
      std::max(core::hardened_clock_period(c880_gen.measured_dmax, library),
               core::min_clock_period_for_delta(params));

  set::StrikePlanOptions big_options;
  big_options.functional_strikes = 1920;
  big_options.protection_path_strikes = 0;
  big_options.clock_edge_strikes = 0;
  big_options.out_of_envelope_strikes = 128;
  big_options.cycles_per_run = 10;
  big_options.clock_period = c880_period;
  big_options.out_of_envelope_width = params.delta + Picoseconds(400.0);
  const auto c880_plan = set::build_strike_plan(c880, big_options, 2026);

  const campaign::CampaignEngine c880_engine(c880, params, c880_period);

  const std::vector<Config> throughput_configs = {
      {"scalar", false, 0, 1},
      {"lane-auto", true, 0, 1},
      {"lane-auto", true, 0, 8},
  };

  constexpr std::size_t kThroughputRounds = 9;
  std::vector<std::vector<double>> seconds(throughput_configs.size());
  std::vector<double> occupancy(throughput_configs.size(), -1.0);
  std::vector<std::int64_t> masked(throughput_configs.size(), -1);
  std::string big_baseline;
  for (std::size_t round = 0; round < kThroughputRounds; ++round) {
    // Each round starts at the next config, so none always runs first.
    for (std::size_t k = 0; k < throughput_configs.size(); ++k) {
      const std::size_t i = (round + k) % throughput_configs.size();
      const Config& config = throughput_configs[i];
      const auto stats = run_once(c880_engine, c880_plan, c880, c880_period,
                                  options_for(config, 2026, 10));
      if (big_baseline.empty()) big_baseline = stats.json;
      if (stats.json != big_baseline) {
        std::cerr << "FATAL: C880 report changed with kernel=" << config.kernel
                  << " jobs=" << config.jobs << "\n";
        return 1;
      }
      seconds[i].push_back(stats.seconds);
      occupancy[i] = stats.lane_occupancy;
      masked[i] = stats.masked;
    }
  }

  TextTable throughput_table;
  throughput_table.set_header({"Kernel", "Jobs", "Strikes", "Wall s",
                               "Strikes/s", "Speedup", "Occupancy", "Masked",
                               "Report"});
  const auto rate_of = [&](std::size_t i) {
    return static_cast<double>(c880_plan.size()) / median(seconds[i]);
  };
  const double scalar_rate = rate_of(0);
  const double lane_j1_rate = rate_of(1);
  const double lane_j1_occupancy = occupancy[1];
  const std::int64_t lane_j1_masked = masked[1];
  std::ostringstream rows_json;
  for (std::size_t i = 0; i < throughput_configs.size(); ++i) {
    const Config& config = throughput_configs[i];
    const double wall = median(seconds[i]);
    throughput_table.add_row(
        {config.kernel, std::to_string(config.jobs),
         std::to_string(c880_plan.size()), TextTable::num(wall, 3),
         TextTable::num(rate_of(i), 1),
         TextTable::num(rate_of(i) / scalar_rate, 1) + "x",
         occupancy_cell(occupancy[i]), masked_cell(masked[i]), "identical"});
    if (i != 0) rows_json << ",\n";
    rows_json << "    {\"kernel\": \"" << config.kernel
              << "\", \"jobs\": " << config.jobs
              << ", \"strikes_per_second\": " << TextTable::num(rate_of(i), 1)
              << ", \"wall_s\": " << TextTable::num(wall, 3)
              << ", \"lane_occupancy\": "
              << (occupancy[i] < 0.0 ? std::string("null")
                                     : TextTable::num(occupancy[i], 4))
              << ", \"lane_masked_strikes\": " << masked_json(masked[i])
              << "}";
  }

  const double speedup = lane_j1_rate / scalar_rate;
  std::cout << "Part B — strike-lane throughput on C880 (ISCAS85, "
            << c880_plan.size() << " strikes, 1920 functional + 128 "
               "out-of-envelope, median of "
            << kThroughputRounds << " rounds):\n\n";
  throughput_table.print(std::cout);
  std::cout << "\nSingle-job lane speedup (lane-auto vs scalar compiled): "
            << TextTable::num(speedup, 1) << "x at "
            << occupancy_cell(lane_j1_occupancy) << " lane occupancy ("
            << isa.name << ", " << isa.lanes << " lanes); "
            << masked_cell(lane_j1_masked)
            << " strikes masked before batching take no lane slot.\n";

  // ---- Part C: per-scheme throughput through the registry.
  constexpr std::size_t kSchemeRounds = 21;
  const auto& schemes = scheme::registered_schemes();
  std::vector<campaign::EngineOptions> scheme_options;
  std::vector<std::string> jobs1_json;
  for (const scheme::ProtectionScheme* s : schemes) {
    campaign::EngineOptions j1 = options_for({"lane-auto", true, 0, 1},
                                             2026, 10);
    j1.scheme = s;
    jobs1_json.push_back(
        run_once(c880_engine, c880_plan, c880, c880_period, j1).json);
    j1.jobs = 8;
    scheme_options.push_back(j1);
  }
  std::vector<std::vector<double>> scheme_rates(schemes.size());
  for (std::size_t round = 0; round < kSchemeRounds; ++round) {
    // Each round starts at the next scheme, so none always runs first.
    for (std::size_t k = 0; k < schemes.size(); ++k) {
      const std::size_t i = (round + k) % schemes.size();
      const auto eight = run_once(c880_engine, c880_plan, c880, c880_period,
                                  scheme_options[i]);
      if (eight.json != jobs1_json[i]) {
        std::cerr << "FATAL: scheme " << schemes[i]->name()
                  << " report changed between jobs=1 and jobs=8\n";
        return 1;
      }
      scheme_rates[i].push_back(eight.strikes_per_second);
    }
  }
  std::vector<double> scheme_median;
  double cwsp_rate = 0.0;
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    scheme_median.push_back(median(scheme_rates[i]));
    if (std::string(schemes[i]->name()) == "cwsp") {
      cwsp_rate = scheme_median.back();
    }
  }

  TextTable scheme_table;
  scheme_table.set_header({"Scheme", "Strikes/s (j8, median)", "vs cwsp",
                           "Deterministic"});
  std::ostringstream scheme_rows_json;
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    const double rate = scheme_median[i];
    scheme_table.add_row({schemes[i]->name(), TextTable::num(rate, 1),
                          TextTable::num(rate / cwsp_rate, 2) + "x",
                          "identical"});
    if (i != 0) scheme_rows_json << ",\n";
    scheme_rows_json << "    {\"scheme\": \"" << schemes[i]->name()
                     << "\", \"strikes_per_second\": "
                     << TextTable::num(rate, 1) << ", \"relative_to_cwsp\": "
                     << TextTable::num(rate / cwsp_rate, 3) << "}";
  }

  std::cout << "\nPart C — per-scheme throughput on C880 (lane-auto, jobs 8, "
               "single-set plan, median of "
            << kSchemeRounds << " runs):\n\n";
  scheme_table.print(std::cout);
  std::cout << "\nEvery registered scheme keeps the jobs-independence "
               "invariant; relative cost is the verdict-resolution "
               "overhead.\n";

  // Machine-readable result for the CI perf ratchet (ci/check-perf.sh).
  const char* out_path = argc > 1 ? argv[1] : "BENCH_campaign.json";
  std::ofstream out(out_path);
  out << "{\n"
      << "  \"schema\": \"cwsp-bench-campaign-v1\",\n"
      << "  \"identity\": {\"design\": \"alu2\", \"configs\": "
      << identity_configs.size() << ", \"byte_identical\": "
      << (identical ? "true" : "false") << "},\n"
      << "  \"throughput\": {\n"
      << "    \"design\": \"C880\",\n"
      << "    \"suite\": \"ISCAS85\",\n"
      << "    \"strikes\": " << c880_plan.size() << ",\n"
      << "    \"kernel_isa\": \"" << isa.name << "\",\n"
      << "    \"kernel_lanes\": " << isa.lanes << ",\n"
      << "    \"rows\": [\n"
      << rows_json.str() << "\n    ],\n"
      << "    \"speedup_lane_vs_scalar\": " << TextTable::num(speedup, 2)
      << ",\n"
      << "    \"lane_occupancy\": "
      << (lane_j1_occupancy < 0.0 ? std::string("null")
                                  : TextTable::num(lane_j1_occupancy, 4))
      << ",\n"
      << "    \"lane_masked_strikes\": " << masked_json(lane_j1_masked)
      << "\n  },\n"
      << "  \"schemes\": {\n"
      << "    \"design\": \"C880\",\n"
      << "    \"byte_identical\": true,\n"
      << "    \"rows\": [\n"
      << scheme_rows_json.str() << "\n    ]\n  }\n}\n";
  out.close();
  std::cout << "Wrote " << out_path << "\n";
  return 0;
}
