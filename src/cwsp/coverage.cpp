#include "cwsp/coverage.hpp"

#include "common/rng.hpp"
#include "set/strike_plan.hpp"

namespace cwsp::core {
namespace {

std::vector<std::vector<bool>> random_inputs(const Netlist& netlist,
                                             std::size_t cycles, Rng& rng) {
  std::vector<std::vector<bool>> inputs(cycles);
  for (auto& vec : inputs) {
    vec.resize(netlist.primary_inputs().size());
    for (std::size_t i = 0; i < vec.size(); ++i) vec[i] = rng.next_bool();
  }
  return inputs;
}

void accumulate(CoverageReport& report, const ProtectionRunResult& protected_r,
                const UnprotectedRunResult& unprotected_r, std::size_t strikes,
                const std::string& scenario) {
  ++report.runs;
  report.strikes_injected += strikes;
  if (!protected_r.recovered()) ++report.protected_failures;
  if (unprotected_r.corrupted_cycles > 0) ++report.unprotected_failures;
  report.bubbles += protected_r.bubbles;
  report.detected_errors += protected_r.detected_errors;
  report.spurious_recomputes += protected_r.spurious_recomputes;

  ScenarioStats& slice = report.scenario(scenario);
  slice.strikes += strikes;
  if (!protected_r.recovered()) ++slice.escapes;
  if (unprotected_r.corrupted_cycles > 0) ++slice.unprotected_failures;
}

}  // namespace

CoverageReport run_functional_campaign(const Netlist& netlist,
                                       const ProtectionParams& params,
                                       Picoseconds clock_period,
                                       const CampaignOptions& options) {
  CoverageReport report;
  Rng rng(options.seed);
  const auto sites = set::strike_sites(netlist);
  CWSP_REQUIRE(!sites.empty());
  // Runs on the compiled kernel; golden cycles are cached per stimulus
  // across the protected/unprotected pair.
  ProtectionSim sim(netlist, params, clock_period);

  for (std::size_t run = 0; run < options.runs; ++run) {
    const auto inputs = random_inputs(netlist, options.cycles_per_run, rng);

    // One strike per run, randomly placed. Strike times cover the whole
    // cycle including the capture edge neighbourhood.
    ScheduledStrike strike;
    strike.cycle = rng.next_below(options.cycles_per_run);
    strike.target = StrikeTarget::kFunctional;
    if (options.area_weighted_sites) {
      strike.strike = set::area_weighted_strikes(
          netlist, 1, options.glitch_width, Picoseconds(0.0),
          Picoseconds(clock_period.value() - 1.0), rng)[0];
    } else {
      strike.strike.node = sites[rng.next_below(sites.size())];
      strike.strike.width = options.glitch_width;
      strike.strike.start = Picoseconds(
          rng.next_double_in(0.0, clock_period.value() - 1.0));
    }

    const auto protected_r = sim.run(inputs, {strike});
    const auto unprotected_r = sim.run_unprotected(inputs, {strike});
    accumulate(report, protected_r, unprotected_r, 1, "functional");
  }
  return report;
}

CoverageReport run_scenario_sweep(const Netlist& netlist,
                                  const ProtectionParams& params,
                                  Picoseconds clock_period,
                                  const CampaignOptions& options) {
  CoverageReport report;
  Rng rng(options.seed);
  ProtectionSim sim(netlist, params, clock_period);

  struct Scenario {
    StrikeTarget target;
    const char* name;
  };
  const Scenario scenarios[] = {
      {StrikeTarget::kEqChecker, "eq-checker"},
      {StrikeTarget::kEqglbfDff, "eqglbf-dff"},
      {StrikeTarget::kCwStarDff, "cwstar-dff"},
      {StrikeTarget::kCwspOutput, "cwsp-output"},
  };

  for (const auto& [target, name] : scenarios) {
    for (std::size_t run = 0; run < options.runs; ++run) {
      const auto inputs = random_inputs(netlist, options.cycles_per_run, rng);
      ScheduledStrike strike;
      strike.cycle = rng.next_below(options.cycles_per_run);
      strike.target = target;
      strike.ff_index = rng.next_below(
          std::max<std::size_t>(1, netlist.num_flip_flops()));
      strike.strike.width = options.glitch_width;
      strike.strike.start =
          Picoseconds(rng.next_double_in(0.0, clock_period.value()));

      const auto protected_r = sim.run(inputs, {strike});
      // Protection-circuit strikes don't exist in the unprotected design;
      // only the protected run matters here.
      UnprotectedRunResult no_ref;
      no_ref.corrupted_cycles = 0;
      accumulate(report, protected_r, no_ref, 1, name);
    }
  }
  return report;
}

}  // namespace cwsp::core
