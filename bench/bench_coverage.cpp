// Validates the paper's central claim (§3.2): 100% SET tolerance for
// glitches within the protected width, across functional strikes and
// every protection-circuit strike scenario — and shows the unprotected
// design fails for the same strike population.

#include <algorithm>
#include <iostream>

#include "bencharness/generator.hpp"
#include "campaign/campaign.hpp"
#include "common/table.hpp"
#include "cwsp/timing.hpp"
#include "scheme/fault_model.hpp"

int main() {
  using namespace cwsp;
  const CellLibrary library = make_default_library();
  const auto params = core::ProtectionParams::q100();

  TextTable table;
  table.set_header({"Circuit", "Strikes", "Protected cov %",
                    "Unprotected fail %", "Bubbles", "Detected",
                    "Spurious"});

  for (const char* name : {"alu2", "C432"}) {
    const auto gen =
        bench::generate_benchmark(bench::find_benchmark(name), library);
    const auto seq = bench::clone_with_output_flip_flops(gen.netlist);

    const Picoseconds period = std::max(
        core::hardened_clock_period(gen.measured_dmax, library),
        core::min_clock_period_for_delta(params));

    // The two campaigns the coverage op runs: 40 single-set functional
    // strikes, then 160 protection-seu strikes (about 40 per §3.2 site).
    const campaign::CampaignEngine engine(seq, params, period);
    const auto run = [&](const scheme::FaultModel& model,
                         std::size_t strikes) {
      set::StrikePlanOptions plan_options;
      plan_options.functional_strikes = strikes;
      plan_options.cycles_per_run = 10;
      plan_options.glitch_width = Picoseconds(400.0);
      plan_options.clock_period = period;
      campaign::EngineOptions engine_options;
      engine_options.seed = 2026;
      engine_options.cycles_per_run = plan_options.cycles_per_run;
      engine_options.fault_model = model.name();
      return engine
          .run(model.build_plan(seq, plan_options, engine_options.seed),
               engine_options)
          .report;
    };
    const auto functional = run(scheme::default_fault_model(), 40);
    const auto scenarios =
        run(*scheme::find_fault_model("protection-seu"), 4 * 40);

    table.add_row(
        {std::string(name) + " (functional)",
         std::to_string(functional.strikes_injected),
         TextTable::num(functional.protected_coverage_pct(), 1),
         TextTable::num(functional.unprotected_failure_pct(), 1),
         std::to_string(functional.bubbles),
         std::to_string(functional.detected_errors),
         std::to_string(functional.spurious_recomputes)});
    table.add_row({std::string(name) + " (scenario sweep)",
                   std::to_string(scenarios.strikes_injected),
                   TextTable::num(scenarios.protected_coverage_pct(), 1),
                   "-", std::to_string(scenarios.bubbles),
                   std::to_string(scenarios.detected_errors),
                   std::to_string(scenarios.spurious_recomputes)});
  }

  std::cout << "SET fault-injection coverage (paper claim: 100% protection; "
               "glitch width 400 ps <= delta)\n";
  table.print(std::cout);
  return 0;
}
