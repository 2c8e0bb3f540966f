// Fault-injection walkthrough: injects a capture-corrupting SET into a
// protected design, traces the recovery protocol cycle by cycle, then
// runs a randomized campaign showing 100% coverage (and that the same
// strikes corrupt the unprotected design).

#include <iostream>

#include "campaign/campaign.hpp"
#include "common/table.hpp"
#include "cwsp/timing.hpp"
#include "netlist/bench_parser.hpp"
#include "scheme/fault_model.hpp"

int main() {
  using namespace cwsp;
  using namespace cwsp::literals;
  const CellLibrary library = make_default_library();

  const Netlist netlist = parse_bench_string(R"(
INPUT(a)
INPUT(b)
OUTPUT(q1)
OUTPUT(y)
t1 = NAND(a, q2)
t2 = XOR(t1, b)
d1 = NOT(t2)
q1 = DFF(d1)
q2 = DFF(t1)
y  = AND(q1, q2)
)",
                                             library, "demo_fsm");

  const auto params = core::ProtectionParams::q100();
  const Picoseconds period{2000.0};
  core::ProtectionSim sim(netlist, params, period);

  // --- single-strike walkthrough --------------------------------------
  std::vector<std::vector<bool>> inputs;
  for (int i = 0; i < 8; ++i) inputs.push_back({(i % 2) == 0, (i % 3) == 0});

  core::ScheduledStrike strike;
  strike.cycle = 3;
  strike.target = core::StrikeTarget::kFunctional;
  strike.strike.node = *netlist.find_net("d1");
  strike.strike.start = 1800.0_ps;  // spans the capture edge at 2000 ps
  strike.strike.width = 400.0_ps;

  const auto protected_run = sim.run(inputs, {strike});
  const auto unprotected_run = sim.run_unprotected(inputs, {strike});

  std::cout << "Single strike on net d1 spanning the capture edge of cycle "
            << strike.cycle << ":\n";
  std::cout << "  protected   : " << protected_run.detected_errors
            << " detection(s), " << protected_run.bubbles
            << " pipeline bubble(s), "
            << protected_run.silent_corruptions << " silent corruption(s) — "
            << (protected_run.recovered() ? "RECOVERED" : "FAILED") << "\n";
  std::cout << "  unprotected : " << unprotected_run.corrupted_cycles
            << " corrupted cycle(s)\n\n";

  TextTable trace;
  trace.set_header({"program cycle", "golden outputs", "committed outputs"});
  for (std::size_t i = 0; i < protected_run.golden_outputs.size(); ++i) {
    auto fmt = [](const std::vector<bool>& v) {
      std::string s;
      for (bool b : v) s += b ? '1' : '0';
      return s;
    };
    trace.add_row({std::to_string(i), fmt(protected_run.golden_outputs[i]),
                   fmt(protected_run.committed_outputs[i])});
  }
  trace.print(std::cout);

  // --- randomized campaign --------------------------------------------
  // One strike per run from the paper's fault model, each in its own
  // 16-cycle stimulus, on the campaign engine (docs/campaign.md).
  set::StrikePlanOptions plan_options;
  plan_options.functional_strikes = 100;
  plan_options.cycles_per_run = 16;
  plan_options.glitch_width = 400.0_ps;
  plan_options.clock_period = period;
  campaign::EngineOptions engine_options;
  engine_options.seed = 7;
  engine_options.cycles_per_run = plan_options.cycles_per_run;
  const set::StrikePlan plan = scheme::default_fault_model().build_plan(
      netlist, plan_options, engine_options.seed);
  const campaign::CampaignEngine engine(netlist, params, period);
  const core::CoverageReport report =
      engine.run(plan, engine_options).report;
  std::cout << "\nRandomized campaign (" << report.runs << " runs):\n";
  std::cout << "  protected coverage   : "
            << report.protected_coverage_pct() << " %\n";
  std::cout << "  unprotected failures : "
            << report.unprotected_failure_pct() << " % of strikes\n";
  std::cout << "  detected / spurious  : " << report.detected_errors << " / "
            << report.spurious_recomputes << "\n";
  return 0;
}
