// The batch workloads (campaign-c7552, certify-c7552, compare-c880) and
// their traced decompositions.
//
// Untraced ops call the service handlers exactly as every `cwsp_tool`
// invocation does, each on a freshly built session. Traced ops split
// the same call into the functions the handler makes, check that the
// split reproduces the handler's output byte for byte, and then replay
// layers that are not on the end-to-end path (stimulus, lane batches,
// window dataflow, per-cell campaigns) to time them from outside.

#include <sys/resource.h>

#include <algorithm>
#include <memory>
#include <thread>

#include "analysis/certify.hpp"
#include "analysis/glitch_window.hpp"
#include "campaign/campaign.hpp"
#include "campaign/report.hpp"
#include "cwsp/protection_params.hpp"
#include "cwsp/timing.hpp"
#include "netlist/bench_parser.hpp"
#include "scheme/compare.hpp"
#include "scheme/fault_model.hpp"
#include "scheme/scheme.hpp"
#include "service/handlers.hpp"
#include "service/json.hpp"
#include "service/session.hpp"
#include "set/strike_plan.hpp"
#include "sim/strike_lanes.hpp"
#include "sta/sta.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using cwsp::service::DesignSession;
using SessionPtr = std::shared_ptr<const DesignSession>;

struct BatchKind {
  const char* workload;
  const char* group;
  const char* design_file;
  /// Jobs of the measured ops.
  std::size_t jobs;
  /// Jobs of the once-per-run determinism check (0: no check).
  std::size_t check_jobs;
};

// Settings and reasons are in README.md ("Workloads").
constexpr BatchKind kKinds[] = {
    {"campaign-c7552", "campaign", "c7552.bench", 1, 2},
    {"certify-c7552", "certify", "c7552.bench", 1, 0},
    {"compare-c880", "compare", "c880.bench", 2, 1},
};

const BatchKind* find_kind(const std::string& name) {
  for (const BatchKind& k : kKinds) {
    if (name == k.workload || name == k.group) return &k;
  }
  return nullptr;
}

cwsp::service::CampaignSpec campaign_spec(std::uint64_t seed,
                                          std::size_t jobs) {
  cwsp::service::CampaignSpec spec;
  spec.runs = 4000;
  spec.cycles = 16;
  spec.width_ps = 400.0;
  spec.adversarial = true;
  spec.seed = seed;
  spec.jobs = jobs;
  return spec;
}

cwsp::service::CertifySpec certify_spec(std::uint64_t seed) {
  cwsp::service::CertifySpec spec;  // Q = 100 fC, envelope = designed δ
  spec.seed = seed;
  return spec;
}

cwsp::service::CompareSpec compare_spec(std::uint64_t seed,
                                        std::size_t jobs) {
  cwsp::service::CompareSpec spec;  // every scheme × every fault model
  spec.runs = 2000;
  spec.cycles = 16;
  spec.seed = seed;
  spec.jobs = jobs;
  return spec;
}

/// `value[key]`; a report without it is a failed op, not a crash.
const cwsp::service::json::Value& member(
    const cwsp::service::json::Value& value, const std::string& key) {
  const cwsp::service::json::Value* found = value.find(key);
  if (found == nullptr) throw cwsp::Error("report has no '" + key + "'");
  return *found;
}

struct OpOutcome {
  std::string output;
  std::string failure;
  /// Strikes (campaign, compare) or strike sites certified (certify).
  double work = 0.0;
};

/// Runs one op of `group` through its service handler and returns the
/// handler's wall time in ms; checks and work accounting happen after
/// the clock stops.
double run_op(const std::string& group, const DesignSession& session,
              std::uint64_t seed, std::size_t jobs, OpOutcome& out) {
  namespace json = cwsp::service::json;
  const std::int64_t start = now_ns();
  if (group == "campaign") {
    auto outcome =
        cwsp::service::run_campaign(session, campaign_spec(seed, jobs));
    const double ms = ms_since(start);
    out.output = std::move(outcome.output);
    if (outcome.status != cwsp::campaign::CampaignStatus::kOk) {
      out.failure = std::string("campaign status ") +
                    cwsp::campaign::to_string(outcome.status);
    }
    const json::Value report = json::parse(out.output);
    out.work = member(report, "totals").number("strikes", 0.0);
    return ms;
  }
  if (group == "certify") {
    auto outcome = cwsp::service::run_certify(session, certify_spec(seed));
    const double ms = ms_since(start);
    out.output = std::move(outcome.output);
    if (outcome.escapes != 0 || outcome.unknowns != 0) {
      out.failure = "certify: " + std::to_string(outcome.escapes) +
                    " escapes, " + std::to_string(outcome.unknowns) +
                    " unknowns at the designed envelope";
    }
    out.work = static_cast<double>(
        cwsp::set::strike_sites(*session.netlist).size());
    return ms;
  }
  auto outcome = cwsp::service::run_compare(session, compare_spec(seed, jobs));
  const double ms = ms_since(start);
  out.output = std::move(outcome.output);
  const json::Value report = json::parse(out.output);
  for (const json::Value& row : member(report, "table4").as_array()) {
    out.work += row.number("strikes", 0.0);
  }
  return ms;
}

long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// ---- traced decompositions -------------------------------------------

using cwsp::Netlist;
using cwsp::Picoseconds;
namespace campaign = cwsp::campaign;
namespace core = cwsp::core;
namespace scheme = cwsp::scheme;
namespace set = cwsp::set;
namespace sim = cwsp::sim;

/// Replays lane batches split into the golden-plane sweep (pack,
/// evaluate, clock; spans sim.sweep) and the timed resolution of each
/// lane's strike on the settled cycle extracted from that plane (spans
/// sim.resolve). What run_batch spends beyond these two (per-lane
/// extraction, the faulty plane) is its self time, sim.extract_ms.
void split_batches(Tracer& tr, const DesignSession& session,
                   const std::vector<std::vector<sim::LaneScenario>>& batches,
                   Picoseconds period) {
  const sim::CompiledKernelContext& context = *session.kernel_context;
  const cwsp::FlatNetlistView& view = *context.view;
  sim::WideLogicSim golden(context.view);
  const sim::CompiledEventSim event(*session.netlist, session.kernel_context);
  sim::GoldenCycle lane_golden;
  Tracer::Scope replay(tr, "sim.split_replay");
  const std::size_t nets = view.num_nets();
  const std::size_t npi = view.num_primary_inputs();
  const std::size_t nff = view.num_flip_flops();
  const std::size_t words = golden.words_per_net();
  for (const auto& batch : batches) {
    const std::size_t lanes_used = batch.size();
    const std::size_t cycles = batch.front().inputs->size();
    {
      Tracer::Scope s(tr, "sim.sweep");
      for (std::size_t f = 0; f < nff; ++f) golden.fill_ff(f, false);
    }
    for (std::size_t t = 0; t < cycles; ++t) {
      {
        Tracer::Scope s(tr, "sim.sweep");
        for (std::size_t p = 0; p < npi; ++p) {
          for (std::size_t w = 0; w < words; ++w) {
            std::uint64_t bits = 0;
            const std::size_t hi = std::min(lanes_used, (w + 1) * 64);
            for (std::size_t l = w * 64; l < hi; ++l) {
              if ((*batch[l].inputs)[t][p]) bits |= 1ULL << (l % 64);
            }
            golden.set_input_word(p, w, bits);
          }
        }
        golden.evaluate();
      }
      for (std::size_t l = 0; l < lanes_used; ++l) {
        if (batch[l].cycle != t) continue;
        lane_golden.net_values.assign(nets, 0);
        for (std::size_t n = 0; n < nets; ++n) {
          lane_golden.net_values[n] =
              (golden.net_words(n)[l / 64] >> (l % 64)) & 1ULL;
        }
        lane_golden.ff_d.clear();
        for (std::size_t f = 0; f < nff; ++f) {
          lane_golden.ff_d.push_back(lane_golden.net_values[view.ff_d_net(f)] !=
                                     0);
        }
        lane_golden.po.clear();
        for (std::uint32_t po : view.po_nets()) {
          lane_golden.po.push_back(lane_golden.net_values[po] != 0);
        }
        Tracer::Scope s(tr, "sim.resolve");
        (void)event.resolve_strike(lane_golden, period, batch[l].strike);
        if (batch[l].node2.valid()) {
          const set::Strike second{batch[l].node2, batch[l].strike.start,
                                   batch[l].strike.width};
          (void)event.resolve_strike(lane_golden, period, second);
        }
      }
      {
        Tracer::Scope s(tr, "sim.sweep");
        golden.clock();
      }
    }
  }
}

std::string trace_campaign(Tracer& tr, const DesignSession& session,
                           std::uint64_t seed, std::string& failure) {
  const Netlist& netlist = *session.netlist;
  const auto spec = campaign_spec(seed, 1);
  const cwsp::service::CampaignCell cell =
      cwsp::service::campaign_cells(spec).front();
  const auto params = core::ProtectionParams::q100();
  const Picoseconds period = session.period_q100;

  campaign::EngineOptions options;
  options.seed = spec.seed;
  options.cycles_per_run = spec.cycles;
  options.jobs = spec.jobs;
  options.scheme = cell.scheme;
  options.fault_model = cell.model->name();

  Tracer::Op& op = tr.op();
  set::StrikePlan plan;
  campaign::CampaignResult result;
  std::string output;
  op.counters_before = Tracer::registry_counters();
  {
    Tracer::Scope whole(tr, "campaign.op");
    const set::StrikePlanOptions plan_options =
        cwsp::service::campaign_plan_options(spec, params, period);
    {
      Tracer::Scope s(tr, "set.plan");
      plan = cell.model->build_plan(netlist, plan_options, spec.seed);
    }
    const campaign::CampaignEngine engine(netlist, params, period,
                                          session.kernel_context);
    {
      Tracer::Scope s(tr, "campaign.engine");
      result = engine.run(plan, options);
    }
    {
      Tracer::Scope s(tr, "campaign.format");
      output = campaign::format_campaign_json(result, plan, netlist, options,
                                              period);
    }
    op.values["traced_ms"] = whole.elapsed_ms();
  }
  op.counters_after = Tracer::registry_counters();
  if (campaign::campaign_status(result) != campaign::CampaignStatus::kOk) {
    failure = "traced campaign status not ok";
  }

  // Replay 1: the per-strike stimulus of every lane strike.
  const scheme::ProtectionScheme& sch = *cell.scheme;
  std::vector<std::size_t> lane_strikes;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (plan.strikes[i].klass != set::StrikeClass::kProtectionPath) {
      lane_strikes.push_back(i);
    }
  }
  std::vector<std::vector<std::vector<bool>>> stimuli(lane_strikes.size());
  {
    Tracer::Scope replay(tr, "campaign.stimulus_replay");
    for (std::size_t k = 0; k < lane_strikes.size(); ++k) {
      Tracer::Scope s(tr, "campaign.stimulus");
      stimuli[k] = campaign::CampaignEngine::strike_inputs(
          netlist, spec.cycles, spec.seed, plan.strikes[lane_strikes[k]].index);
    }
  }

  // Replay 2: the lane batches, cut in plan order as the engine cuts them.
  sim::StrikeLaneSim lane_sim(session.kernel_context, period, params.delta);
  const std::size_t lanes = lane_sim.lanes();
  std::vector<std::vector<sim::LaneScenario>> batches;
  {
    Tracer::Scope replay(tr, "sim.batch_replay");
    std::vector<sim::LaneOutcome> out;
    for (std::size_t begin = 0; begin < lane_strikes.size(); begin += lanes) {
      const std::size_t end = std::min(begin + lanes, lane_strikes.size());
      std::vector<sim::LaneScenario> batch;
      for (std::size_t k = begin; k < end; ++k) {
        const set::PlannedStrike& planned = plan.strikes[lane_strikes[k]];
        sim::LaneScenario sc;
        sc.strike = planned.strike;
        sc.node2 = planned.node2;
        sc.cycle = planned.cycle;
        sc.squash_at_strike = sch.squash_at_strike(netlist, params, planned);
        sc.inputs = &stimuli[k];
        batch.push_back(sc);
      }
      {
        Tracer::Scope s(tr, "sim.batch");
        lane_sim.run_batch(batch, out);
      }
      batches.push_back(std::move(batch));
    }
  }

  // Replay 3: the same batches, split into sweep and resolution.
  split_batches(tr, session, batches, period);
  return output;
}

std::string trace_certify(Tracer& tr, const DesignSession& session,
                          std::uint64_t seed) {
  namespace analysis = cwsp::analysis;
  const Netlist& netlist = *session.netlist;
  const auto params = core::ProtectionParams::q100();
  const Picoseconds period =
      std::max(core::hardened_clock_period(session.sta.dmax, netlist.library()),
               core::min_clock_period_for_delta(params));
  analysis::CertifyOptions options;
  options.seed = certify_spec(seed).seed;

  Tracer::Op& op = tr.op();
  analysis::CertifyResult result;
  std::string output;
  {
    Tracer::Scope whole(tr, "certify.op");
    {
      Tracer::Scope s(tr, "analysis.certify");
      result = analysis::certify_design(netlist, params, period, options,
                                        session.kernel_context);
    }
    {
      Tracer::Scope s(tr, "analysis.format");
      output = analysis::format_certify_json(result, netlist) + "\n";
    }
    op.values["traced_ms"] = whole.elapsed_ms();
  }
  const double sites = static_cast<double>(result.sites.size());
  op.values["analysis.report_mb"] =
      static_cast<double>(output.size()) / (1024.0 * 1024.0);
  op.values["analysis.proved_ratio"] =
      (sites - static_cast<double>(result.unknown_count())) / sites;
  op.values["analysis.fallback_sites"] =
      static_cast<double>(result.fallback_count());

  // Replay: the window dataflow of every strike site.
  const sim::CompiledKernelContext& context = *session.kernel_context;
  {
    Tracer::Scope replay(tr, "analysis.windows_replay");
    for (cwsp::NetId site : set::strike_sites(netlist)) {
      Tracer::Scope s(tr, "analysis.windows");
      (void)analysis::propagate_windows(*context.view, *context.gate_delay_ps,
                                        site);
    }
  }
  return output;
}

std::string trace_compare(Tracer& tr, const DesignSession& session,
                          std::uint64_t seed) {
  const Netlist& netlist = *session.netlist;
  const auto spec = compare_spec(seed, 2);
  const auto params = core::ProtectionParams::q100();
  const Picoseconds period = session.period_q100;

  scheme::CompareOptions options;
  options.runs = spec.runs;
  options.cycles = spec.cycles;
  options.glitch_width = Picoseconds(spec.width_ps);
  options.seed = spec.seed;
  options.jobs = spec.jobs;

  Tracer::Op& op = tr.op();
  std::string output;
  {
    Tracer::Scope whole(tr, "compare.op");
    scheme::CompareReport report;
    {
      Tracer::Scope s(tr, "scheme.compare");
      report = scheme::run_compare(netlist, params, period,
                                   session.kernel_context, options);
    }
    {
      Tracer::Scope s(tr, "scheme.format");
      output = scheme::format_compare_json(report);
    }
    op.values["traced_ms"] = whole.elapsed_ms();
  }

  // Replay: the calls run_compare makes, one span each. The plan
  // settings mirror scheme::run_compare.
  set::StrikePlanOptions plan_options;
  plan_options.functional_strikes = options.runs;
  const std::size_t extra = std::max<std::size_t>(1, options.runs / 4);
  plan_options.protection_path_strikes = extra;
  plan_options.clock_edge_strikes = extra;
  plan_options.out_of_envelope_strikes = extra;
  plan_options.cycles_per_run = options.cycles;
  plan_options.glitch_width = options.glitch_width;
  plan_options.out_of_envelope_width = params.delta + Picoseconds(400.0);
  plan_options.clock_period = period;
  const campaign::CampaignEngine engine(netlist, params, period,
                                        session.kernel_context);
  Tracer::Scope replay(tr, "scheme.replay");
  for (const scheme::ProtectionScheme* s : scheme::registered_schemes()) {
    Tracer::Scope span(tr, "scheme.characterize");
    (void)s->characterize(netlist, params);
  }
  for (const scheme::ProtectionScheme* s : scheme::registered_schemes()) {
    for (const scheme::FaultModel* m : scheme::registered_fault_models()) {
      set::StrikePlan plan;
      {
        Tracer::Scope span(tr, "scheme.plan");
        plan = m->build_plan(netlist, plan_options, options.seed);
      }
      campaign::EngineOptions engine_options;
      engine_options.seed = options.seed;
      engine_options.cycles_per_run = options.cycles;
      engine_options.jobs = options.jobs;
      engine_options.scheme = s;
      engine_options.fault_model = m->name();
      Tracer::Scope span(tr, std::string("campaign.cell.") + s->name() + "." +
                                 m->name());
      (void)engine.run(plan, engine_options);
    }
  }
  return output;
}

void traced_op(const BatchKind& kind, const std::string& path,
               std::uint64_t seed, bool own, bool first,
               const cwsp::CellLibrary& library, RawResult& raw) {
  const std::string group = kind.group;
  Tracer& tr = raw.tracer;
  std::string failure;
  try {
    // The untraced handler call on a fresh session: the reference output
    // the decomposition must reproduce, and the tracing-overhead base.
    OpOutcome ref;
    double ref_ms = 0.0;
    {
      const SessionPtr session =
          cwsp::service::load_design_session(path, library);
      ref_ms = run_op(group, *session, seed, kind.jobs, ref);
    }
    failure = ref.failure;
    if (own && first) fnv_mix(raw.digest, ref.output);

    Tracer::Op& op = tr.begin_op(group, own);
    op.values["untraced_ms"] = ref_ms;
    const SessionPtr session = traced_session(tr, path, library);
    std::string output;
    if (group == "campaign") {
      output = trace_campaign(tr, *session, seed, failure);
    } else if (group == "certify") {
      output = trace_certify(tr, *session, seed);
    } else {
      output = trace_compare(tr, *session, seed);
    }
    if (output != ref.output) {
      failure = "traced " + group + " output differs from the handler's";
    }

    if (group == "campaign") {
      // The same op again on the now-warm session (lazy per-session
      // caches filled), then jobs scaling on fresh sessions.
      const auto spec = campaign_spec(seed, 1);
      const std::int64_t start = now_ns();
      const auto warm = cwsp::service::run_campaign(*session, spec);
      op.values["campaign.warm_op_ms"] = ms_since(start);
      if (warm.output != ref.output) failure = "warm re-run output differs";
      const std::size_t cores =
          std::max<std::size_t>(1, std::thread::hardware_concurrency());
      for (std::size_t jobs : {std::size_t{2}, std::size_t{4}}) {
        const SessionPtr fresh =
            cwsp::service::load_design_session(path, library);
        OpOutcome scaled;
        const double ms =
            run_op(group, *fresh, seed, std::min(jobs, cores), scaled);
        op.values["campaign.scaling_j" + std::to_string(jobs)] = ref_ms / ms;
        if (scaled.output != ref.output) {
          failure = "jobs " + std::to_string(jobs) + " output differs";
        }
      }
    }
  } catch (const std::exception& e) {
    failure = e.what();
  }
  raw.count(failure.empty() ? "" : group + " traced op: " + failure);
}

}  // namespace

std::shared_ptr<const cwsp::service::DesignSession> traced_session(
    Tracer& tr, const std::string& path, const cwsp::CellLibrary& library) {
  const std::string text = cwsp::service::read_design_file(path);
  const std::string name = cwsp::service::design_name_from_path(path);
  std::unique_ptr<cwsp::Netlist> netlist;
  cwsp::TimingResult sta;
  std::shared_ptr<const cwsp::sim::CompiledKernelContext> context;
  {
    Tracer::Scope setup(tr, "setup");
    {
      Tracer::Scope s(tr, "netlist.parse");
      netlist = std::make_unique<cwsp::Netlist>(
          cwsp::parse_bench_string(text, library, name));
    }
    {
      Tracer::Scope s(tr, "sta.run");
      sta = cwsp::run_sta(*netlist);
    }
    {
      Tracer::Scope s(tr, "sim.context");
      context = cwsp::sim::CompiledKernelContext::build(*netlist);
    }
  }
  Tracer::Scope s(tr, "service.session");
  return cwsp::service::DesignSession::build(name, text, library);
}

void run_batch_workload(const Options& options,
                        const cwsp::CellLibrary& library, RawResult& raw) {
  const BatchKind& kind = *find_kind(options.workload);
  const std::string path = options.inputs + "/" + kind.design_file;

  // One op: a fresh session (set-up, as every CLI call pays it), then the
  // handler. `measured` ops feed op_ms/op_work.
  auto one = [&](std::uint64_t k, std::size_t jobs, bool measured) {
    OpOutcome out;
    try {
      const std::int64_t start = now_ns();
      const SessionPtr session =
          cwsp::service::load_design_session(path, library);
      raw.setup_ms.push_back(ms_since(start));
      const double ms =
          run_op(kind.group, *session, op_seed(options.seed, k), jobs, out);
      if (measured) {
        raw.op_ms.push_back(ms);
        raw.op_work.push_back(out.work);
      }
    } catch (const std::exception& e) {
      out.failure = e.what();
    }
    return out;
  };
  auto count = [&](std::uint64_t k, const std::string& failure) {
    raw.count(failure.empty() ? ""
                              : "op " + std::to_string(k) + ": " + failure);
  };

  // Untimed warm-up op; its report is the run's digest.
  const OpOutcome first = one(0, kind.jobs, false);
  count(0, first.failure);
  fnv_mix(raw.digest, first.output);

  // At least kMinOps measured ops, so the reported tail percentile
  // always has ten ops beyond it.
  constexpr std::uint64_t kMinOps = 20;
  const std::int64_t start = now_ns();
  for (std::uint64_t k = 1;
       k <= kMinOps || ms_since(start) < options.seconds * 1e3; ++k) {
    count(k, one(k, kind.jobs, true).failure);
  }
  raw.peak_rss_kb = peak_rss_kb();

  if (kind.check_jobs != 0) {
    // Reports must be byte-identical at any jobs value (checked once per
    // run, after the peak RSS is read).
    OpOutcome again = one(0, kind.check_jobs, false);
    if (again.failure.empty() && again.output != first.output) {
      again.failure = "output at jobs " + std::to_string(kind.check_jobs) +
                      " differs from jobs " + std::to_string(kind.jobs);
    }
    count(0, again.failure);
  }
}

void trace_batch_group(const std::string& group, const Options& options,
                       const cwsp::CellLibrary& library, bool own,
                       RawResult& raw) {
  const BatchKind& kind = *find_kind(group);
  const std::string path = options.inputs + "/" + kind.design_file;
  const std::int64_t start = now_ns();
  std::uint64_t k = 0;
  do {
    traced_op(kind, path, op_seed(options.seed, k), own, k == 0, library, raw);
    ++k;
  } while (own && ms_since(start) < options.seconds * 1e3);
}

}  // namespace perfbench
