#include "campaign/report.hpp"

#include <cstdio>
#include <sstream>

#include "common/json_text.hpp"

namespace cwsp::campaign {
namespace {

/// Fixed-precision formatting keeps the JSON byte-deterministic.
std::string num(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f", v);
  return buffer;
}

}  // namespace

const char* to_string(CampaignStatus status) {
  switch (status) {
    case CampaignStatus::kOk:
      return "ok";
    case CampaignStatus::kEscapes:
      return "escapes";
    case CampaignStatus::kInterrupted:
      return "interrupted";
    case CampaignStatus::kInvalid:
      return "invalid";
  }
  return "unknown";
}

CampaignStatus campaign_status(const CampaignResult& result) {
  if (result.interrupted) return CampaignStatus::kInterrupted;
  if (!result.report.valid()) return CampaignStatus::kInvalid;
  if (result.unexpected_escapes > 0) return CampaignStatus::kEscapes;
  return CampaignStatus::kOk;
}

std::string format_campaign_text(const CampaignResult& result,
                                 const set::StrikePlan& plan,
                                 const Netlist& netlist) {
  const core::CoverageReport& r = result.report;
  std::ostringstream os;
  os << "campaign              : " << netlist.name() << "\n";
  // Emitted only off the default (scheme=cwsp, fault-model=single-set) so
  // plain CWSP reports stay byte-identical to pre-scheme-registry output.
  if (result.scheme != "cwsp" || result.fault_model != "single-set") {
    os << "scheme / fault model  : " << result.scheme << " / "
       << result.fault_model << "\n";
  }
  os << "status                : " << to_string(campaign_status(result))
     << "\n";
  os << "strikes (plan/done)   : " << plan.size() << " / "
     << r.strikes_injected << "\n";
  if (result.resumed > 0) {
    os << "resumed from journal  : " << result.resumed << "\n";
  }
  if (!r.valid()) {
    os << "zero strikes injected — campaign is INVALID, coverage unproven\n";
    return os.str();
  }
  os << "protected coverage    : " << num(r.protected_coverage_pct())
     << " %\n";
  os << "escapes (unexpected)  : " << r.protected_failures << " ("
     << result.unexpected_escapes << ")\n";
  os << "inconclusive/timeouts : " << r.inconclusive << " / " << r.timeouts
     << "\n";
  os << "unprotected failures  : " << num(r.unprotected_failure_pct())
     << " %\n";
  os << "bubbles (detected/spurious): " << r.bubbles << " ("
     << r.detected_errors << "/" << r.spurious_recomputes << ")\n";
  if (!r.scenarios.empty()) {
    os << "per-scenario breakdown:\n";
    for (const core::ScenarioStats& s : r.scenarios) {
      os << "  " << s.name << ": " << s.strikes << " strikes, " << s.escapes
         << " escape(s), " << s.inconclusive << " inconclusive\n";
    }
  }
  for (const StrikeResult& s : result.strikes) {
    if (!s.completed() || s.conclusive()) continue;
    os << "inconclusive strike " << s.index << " [" << to_string(s.status)
       << "]: " << s.diagnostic << "\n";
  }
  for (const EscapeRepro& repro : result.repros) {
    os << "escape " << repro.strike_index << " minimized: width "
       << num(repro.original_width.value()) << " -> "
       << num(repro.minimized.strike.width.value()) << " ps";
    if (!repro.spec_path.empty()) os << ", repro at " << repro.spec_path;
    os << "\n";
  }
  return os.str();
}

std::string format_campaign_json(const CampaignResult& result,
                                 const set::StrikePlan& plan,
                                 const Netlist& netlist,
                                 const EngineOptions& options,
                                 Picoseconds clock_period) {
  const core::CoverageReport& r = result.report;
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"cwsp-campaign-report-v1\",\n";
  os << "  \"design\": \"" << json_text::escape(netlist.name()) << "\",\n";
  // Emitted only off the default (scheme=cwsp, fault-model=single-set) so
  // plain CWSP reports stay byte-identical to pre-scheme-registry output.
  if (result.scheme != "cwsp" || result.fault_model != "single-set") {
    os << "  \"scheme\": \"" << json_text::escape(result.scheme) << "\",\n";
    os << "  \"fault_model\": \"" << json_text::escape(result.fault_model)
       << "\",\n";
  }
  os << "  \"status\": \"" << to_string(campaign_status(result)) << "\",\n";
  os << "  \"seed\": " << options.seed << ",\n";
  os << "  \"cycles_per_run\": " << options.cycles_per_run << ",\n";
  os << "  \"clock_period_ps\": " << num(clock_period.value()) << ",\n";

  // Plan composition, classes in plan order.
  os << "  \"plan\": {\"total\": " << plan.size();
  {
    std::vector<std::pair<const char*, std::size_t>> counts;
    for (const set::PlannedStrike& p : plan.strikes) {
      const char* name = set::to_string(p.klass);
      bool found = false;
      for (auto& [n, c] : counts) {
        if (n == name) {
          ++c;
          found = true;
        }
      }
      if (!found) counts.emplace_back(name, 1);
    }
    for (const auto& [name, count] : counts) {
      os << ", \"" << name << "\": " << count;
    }
  }
  os << "},\n";

  os << "  \"totals\": {"
     << "\"strikes\": " << r.strikes_injected
     << ", \"covered\": "
     << (r.conclusive_strikes() - r.protected_failures)
     << ", \"escapes\": " << r.protected_failures
     << ", \"unexpected_escapes\": " << result.unexpected_escapes
     << ", \"inconclusive\": " << r.inconclusive
     << ", \"timeouts\": " << r.timeouts
     << ", \"unprotected_failures\": " << r.unprotected_failures
     << ", \"bubbles\": " << r.bubbles
     << ", \"detected_errors\": " << r.detected_errors
     << ", \"spurious_recomputes\": " << r.spurious_recomputes
     << ", \"coverage_pct\": " << num(r.protected_coverage_pct()) << "},\n";

  os << "  \"scenarios\": [";
  for (std::size_t i = 0; i < r.scenarios.size(); ++i) {
    const core::ScenarioStats& s = r.scenarios[i];
    if (i > 0) os << ", ";
    os << "{\"name\": \"" << json_text::escape(s.name)
       << "\", \"strikes\": " << s.strikes << ", \"escapes\": " << s.escapes
       << ", \"inconclusive\": " << s.inconclusive
       << ", \"timeouts\": " << s.timeouts
       << ", \"unprotected_failures\": " << s.unprotected_failures << "}";
  }
  os << "],\n";

  os << "  \"escapes\": [";
  {
    bool first = true;
    // result.strikes[i] is the outcome of plan.strikes[i]; pairing by
    // position (not by s.index) keeps this correct for shard sub-plans,
    // whose stable indices are offsets into the full plan.
    for (std::size_t i = 0; i < result.strikes.size(); ++i) {
      const StrikeResult& s = result.strikes[i];
      if (!s.completed() || s.status != StrikeStatus::kEscape) continue;
      const set::PlannedStrike& p = plan.strikes[i];
      if (!first) os << ", ";
      first = false;
      os << "{\"index\": " << s.index << ", \"class\": \""
         << set::to_string(p.klass) << "\"";
      if (p.strike.node.valid()) {
        os << ", \"node\": \""
           << json_text::escape(netlist.net(p.strike.node).name) << "\"";
      }
      os << ", \"cycle\": " << p.cycle << ", \"start_ps\": "
         << num(p.strike.start.value()) << ", \"width_ps\": "
         << num(p.strike.width.value()) << ", \"diagnostic\": \""
         << json_text::escape(s.diagnostic) << "\"}";
    }
  }
  os << "],\n";

  os << "  \"inconclusive\": [";
  {
    bool first = true;
    for (const StrikeResult& s : result.strikes) {
      if (!s.completed() || s.conclusive()) continue;
      if (!first) os << ", ";
      first = false;
      os << "{\"index\": " << s.index << ", \"status\": \""
         << to_string(s.status) << "\", \"diagnostic\": \""
         << json_text::escape(s.diagnostic) << "\"}";
    }
  }
  os << "],\n";

  os << "  \"repros\": [";
  for (std::size_t i = 0; i < result.repros.size(); ++i) {
    const EscapeRepro& repro = result.repros[i];
    if (i > 0) os << ", ";
    os << "{\"index\": " << repro.strike_index << ", \"width_ps\": "
       << num(repro.minimized.strike.width.value()) << ", \"start_ps\": "
       << num(repro.minimized.strike.start.value()) << ", \"cycles\": "
       << repro.inputs.size();
    if (!repro.spec_path.empty()) {
      os << ", \"spec\": \"" << json_text::escape(repro.spec_path) << "\"";
    }
    os << "}";
  }
  os << "]\n";
  os << "}\n";
  return os.str();
}

}  // namespace cwsp::campaign
