#pragma once
// Coverage accounting for the paper's 100%-SET-tolerance claim: the
// totals and per-scenario slices a fault-injection campaign
// (campaign::CampaignEngine) aggregates from its strikes, both against
// the protected design (must never corrupt committed outputs) and the
// unprotected one (shows the harness has teeth).

#include <cstddef>
#include <string>
#include <vector>

namespace cwsp::core {

/// Per-scenario slice of a campaign (one entry per strike class or §3.2
/// scenario swept), so a report can show where escapes and inconclusive
/// runs concentrate rather than a single blended number.
struct ScenarioStats {
  std::string name;
  /// The (protection scheme, fault model) cell this slice was measured
  /// under. Part of the bucket key: a merged multi-scheme report must
  /// never alias two schemes' counters into one scenario bucket.
  std::string scheme;
  std::string model;
  std::size_t strikes = 0;
  std::size_t escapes = 0;
  std::size_t unprotected_failures = 0;
  std::size_t timeouts = 0;
  /// Strikes that produced no verdict (timeouts plus isolated simulator
  /// exceptions); never counted as covered.
  std::size_t inconclusive = 0;
};

struct CoverageReport {
  std::size_t runs = 0;
  std::size_t strikes_injected = 0;
  /// Runs whose protected execution committed a wrong output.
  std::size_t protected_failures = 0;
  /// Strikes that corrupted the unprotected design's execution.
  std::size_t unprotected_failures = 0;
  std::size_t bubbles = 0;
  std::size_t detected_errors = 0;
  std::size_t spurious_recomputes = 0;
  /// Strikes without a verdict (exception or timeout). A campaign with
  /// inconclusive strikes cannot certify 100% coverage.
  std::size_t inconclusive = 0;
  /// Subset of `inconclusive` that hit the per-strike wall-clock budget.
  std::size_t timeouts = 0;
  std::vector<ScenarioStats> scenarios;

  /// A campaign that injected nothing proves nothing: zero-strike reports
  /// are invalid (a misconfigured plan), never vacuously 100% covered.
  [[nodiscard]] bool valid() const { return strikes_injected > 0; }

  /// Find-or-append the breakdown slice for the full (name, scheme,
  /// model) bucket key.
  ScenarioStats& scenario(const std::string& name, const std::string& scheme,
                          const std::string& model) {
    for (auto& s : scenarios) {
      if (s.name == name && s.scheme == scheme && s.model == model) return s;
    }
    scenarios.push_back(ScenarioStats{name, scheme, model, 0, 0, 0, 0, 0});
    return scenarios.back();
  }
  ScenarioStats& scenario(const std::string& name) {
    return scenario(name, std::string(), std::string());
  }

  [[nodiscard]] std::size_t conclusive_strikes() const {
    return strikes_injected - inconclusive;
  }

  /// Coverage over conclusive strikes; 0 for invalid (zero-strike)
  /// campaigns — see valid().
  [[nodiscard]] double protected_coverage_pct() const {
    if (conclusive_strikes() == 0) return 0.0;
    return 100.0 * (1.0 - static_cast<double>(protected_failures) /
                              static_cast<double>(conclusive_strikes()));
  }
  [[nodiscard]] double unprotected_failure_pct() const {
    if (conclusive_strikes() == 0) return 0.0;
    return 100.0 * static_cast<double>(unprotected_failures) /
           static_cast<double>(conclusive_strikes());
  }
};

}  // namespace cwsp::core
