#pragma once
// Request execution shared by the one-shot CLI and the resident server.
//
// Byte-identical output between `cwsp_tool campaign --json` and a service
// `campaign` request is a hard contract (it is what lets the service
// batch and cache results at all), so there is exactly ONE code path that
// turns a validated request spec into a report: the spec codec decodes
// argv and JSON requests onto these specs, and both surfaces call the
// same run_* functions below. Anything execution-dependent (worker
// counts, cache state, wall-clock) never reaches the output.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "campaign/report.hpp"
#include "lint/lint.hpp"
#include "scheme/fault_model.hpp"
#include "scheme/scheme.hpp"
#include "service/session.hpp"
#include "set/strike_plan.hpp"
#include "sim/cancel.hpp"

namespace cwsp::service {

// ---- campaign -------------------------------------------------------

struct CampaignSpec {
  std::size_t runs = 50;
  std::size_t cycles = 16;
  double width_ps = 400.0;
  std::uint64_t seed = 1;
  std::size_t jobs = 1;
  double timeout_ms = 0.0;
  bool adversarial = false;
  /// 1-based shard selection; shard_total == 0 disables sharding.
  std::size_t shard_index = 0;
  std::size_t shard_total = 0;
  /// Machine-readable (docs/campaign.md schema) vs human-readable output.
  bool json = true;
  /// Fan the campaign out across registered fabric workers (server-side
  /// only; ignored — i.e. executed locally — when the serving process has
  /// no fabric hook or no live workers).
  bool distribute = false;
  /// Wall-clock budget admitted at the service boundary, ms (0 = none),
  /// forwarded to the fabric so shard dispatches carry what remains.
  double deadline_ms = 0.0;
  /// Protection schemes / fault models to campaign (registry names).
  /// Empty means the defaults (cwsp, single-set). More than one name in
  /// either list turns the request into a cross-product sweep whose
  /// output wraps one report per (scheme, model) cell.
  std::vector<std::string> schemes;
  std::vector<std::string> fault_models;

  // One-shot CLI extras: they name client-local state, so the service
  // rejects them.
  std::string journal_path;
  bool resume = false;
  bool minimize_escapes = false;
  std::string artifact_dir;
  std::size_t stop_after = 0;

  bool operator==(const CampaignSpec&) const = default;
};

/// Digest of every spec field that influences the report, plus the design
/// key — the coalescing/result-cache identity of a campaign request. The
/// spec codec's field lists define all four *_spec_fingerprint functions.
[[nodiscard]] std::uint64_t campaign_spec_fingerprint(
    const CampaignSpec& spec, std::uint64_t design_key);

/// One (scheme, fault model) combination a campaign spec denotes.
struct CampaignCell {
  const scheme::ProtectionScheme* scheme = nullptr;
  const scheme::FaultModel* model = nullptr;
};

/// Resolves `spec.schemes` × `spec.fault_models` against the registries,
/// in request order (empty lists mean the defaults). Throws cwsp::Error
/// naming the known entries for an unknown name.
[[nodiscard]] std::vector<CampaignCell> campaign_cells(
    const CampaignSpec& spec);

struct CampaignOutcome {
  campaign::CampaignStatus status = campaign::CampaignStatus::kInvalid;
  std::string output;
};

/// Runs the campaign exactly as the one-shot CLI does. `cancel`, when
/// non-null, cooperatively aborts between strikes (the service's job
/// cancellation); an aborted campaign reports status kInterrupted.
/// Throws cwsp::Error for configuration errors (e.g. a combinational
/// design or an out-of-range shard).
[[nodiscard]] CampaignOutcome run_campaign(
    const DesignSession& session, const CampaignSpec& spec,
    const sim::CancelToken* cancel = nullptr);

/// The exact plan configuration a campaign spec denotes. Every execution
/// path — local run, fabric coordinator, remote shard_exec worker — MUST
/// derive its plan through this one function, or sharded results stop
/// matching the single-host report.
[[nodiscard]] set::StrikePlanOptions campaign_plan_options(
    const CampaignSpec& spec, const core::ProtectionParams& params,
    Picoseconds clock_period);

/// The engine configuration a campaign spec denotes for one cell, derived
/// here for every execution path as campaign_plan_options is. The one-shot
/// extras (journal, resume, minimize, ...) are left to the one caller.
[[nodiscard]] campaign::EngineOptions campaign_engine_options(
    const CampaignSpec& spec, const CampaignCell& cell,
    const sim::CancelToken* cancel);

/// A shard_exec request whose rebuilt shard does not match the
/// coordinator's expected fingerprint — configuration divergence between
/// coordinator and worker (different binary, library, or spec mapping).
class ShardMismatchError : public Error {
 public:
  using Error::Error;
};

struct ShardExecOutcome {
  /// campaign_fingerprint over the executed shard sub-plan.
  std::uint64_t shard_fingerprint = 0;
  std::size_t strikes = 0;
  /// One journal-format `strike` line per result, global plan indices,
  /// shard order — the fabric's wire format for shard results.
  std::string payload;
};

/// Executes one shard of a campaign for the fabric: rebuilds the full
/// plan from the spec, cuts shard `spec.shard_index` of
/// `spec.shard_total`, validates it against `expect_fp` when provided
/// (throwing ShardMismatchError on divergence) and runs it. The spec
/// must carry shard fields and no wall-clock-dependent options.
[[nodiscard]] ShardExecOutcome run_shard_exec(
    const DesignSession& session, const CampaignSpec& spec,
    std::optional<std::uint64_t> expect_fp,
    const sim::CancelToken* cancel = nullptr);

// ---- sta ------------------------------------------------------------

/// The `sta` subcommand's stdout: timing report plus the stats line.
[[nodiscard]] std::string run_sta_report(const DesignSession& session);

// ---- coverage -------------------------------------------------------

struct CoverageSpec {
  std::size_t runs = 50;
  std::size_t cycles = 20;
  double width_ps = 400.0;
  std::uint64_t seed = 1;
  /// Sweep the §3.2 scenario classes instead of random functional strikes.
  bool scenarios = false;
  bool json = true;

  bool operator==(const CoverageSpec&) const = default;
};

[[nodiscard]] std::uint64_t coverage_spec_fingerprint(
    const CoverageSpec& spec, std::uint64_t design_key);

struct CoverageOutcome {
  bool valid = false;
  /// `cancel` fired before every planned strike ran; the report covers
  /// the completed ones.
  bool interrupted = false;
  std::string output;
};

/// Runs the campaign a coverage spec denotes on the session's kernel
/// context and reports its totals, which equal the campaign op's for the
/// same parameters: `runs` single-set strikes, or with `scenarios`
/// 4 × `runs` protection-seu strikes, broken down by §3.2 site in order.
/// `cancel` aborts between strikes, as for run_campaign.
[[nodiscard]] CoverageOutcome run_coverage(
    const DesignSession& session, const CoverageSpec& spec,
    const sim::CancelToken* cancel = nullptr);

// ---- certify --------------------------------------------------------

struct CertifySpec {
  bool q150 = false;
  std::optional<double> delta_ps;
  double skew_ps = 0.0;
  /// Envelope to certify against, ps; 0 selects the params' designed δ.
  double envelope_ps = 0.0;
  std::uint64_t seed = 1;
  bool json = true;
  /// Protection scheme whose predicate the certificate is about (empty =
  /// cwsp). A scheme the static certifier cannot express degrades every
  /// site to `unknown` — never a silent pass.
  std::string scheme;

  // One-shot-only extra (client-local output directory; rejected by the
  // server for the same reason as campaign artifact dirs).
  std::string artifact_dir;

  bool operator==(const CertifySpec&) const = default;
};

[[nodiscard]] std::uint64_t certify_spec_fingerprint(
    const CertifySpec& spec, std::uint64_t design_key);

struct CertifyOutcome {
  std::size_t escapes = 0;
  std::size_t unknowns = 0;
  std::string output;
};

/// Certifies every strike site of the session's design — the single code
/// path behind `cwsp_tool certify` and the service `certify` op, so both
/// produce byte-identical reports.
[[nodiscard]] CertifyOutcome run_certify(const DesignSession& session,
                                         const CertifySpec& spec);

// ---- compare --------------------------------------------------------

struct CompareSpec {
  std::size_t runs = 50;
  std::size_t cycles = 16;
  double width_ps = 400.0;
  std::uint64_t seed = 1;
  std::size_t jobs = 1;
  /// Scheme / fault-model names to compare; empty = every registered one.
  std::vector<std::string> schemes;
  std::vector<std::string> fault_models;
  bool json = true;

  bool operator==(const CompareSpec&) const = default;
};

[[nodiscard]] std::uint64_t compare_spec_fingerprint(
    const CompareSpec& spec, std::uint64_t design_key);

struct CompareOutcome {
  /// Sum of unexpected escapes across every (scheme, model) cell — the
  /// CLI's exit-status signal.
  std::size_t unexpected_escapes = 0;
  std::string output;
};

/// Comparative Tables 1–4 across schemes × fault models — the single
/// code path behind `cwsp_tool compare` and the service `compare` op.
[[nodiscard]] CompareOutcome run_compare(const DesignSession& session,
                                         const CompareSpec& spec);

// ---- lint -----------------------------------------------------------

struct LintSpec {
  /// Exactly one of path/text names the design source. With `path` the
  /// design is read from disk (the CLI case — diagnostics carry the
  /// path); with `text` it is parsed in memory under `name`.
  std::string path;
  std::string text;
  std::string name = "bench";
  bool hardened = false;
  bool q150 = false;
  std::optional<double> delta_ps;
  double skew_ps = 0.0;
  std::optional<double> period_ps;
  std::vector<std::string> fallback_cells;
  bool json = true;
  /// Findings at or above this severity make the outcome "failed".
  lint::Severity fail_threshold = lint::Severity::kError;
  /// Run the certify rule family alongside the standard rules (requires
  /// `hardened` so protection params are configured).
  bool certify = false;
  double certify_envelope_ps = 0.0;
  std::uint64_t certify_seed = 1;
  /// Protection scheme the hardened checks target (empty = cwsp). A
  /// non-CWSP scheme skips the CWSP structural invariants and reports a
  /// warning diagnostic instead — never a silent pass.
  std::string scheme;

  // One-shot-only extra: baseline file (client-local). Absent file →
  // record the current diagnostics; present → suppress matches and fail
  // only on new ones (docs/lint.md).
  std::string baseline_path;

  bool operator==(const LintSpec&) const = default;
};

struct LintOutcome {
  bool failed = false;
  /// The design failed to parse at all (typed exit code 2 for the CLI).
  bool parse_failed = false;
  std::string output;
  /// Human-readable baseline activity ("recorded N" / "suppressed N"),
  /// empty when no baseline is in play. Printed to stderr by the CLI so
  /// JSON output stays parseable.
  std::string baseline_note;
};

[[nodiscard]] LintOutcome run_lint(const LintSpec& spec,
                                   const CellLibrary& library);

}  // namespace cwsp::service
