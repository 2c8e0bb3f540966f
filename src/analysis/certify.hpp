#pragma once
// Static SET-coverage certifier.
//
// For every strike site of a design, decide — without sampling — whether
// any single-event transient within the SET envelope can silently corrupt
// the protected architecture, and prove it one of three ways:
//
//   * proved-covered  — a window-dataflow fact over the site's fanout
//     cone rules the escape out for every pulse in the envelope: the
//     site reaches no flip-flop D pin (no-path), the envelope does not
//     exceed the CWSP tolerated width δ (cwsp-envelope), every path is
//     electrically filtered below the envelope (electrical-masking), or
//     an exhaustive reachable-state sensitization sweep shows no stimulus
//     propagates the site into any flip-flop (logical-masking; only
//     claimed for reconvergence-free endpoints, where static and dynamic
//     sensitization coincide). Reported with the limiting margin.
//   * proved-escape   — a concrete witness was found AND confirmed by
//     replaying it through core::ProtectionSim; the witness is shrunk via
//     the campaign minimizer and can be persisted in the campaign
//     `--minimize` repro format, so the claim is independently checkable
//     with `cwsp_tool replay`.
//   * unknown         — reconvergent-fanout ambiguity (the blocking node
//     is identified) or an exhausted search budget. Unknown sites are
//     exactly the ones a sampling campaign still has to cover.
//
// The analysis mirrors the protection-protocol semantics: a functional
// strike no wider than δ is always repaired (CWSP reconstruction +
// equivalence check), so an escape additionally needs width > δ, a pulse
// alive at a D pin across the capture edge, and a later committed output
// that exposes the corrupted state.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/glitch_window.hpp"
#include "cwsp/protection_params.hpp"
#include "sim/compiled_kernel.hpp"

namespace cwsp::analysis {

enum class SiteVerdict : std::uint8_t {
  kProvedCovered,
  kProvedEscape,
  kUnknown,
};

[[nodiscard]] const char* to_string(SiteVerdict verdict);

enum class CoveredReason : std::uint8_t {
  /// No flip-flop D pin is reachable from the site.
  kNoPath,
  /// The envelope does not exceed the protocol-repaired width δ.
  kCwspEnvelope,
  /// Every reaching path filters pulses up to the envelope width.
  kElectricalMasking,
  /// Exhaustive sensitization sweep: no reachable stimulus propagates
  /// the site into any flip-flop (reconvergence-free endpoints only).
  kLogicalMasking,
};

[[nodiscard]] const char* to_string(CoveredReason reason);

struct CertifyOptions {
  /// Widest SET pulse to certify against, ps; 0 selects the designed δ
  /// (the paper's envelope — certifies the 100%-coverage claim).
  double envelope_ps = 0.0;
  /// Clock-skew derating applied to the physical envelope check (§3.4).
  double clock_skew_ps = 0.0;
  /// Seed for sampled stimulus in the fallback sweep and witness search.
  std::uint64_t seed = 1;
  /// Reachable-state enumeration cap for the fallback sweep.
  std::size_t max_states = 64;
  /// Input vectors are enumerated exhaustively when the design has at
  /// most this many primary inputs; sampled otherwise.
  std::size_t exhaustive_pi_limit = 10;
  /// Sampled vectors per state when not exhaustive.
  std::size_t vectors_per_state = 64;
  /// Lookahead cycles to expose a corrupted state at a primary output.
  std::size_t confirm_horizon = 4;
  /// Timed-simulation budget per dangerous site during confirmation.
  std::size_t max_confirm_attempts = 24;
  /// Lane width of the bit-parallel sweep kernel (64, 256 or 512).
  /// 0 auto-selects: the widest ISA-dispatched width that the per-state
  /// vector count can actually fill (a sweep never pays for lanes its
  /// stimulus cannot occupy). Certificates are byte-identical at every
  /// width — wide batches are consumed in ascending 64-lane subwords
  /// with the same candidate caps, so the discovery order is exactly
  /// the 64-wide order.
  std::size_t lane_width = 0;
  /// Shrink confirmed witnesses with the campaign minimizer.
  bool minimize_witnesses = true;
  /// When non-empty, write each confirmed escape as a replayable repro
  /// artifact (campaign `--minimize` format) into this directory.
  std::string artifact_dir;
};

struct SiteCertificate {
  NetId site;
  SiteVerdict verdict = SiteVerdict::kUnknown;
  CoveredReason reason = CoveredReason::kNoPath;

  /// Covered: extra pulse width beyond the envelope that is still
  /// provably tolerated. Unbounded for width-independent proofs
  /// (no-path, logical-masking).
  bool margin_unbounded = false;
  double margin_ps = 0.0;
  /// Covered (electrical-masking): the flip-flop with the least margin.
  /// Escape: the corrupted flip-flop of the confirmed witness.
  std::int64_t limiting_ff = -1;
  /// Site → endpoint net chain: the limiting path (finite-margin covered)
  /// or the witness path (escape).
  std::vector<NetId> path;
  /// Unknown: the reconvergent gate blocking the proof (kNone when the
  /// cause is an exhausted budget instead).
  std::uint32_t blocking_gate = GlitchWindow::kNone;
  /// The WideLogicSim bit-parallel sweep ran for this site.
  bool used_fallback = false;
  /// Deterministic one-line detail for reports.
  std::string note;

  // Confirmed witness (escape verdicts only).
  std::size_t witness_cycle = 0;
  double witness_start_ps = 0.0;
  double witness_width_ps = 0.0;
  std::vector<std::vector<bool>> witness_inputs;
  /// Repro spec path when CertifyOptions::artifact_dir was set.
  std::string repro_spec_path;
};

struct CertifyResult {
  std::string design;
  core::ProtectionParams params;
  Picoseconds clock_period{0.0};
  /// Envelope actually certified against, ps.
  double envelope_ps = 0.0;
  /// Physical guarantee of the design: min(δ, Eq. 2/5 envelope), ps.
  double physical_envelope_ps = 0.0;
  std::uint64_t seed = 1;

  std::vector<SiteCertificate> sites;

  /// Fallback-sweep telemetry.
  std::size_t swept_states = 0;
  bool states_complete = true;
  bool vectors_exhaustive = true;

  [[nodiscard]] std::size_t covered_count() const;
  [[nodiscard]] std::size_t escape_count() const;
  [[nodiscard]] std::size_t unknown_count() const;
  [[nodiscard]] std::size_t fallback_count() const;
  /// Smallest finite covered margin; negative when no site has one.
  [[nodiscard]] double min_margin_ps() const;
};

/// Certifies every strike site of `netlist` (set::strike_sites order).
/// `clock_period` must satisfy Eq. 6 for the params' δ or the escape
/// confirmation stage degrades dangerous sites to `unknown` (noted).
/// `context` optionally shares a prebuilt flat view + STA (the service's
/// warm path); pass nullptr to build privately. Deterministic: identical
/// inputs produce an identical result, independent of thread count.
[[nodiscard]] CertifyResult certify_design(
    const Netlist& netlist, const core::ProtectionParams& params,
    Picoseconds clock_period, const CertifyOptions& options = {},
    std::shared_ptr<const sim::CompiledKernelContext> context = nullptr);

/// Reporters (schema documented in docs/certify.md).
[[nodiscard]] std::string format_certify_text(const CertifyResult& result,
                                              const Netlist& netlist);
[[nodiscard]] std::string format_certify_json(const CertifyResult& result,
                                              const Netlist& netlist);

}  // namespace cwsp::analysis
