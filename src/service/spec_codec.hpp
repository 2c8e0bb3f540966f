#pragma once
// The request-spec codec. Each work op lists every spec field once
// (spec_codec.cpp) with its JSON key, admission bounds and fingerprint
// rule; the service's JSON decoder, the CLI's flag decoder (flag = key
// with '_' -> '-'), the fabric's wire encoder and the fingerprint mixer
// all walk that list. Defaults are the spec structs' member initializers.
// Out-of-range values throw ParseError on both surfaces.

#include <cstdint>
#include <string>
#include <vector>

#include "common/cli_args.hpp"
#include "service/handlers.hpp"
#include "service/json.hpp"

namespace cwsp::service {

/// A number's admission range, checked before any cast.
struct Bounds {
  double lo = 0.0;
  double hi = 0.0;
  bool lo_open = false;
};

// Generous for real workloads, tight enough that one request cannot pin
// the daemon (or a wrapped negative count hang a CLI run).
inline constexpr Bounds kRuns{0, 1e7};
inline constexpr Bounds kCycles{1, 1e6};
inline constexpr Bounds kJobs{0, 64};
inline constexpr Bounds kSeed{0, 1ULL << 53};  // exact in a double
inline constexpr Bounds kShard{0, 1e6};
inline constexpr Bounds kPs{0, 1e9};
inline constexpr Bounds kPositivePs{0, 1e9, true};
inline constexpr Bounds kMs{0, 1e9};

/// Decodes a CampaignSpec (campaign, shard_exec), CoverageSpec,
/// CertifySpec, CompareSpec or LintSpec from a service request (a
/// json::Value: unknown keys ignored, one-shot CLI options rejected) or
/// from CLI flags (CliArgs; a CLI LintSpec's `path` is the caller's).
template <class Spec, class Surface>
[[nodiscard]] Spec decode(const Surface& surface);

/// Each service field of `spec` that differs from `Spec{}`, written as
/// `,"key":value` with doubles that round-trip exactly.
template <class Spec>
[[nodiscard]] std::string encode(const Spec& spec);

/// A fingerprint's wire spelling (`expect_fp`, `shard_fp`): lowercase hex.
[[nodiscard]] std::string fingerprint_hex(std::uint64_t fingerprint);

/// Batch keys of the ops whose identity is not a spec's alone.
[[nodiscard]] std::uint64_t shard_exec_fingerprint(const CampaignSpec& spec,
                                                   std::uint64_t design_key);
[[nodiscard]] std::uint64_t sta_fingerprint(std::uint64_t design_key);

/// A bounded number outside any spec: a service request key (the
/// envelope's `deadline_ms`, control-op fields) or a CLI flag (`serve`,
/// `harden` and fabric options; the flag is `key` with '_' -> '-');
/// `fallback` when absent. Out of range throws ParseError. T is double,
/// std::optional<double> or std::uint64_t (which must be an integer).
template <class T, class Surface>
[[nodiscard]] T bounded(const Surface& surface, const char* key, T fallback,
                        Bounds bounds);

/// "tmr,loco" -> {"tmr", "loco"}; empty items are dropped.
[[nodiscard]] std::vector<std::string> split_comma_list(
    const std::string& text);

}  // namespace cwsp::service
