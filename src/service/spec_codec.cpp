#include "service/spec_codec.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <string_view>
#include <type_traits>

#include "common/fnv.hpp"

namespace cwsp::service {
namespace {

// Where a field lives: a service request key (also carried on the fabric
// wire), a CLI flag, and mixed into the fingerprint. A CLI-only field is a
// one-shot option naming client-local state, which the service rejects.
enum Use : unsigned {
  kJson = 1, kCli = 2, kHash = 4, kAll = 7, kControl = 3, kService = 5
};

struct Plain {};
/// Registry names, comma-separated on both surfaces. With a default name
/// they are mixed, behind `tag`, only when they denote something else, as
/// specs were mixed before the registry existed.
struct Names {
  const char* default_name = nullptr;
  std::uint64_t tag = 0;
};
struct Array {};  // a JSON array on the service, a comma list on the CLI

template <class S, class T>
concept SpecOf = std::is_same_v<std::remove_const_t<S>, T>;

// ---- the field lists ------------------------------------------------
// One line per field, in fingerprint order: the mixer hashes the kHash
// fields in exactly this sequence (tests/test_scheme.cpp pins them).

template <SpecOf<CampaignSpec> S, class V>
void visit(S& s, V& v) {
  // The retired legacy_kernel flag keeps its slot, mixed as 0, so existing
  // fingerprints (result cache, fabric shard checks) hold.
  bool legacy_kernel = false;
  v("runs", s.runs, kRuns);
  v("cycles", s.cycles, kCycles);
  v("width", s.width_ps, kPs);
  v("seed", s.seed, kSeed);
  // Reports are byte-identical for any worker count, so requests that
  // differ only in jobs coalesce.
  v("jobs", s.jobs, kJobs, kControl);
  v("timeout_ms", s.timeout_ms, kMs);
  v("adversarial", s.adversarial);
  v("legacy_kernel", legacy_kernel, Plain{}, kHash);
  v("shard_index", s.shard_index, kShard, kService);
  v("shard_total", s.shard_total, kShard, kService);
  v.cli_shard(s.shard_index, s.shard_total);
  // The distributed report and a deadline-bounded one are byte-identical
  // to the local, unbounded report, so neither is mixed.
  v("distribute", s.distribute, Plain{}, kJson);
  v("deadline_ms", s.deadline_ms, kMs, kControl);
  v.format(s.json);
  v("scheme", s.schemes, Names{"cwsp", 0x5c4e});
  v("fault_model", s.fault_models, Names{"single-set", 0xfa07});
  v("journal", s.journal_path, Plain{}, kCli);
  // `--resume <path>` names the journal and resumes it.
  v("resume", s.journal_path, Plain{}, kCli);
  v("resume", s.resume, Plain{}, kCli);
  v("minimize", s.minimize_escapes, Plain{}, kCli);
  v("artifacts", s.artifact_dir, Plain{}, kCli);
  v("stop_after", s.stop_after, kRuns, kCli);
}

template <SpecOf<CoverageSpec> S, class V>
void visit(S& s, V& v) {
  v("runs", s.runs, kRuns);
  v("cycles", s.cycles, kCycles);
  v("width", s.width_ps, kPs);
  v("seed", s.seed, kSeed);
  v("scenarios", s.scenarios);
  v.format(s.json);
}

template <SpecOf<CertifySpec> S, class V>
void visit(S& s, V& v) {
  v("q150", s.q150);
  v("delta", s.delta_ps, kPositivePs);
  v("skew", s.skew_ps, kPs);
  v("env_width", s.envelope_ps, kPs);
  v("seed", s.seed, kSeed);
  v.format(s.json);
  v("scheme", s.scheme, Names{"cwsp", 0x5c4f});
  v("artifacts", s.artifact_dir, Plain{}, kCli);
}

template <SpecOf<CompareSpec> S, class V>
void visit(S& s, V& v) {
  v("runs", s.runs, kRuns);
  v("cycles", s.cycles, kCycles);
  v("width", s.width_ps, kPs);
  v("seed", s.seed, kSeed);
  v("jobs", s.jobs, kJobs, kControl);
  v("scheme", s.schemes, Names{});  // compare mixes both lists always
  v("fault_model", s.fault_models, Names{});
  v.format(s.json);
}

// Lint requests are never cached, so lint has no fingerprint.
template <SpecOf<LintSpec> S, class V>
void visit(S& s, V& v) {
  v("hardened", s.hardened);
  v("q150", s.q150);
  v("delta", s.delta_ps, kPositivePs);
  v("skew", s.skew_ps, kPs);
  v("period", s.period_ps, kPs);
  v("fallback_cells", s.fallback_cells, Array{});
  v.format(s.json);
  v("fail_on", s.fail_threshold);
  v("certify", s.certify);
  v("env_width", s.certify_envelope_ps, kPs);
  v("certify_seed", s.certify_seed, kSeed);
  v("scheme", s.scheme);
  v("baseline", s.baseline_path, Plain{}, kCli);
  v("design_path", s.path, Plain{}, kJson);  // the CLI's is positional
  v("design", s.text, Plain{}, kJson);
  v("design_name", s.name, Plain{}, kJson);
}

// Cross-field rules, checked after either decoder.
void check(const CampaignSpec& s) {
  if ((s.shard_index == 0) != (s.shard_total == 0) ||
      s.shard_index > s.shard_total) {
    throw ParseError("shard_index and shard_total go together, with "
                     "1 <= index <= total");
  }
}
void check(const LintSpec& s) {
  if (s.certify && !s.hardened) {
    throw ParseError("'certify' requires 'hardened'");
  }
}
void check(const auto&) {}

// ---- decoding -------------------------------------------------------

/// Reads a spec from a service request or from CLI flags.
class Decoder {
 public:
  explicit Decoder(const json::Value& request) : request_(&request) {}
  explicit Decoder(const CliArgs& args) : args_(&args) {}

  template <class T, class Rule = Plain>
  void operator()(const char* key, T& v, Rule rule = {}, Use use = kAll) {
    if (present(key, use)) read(key, v, rule);
  }
  /// The service defaults to JSON (`format`: json|text); the CLI prints
  /// text unless --json is given.
  void format(bool& json) {
    std::string format =
        args_ == nullptr || args_->has("json") ? "json" : "text";
    (*this)("format", format, Plain{}, kJson);
    if (format != "json" && format != "text") {
      throw ParseError("unknown format '" + format + "' (json|text)");
    }
    json = format == "json";
  }
  /// The CLI spells shard_index / shard_total as `--shard i/n`.
  void cli_shard(std::size_t& index, std::size_t& total) {
    if (args_ == nullptr || !args_->has("shard")) return;
    const std::string shard = args_->text("shard", "");
    char tail = 0;
    if (std::sscanf(shard.c_str(), "%zu/%zu%c", &index, &total, &tail) != 2 ||
        static_cast<double>(std::max(index, total)) > kShard.hi) {
      throw ParseError("--shard expects <i>/<n>, got '" + shard + "'");
    }
  }

 private:
  static std::string flag(const char* key) {
    std::string flag = key;
    std::replace(flag.begin(), flag.end(), '_', '-');
    return flag;
  }
  std::string label(const char* key) const {
    return args_ != nullptr ? "--" + flag(key) : "'" + std::string(key) + "'";
  }
  std::string text(const char* key) const {
    return args_ != nullptr ? args_->text(flag(key), "")
                            : request_->find(key)->as_string();
  }
  /// True when `key` is given and belongs on this surface.
  bool present(const char* key, Use use) const {
    if (args_ != nullptr) return (use & kCli) != 0 && args_->has(flag(key));
    if (request_->find(key) == nullptr) return false;
    if (use == kCli) {
      throw ParseError(label(key) +
                       " is a one-shot CLI option, not a service field");
    }
    return (use & kJson) != 0;
  }

  template <class T>
  void read(const char* key, T& v, Bounds bounds) {
    const double x = args_ != nullptr ? args_->number(flag(key), 0.0)
                                      : request_->find(key)->as_number();
    constexpr bool kInteger = std::is_integral_v<T>;
    // Written so that NaN fails: casting it, or a negative or huge value,
    // to an unsigned type is undefined behaviour.
    if (!(bounds.lo_open ? x > bounds.lo : x >= bounds.lo) ||
        !(x <= bounds.hi) || (kInteger && x != std::floor(x))) {
      char range[96];
      std::snprintf(range, sizeof(range),
                    kInteger ? " must be an integer in %c%.0f, %.0f]"
                             : " must be a finite number in %c%g, %g]",
                    bounds.lo_open ? '(' : '[', bounds.lo, bounds.hi);
      throw ParseError(label(key) + range);
    }
    v = static_cast<T>(x);  // T may be std::optional<double>
  }
  void read(const char* key, bool& v, Plain) {
    v = args_ != nullptr || request_->find(key)->as_bool();
  }
  void read(const char* key, std::string& v, auto) { v = text(key); }
  void read(const char* key, std::vector<std::string>& v, Names) {
    v = split_comma_list(text(key));
  }
  void read(const char* key, std::vector<std::string>& v, Array) {
    if (args_ != nullptr) return read(key, v, Names{});
    for (const json::Value& item : request_->find(key)->as_array()) {
      v.push_back(item.as_string());
    }
  }
  void read(const char* key, lint::Severity& v, Plain) {
    const std::string level = text(key);
    if (level != "warn" && level != "error") {
      throw ParseError(label(key) + " expects 'warn' or 'error'");
    }
    v = level == "warn" ? lint::Severity::kWarning : lint::Severity::kError;
  }

  const json::Value* request_ = nullptr;
  const CliArgs* args_ = nullptr;
};

// ---- encoding -------------------------------------------------------

std::string quoted(const std::string& text) {
  return '"' + json::escape(text) + '"';
}

std::string joined(const std::vector<std::string>& items, bool quote) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "" : ",") + (quote ? quoted(items[i]) : items[i]);
  }
  return out;
}

/// Renders each service field as `,"key":value`.
struct Encoder {
  template <class T, class Rule = Plain>
  void operator()(const char* key, const T& v, Rule = {}, Use use = kAll) {
    if ((use & kJson) == 0) return;
    std::string value;
    if constexpr (std::is_same_v<T, std::optional<double>>) {
      if (v.has_value()) return (*this)(key, *v, Bounds{});
    } else if constexpr (std::is_same_v<T, bool>) {
      value = v ? "true" : "false";
    } else if constexpr (std::is_integral_v<T>) {
      value = std::to_string(v);
    } else if constexpr (std::is_floating_point_v<T>) {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%.17g", v);  // round-trips
      value = buffer;
    } else if constexpr (std::is_same_v<T, std::string>) {
      value = quoted(v);
    } else if constexpr (std::is_same_v<T, lint::Severity>) {
      value = v == lint::Severity::kWarning ? "\"warn\"" : "\"error\"";
    } else if constexpr (std::is_same_v<Rule, Array>) {
      value = "[" + joined(v, true) + "]";
    } else {
      value = quoted(joined(v, false));
    }
    fields.push_back(value.empty() ? "" : ",\"" + std::string(key) + "\":" +
                                              value);
  }
  void format(bool json) {
    (*this)("format", std::string(json ? "json" : "text"));
  }
  void cli_shard(std::size_t, std::size_t) {}

  std::vector<std::string> fields;
};

// ---- fingerprints ---------------------------------------------------

struct Hasher {
  Hasher(std::uint64_t design_key, std::uint64_t op_tag) {
    mix(design_key);
    mix(op_tag);
  }

  template <class T, class Rule = Plain>
  void operator()(const char*, const T& v, Rule rule = {}, Use use = kAll) {
    if ((use & kHash) == 0) return;
    if constexpr (std::is_same_v<T, std::optional<double>>) {
      mix(v.has_value() ? 1 : 0);
      mix(std::bit_cast<std::uint64_t>(v.value_or(0.0)));
    } else if constexpr (std::is_floating_point_v<T>) {
      mix(std::bit_cast<std::uint64_t>(v));
    } else if constexpr (std::is_integral_v<T>) {  // counts and flags
      mix(static_cast<std::uint64_t>(v));
    } else if constexpr (std::is_same_v<T, std::string>) {
      if constexpr (std::is_same_v<Rule, Names>) {
        if (v.empty() || v == rule.default_name) return;
        mix(rule.tag);
      }
      mix_string(v);
    } else {
      if (rule.default_name != nullptr) {
        if (v.empty() || (v.size() == 1 && v.front() == rule.default_name)) {
          return;
        }
        mix(rule.tag);
      }
      mix(v.size());
      for (const std::string& item : v) mix_string(item);
    }
  }
  void format(bool json) { mix(json ? 1 : 0); }
  void cli_shard(std::size_t, std::size_t) {}

  void mix(std::uint64_t v) { fnv::mix(h, v); }
  void mix_string(std::string_view s) {
    mix(s.size());
    fnv::mix_bytes(h, s);
  }

  std::uint64_t h = fnv::kOffsetBasis;
};

template <class Spec>
std::uint64_t digest(const Spec& spec, std::uint64_t design_key,
                     std::uint64_t op_tag) {
  Hasher hasher(design_key, op_tag);
  visit(spec, hasher);
  return hasher.h;
}

}  // namespace

template <class Spec, class Surface>
Spec decode(const Surface& surface) {
  Spec spec;
  Decoder decoder(surface);
  visit(spec, decoder);
  check(spec);
  return spec;
}

template <class Spec>
std::string encode(const Spec& spec) {
  const Spec defaults{};
  Encoder base;
  Encoder fields;
  visit(defaults, base);
  visit(spec, fields);
  std::string out;
  for (std::size_t i = 0; i < fields.fields.size(); ++i) {
    if (fields.fields[i] != base.fields[i]) out += fields.fields[i];
  }
  return out;
}

// Every op's spec, and the tag that opens its fingerprint.
#define CWSP_SPEC_CODEC(Spec)                                  \
  template Spec decode<Spec, json::Value>(const json::Value&); \
  template Spec decode<Spec, CliArgs>(const CliArgs&);         \
  template std::string encode<Spec>(const Spec&);
#define CWSP_SPEC_FINGERPRINT(Spec, fingerprint, op_tag)           \
  CWSP_SPEC_CODEC(Spec)                                            \
  std::uint64_t fingerprint(const Spec& spec, std::uint64_t key) { \
    return digest(spec, key, op_tag);                              \
  }
CWSP_SPEC_FINGERPRINT(CampaignSpec, campaign_spec_fingerprint, 0xca3b)
CWSP_SPEC_FINGERPRINT(CoverageSpec, coverage_spec_fingerprint, 0xc0fe)
CWSP_SPEC_FINGERPRINT(CertifySpec, certify_spec_fingerprint, 0xce47)
CWSP_SPEC_FINGERPRINT(CompareSpec, compare_spec_fingerprint, 0xc04a)
CWSP_SPEC_CODEC(LintSpec)
#undef CWSP_SPEC_FINGERPRINT
#undef CWSP_SPEC_CODEC

std::string fingerprint_hex(std::uint64_t fingerprint) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%llx",
                static_cast<unsigned long long>(fingerprint));
  return buffer;
}

std::uint64_t shard_exec_fingerprint(const CampaignSpec& spec,
                                     std::uint64_t design_key) {
  std::uint64_t h = campaign_spec_fingerprint(spec, design_key);
  fnv::mix(h, 0x5a4d);
  return h;
}

std::uint64_t sta_fingerprint(std::uint64_t design_key) {
  return Hasher(design_key, 0x57a).h;
}

template <class T, class Surface>
T bounded(const Surface& surface, const char* key, T fallback,
          Bounds bounds) {
  Decoder{surface}(key, fallback, bounds);
  return fallback;
}
#define CWSP_BOUNDED(T)                                           \
  template T bounded(const json::Value&, const char*, T, Bounds); \
  template T bounded(const CliArgs&, const char*, T, Bounds);
CWSP_BOUNDED(double)
CWSP_BOUNDED(std::optional<double>)
CWSP_BOUNDED(std::uint64_t)
#undef CWSP_BOUNDED

std::vector<std::string> split_comma_list(const std::string& text) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t comma = std::min(text.find(',', start), text.size());
    if (comma > start) items.push_back(text.substr(start, comma - start));
    start = comma + 1;
  }
  return items;
}

}  // namespace cwsp::service
