// The request-spec codec (src/service/spec_codec.hpp): every op's spec
// survives the fabric wire (encode → JSON decode) and the CLI (flags built
// here, independently of the codec's field lists) field for field, with an
// unchanged fingerprint; out-of-range values are rejected on both surfaces;
// the `serve` flags are bounded the same way; and the fingerprints that
// live only in the codec are pinned.

#include "service/spec_codec.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "service/server.hpp"

namespace cwsp::service {
namespace {

constexpr int kSpecsPerOp = 50;

std::string num17(double v) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "" : ",") + items[i];
  }
  return out;
}

/// A `cwsp_tool <cmd> design.bench --flag value ...` command line.
class Argv {
 public:
  void flag(const std::string& name) { tokens_.push_back("--" + name); }
  void value(const std::string& name, const std::string& v) {
    flag(name);
    tokens_.push_back(v);
  }
  void count(const std::string& name, std::uint64_t v) {
    value(name, std::to_string(v));
  }
  void real(const std::string& name, double v) { value(name, num17(v)); }
  void list(const std::string& name, const std::vector<std::string>& v) {
    if (!v.empty()) value(name, join(v));
  }

  [[nodiscard]] CliArgs parse() const {
    std::vector<const char*> argv{"cwsp_tool", "cmd", "design.bench"};
    for (const std::string& token : tokens_) argv.push_back(token.c_str());
    return parse_cli_args(static_cast<int>(argv.size()), argv.data());
  }

 private:
  std::vector<std::string> tokens_;
};

/// In-range random values, drawn so that doubles need all 17 digits.
class Draw {
 public:
  explicit Draw(std::uint64_t seed) : rng_(seed) {}

  bool coin() { return rng_.next_below(2) == 1; }
  std::uint64_t count(std::uint64_t lo, std::uint64_t hi) {
    return lo + rng_.next_below(hi - lo + 1);
  }
  double real(double hi) { return rng_.next_double_in(0.0, hi); }
  double maybe(double hi) { return coin() ? real(hi) : 0.0; }
  /// A random sub-sequence of `names`, shuffled, possibly empty.
  std::vector<std::string> names(std::vector<std::string> names) {
    std::vector<std::string> out;
    while (!names.empty() && coin()) {
      const std::size_t pick = rng_.next_below(names.size());
      out.push_back(names[pick]);
      names.erase(names.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    return out;
  }

 private:
  Rng rng_;
};

/// The request line the fabric would send for `spec` (minus the envelope).
template <class Spec>
Spec over_the_wire(const Spec& spec) {
  return decode<Spec>(json::parse("{\"op\":\"x\"" + encode(spec) + "}"));
}

const std::vector<std::string> kSchemes{"cwsp", "tmr", "loco"};
const std::vector<std::string> kModels{"single-set", "double-set",
                                       "protection-seu"};

TEST(SpecCodec, CampaignRoundTripsOnBothSurfaces) {
  Draw draw(11);
  for (int i = 0; i < kSpecsPerOp; ++i) {
    CampaignSpec s;
    s.runs = draw.count(0, 100'000);
    s.cycles = draw.count(1, 1'000);
    s.width_ps = draw.real(5'000.0);
    s.seed = draw.count(0, 1ULL << 53);
    s.jobs = draw.count(0, 64);
    s.timeout_ms = draw.maybe(1e6);
    s.adversarial = draw.coin();
    if (draw.coin()) {
      s.shard_total = draw.count(1, 100);
      s.shard_index = draw.count(1, s.shard_total);
    }
    s.deadline_ms = draw.maybe(1e6);
    s.json = draw.coin();
    s.schemes = draw.names(kSchemes);
    s.fault_models = draw.names(kModels);

    CampaignSpec wire = s;
    wire.distribute = draw.coin();  // a service-only field
    EXPECT_EQ(over_the_wire(wire), wire) << encode(wire);
    EXPECT_EQ(campaign_spec_fingerprint(over_the_wire(wire), 42),
              campaign_spec_fingerprint(wire, 42));

    CampaignSpec cli = s;  // plus the one-shot options
    if (draw.coin()) {
      cli.journal_path = "run.journal";
      cli.resume = draw.coin();
    }
    cli.minimize_escapes = draw.coin();
    if (draw.coin()) cli.artifact_dir = "arts";
    cli.stop_after = draw.count(0, 1'000);
    Argv argv;
    argv.count("runs", cli.runs);
    argv.count("cycles", cli.cycles);
    argv.real("width", cli.width_ps);
    argv.count("seed", cli.seed);
    argv.count("jobs", cli.jobs);
    argv.real("timeout-ms", cli.timeout_ms);
    if (cli.adversarial) argv.flag("adversarial");
    if (cli.shard_total != 0) {
      argv.value("shard", std::to_string(cli.shard_index) + "/" +
                              std::to_string(cli.shard_total));
    }
    argv.real("deadline-ms", cli.deadline_ms);
    if (cli.json) argv.flag("json");
    argv.list("scheme", cli.schemes);
    argv.list("fault-model", cli.fault_models);
    if (!cli.journal_path.empty()) {
      argv.value(cli.resume ? "resume" : "journal", cli.journal_path);
    }
    if (cli.minimize_escapes) argv.flag("minimize");
    if (!cli.artifact_dir.empty()) argv.value("artifacts", cli.artifact_dir);
    argv.count("stop-after", cli.stop_after);
    EXPECT_EQ(decode<CampaignSpec>(argv.parse()), cli);
    // Execution controls and one-shot options are not the report's.
    EXPECT_EQ(campaign_spec_fingerprint(cli, 42),
              campaign_spec_fingerprint(wire, 42));
  }
}

TEST(SpecCodec, CoverageRoundTripsOnBothSurfaces) {
  Draw draw(12);
  for (int i = 0; i < kSpecsPerOp; ++i) {
    CoverageSpec s;
    s.runs = draw.count(0, 100'000);
    s.cycles = draw.count(1, 1'000);
    s.width_ps = draw.real(5'000.0);
    s.seed = draw.count(0, 1ULL << 53);
    s.scenarios = draw.coin();
    s.json = draw.coin();
    EXPECT_EQ(over_the_wire(s), s) << encode(s);
    EXPECT_EQ(coverage_spec_fingerprint(over_the_wire(s), 42),
              coverage_spec_fingerprint(s, 42));

    Argv argv;
    argv.count("runs", s.runs);
    argv.count("cycles", s.cycles);
    argv.real("width", s.width_ps);
    argv.count("seed", s.seed);
    if (s.scenarios) argv.flag("scenarios");
    if (s.json) argv.flag("json");
    EXPECT_EQ(decode<CoverageSpec>(argv.parse()), s);
  }
}

TEST(SpecCodec, CertifyRoundTripsOnBothSurfaces) {
  Draw draw(13);
  for (int i = 0; i < kSpecsPerOp; ++i) {
    CertifySpec s;
    s.q150 = draw.coin();
    if (draw.coin()) s.delta_ps = 1.0 + draw.real(2'000.0);
    s.skew_ps = draw.maybe(200.0);
    s.envelope_ps = draw.maybe(2'000.0);
    s.seed = draw.count(0, 1ULL << 53);
    s.json = draw.coin();
    const std::vector<std::string> scheme = draw.names(kSchemes);
    if (!scheme.empty()) s.scheme = scheme.front();
    EXPECT_EQ(over_the_wire(s), s) << encode(s);
    EXPECT_EQ(certify_spec_fingerprint(over_the_wire(s), 42),
              certify_spec_fingerprint(s, 42));

    CertifySpec cli = s;
    if (draw.coin()) cli.artifact_dir = "repro";
    Argv argv;
    if (cli.q150) argv.flag("q150");
    if (cli.delta_ps.has_value()) argv.real("delta", *cli.delta_ps);
    argv.real("skew", cli.skew_ps);
    argv.real("env-width", cli.envelope_ps);
    argv.count("seed", cli.seed);
    if (cli.json) argv.flag("json");
    if (!cli.scheme.empty()) argv.value("scheme", cli.scheme);
    if (!cli.artifact_dir.empty()) argv.value("artifacts", cli.artifact_dir);
    EXPECT_EQ(decode<CertifySpec>(argv.parse()), cli);
    EXPECT_EQ(certify_spec_fingerprint(cli, 42),
              certify_spec_fingerprint(s, 42));
  }
}

TEST(SpecCodec, CompareRoundTripsOnBothSurfaces) {
  Draw draw(14);
  for (int i = 0; i < kSpecsPerOp; ++i) {
    CompareSpec s;
    s.runs = draw.count(0, 100'000);
    s.cycles = draw.count(1, 1'000);
    s.width_ps = draw.real(5'000.0);
    s.seed = draw.count(0, 1ULL << 53);
    s.jobs = draw.count(0, 64);
    s.schemes = draw.names(kSchemes);
    s.fault_models = draw.names(kModels);
    s.json = draw.coin();
    EXPECT_EQ(over_the_wire(s), s) << encode(s);
    EXPECT_EQ(compare_spec_fingerprint(over_the_wire(s), 42),
              compare_spec_fingerprint(s, 42));

    Argv argv;
    argv.count("runs", s.runs);
    argv.count("cycles", s.cycles);
    argv.real("width", s.width_ps);
    argv.count("seed", s.seed);
    argv.count("jobs", s.jobs);
    argv.list("scheme", s.schemes);
    argv.list("fault-model", s.fault_models);
    if (s.json) argv.flag("json");
    EXPECT_EQ(decode<CompareSpec>(argv.parse()), s);
  }
}

TEST(SpecCodec, LintRoundTripsOnBothSurfaces) {
  Draw draw(15);
  for (int i = 0; i < kSpecsPerOp; ++i) {
    LintSpec s;
    s.hardened = draw.coin();
    s.q150 = draw.coin();
    if (draw.coin()) s.delta_ps = 1.0 + draw.real(2'000.0);
    s.skew_ps = draw.maybe(200.0);
    if (draw.coin()) s.period_ps = draw.real(5'000.0);
    s.fallback_cells = draw.names({"NAND2", "INV", "XOR2"});
    s.json = draw.coin();
    if (draw.coin()) s.fail_threshold = lint::Severity::kWarning;
    s.certify = s.hardened && draw.coin();
    s.certify_envelope_ps = draw.maybe(2'000.0);
    s.certify_seed = draw.count(0, 1ULL << 53);
    const std::vector<std::string> scheme = draw.names(kSchemes);
    if (!scheme.empty()) s.scheme = scheme.front();
    EXPECT_EQ(over_the_wire(s), s) << encode(s);

    LintSpec cli = s;
    if (draw.coin()) cli.baseline_path = "base.json";
    Argv argv;
    if (cli.hardened) argv.flag("hardened");
    if (cli.q150) argv.flag("q150");
    if (cli.delta_ps.has_value()) argv.real("delta", *cli.delta_ps);
    argv.real("skew", cli.skew_ps);
    if (cli.period_ps.has_value()) argv.real("period", *cli.period_ps);
    argv.list("fallback-cells", cli.fallback_cells);
    if (cli.json) argv.flag("json");
    argv.value("fail-on", cli.fail_threshold == lint::Severity::kWarning
                              ? "warn"
                              : "error");
    if (cli.certify) argv.flag("certify");
    argv.real("env-width", cli.certify_envelope_ps);
    argv.count("certify-seed", cli.certify_seed);
    if (!cli.scheme.empty()) argv.value("scheme", cli.scheme);
    if (!cli.baseline_path.empty()) argv.value("baseline", cli.baseline_path);
    EXPECT_EQ(decode<LintSpec>(argv.parse()), cli);
  }
}

/// `fields` is the JSON request body; `flags` the same values as argv.
template <class Spec>
void expect_rejected_on_both_surfaces(const std::string& fields,
                                      std::vector<std::string> flags) {
  EXPECT_THROW((void)decode<Spec>(json::parse("{" + fields + "}")),
               ParseError)
      << fields;
  std::vector<const char*> argv{"cwsp_tool", "cmd", "design.bench"};
  for (const std::string& flag : flags) argv.push_back(flag.c_str());
  EXPECT_THROW((void)decode<Spec>(parse_cli_args(
                   static_cast<int>(argv.size()), argv.data())),
               ParseError)
      << fields;
}

TEST(SpecCodec, OutOfRangeValuesAreRejectedOnBothSurfaces) {
  expect_rejected_on_both_surfaces<CampaignSpec>(R"("runs":-1)",
                                                 {"--runs", "-1"});
  expect_rejected_on_both_surfaces<CampaignSpec>(R"("runs":2.5)",
                                                 {"--runs", "2.5"});
  expect_rejected_on_both_surfaces<CampaignSpec>(R"("seed":-1)",
                                                 {"--seed", "-1"});
  expect_rejected_on_both_surfaces<CampaignSpec>(R"("width":-100)",
                                                 {"--width", "-100"});
  expect_rejected_on_both_surfaces<CampaignSpec>(R"("cycles":0)",
                                                 {"--cycles", "0"});
  expect_rejected_on_both_surfaces<CampaignSpec>(R"("jobs":65)",
                                                 {"--jobs", "65"});
  expect_rejected_on_both_surfaces<CampaignSpec>(
      R"("shard_index":0,"shard_total":3)", {"--shard", "0/3"});
  expect_rejected_on_both_surfaces<CampaignSpec>(
      R"("shard_index":4,"shard_total":3)", {"--shard", "4/3"});
  expect_rejected_on_both_surfaces<CampaignSpec>(
      R"("shard_index":2,"shard_total":"x")", {"--shard", "2/x"});
  expect_rejected_on_both_surfaces<CoverageSpec>(R"("cycles":0)",
                                                 {"--cycles", "0"});
  expect_rejected_on_both_surfaces<CertifySpec>(R"("delta":0)",
                                                {"--delta", "0"});
  expect_rejected_on_both_surfaces<CertifySpec>(R"("env_width":-5)",
                                                {"--env-width", "-5"});
  expect_rejected_on_both_surfaces<CompareSpec>(R"("cycles":0)",
                                                {"--cycles", "0"});
  expect_rejected_on_both_surfaces<LintSpec>(R"("delta":0)",
                                             {"--delta", "0"});
  expect_rejected_on_both_surfaces<LintSpec>(R"("skew":-5)",
                                             {"--skew", "-5"});
  expect_rejected_on_both_surfaces<LintSpec>(R"("fail_on":"never")",
                                             {"--fail-on", "never"});
  expect_rejected_on_both_surfaces<LintSpec>(R"("certify":true)",
                                             {"--certify"});
}

CliArgs serve_args(const std::vector<const char*>& flags) {
  std::vector<const char*> argv{"cwsp_tool", "serve", "--socket", "s.sock"};
  argv.insert(argv.end(), flags.begin(), flags.end());
  return parse_cli_args(static_cast<int>(argv.size()), argv.data());
}

TEST(SpecCodec, ServeFlagsAreBoundedBeforeAnyCast) {
  // Decoding only: no socket is bound and no thread started, so even a
  // worker count that would wrap to ~2^64 threads is safe to probe here.
  const std::vector<std::vector<const char*>> probes = {
      {"--workers", "-1"},        {"--workers", "65"},
      {"--workers", "1e18"},      {"--workers", "nan"},
      {"--queue-capacity", "-1"}, {"--cache-entries", "-1"},
      {"--result-cache", "2.5"},  {"--cache-mb", "-1"},
      {"--max-frame-mb", "-1"},   {"--max-frame-mb", "1e300"},
      {"--worker-ttl-ms", "-1"}};
  for (const auto& flags : probes) {
    EXPECT_THROW((void)decode_server_options(serve_args(flags)), ParseError)
        << flags[0] << ' ' << flags[1];
  }
}

TEST(SpecCodec, ServeFlagsKeepTheirDocumentedMeanings) {
  const ServerOptions plain;
  const ServerOptions defaults = decode_server_options(serve_args({}));
  EXPECT_EQ(defaults.socket_path, "s.sock");
  EXPECT_EQ(defaults.workers, plain.workers);
  EXPECT_EQ(defaults.queue_capacity, plain.queue_capacity);
  EXPECT_EQ(defaults.cache.max_entries, plain.cache.max_entries);
  EXPECT_EQ(defaults.cache.max_bytes, plain.cache.max_bytes);
  EXPECT_EQ(defaults.result_cache_entries, plain.result_cache_entries);
  EXPECT_EQ(defaults.max_frame_bytes, plain.max_frame_bytes);
  EXPECT_EQ(defaults.worker_ttl_ms, plain.worker_ttl_ms);
  EXPECT_EQ(defaults.drain_grace_ms, plain.drain_grace_ms);

  const ServerOptions set = decode_server_options(serve_args(
      {"--workers", "4", "--queue-capacity", "0", "--cache-mb", "1",
       "--max-frame-mb", "0.5", "--result-cache", "0", "--worker-ttl-ms",
       "250", "--drain-grace-ms", "-1"}));
  EXPECT_EQ(set.workers, 4u);
  EXPECT_EQ(set.queue_capacity, 1u);  // zero still means one slot
  EXPECT_EQ(set.cache.max_bytes, std::size_t{1} << 20);
  EXPECT_EQ(set.max_frame_bytes, std::size_t{1} << 19);
  EXPECT_EQ(set.result_cache_entries, 0u);
  EXPECT_EQ(set.worker_ttl_ms, 250.0);
  EXPECT_EQ(set.drain_grace_ms, -1.0);  // <= 0 waits for in-flight jobs
}

TEST(SpecCodec, ServiceRejectsOneShotKeysAndIgnoresUnknownOnes) {
  for (const char* field :
       {R"("journal":"j")", R"("resume":"j")", R"("minimize":true)",
        R"("artifacts":"a")", R"("stop_after":3)"}) {
    EXPECT_THROW((void)decode<CampaignSpec>(
                     json::parse(std::string("{") + field + "}")),
                 ParseError)
        << field;
  }
  EXPECT_THROW((void)decode<CertifySpec>(json::parse(R"({"artifacts":"a"})")),
               ParseError);
  EXPECT_THROW((void)decode<LintSpec>(json::parse(R"({"baseline":"b"})")),
               ParseError);
  // CLI spellings and retired fields mean nothing to the service.
  EXPECT_EQ(decode<CampaignSpec>(json::parse(
                R"({"shard":"1/2","json":false,"legacy_kernel":true})")),
            CampaignSpec{});
}

TEST(SpecCodec, DefaultSpecsEncodeToNothing) {
  EXPECT_EQ(encode(CampaignSpec{}), "");
  EXPECT_EQ(encode(CoverageSpec{}), "");
  EXPECT_EQ(encode(CertifySpec{}), "");
  EXPECT_EQ(encode(CompareSpec{}), "");
  EXPECT_EQ(encode(LintSpec{}), "");
}

TEST(SpecCodec, ShardExecAndStaFingerprintsArePinned) {
  // Recorded from the server's file-local digests before they moved here.
  CampaignSpec shard;
  shard.shard_index = 2;
  shard.shard_total = 4;
  EXPECT_EQ(shard_exec_fingerprint(shard, 42), 0x083ba96ba8dd6b9aULL);
  shard.width_ps = 412.3;
  shard.schemes = {"tmr"};
  shard.fault_models = {"double-set"};
  shard.adversarial = true;
  EXPECT_EQ(shard_exec_fingerprint(shard, 42), 0xd6421b635912fe09ULL);
  EXPECT_EQ(sta_fingerprint(42), 0x033fbaaaeffddfa4ULL);
}

}  // namespace
}  // namespace cwsp::service
