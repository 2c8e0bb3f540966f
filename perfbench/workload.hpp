#pragma once
// Shared pieces of the benchmark's workload process: clocks, the
// in-memory span recorder, the raw result every workload fills in, and
// the workload entry points. The process only measures; every median,
// percentile and ratio is computed by reduce.py from the raw result.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "cell/library.hpp"
#include "service/session.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double ms_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e6;
}

/// FNV-1a 64 — the report digest printed for exact parent/change
/// comparison.
inline void fnv_mix(std::uint64_t& h, std::string_view bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
}
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

/// Seed of op `k` of a run: distinct per op, a pure function of the
/// workload seed, and exact in a JSON double (the service's seed bound).
std::uint64_t op_seed(std::uint64_t seed, std::uint64_t k);

/// Spans and per-op values of a traced run, kept in memory and written
/// out with the raw result when the workload ends.
class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::int32_t op = -1;
  };
  struct Op {
    std::string group;
    /// The op belongs to the workload the run was started for.
    bool own = false;
    std::map<std::string, double> values;
    std::map<std::string, std::uint64_t> counters_before;
    std::map<std::string, std::uint64_t> counters_after;
  };

  /// Records one span from construction to destruction, nested under
  /// the innermost open span of the current op.
  class Scope {
   public:
    Scope(Tracer& tracer, const std::string& name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Milliseconds since the span opened.
    [[nodiscard]] double elapsed_ms() const;

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  /// Opens a new op; later spans and values attach to it.
  Op& begin_op(const std::string& group, bool own);
  [[nodiscard]] Op& op() { return ops_.back(); }

  /// Records an already-timed interval as a leaf span of the current op
  /// (for intervals measured on another thread).
  void add_span(const std::string& name, std::int64_t start_ns,
                std::int64_t end_ns);

  /// Snapshot of every counter of metrics::Registry::global().
  static std::map<std::string, std::uint64_t> registry_counters();

  void write_json(std::string& out) const;

 private:
  std::uint32_t intern(const std::string& name);

  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> name_ids_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::vector<Op> ops_;
};

/// What one workload process measured. Field meanings are documented in
/// README.md ("Raw result").
struct RawResult {
  std::string workload;
  std::string isa;
  std::size_t lanes = 0;
  std::uint64_t digest = kFnvBasis;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::vector<double> setup_ms;
  std::vector<double> op_ms;
  std::vector<double> op_work;
  std::vector<double> latency_ms;
  double wall_s = 0.0;
  long peak_rss_kb = 0;
  double alu_ms = 0.0;
  double mem_ms = 0.0;
  bool traced = false;
  Tracer tracer;

  /// Counts one op; a non-empty `failure` marks it failed.
  void count(const std::string& failure);
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string inputs;  // directory holding c7552.bench and c880.bench
  std::string tool;    // cwsp_tool binary (service workload)
  std::string socket;  // daemon socket path (service workload)
};

/// Input generation: writes the seeded C7552 and C880 designs.
void generate_inputs(std::uint64_t seed, const std::string& dir);

/// Builds the session for `path` as DesignSession::build does, once per
/// layer (spans netlist.parse, sta.run, sim.context under "setup") and
/// once through build itself (span service.session), which it returns.
std::shared_ptr<const cwsp::service::DesignSession> traced_session(
    Tracer& tr, const std::string& path, const cwsp::CellLibrary& library);

/// The batch workloads (campaign-c7552, certify-c7552, compare-c880).
void run_batch_workload(const Options& options,
                        const cwsp::CellLibrary& library, RawResult& raw);
/// Traced ops of a batch workload group ("campaign", "certify",
/// "compare"): for --seconds when `own` marks the run's workload, else one.
void trace_batch_group(const std::string& group, const Options& options,
                       const cwsp::CellLibrary& library, bool own,
                       RawResult& raw);

/// service-c7552: the `cwsp_tool serve` daemon under a closed-loop load.
void run_service_workload(const Options& options,
                          const cwsp::CellLibrary& library, RawResult& raw);
void trace_service_group(const Options& options,
                         const cwsp::CellLibrary& library, bool own,
                         RawResult& raw);

}  // namespace perfbench
