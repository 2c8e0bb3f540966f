// perfbench_workload: one workload per process (run.py starts it).
//
//   perfbench_workload generate --seed N --inputs DIR
//   perfbench_workload <workload> --seed N --seconds S --trace 0|1
//                      --inputs DIR [--tool CWSP_TOOL --socket PATH]
//
// Prints one raw-result JSON document on stdout; reduce.py turns it into
// the benchmark's metrics.

#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <numeric>

#include "bencharness/generator.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "netlist/writer.hpp"
#include "service/json.hpp"
#include "sim/strike_lanes.hpp"
#include "workload.hpp"

namespace perfbench {

std::uint64_t op_seed(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t z =
      seed * 0x9e3779b97f4a7c15ULL + (k + 1) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  z &= (1ULL << 53) - 1;
  return z == 0 ? 1 : z;
}

// ---- Tracer ------------------------------------------------------------

Tracer::Scope::Scope(Tracer& tracer, const std::string& name)
    : tracer_(tracer), index_(tracer.spans_.size()) {
  Span span;
  span.name = tracer.intern(name);
  span.parent = tracer.open_.empty() ? -1 : tracer.open_.back();
  span.op = static_cast<std::int32_t>(tracer.ops_.size()) - 1;
  tracer.spans_.push_back(span);
  tracer.open_.push_back(static_cast<std::int32_t>(index_));
  tracer.spans_[index_].start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  tracer_.spans_[index_].end_ns = now_ns();
  tracer_.open_.pop_back();
}

double Tracer::Scope::elapsed_ms() const {
  return ms_since(tracer_.spans_[index_].start_ns);
}

Tracer::Op& Tracer::begin_op(const std::string& group, bool own) {
  if (!open_.empty()) throw cwsp::Error("an op began inside an open span");
  ops_.push_back(Op{});
  ops_.back().group = group;
  ops_.back().own = own;
  return ops_.back();
}

void Tracer::add_span(const std::string& name, std::int64_t start_ns,
                      std::int64_t end_ns) {
  Span span;
  span.name = intern(name);
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = static_cast<std::int32_t>(ops_.size()) - 1;
  spans_.push_back(span);
}

std::map<std::string, std::uint64_t> Tracer::registry_counters() {
  // The registry exports itself only as JSON; read it back through the
  // service's own parser.
  const auto doc = cwsp::service::json::parse(
      cwsp::metrics::Registry::global().to_json());
  std::map<std::string, std::uint64_t> counters;
  if (const auto* c = doc.find("counters")) {
    for (const auto& [name, value] : c->as_object()) {
      counters[name] = static_cast<std::uint64_t>(value.as_number());
    }
  }
  return counters;
}

std::uint32_t Tracer::intern(const std::string& name) {
  const auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.push_back(name);
  name_ids_.emplace(name, id);
  return id;
}

namespace {

std::string num(double v) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

std::string quoted(const std::string& s) {
  std::string out(1, '"');
  out += cwsp::service::json::escape(s);
  out += '"';
  return out;
}

template <class Map>
std::string json_map(const Map& m) {
  std::string out = "{";
  for (const auto& [key, value] : m) {
    if (out.size() > 1) out += ", ";
    out += quoted(key) + ": " + num(static_cast<double>(value));
  }
  return out + "}";
}

std::string json_numbers(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += num(values[i]);
  }
  return out + "]";
}

}  // namespace

void Tracer::write_json(std::string& out) const {
  out += "{\"names\": [";
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(names_[i]);
  }
  out += "],\n\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ",\n";
    out += "[" + std::to_string(s.name) + ", " + std::to_string(s.start_ns) +
           ", " + std::to_string(s.end_ns) + ", " + std::to_string(s.parent) +
           ", " + std::to_string(s.op) + "]";
  }
  out += "],\n\"ops\": [";
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const Op& op = ops_[i];
    if (i > 0) out += ",\n";
    out += "{\"id\": " + std::to_string(i) + ", \"group\": " +
           quoted(op.group) + ", \"own\": " + (op.own ? "true" : "false") +
           ", \"values\": " + json_map(op.values);
    if (!op.counters_before.empty()) {
      out += ", \"counters_before\": " + json_map(op.counters_before) +
             ", \"counters_after\": " + json_map(op.counters_after);
    }
    out += "}";
  }
  out += "]}";
}

void RawResult::count(const std::string& failure) {
  ++attempted;
  if (failure.empty()) return;
  ++failed;
  // Keep the report readable when a systematic failure repeats.
  if (failures.size() < 20) failures.push_back(failure);
}

// ---- Inputs ---------------------------------------------------------------

void generate_inputs(std::uint64_t seed, const std::string& dir) {
  const cwsp::CellLibrary library = cwsp::make_default_library();
  const std::pair<const char*, const char*> designs[] = {
      {"C7552", "c7552.bench"}, {"C880", "c880.bench"}};
  for (const auto& [name, file] : designs) {
    cwsp::bench::GeneratorOptions options;
    options.seed = seed;
    const auto generated = cwsp::bench::generate_benchmark(
        cwsp::bench::find_benchmark(name), library, options);
    const cwsp::Netlist sequential =
        cwsp::bench::clone_with_output_flip_flops(generated.netlist);
    std::ofstream os(dir + "/" + file);
    cwsp::write_bench(sequential, os);
    if (!os.good()) throw cwsp::Error("cannot write " + dir + "/" + file);
  }
}

namespace {

// ---- Noise diagnostics ----------------------------------------------------
// Fixed work, timed next to every run so machine drift can be told from a
// regression. Neither loop touches the program under test.

double alu_loop_ms() {
  const std::int64_t start = now_ns();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 100'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double ms = ms_since(start);
  volatile std::uint64_t sink = x;
  (void)sink;
  return ms;
}

double memory_loop_ms() {
  // Random pointer chase over one 16 MiB cycle (Sattolo's shuffle with a
  // fixed seed), far beyond the private caches.
  constexpr std::size_t kEntries = std::size_t{1} << 22;
  constexpr std::size_t kSteps = std::size_t{1} << 21;
  std::vector<std::uint32_t> next(kEntries);
  std::iota(next.begin(), next.end(), 0u);
  std::uint64_t rng = 0x2545f4914f6cdd1dULL;
  for (std::size_t i = kEntries - 1; i > 0; --i) {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    std::swap(next[i], next[rng % i]);
  }
  const std::int64_t start = now_ns();
  std::uint32_t at = 0;
  for (std::size_t s = 0; s < kSteps; ++s) at = next[at];
  const double ms = ms_since(start);
  volatile std::uint32_t sink = at;
  (void)sink;
  return ms;
}

std::string raw_json(const RawResult& raw) {
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(raw.digest));
  std::string out = "{\"workload\": " + quoted(raw.workload) +
                    ", \"isa\": " + quoted(raw.isa) +
                    ", \"lanes\": " + std::to_string(raw.lanes) +
                    ", \"digest\": " + quoted(digest) +
                    ", \"traced\": " + (raw.traced ? "true" : "false") +
                    ",\n\"attempted\": " + std::to_string(raw.attempted) +
                    ", \"failed\": " + std::to_string(raw.failed) +
                    ", \"failures\": [";
  for (std::size_t i = 0; i < raw.failures.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(raw.failures[i]);
  }
  out += "],\n\"setup_ms\": " + json_numbers(raw.setup_ms) +
         ",\n\"op_ms\": " + json_numbers(raw.op_ms) +
         ",\n\"op_work\": " + json_numbers(raw.op_work) +
         ",\n\"latency_ms\": " + json_numbers(raw.latency_ms) +
         ",\n\"wall_s\": " + num(raw.wall_s) +
         ", \"peak_rss_kb\": " + std::to_string(raw.peak_rss_kb) +
         ",\n\"noise\": {\"alu_ms\": " + num(raw.alu_ms) +
         ", \"mem_ms\": " + num(raw.mem_ms) + "}";
  if (raw.traced) {
    out += ",\n\"trace\": ";
    raw.tracer.write_json(out);
  }
  return out + "}\n";
}

int usage() {
  std::cerr << "usage: perfbench_workload generate --seed N --inputs DIR\n"
               "       perfbench_workload <workload> --seed N --seconds S "
               "--trace 0|1 --inputs DIR [--tool PATH --socket PATH]\n";
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2 || argc % 2 != 0) return usage();
  Options options;
  options.workload = argv[1];
  try {
    for (int i = 2; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--inputs") {
        options.inputs = value;
      } else if (flag == "--tool") {
        options.tool = value;
      } else if (flag == "--socket") {
        options.socket = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (options.inputs.empty()) return usage();

  try {
    if (options.workload == "generate") {
      generate_inputs(options.seed, options.inputs);
      return 0;
    }
    const cwsp::CellLibrary library = cwsp::make_default_library();
    RawResult raw;
    raw.workload = options.workload;
    const cwsp::sim::LaneIsa isa = cwsp::sim::WideLogicSim::dispatched_isa();
    raw.isa = isa.name;
    raw.lanes = isa.lanes;
    raw.traced = options.trace;

    static const char* const kWorkloads[] = {
        "campaign-c7552", "certify-c7552", "service-c7552", "compare-c880"};
    static const char* const kGroups[] = {"campaign", "certify", "service",
                                          "compare"};
    std::string own;
    for (int w = 0; w < 4; ++w) {
      if (options.workload == kWorkloads[w]) own = kGroups[w];
    }
    if (own.empty()) {
      std::cerr << "unknown workload '" << options.workload << "'\n";
      return 2;
    }

    if (!options.trace) {
      if (own == "service") {
        run_service_workload(options, library, raw);
      } else {
        run_batch_workload(options, library, raw);
      }
    } else {
      // Every traced run measures every layer: the run's own workload
      // for --seconds, then one op of each other workload, so each
      // per-layer metric has a value whichever workload is traced.
      std::vector<std::string> order = {own};
      for (const char* g : kGroups) {
        if (own != g) order.emplace_back(g);
      }
      for (const std::string& group : order) {
        if (group == "service") {
          trace_service_group(options, library, group == own, raw);
        } else {
          trace_batch_group(group, options, library, group == own, raw);
        }
      }
    }

    raw.alu_ms = alu_loop_ms();
    raw.mem_ms = memory_loop_ms();
    std::cout << raw_json(raw);
    std::cout.flush();
    return std::cout.good() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_workload: " << e.what() << "\n";
    return 1;
  }
}
