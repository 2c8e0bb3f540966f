// service-c7552: the real `cwsp_tool serve --workers 2` daemon under a
// closed-loop load from this process over one connection.
//
// The request mix: 15 of 16 requests repeat one of four hot campaign
// specs and are answered from the result cache; 1 of 16 carries a seed
// never sent before and executes (56 strikes, 48 lane strikes). The design
// (C7552, ~400 KB of .bench text) rides inline in every request. Every
// payload is checked afterwards against a direct service::run_campaign
// of the same spec.

#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "common/error.hpp"
#include "service/handlers.hpp"
#include "service/json.hpp"
#include "service/session.hpp"
#include "workload.hpp"

extern char** environ;

namespace perfbench {
namespace {

namespace json = cwsp::service::json;

constexpr std::string_view kSuffix = "}\n";
constexpr std::string_view kDesignName = "c7552";
/// One request in kFreshEvery carries a never-sent seed and executes.
/// The p99 of all requests then lies at the 84th percentile of these
/// misses, inside their peak rather than at their extreme tail.
constexpr std::uint64_t kFreshEvery = 16;
/// Daemon starts per run; setup_s is their median.
constexpr int kStarts = 10;
/// The untraced measured phase lasts --seconds and at least this many
/// requests, so p99 has at least ten samples beyond it.
constexpr std::size_t kMinRequests = 1000;
constexpr double kMaxPhaseSeconds = 60.0;

/// Confines the calling thread, and every process it spawns meanwhile,
/// to the CPU it runs on; the destructor restores the old mask.
///
/// One request is in flight at a time, so the client and the daemon
/// never need two CPUs. Unpinned, every hand-off between them (client to
/// reader, reader to worker, worker to client) woke an idle vCPU, and on
/// a shared host that wake-up waits for the hypervisor: as the VM's
/// stolen time rose, unpinned runs lost up to a quarter of their
/// requests per second while pinned runs stayed within 6% of their
/// median.
class PinToOneCpu {
 public:
  PinToOneCpu() {
    const int cpu = sched_getcpu();
    if (cpu < 0 || sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~PinToOneCpu() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// A spawned `cwsp_tool serve` process. The destructor kills and reaps
/// a daemon that was not shut down through the protocol.
class Daemon {
 public:
  Daemon(const std::string& tool, const std::string& socket) {
    ::unlink(socket.c_str());
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    // The daemon's stdout must not mix into the raw result on ours.
    posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO, STDOUT_FILENO);
    std::string args[] = {tool, "serve", "--socket", socket, "--workers", "2"};
    char* argv[] = {args[0].data(), args[1].data(), args[2].data(),
                    args[3].data(), args[4].data(), args[5].data(), nullptr};
    const int rc =
        posix_spawn(&pid_, tool.c_str(), &actions, nullptr, argv, environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      throw cwsp::Error("cannot start " + tool + ": " + std::strerror(rc));
    }
  }
  ~Daemon() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Reaps the daemon after a shutdown request; returns its peak RSS in
  /// KiB (ru_maxrss).
  long wait() {
    int status = 0;
    rusage usage{};
    const pid_t pid = pid_;
    pid_ = -1;
    if (::wait4(pid, &status, 0, &usage) != pid) {
      throw cwsp::Error("wait4 on the daemon failed");
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw cwsp::Error("daemon exited abnormally (status " +
                        std::to_string(status) + ")");
    }
    return usage.ru_maxrss;
  }

 private:
  pid_t pid_ = -1;
};

/// One NDJSON connection to the daemon.
class Conn {
 public:
  /// Dials until the daemon listens (it may still be starting).
  explicit Conn(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      throw cwsp::Error("socket path too long: " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const std::int64_t start = now_ns();
    for (;;) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd_ < 0) throw cwsp::Error("socket() failed");
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        return;
      }
      ::close(fd_);
      fd_ = -1;
      if (ms_since(start) > 30e3) throw cwsp::Error("daemon never listened");
      ::usleep(200);
    }
  }
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Sends the concatenation of `parts` as one request.
  void send(std::initializer_list<std::string_view> parts) {
    std::vector<iovec> iov;
    for (std::string_view p : parts) {
      if (!p.empty()) {
        iov.push_back({const_cast<char*>(p.data()), p.size()});
      }
    }
    std::size_t at = 0;
    while (at < iov.size()) {
      const ssize_t n = ::writev(fd_, iov.data() + at,
                                 static_cast<int>(iov.size() - at));
      if (n < 0) {
        if (errno == EINTR) continue;
        throw cwsp::Error("write to the daemon failed");
      }
      std::size_t left = static_cast<std::size_t>(n);
      while (at < iov.size() && left >= iov[at].iov_len) {
        left -= iov[at].iov_len;
        ++at;
      }
      if (at < iov.size()) {
        iov[at].iov_base = static_cast<char*>(iov[at].iov_base) + left;
        iov[at].iov_len -= left;
      }
    }
  }

  /// The next response line, without its newline.
  std::string read_line() {
    for (;;) {
      const std::size_t nl = buffer_.find('\n', scanned_);
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        scanned_ = 0;
        return line;
      }
      scanned_ = buffer_.size();
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw cwsp::Error("daemon closed the connection");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
  std::size_t scanned_ = 0;
};

cwsp::service::CampaignSpec request_spec(std::uint64_t seed) {
  cwsp::service::CampaignSpec spec;
  spec.runs = 32;
  spec.cycles = 10;
  spec.adversarial = true;
  spec.seed = seed;
  return spec;
}

/// One request/response of the measured phase.
struct Sample {
  std::uint64_t seed = 0;
  bool fresh = false;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::string line;
};

struct Counters {
  std::map<std::string, std::uint64_t> counters;
  double queue_wait_p50_us = 0.0;
  double queue_wait_p99_us = 0.0;
};

/// Everything one daemon lifetime needs: the request text, the hot
/// seeds and the connection.
class Load {
 public:
  Load(const Options& options, const std::string& text)
      : options_(options),
        prefix_(std::string("{\"op\":\"campaign\",\"runs\":32,\"cycles\":10,"
                            "\"adversarial\":true,\"design_name\":\"") +
                std::string(kDesignName) + "\",\"design\":\"" +
                json::escape(text) + "\",\"seed\":") {
    for (std::uint64_t h = 0; h < 4; ++h) {
      hot_[h] = op_seed(options.seed, h + 1);
    }
  }

  [[nodiscard]] std::uint64_t hot(std::size_t i) const { return hot_[i]; }
  [[nodiscard]] const std::string& prefix() const { return prefix_; }

  /// Starts a daemon and answers the first hot request on it; returns
  /// the time from spawn to that answer in ms.
  double start(Sample& first) {
    conn_.reset();
    daemon_.reset();
    const std::string seed_text = std::to_string(hot_[0]);
    const std::int64_t start = now_ns();
    daemon_ = std::make_unique<Daemon>(options_.tool, options_.socket);
    conn_ = std::make_unique<Conn>(options_.socket);
    first.seed = hot_[0];
    first.start_ns = now_ns();
    conn_->send({prefix_, seed_text, kSuffix});
    first.line = conn_->read_line();
    first.end_ns = now_ns();
    return ms_since(start);
  }

  /// Sends the other hot specs once (they execute and enter the result
  /// cache).
  std::vector<Sample> warm_up() {
    std::vector<Sample> out;
    for (std::size_t h = 1; h < 4; ++h) {
      Sample s;
      s.seed = hot_[h];
      s.start_ns = now_ns();
      conn_->send({prefix_, std::to_string(hot_[h]), kSuffix});
      s.line = conn_->read_line();
      s.end_ns = now_ns();
      out.push_back(std::move(s));
    }
    return out;
  }

  /// The closed loop: one request in flight, no think time. `phase`
  /// numbers the phases of one daemon so fresh seeds never repeat.
  std::vector<Sample> run_phase(double seconds, std::size_t min_requests,
                                std::uint64_t phase, double& wall_s) {
    std::vector<Sample> samples;
    std::uint64_t pick = op_seed(options_.seed, 7000 + 10 * phase);
    const std::int64_t start = now_ns();
    for (std::uint64_t j = 0;; ++j) {
      const double elapsed = ms_since(start) / 1e3;
      if ((elapsed >= seconds && samples.size() >= min_requests) ||
          elapsed >= kMaxPhaseSeconds) {
        break;
      }
      Sample s;
      s.fresh = j % kFreshEvery == kFreshEvery - 1;
      if (s.fresh) {
        s.seed = op_seed(options_.seed, 1'000'000 + phase * 100'000'000 + j);
      } else {
        pick = pick * 6364136223846793005ULL + 1442695040888963407ULL;
        s.seed = hot_[pick >> 62];
      }
      const std::string seed_text = std::to_string(s.seed);
      s.start_ns = now_ns();
      conn_->send({prefix_, seed_text, kSuffix});
      s.line = conn_->read_line();
      s.end_ns = now_ns();
      samples.push_back(std::move(s));
    }
    wall_s = samples.empty()
                 ? 0.0
                 : static_cast<double>(samples.back().end_ns - start) / 1e9;
    return samples;
  }

  /// The daemon's counters and queue-wait quantiles (`metrics` op).
  Counters metrics() {
    conn_->send({"{\"op\":\"metrics\"}\n"});
    const json::Value response = json::parse(conn_->read_line());
    const json::Value doc = json::parse(response.text("payload", "{}"));
    Counters out;
    if (const auto* c = doc.find("counters")) {
      for (const auto& [name, value] : c->as_object()) {
        out.counters[name] = static_cast<std::uint64_t>(value.as_number());
      }
    }
    if (const auto* h = doc.find("histograms")) {
      if (const auto* wait = h->find("service.queue_wait_us")) {
        out.queue_wait_p50_us = wait->number("p50_us", 0.0);
        out.queue_wait_p99_us = wait->number("p99_us", 0.0);
      }
    }
    return out;
  }

  /// Shuts the daemon down through the protocol; returns its peak RSS.
  long stop() {
    conn_->send({"{\"op\":\"shutdown\"}\n"});
    (void)conn_->read_line();
    conn_.reset();
    const long rss = daemon_->wait();
    daemon_.reset();
    return rss;
  }

 private:
  const Options& options_;
  std::string prefix_;
  std::uint64_t hot_[4] = {};
  std::unique_ptr<Conn> conn_;
  std::unique_ptr<Daemon> daemon_;
};

/// Digest of the payload a direct run_campaign gives for each seed,
/// computed on `threads` threads sharing one warm session.
void expected_digests(const cwsp::service::DesignSession& session,
                      const std::vector<std::uint64_t>& seeds,
                      std::size_t threads,
                      std::map<std::uint64_t, std::uint64_t>& digests) {
  std::vector<std::uint64_t> out(seeds.size(), 0);
  std::atomic<std::size_t> next{0};
  std::string errors;
  std::mutex errors_mutex;
  auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < seeds.size();
         i = next.fetch_add(1)) {
      try {
        std::uint64_t h = kFnvBasis;
        fnv_mix(h, cwsp::service::run_campaign(session, request_spec(seeds[i]))
                       .output);
        out[i] = h;
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(errors_mutex);
        errors = e.what();
      }
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  if (!errors.empty()) throw cwsp::Error("direct run_campaign: " + errors);
  for (std::size_t i = 0; i < seeds.size(); ++i) digests[seeds[i]] = out[i];
}

/// Checks one response against the direct run's payload digest.
std::string check_sample(
    const Sample& s, const std::map<std::uint64_t, std::uint64_t>& digests) {
  try {
    const json::Value response = json::parse(s.line);
    if (!response.boolean("ok", false)) {
      return "request failed: " + response.text("code", "?") + ": " +
             response.text("error", "");
    }
    std::uint64_t h = kFnvBasis;
    fnv_mix(h, response.text("payload", ""));
    if (h != digests.at(s.seed)) {
      return "payload for seed " + std::to_string(s.seed) +
             " differs from a direct run_campaign";
    }
    return "";
  } catch (const std::exception& e) {
    return std::string("bad response: ") + e.what();
  }
}

/// The run's report digest: the payloads of the four hot specs.
void mix_hot_digests(const Load& load,
                     const std::map<std::uint64_t, std::uint64_t>& digests,
                     RawResult& raw) {
  for (std::size_t h = 0; h < 4; ++h) {
    fnv_mix(raw.digest, std::to_string(digests.at(load.hot(h))));
  }
}

std::size_t cores() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

std::string input_path(const Options& options) {
  return options.inputs + "/c7552.bench";
}

}  // namespace

void run_service_workload(const Options& options,
                          const cwsp::CellLibrary& library, RawResult& raw) {
  const std::string text = cwsp::service::read_design_file(input_path(options));
  Load load(options, text);

  std::vector<Sample> checked;  // every request, checked at the end
  std::vector<Sample> samples;
  {
    const PinToOneCpu pin;
    for (int s = 0; s < kStarts; ++s) {
      Sample first;
      raw.setup_ms.push_back(load.start(first));
      checked.push_back(std::move(first));
      if (s + 1 < kStarts) (void)load.stop();
    }
    for (Sample& s : load.warm_up()) checked.push_back(std::move(s));
    samples = load.run_phase(options.seconds, kMinRequests, 0, raw.wall_s);
    raw.peak_rss_kb = load.stop();
  }
  for (const Sample& s : samples) {
    raw.latency_ms.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
  }

  // Untimed: every payload against a direct run of the same spec.
  const auto session = cwsp::service::DesignSession::build(
      std::string(kDesignName), text, library);
  std::set<std::uint64_t> seeds;
  for (const Sample& s : checked) seeds.insert(s.seed);
  for (const Sample& s : samples) seeds.insert(s.seed);
  std::map<std::uint64_t, std::uint64_t> digests;
  expected_digests(*session, {seeds.begin(), seeds.end()}, cores(), digests);
  mix_hot_digests(load, digests, raw);
  for (const Sample& s : checked) raw.count(check_sample(s, digests));
  for (const Sample& s : samples) raw.count(check_sample(s, digests));
}

void trace_service_group(const Options& options,
                         const cwsp::CellLibrary& library, bool own,
                         RawResult& raw) {
  Tracer& tr = raw.tracer;
  const std::string text = cwsp::service::read_design_file(input_path(options));
  Load load(options, text);
  std::vector<Sample> checked;
  // Phase A untraced, phase B with a span per request; the difference of
  // their median latencies is the tracing overhead.
  std::vector<Sample> untraced;
  std::vector<Sample> traced;
  Counters before;
  Counters after;
  {
    const PinToOneCpu pin;
    Sample first;
    (void)load.start(first);
    checked.push_back(std::move(first));
    for (Sample& s : load.warm_up()) checked.push_back(std::move(s));
    const double phase_s = own ? options.seconds / 2.0 : 1.0;
    double wall_s = 0.0;
    untraced = load.run_phase(phase_s, 0, 1, wall_s);
    before = load.metrics();
    traced = load.run_phase(phase_s, 0, 2, wall_s);
    after = load.metrics();
    (void)load.stop();
  }

  Tracer::Op& phase = tr.begin_op("service", own);
  phase.values["service.queue_wait_p50_us"] = after.queue_wait_p50_us;
  phase.values["service.queue_wait_p99_us"] = after.queue_wait_p99_us;
  phase.counters_before = before.counters;
  phase.counters_after = after.counters;
  for (const Sample& s : untraced) {
    tr.begin_op("service", own).values["untraced_ms"] =
        static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  for (const Sample& s : traced) {
    tr.begin_op("service", own).values["traced_ms"] =
        static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    tr.add_span(s.fresh ? "service.request.fresh" : "service.request.hit",
                s.start_ns, s.end_ns);
  }

  // Layers of a request, timed directly on this process.
  const std::string line = load.prefix() + std::to_string(load.hot(0)) + "}";
  for (int rep = 0; rep < 20; ++rep) {
    tr.begin_op("service", own);
    Tracer::Scope s(tr, "service.json_parse");
    (void)json::parse(line);
  }
  for (int rep = 0; rep < 20; ++rep) {
    tr.begin_op("service", own);
    Tracer::Scope s(tr, "service.design_key");
    (void)cwsp::service::design_key(std::string(kDesignName), text);
  }

  // Fresh specs executed directly on a warm session: the execution part
  // of a fresh request's latency. These runs also check those payloads.
  tr.begin_op("service", own);
  const auto session = traced_session(tr, input_path(options), library);
  std::map<std::uint64_t, std::uint64_t> digests;
  expected_digests(*session,
                   {load.hot(0), load.hot(1), load.hot(2), load.hot(3)},
                   cores(), digests);
  std::set<std::uint64_t> rest;
  std::size_t executed = 0;
  for (const auto* samples : {&checked, &untraced, &traced}) {
    for (const Sample& s : *samples) {
      if (digests.count(s.seed) != 0) continue;
      if (s.fresh && executed < 32) {
        tr.begin_op("service", own);
        std::string output;
        {
          Tracer::Scope span(tr, "service.exec");
          output = cwsp::service::run_campaign(*session, request_spec(s.seed))
                       .output;
        }
        std::uint64_t h = kFnvBasis;
        fnv_mix(h, output);
        digests[s.seed] = h;
        ++executed;
      } else {
        rest.insert(s.seed);
      }
    }
  }
  expected_digests(*session, {rest.begin(), rest.end()}, cores(), digests);
  if (own) mix_hot_digests(load, digests, raw);
  for (const auto* samples : {&checked, &untraced, &traced}) {
    for (const Sample& s : *samples) raw.count(check_sample(s, digests));
  }
}

}  // namespace perfbench
