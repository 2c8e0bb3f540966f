#include "service/session.hpp"

#include <cstring>
#include <fstream>
#include <sstream>

#include "common/failpoint.hpp"
#include "common/fnv.hpp"
#include "common/metrics.hpp"
#include "cwsp/timing.hpp"
#include "netlist/bench_parser.hpp"

namespace cwsp::service {
namespace {

/// Rough per-session footprint: the source text (which a SessionCache
/// entry keeps) plus the dominant arrays, which all scale with net and
/// gate counts (netlist records, CSR adjacency, arrival windows, truth
/// tables). The constants are deliberately generous — the bound exists
/// to stop unbounded growth, not to account bytes exactly.
std::size_t estimate_bytes(const Netlist& netlist, const std::string& text) {
  return text.size() + netlist.num_nets() * 256 + netlist.num_gates() * 128 +
         64 * 1024;
}

}  // namespace

std::uint64_t design_key(const std::string& name, const std::string& text) {
  std::uint64_t h = fnv::kOffsetBasis;
  fnv::mix_bytes(h, name);
  h ^= 0xff;
  h *= fnv::kPrime;
  fnv::mix_bytes(h, text);
  return h;
}

std::string design_name_from_path(const std::string& path) {
  const auto slash = path.find_last_of('/');
  std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const auto dot = base.find_last_of('.');
  if (dot != std::string::npos) base = base.substr(0, dot);
  return base;
}

std::string read_design_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw ParseError("cannot open bench file " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::shared_ptr<const DesignSession> load_design_session(
    const std::string& path, const CellLibrary& library) {
  return DesignSession::build(design_name_from_path(path),
                              read_design_file(path), library);
}

std::shared_ptr<const DesignSession> DesignSession::build(
    const std::string& design_name, const std::string& text,
    const CellLibrary& library) {
  return build(design_name, text, design_key(design_name, text), library);
}

std::shared_ptr<const DesignSession> DesignSession::build(
    const std::string& design_name, const std::string& text,
    std::uint64_t key, const CellLibrary& library) {
  auto session = std::make_shared<DesignSession>();
  session->key = key;
  session->name = design_name;
  try {
    session->netlist = std::make_unique<const Netlist>(
        parse_bench_string(text, library, design_name));
  } catch (const ParseError&) {
    throw;
  } catch (const Error& e) {
    // Match parse_bench_file: structural problems surface as parse
    // errors (CLI exit code 2), whatever layer raised them.
    throw ParseError(e.what());
  }
  session->sta = run_sta(*session->netlist);
  const auto params = core::ProtectionParams::q100();
  session->period_q100 =
      std::max(core::hardened_clock_period(session->sta.dmax, library),
               core::min_clock_period_for_delta(params));
  session->kernel_context =
      sim::CompiledKernelContext::build(*session->netlist);
  session->approx_bytes = estimate_bytes(*session->netlist, text);
  return session;
}

SessionCache::SessionCache(const SessionCacheOptions& options)
    : options_(options) {}

std::uint64_t SessionCache::key_of(const std::string& name,
                                   const std::string& text) const {
  auto& registry = metrics::Registry::global();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Entry& entry : lru_) {
      if (entry.session->name == name && entry.text->size() == text.size() &&
          std::memcmp(entry.text->data(), text.data(), text.size()) == 0) {
        registry.counter("service.sessions.keys_reused").add();
        return entry.session->key;
      }
    }
  }
  registry.counter("service.sessions.keys_hashed").add();
  return design_key(name, text);
}

std::shared_ptr<const DesignSession> SessionCache::get_or_build(
    const std::string& name, std::shared_ptr<const std::string> text,
    std::uint64_t key, const CellLibrary& library) {
  auto& registry = metrics::Registry::global();
  // Chaos: forced full eviction — every lookup becomes a cold rebuild,
  // which must change latency but never any response byte.
  if (failpoint::fires("service.session.evict")) {
    std::lock_guard<std::mutex> lock(mutex_);
    registry.counter("service.sessions.evictions").add(lru_.size());
    lru_.clear();
    resident_bytes_ = 0;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto hit = touch_locked(key)) {
      registry.counter("service.sessions.hits").add();
      return hit;
    }
  }
  registry.counter("service.sessions.misses").add();
  // Build outside the lock: parsing + STA + kernel context is the
  // expensive part, and concurrent misses on different designs must not
  // serialize on each other.
  std::shared_ptr<const DesignSession> session =
      DesignSession::build(name, *text, key, library);

  std::lock_guard<std::mutex> lock(mutex_);
  // Lost a build race? Keep the first insert.
  if (auto first = touch_locked(key)) return first;
  lru_.push_front(Entry{session, std::move(text)});
  resident_bytes_ += session->approx_bytes;
  evict_locked();
  registry.gauge("service.sessions.entries")
      .set(static_cast<std::int64_t>(lru_.size()));
  registry.gauge("service.sessions.resident_bytes")
      .set(static_cast<std::int64_t>(resident_bytes_));
  return session;
}

std::size_t SessionCache::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

std::size_t SessionCache::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return resident_bytes_;
}

std::shared_ptr<const DesignSession> SessionCache::touch_locked(
    std::uint64_t key) {
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    if (it->session->key == key) {
      lru_.splice(lru_.begin(), lru_, it);
      return it->session;
    }
  }
  return nullptr;
}

void SessionCache::evict_locked() {
  auto& evictions = metrics::Registry::global().counter(
      "service.sessions.evictions");
  while (lru_.size() > 1 && (lru_.size() > options_.max_entries ||
                             resident_bytes_ > options_.max_bytes)) {
    resident_bytes_ -= lru_.back().session->approx_bytes;
    lru_.pop_back();
    evictions.add();
  }
}

}  // namespace cwsp::service
