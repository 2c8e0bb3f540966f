#pragma once
// Per-design warm state shared across service requests.
//
// A cold `cwsp_tool` invocation spends its first milliseconds re-deriving
// the same amortizable artifacts on every run: the parsed Netlist, its
// FlatNetlistView + STA delays (CompiledKernelContext), and the hardened
// clock period. A DesignSession captures all of that once; the
// SessionCache keeps sessions behind an LRU with a memory bound so a
// server fed many designs degrades to cold-start cost instead of growing
// without limit.
//
// Sessions are immutable after construction and handed out as
// shared_ptr, so an evicted session stays valid for requests already
// executing against it. Hit/miss/eviction counts feed the global metrics
// registry (`service.sessions.*` — docs/service.md has the catalog).

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>

#include "cwsp/protection_params.hpp"
#include "netlist/netlist.hpp"
#include "sim/compiled_kernel.hpp"
#include "sta/sta.hpp"

namespace cwsp::service {

/// Everything request execution needs that depends only on the design
/// text: parse + STA + compiled-kernel context, done exactly once.
struct DesignSession {
  /// Cache key: FNV-64 of the design name and source text.
  std::uint64_t key = 0;
  std::string name;
  /// Stable-address netlist (CampaignEngine and the kernel context keep
  /// pointers into it).
  std::unique_ptr<const Netlist> netlist;
  TimingResult sta;
  /// Hardened clock period under the default Q=100 fC envelope — the same
  /// expression the one-shot campaign subcommand computes.
  Picoseconds period_q100{0.0};
  std::shared_ptr<const sim::CompiledKernelContext> kernel_context;
  /// Rough resident size used for the cache's memory bound.
  std::size_t approx_bytes = 0;

  /// Parses `text` (strict mode, same as the CLI's file path) and builds
  /// the warm artifacts. Throws cwsp::ParseError on bad designs.
  [[nodiscard]] static std::shared_ptr<const DesignSession> build(
      const std::string& design_name, const std::string& text,
      const CellLibrary& library);
  /// build() with the key already resolved: `key` must equal
  /// design_key(design_name, text), which is not recomputed.
  [[nodiscard]] static std::shared_ptr<const DesignSession> build(
      const std::string& design_name, const std::string& text,
      std::uint64_t key, const CellLibrary& library);
};

[[nodiscard]] std::uint64_t design_key(const std::string& name,
                                       const std::string& text);

/// The design name the one-shot CLI derives from a file path (basename
/// sans extension) — kept identical so reports name the design the same
/// way regardless of how it reached the tool.
[[nodiscard]] std::string design_name_from_path(const std::string& path);

/// Reads `path` and builds a session (no cache) — the one-shot CLI path.
/// Throws cwsp::ParseError for unreadable or malformed designs.
[[nodiscard]] std::shared_ptr<const DesignSession> load_design_session(
    const std::string& path, const CellLibrary& library);

/// Reads `path` into `text`; throws cwsp::ParseError when unreadable.
[[nodiscard]] std::string read_design_file(const std::string& path);

struct SessionCacheOptions {
  std::size_t max_entries = 8;
  /// Upper bound on the summed approx_bytes of cached sessions. The most
  /// recent session is always retained, even when it alone exceeds the
  /// bound (otherwise a large design would thrash on every request).
  std::size_t max_bytes = 256ull * 1024 * 1024;
};

/// Thread-safe LRU over DesignSessions keyed by design content. Each
/// entry keeps the text it was built from (shared with the request that
/// built it; the byte bound already charges it through approx_bytes), so
/// a byte-identical text gets its key without hashing.
class SessionCache {
 public:
  explicit SessionCache(const SessionCacheOptions& options = {});

  /// design_key(name, text): the key of a resident entry whose name and
  /// text are byte-identical (length compare, then memcmp), else one
  /// hash. Counted as service.sessions.keys_reused / keys_hashed.
  [[nodiscard]] std::uint64_t key_of(const std::string& name,
                                     const std::string& text) const;

  /// Returns the cached session for `key`, building it from (name, *text)
  /// and inserting it on miss. `key` must equal design_key(name, *text)
  /// (key_of gives it); it is not recomputed. Concurrent callers may
  /// build the same session twice; the first insert wins and both get a
  /// usable session.
  [[nodiscard]] std::shared_ptr<const DesignSession> get_or_build(
      const std::string& name, std::shared_ptr<const std::string> text,
      std::uint64_t key, const CellLibrary& library);

  [[nodiscard]] std::size_t entries() const;
  [[nodiscard]] std::size_t resident_bytes() const;

 private:
  struct Entry {
    std::shared_ptr<const DesignSession> session;
    std::shared_ptr<const std::string> text;  // what the session was built from
  };

  /// The session of the entry holding `key`, moved to the LRU front;
  /// nullptr when none does.
  std::shared_ptr<const DesignSession> touch_locked(std::uint64_t key);
  void evict_locked();

  SessionCacheOptions options_;
  mutable std::mutex mutex_;
  /// Front = most recently used.
  std::list<Entry> lru_;
  std::size_t resident_bytes_ = 0;
};

}  // namespace cwsp::service
