// Design sessions and the LRU session cache: warm per-design state
// (netlist + STA + compiled-kernel context) shared across service
// requests, bounded by entry count and resident bytes.

#include "service/session.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "cell/library.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/metrics.hpp"

namespace cwsp::service {
namespace {

constexpr char kDesignA[] =
    "INPUT(a)\nINPUT(b)\nOUTPUT(q)\n"
    "t1 = NAND(a, b)\nt2 = XOR(t1, q)\nq = DFF(t2)\n";
constexpr char kDesignB[] =
    "INPUT(a)\nOUTPUT(q)\n"
    "t1 = NOT(a)\nq = DFF(t1)\n";
constexpr char kDesignC[] =
    "INPUT(a)\nINPUT(b)\nOUTPUT(q)\n"
    "t1 = OR(a, b)\nq = DFF(t1)\n";

class SessionCacheTest : public ::testing::Test {
 protected:
  /// get_or_build the way the server calls it: the key from key_of.
  std::shared_ptr<const DesignSession> get(SessionCache& cache,
                                           const std::string& name,
                                           const std::string& text) {
    return cache.get_or_build(name, std::make_shared<const std::string>(text),
                              cache.key_of(name, text), lib_);
  }

  CellLibrary lib_ = make_default_library();
};

std::uint64_t counter(const char* name) {
  return metrics::Registry::global().counter(name).value();
}

TEST_F(SessionCacheTest, DesignKeyCoversNameAndText) {
  EXPECT_EQ(design_key("d", kDesignA), design_key("d", kDesignA));
  EXPECT_NE(design_key("d", kDesignA), design_key("d", kDesignB));
  EXPECT_NE(design_key("d", kDesignA), design_key("e", kDesignA));
}

TEST_F(SessionCacheTest, DesignNameFromPathMatchesCliDerivation) {
  EXPECT_EQ(design_name_from_path("/a/b/c10.bench"), "c10");
  EXPECT_EQ(design_name_from_path("x.blif"), "x");
  EXPECT_EQ(design_name_from_path("noext"), "noext");
  EXPECT_EQ(design_name_from_path("dir.d/leaf.bench"), "leaf");
}

TEST_F(SessionCacheTest, BuildProducesWarmArtifacts) {
  const auto session = DesignSession::build("demo", kDesignA, lib_);
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->name, "demo");
  ASSERT_NE(session->netlist, nullptr);
  EXPECT_EQ(session->netlist->num_flip_flops(), 1u);
  EXPECT_GT(session->sta.dmax.value(), 0.0);
  EXPECT_GT(session->period_q100.value(), 0.0);
  ASSERT_NE(session->kernel_context, nullptr);
  EXPECT_GT(session->approx_bytes, 0u);
}

TEST_F(SessionCacheTest, BuildRejectsMalformedDesigns) {
  EXPECT_THROW(
      (void)DesignSession::build("bad", "INPUT(a)\nq = AND(a, ghost)\n",
                                 lib_),
      ParseError);
}

TEST_F(SessionCacheTest, ReadDesignFileThrowsLikeTheParser) {
  EXPECT_THROW((void)read_design_file("/nonexistent/x.bench"), ParseError);
}

TEST_F(SessionCacheTest, CacheHitsReturnTheSameSession) {
  SessionCache cache;
  const auto first = get(cache, "a", kDesignA);
  const auto second = get(cache, "a", kDesignA);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.entries(), 1u);

  const auto other = get(cache, "b", kDesignB);
  EXPECT_NE(other.get(), first.get());
  EXPECT_EQ(cache.entries(), 2u);
}

TEST_F(SessionCacheTest, EvictsLeastRecentlyUsedByEntryBound) {
  SessionCacheOptions options;
  options.max_entries = 2;
  SessionCache cache(options);
  const auto a = get(cache, "a", kDesignA);
  (void)get(cache, "b", kDesignB);
  (void)get(cache, "a", kDesignA);  // refresh a
  (void)get(cache, "c", kDesignC);  // evicts b
  EXPECT_EQ(cache.entries(), 2u);
  // "a" survived (refreshed); rebuilding it is still a hit.
  EXPECT_EQ(get(cache, "a", kDesignA).get(), a.get());
  // "b" was evicted: a rebuild produces a fresh session.
  const auto b2 = get(cache, "b", kDesignB);
  ASSERT_NE(b2, nullptr);
  EXPECT_EQ(cache.entries(), 2u);
}

TEST_F(SessionCacheTest, MemoryBoundAlwaysKeepsTheMostRecentSession) {
  SessionCacheOptions options;
  options.max_bytes = 1;  // everything oversized
  SessionCache cache(options);
  (void)get(cache, "a", kDesignA);
  EXPECT_EQ(cache.entries(), 1u);  // most recent survives the bound
  const auto b = get(cache, "b", kDesignB);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(get(cache, "b", kDesignB).get(), b.get());
}

TEST_F(SessionCacheTest, EvictedSessionsStayUsable) {
  SessionCacheOptions options;
  options.max_entries = 1;
  SessionCache cache(options);
  const auto a = get(cache, "a", kDesignA);
  (void)get(cache, "b", kDesignB);  // evicts a
  // The shared_ptr keeps the evicted session alive for in-flight work.
  EXPECT_EQ(a->netlist->num_flip_flops(), 1u);
  EXPECT_NE(a->kernel_context, nullptr);
}

// key_of must return design_key(name, text) whichever way it gets there:
// by byte comparison with a resident entry (no hash) or by hashing once.
TEST_F(SessionCacheTest, ResolvedKeyEqualsDesignKeyReusedOrHashed) {
  SessionCacheOptions options;
  options.max_entries = 2;
  SessionCache cache(options);
  const auto expect_key = [&](const std::string& name,
                              const std::string& text, bool reused) {
    const std::uint64_t reused0 = counter("service.sessions.keys_reused");
    const std::uint64_t hashed0 = counter("service.sessions.keys_hashed");
    EXPECT_EQ(cache.key_of(name, text), design_key(name, text)) << name;
    EXPECT_EQ(counter("service.sessions.keys_reused") - reused0,
              reused ? 1u : 0u)
        << name;
    EXPECT_EQ(counter("service.sessions.keys_hashed") - hashed0,
              reused ? 0u : 1u)
        << name;
  };

  // Never seen: hashed.
  expect_key("a", kDesignA, false);
  // Resident: taken from the entry, byte for byte.
  const auto a = get(cache, "a", kDesignA);
  expect_key("a", kDesignA, true);
  EXPECT_EQ(a->key, design_key("a", kDesignA));

  // Same length, last byte differs: hashed, and a session-cache miss.
  std::string last_byte = kDesignA;
  last_byte.back() = ' ';
  ASSERT_EQ(last_byte.size(), std::strlen(kDesignA));
  expect_key("a", last_byte, false);
  const std::uint64_t misses0 = counter("service.sessions.misses");
  const auto variant = get(cache, "a", last_byte);
  EXPECT_EQ(counter("service.sessions.misses") - misses0, 1u);
  EXPECT_NE(variant.get(), a.get());
  EXPECT_EQ(variant->key, design_key("a", last_byte));
  EXPECT_NE(variant->key, a->key);

  // The same text under another name: hashed, another key.
  expect_key("renamed", kDesignA, false);
  EXPECT_NE(cache.key_of("renamed", kDesignA), a->key);

  // Evicted (two newer entries): hashed again, the same key.
  (void)get(cache, "b", kDesignB);
  ASSERT_EQ(cache.entries(), 2u);
  expect_key("a", kDesignA, false);
}

TEST_F(SessionCacheTest, EvictFailpointRebuildsUnderTheSameKey) {
  SessionCache cache;
  const std::uint64_t key = design_key("a", kDesignA);
  const auto first = get(cache, "a", kDesignA);
  failpoint::Registry::global().configure("service.session.evict=err");
  const std::uint64_t misses0 = counter("service.sessions.misses");
  const auto rebuilt = get(cache, "a", kDesignA);
  const auto again = get(cache, "a", kDesignA);
  failpoint::Registry::global().clear();
  EXPECT_EQ(counter("service.sessions.misses") - misses0, 2u);
  EXPECT_NE(rebuilt.get(), first.get());
  EXPECT_NE(again.get(), rebuilt.get());
  EXPECT_EQ(first->key, key);
  EXPECT_EQ(rebuilt->key, key);
  EXPECT_EQ(again->key, key);
  EXPECT_EQ(cache.key_of("a", kDesignA), key);
}

// Key lookups racing builds, hits and evictions (run under TSan in CI):
// every resolved key and every session's key equals design_key.
TEST_F(SessionCacheTest, KeyLookupsRaceSessionBuilds) {
  SessionCacheOptions options;
  options.max_entries = 2;
  SessionCache cache(options);
  const std::vector<std::pair<std::string, std::string>> designs = {
      {"a", kDesignA}, {"b", kDesignB}, {"c", kDesignC}};
  std::vector<std::thread> threads;
  std::vector<int> wrong(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 60; ++i) {
        const auto& [name, text] = designs[(i + t) % designs.size()];
        const std::uint64_t key = design_key(name, text);
        if (t % 2 == 0) {
          if (get(cache, name, text)->key != key) ++wrong[t];
        } else if (cache.key_of(name, text) != key) {
          ++wrong[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wrong, std::vector<int>(4, 0));
  EXPECT_LE(cache.entries(), 2u);
}

}  // namespace
}  // namespace cwsp::service
