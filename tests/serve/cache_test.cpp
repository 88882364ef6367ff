// EvalCache: LRU mechanics, byte accounting, and the bit-identical-bytes
// contract the serve layer builds on.
#include "serve/cache.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "serve/kernels.hpp"
#include "serve/query.hpp"

namespace ksw::serve {
namespace {

TEST(EvalCache, MissThenHit) {
  EvalCache cache(1 << 20);
  const std::string key = "k";
  const std::uint64_t hash = fnv1a64(key);
  EXPECT_FALSE(cache.lookup(hash, key).has_value());
  cache.insert(hash, key, "value");
  const auto hit = cache.lookup(hash, key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "value");
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(EvalCache, HitReturnsBitIdenticalBytesForEveryKernel) {
  // The core caching contract: for each kernel, the bytes a hit returns
  // are exactly the bytes the cold evaluation produced.
  const std::vector<std::string> lines = {
      R"({"kernel":"first_stage","params":{"distribution":8}})",
      R"({"kernel":"later_stages","params":{"stage":3}})",
      R"({"kernel":"closed_form","params":{"family":"uniform"}})",
      R"({"kernel":"total_delay","params":{"stages":6}})",
  };
  EvalCache cache(1 << 20);
  for (const auto& line : lines) {
    const Request req = Request::parse(line);
    ASSERT_TRUE(req.valid()) << line;
    const std::string key = req.query.canonical();
    const std::uint64_t hash = fnv1a64(key);
    const std::string cold = evaluate_bytes(req.query);
    cache.insert(hash, key, cold);
    const auto hit = cache.lookup(hash, key);
    ASSERT_TRUE(hit.has_value()) << line;
    EXPECT_EQ(*hit, cold) << line;
    // Recomputation is deterministic too, so a second cold evaluation
    // matches the cached bytes byte-for-byte.
    EXPECT_EQ(evaluate_bytes(req.query), cold) << line;
  }
}

TEST(EvalCache, EvictsLeastRecentlyUsedAtCapacity) {
  // One shard so the LRU order is globally observable. Each entry costs
  // key + value + 64 bytes of overhead.
  EvalCache cache(3 * 80, /*shards=*/1);
  const auto key = [](int i) { return "key-" + std::to_string(i); };
  for (int i = 0; i < 4; ++i)
    cache.insert(fnv1a64(key(i)), key(i), "v");
  const auto stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, stats.capacity_bytes);
  // The oldest entry fell out; the newest survives.
  EXPECT_FALSE(cache.lookup(fnv1a64(key(0)), key(0)).has_value());
  EXPECT_TRUE(cache.lookup(fnv1a64(key(3)), key(3)).has_value());
}

TEST(EvalCache, LookupRefreshesRecency) {
  EvalCache cache(2 * 80, /*shards=*/1);
  cache.insert(fnv1a64("a"), "a", "1");
  cache.insert(fnv1a64("b"), "b", "2");
  // Touch "a" so "b" becomes the eviction victim.
  ASSERT_TRUE(cache.lookup(fnv1a64("a"), "a").has_value());
  cache.insert(fnv1a64("c"), "c", "3");
  EXPECT_TRUE(cache.lookup(fnv1a64("a"), "a").has_value());
  EXPECT_FALSE(cache.lookup(fnv1a64("b"), "b").has_value());
}

TEST(EvalCache, FindLeavesTheMissForTheCallerToSettle) {
  EvalCache cache(1 << 20);
  const std::uint64_t hash = fnv1a64("k");
  EXPECT_FALSE(cache.find(hash, "k").has_value());
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_FALSE(cache.lookup(hash, "k").has_value());  // settles it
  cache.insert(hash, "k", "v");
  EXPECT_EQ(cache.find(hash, "k").value_or(""), "v");
  cache.record_hit(hash, "k");
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
}

TEST(EvalCache, RecordHitRefreshesRecency) {
  EvalCache cache(2 * 80, /*shards=*/1);
  cache.insert(fnv1a64("a"), "a", "1");
  cache.insert(fnv1a64("b"), "b", "2");
  cache.record_hit(fnv1a64("a"), "a");
  cache.insert(fnv1a64("c"), "c", "3");
  EXPECT_TRUE(cache.find(fnv1a64("a"), "a").has_value());
  EXPECT_FALSE(cache.find(fnv1a64("b"), "b").has_value());
}

TEST(EvalCache, ZeroCapacityDisablesCaching) {
  EvalCache cache(0);
  cache.insert(fnv1a64("a"), "a", "1");
  EXPECT_FALSE(cache.lookup(fnv1a64("a"), "a").has_value());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.insertions, 0u);
}

TEST(EvalCache, RejectsEntriesLargerThanAShard) {
  EvalCache cache(128, /*shards=*/1);
  const std::string big(1024, 'x');
  cache.insert(fnv1a64("big"), "big", big);
  EXPECT_FALSE(cache.lookup(fnv1a64("big"), "big").has_value());
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(EvalCache, DuplicateInsertKeepsTheFirstValue) {
  // Two workers can evaluate the same tuple concurrently; whichever
  // inserts second must not replace the bytes already being served.
  EvalCache cache(1 << 20);
  cache.insert(fnv1a64("k"), "k", "first");
  cache.insert(fnv1a64("k"), "k", "second");
  const auto hit = cache.lookup(fnv1a64("k"), "k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "first");
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(EvalCache, MultiThreadedLookupsStayDeterministic) {
  // Hammer a small key space from several threads. Every hit must return
  // exactly the value derived from its key — never a torn or foreign
  // entry — and the hit/miss tallies must add up.
  EvalCache cache(1 << 20);
  const auto value_of = [](int i) {
    return "value-" + std::to_string(i * 7);
  };
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  constexpr int kKeys = 17;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const int k = (i * (t + 1)) % kKeys;
        const std::string key = "key-" + std::to_string(k);
        const std::uint64_t hash = fnv1a64(key);
        const auto hit = cache.lookup(hash, key);
        if (hit.has_value()) {
          if (*hit != value_of(k)) ++failures[static_cast<std::size_t>(t)];
        } else {
          cache.insert(hash, key, value_of(k));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (const int f : failures) EXPECT_EQ(f, 0);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_LE(stats.entries, static_cast<std::uint64_t>(kKeys));
}

}  // namespace
}  // namespace ksw::serve
