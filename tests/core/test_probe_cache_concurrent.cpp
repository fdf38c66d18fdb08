// ShardedProbeCache under concurrency: correctness of returned values,
// counter reconciliation (hits + misses == lookups, resident size ==
// insertions - evictions - corruption drops, per-shard size <= capacity),
// cross-hit attribution, and the corruption self-healing path. The same
// suite runs under TSan in CI (ctest --preset tsan -R ProbeCacheConcurrent).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/probe_cache.hpp"
#include "core/status.hpp"
#include "obs/session.hpp"

namespace pcmax {
namespace {

// Key i is distinct from key j (i != j); value_for(i) is the deterministic
// "DP answer" every inserter must agree on.
ProbeKey key_for(std::int64_t i) {
  ProbeKey key;
  key.counts = {i % 7 + 1, i};
  key.weights = {1, i % 5 + 1};
  key.capacity = 16;
  return key;
}

std::int32_t value_for(std::int64_t i) {
  return static_cast<std::int32_t>(i % 1000);
}

TEST(ProbeCacheConcurrent, SingleThreadedBasics) {
  ShardedProbeCache cache(/*max_entries=*/64, /*shards=*/4);
  EXPECT_EQ(cache.shard_count(), 4u);
  EXPECT_EQ(cache.max_entries_per_shard(), 16u);
  EXPECT_FALSE(cache.lookup(key_for(1)).has_value());
  cache.insert(key_for(1), value_for(1));
  const auto hit = cache.lookup(key_for(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, value_for(1));
  const ProbeCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ProbeCacheConcurrent, ShardCountRoundsUpToPowerOfTwo) {
  ShardedProbeCache cache(/*max_entries=*/60, /*shards=*/5);
  EXPECT_EQ(cache.shard_count(), 8u);
  EXPECT_EQ(cache.max_entries_per_shard(), 60u / 8u);
}

TEST(ProbeCacheConcurrent, EvictsWithinPerShardCapacity) {
  ShardedProbeCache cache(/*max_entries=*/16, /*shards=*/4);
  for (std::int64_t i = 0; i < 400; ++i) cache.insert(key_for(i), value_for(i));
  for (std::size_t shard = 0; shard < cache.shard_count(); ++shard)
    EXPECT_LE(cache.shard_size(shard), cache.max_entries_per_shard());
  const ProbeCacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions - stats.evictions, cache.size());
  EXPECT_GT(stats.evictions, 0u);
}

TEST(ProbeCacheConcurrent, LruKeepsRecentlyTouchedEntries) {
  // One shard so the eviction order is easy to force: keep touching key 0
  // while inserting past capacity; key 0 must survive.
  ShardedProbeCache cache(/*max_entries=*/4, /*shards=*/1);
  cache.insert(key_for(0), value_for(0));
  for (std::int64_t i = 1; i < 16; ++i) {
    ASSERT_TRUE(cache.lookup(key_for(0)).has_value()) << "evicted at " << i;
    cache.insert(key_for(i), value_for(i));
  }
  EXPECT_TRUE(cache.lookup(key_for(0)).has_value());
}

TEST(ProbeCacheConcurrent, CrossHitsCountOnlyForeignOwners) {
  ShardedProbeCache cache;
  {
    const ShardedProbeCache::OwnerTagScope owner(1);
    cache.insert(key_for(5), value_for(5));
    ASSERT_TRUE(cache.lookup(key_for(5)).has_value());  // own entry
  }
  EXPECT_EQ(cache.stats().cross_hits, 0u);
  {
    const ShardedProbeCache::OwnerTagScope owner(2);
    ASSERT_TRUE(cache.lookup(key_for(5)).has_value());  // someone else's
  }
  EXPECT_EQ(cache.stats().cross_hits, 1u);
  // Untagged lookups never count as cross.
  ASSERT_TRUE(cache.lookup(key_for(5)).has_value());
  EXPECT_EQ(cache.stats().cross_hits, 1u);
}

TEST(ProbeCacheConcurrent, ReInsertDisagreementSelfHealsAndThrows) {
  ShardedProbeCache cache;
  cache.insert(key_for(9), 5);
  cache.insert(key_for(9), 5);  // agreement: silent refresh
  EXPECT_EQ(cache.corruption_drops(), 0u);
  try {
    cache.insert(key_for(9), 6);  // deterministic DP cannot disagree
    FAIL() << "expected StatusError";
  } catch (const StatusError& error) {
    EXPECT_EQ(error.status().code(), StatusCode::kDataCorruption);
  }
  EXPECT_EQ(cache.corruption_drops(), 1u);
  // The poisoned entry is gone — neither value is served.
  EXPECT_FALSE(cache.lookup(key_for(9)).has_value());
  // The slot is usable again.
  cache.insert(key_for(9), 7);
  const auto healed = cache.lookup(key_for(9));
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(*healed, 7);
}

TEST(ProbeCacheConcurrent, ClearDropsEntriesKeepsStats) {
  ShardedProbeCache cache;
  cache.insert(key_for(1), value_for(1));
  cache.insert(key_for(2), value_for(2));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(key_for(1)).has_value());
  EXPECT_EQ(cache.stats().insertions, 2u);
}

// The stress test the TSan CI job exists for: hammer one cache from many
// threads with overlapping key ranges (forcing eviction), then reconcile
// every counter — through both the cache's own stats and the obs metrics
// registry the instrumented paths feed.
TEST(ProbeCacheConcurrent, StressReconcilesCountersAcrossThreads) {
  obs::ObsSession session;
  ShardedProbeCache cache(/*max_entries=*/64, /*shards=*/8);
  constexpr int kThreads = 4;
  constexpr std::int64_t kOpsPerThread = 2000;
  constexpr std::int64_t kKeySpace = 256;  // > capacity: eviction pressure

  std::atomic<std::uint64_t> observed_hits{0};
  std::atomic<std::uint64_t> observed_lookups{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &observed_hits, &observed_lookups, t] {
      const ShardedProbeCache::OwnerTagScope owner(
          static_cast<std::uint64_t>(t) + 1);
      std::uint64_t state = static_cast<std::uint64_t>(t) * 2654435761u + 1;
      for (std::int64_t op = 0; op < kOpsPerThread; ++op) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const std::int64_t i =
            static_cast<std::int64_t>((state >> 33) % kKeySpace);
        const auto hit = cache.lookup(key_for(i));
        observed_lookups.fetch_add(1, std::memory_order_relaxed);
        if (hit.has_value()) {
          // A hit must return the value the deterministic "DP" computed.
          ASSERT_EQ(*hit, value_for(i));
          observed_hits.fetch_add(1, std::memory_order_relaxed);
        } else {
          cache.insert(key_for(i), value_for(i));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const ProbeCacheStats stats = cache.stats();
  // Lookup/hit counters match what the threads saw.
  EXPECT_EQ(stats.lookups, observed_lookups.load());
  EXPECT_EQ(stats.hits, observed_hits.load());
  EXPECT_LE(stats.hits, stats.lookups);
  // Residency reconciles: nothing leaked, nothing double-counted.
  EXPECT_EQ(stats.insertions - stats.evictions, cache.size());
  for (std::size_t shard = 0; shard < cache.shard_count(); ++shard)
    EXPECT_LE(cache.shard_size(shard), cache.max_entries_per_shard());
  EXPECT_EQ(cache.corruption_drops(), 0u);
  // With 4 owners sharing a small key space, most hits are foreign.
  EXPECT_GT(stats.cross_hits, 0u);
  EXPECT_LE(stats.cross_hits, stats.hits);

  // The obs metrics registry saw the same story: hits + misses == lookups.
  const std::uint64_t lookups = session.metrics().counter("probe_cache.lookups");
  const std::uint64_t hits = session.metrics().counter("probe_cache.hits");
  const std::uint64_t misses = session.metrics().counter("probe_cache.misses");
  EXPECT_EQ(lookups, stats.lookups);
  EXPECT_EQ(hits + misses, lookups);
  EXPECT_EQ(session.metrics().counter("probe_cache.cross_hits"),
            stats.cross_hits);
  EXPECT_EQ(session.metrics().counter("probe_cache.insertions"),
            stats.insertions);
  EXPECT_EQ(session.metrics().counter("probe_cache.evictions"),
            stats.evictions);
}

// Concurrent inserters of the same keys always agree (the DP is
// deterministic), so no corruption is ever detected and every hit returns
// the right value even while writers race on the same shard.
TEST(ProbeCacheConcurrent, RacingAgreeingInsertersNeverCorrupt) {
  ShardedProbeCache cache(/*max_entries=*/32, /*shards=*/2);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache] {
      for (int round = 0; round < 200; ++round)
        for (std::int64_t i = 0; i < 8; ++i) {
          cache.insert(key_for(i), value_for(i));
          const auto hit = cache.lookup(key_for(i));
          if (hit.has_value()) {
            ASSERT_EQ(*hit, value_for(i));
          }
        }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(cache.corruption_drops(), 0u);
  EXPECT_EQ(cache.size(), 8u);
}

}  // namespace
}  // namespace pcmax
