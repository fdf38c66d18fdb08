#include "core/probe_cache.hpp"

#include <bit>
#include <string>
#include <utility>

#include "core/status.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/contracts.hpp"

namespace pcmax {

namespace {

void hash_combine(std::size_t& seed, std::uint64_t value) noexcept {
  // splitmix64-style mix; good avalanche for sequential integer payloads.
  value *= 0x9E3779B97F4A7C15ull;
  value ^= value >> 32;
  seed ^= value + 0x9E3779B97F4A7C15ull + (seed << 6) + (seed >> 2);
}

}  // namespace

std::size_t ProbeKeyHash::operator()(const ProbeKey& key) const noexcept {
  std::size_t seed = key.counts.size();
  for (const auto c : key.counts)
    hash_combine(seed, static_cast<std::uint64_t>(c));
  for (const auto w : key.weights)
    hash_combine(seed, static_cast<std::uint64_t>(w));
  hash_combine(seed, static_cast<std::uint64_t>(key.capacity));
  return seed;
}

ProbeKey probe_key_for(const RoundedInstance& rounded) {
  PCMAX_EXPECTS(rounded.feasible);
  PCMAX_EXPECTS(!rounded.class_index.empty());
  ProbeKey key;
  key.counts = rounded.counts;
  key.weights = rounded.class_index;
  key.capacity = rounded.k * rounded.k;
  return key;
}

ProbeKey probe_key_for(const dp::DpProblem& problem) {
  PCMAX_EXPECTS(!problem.counts.empty());
  PCMAX_EXPECTS(problem.counts.size() == problem.weights.size());
  ProbeKey key;
  key.counts = problem.counts;
  key.weights = problem.weights;
  key.capacity = problem.capacity;
  return key;
}

ProbeCache::ProbeCache(std::size_t max_entries) : max_entries_(max_entries) {
  PCMAX_EXPECTS(max_entries >= 1);
}

std::optional<std::int32_t> ProbeCache::lookup(const ProbeKey& key) {
  ++stats_.lookups;
  obs::count("probe_cache.lookups");
  const auto it = map_.find(key);
  if (it == map_.end()) {
    obs::count("probe_cache.misses");
    return std::nullopt;
  }
  ++stats_.hits;
  obs::count("probe_cache.hits");
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->second;
}

void ProbeCache::insert(const ProbeKey& key, std::int32_t opt) {
  const auto it = map_.find(key);
  if (it != map_.end()) {
    // The DP is deterministic, so a re-insert must agree.
    PCMAX_ENSURES(it->second->second == opt);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (map_.size() >= max_entries_) {
    map_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
    obs::count("probe_cache.evictions");
  }
  lru_.emplace_front(key, opt);
  map_.emplace(lru_.front().first, lru_.begin());
  ++stats_.insertions;
  obs::count("probe_cache.insertions");
}

void ProbeCache::clear() {
  map_.clear();
  lru_.clear();
}

// --- ShardedProbeCache ----------------------------------------------------

constinit thread_local std::uint64_t ShardedProbeCache::t_owner_tag = 0;

ShardedProbeCache::ShardedProbeCache(std::size_t max_entries,
                                     std::size_t shards) {
  PCMAX_EXPECTS(max_entries >= 1);
  PCMAX_EXPECTS(shards >= 1);
  shard_count_ = std::bit_ceil(shards);
  per_shard_capacity_ = std::max<std::size_t>(1, max_entries / shard_count_);
  // At most half-full so linear probing always reaches an empty slot.
  slot_count_ = std::bit_ceil(2 * per_shard_capacity_);
  shards_ = std::make_unique<Shard[]>(shard_count_);
}

std::shared_ptr<const ShardedProbeCache::Table> ShardedProbeCache::rebuild(
    std::vector<std::shared_ptr<const Entry>> entries) const {
  auto table = std::make_shared<Table>();
  table->slots.assign(slot_count_, nullptr);
  table->mask = slot_count_ - 1;
  table->used = entries.size();
  for (auto& entry : entries) {
    std::size_t i = ProbeKeyHash{}(entry->key) & table->mask;
    while (table->slots[i] != nullptr) i = (i + 1) & table->mask;
    table->slots[i] = std::move(entry);
  }
  return table;
}

std::shared_ptr<const ShardedProbeCache::Table> ShardedProbeCache::snapshot(
    const Shard& shard) {
  const std::lock_guard<std::mutex> held(shard.latch);
  return shard.table;
}

void ShardedProbeCache::publish(Shard& shard,
                                std::shared_ptr<const Table> next) {
  // Swap under the latch, destroy the displaced snapshot after releasing
  // it: dropping the last reference frees entries, which must never run
  // inside the latch readers copy under.
  std::shared_ptr<const Table> retired;
  {
    const std::lock_guard<std::mutex> held(shard.latch);
    retired = std::exchange(shard.table, std::move(next));
  }
}

std::optional<std::int32_t> ShardedProbeCache::lookup(const ProbeKey& key) {
  const std::size_t hash = ProbeKeyHash{}(key);
  Shard& shard = shard_for(hash);
  shard.lookups.fetch_add(1, std::memory_order_relaxed);
  obs::count("probe_cache.lookups");
  if (const std::shared_ptr<const Table> table = snapshot(shard);
      table != nullptr) {
    for (std::size_t i = hash & table->mask;; i = (i + 1) & table->mask) {
      const std::shared_ptr<const Entry>& slot = table->slots[i];
      if (slot == nullptr) break;
      if (slot->key != key) continue;
      slot->last_used.store(
          shard.generation.fetch_add(1, std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
      shard.hits.fetch_add(1, std::memory_order_relaxed);
      obs::count("probe_cache.hits");
      if (t_owner_tag != 0 && slot->owner != 0 && slot->owner != t_owner_tag) {
        shard.cross_hits.fetch_add(1, std::memory_order_relaxed);
        obs::count("probe_cache.cross_hits");
      }
      return slot->opt;
    }
  }
  obs::count("probe_cache.misses");
  return std::nullopt;
}

void ShardedProbeCache::insert(const ProbeKey& key, std::int32_t opt) {
  const std::size_t hash = ProbeKeyHash{}(key);
  Shard& shard = shard_for(hash);
  const std::lock_guard<std::mutex> lock(shard.write_mutex);
  const std::shared_ptr<const Table> table = snapshot(shard);

  // Collect surviving entries; detect an existing entry for this key.
  std::vector<std::shared_ptr<const Entry>> survivors;
  survivors.reserve(per_shard_capacity_);
  const Entry* existing = nullptr;
  bool poisoned = false;
  if (table != nullptr) {
    for (const auto& slot : table->slots) {
      if (slot == nullptr) continue;
      if (slot->key == key) {
        existing = slot.get();
        if (slot->opt != opt) {
          poisoned = true;  // drop it: deterministic DPs never disagree
          continue;
        }
      }
      survivors.push_back(slot);
    }
  }
  if (poisoned) {
    shard.corruption_drops.fetch_add(1, std::memory_order_relaxed);
    obs::count("probe_cache.corruption_drops");
    publish(shard, rebuild(std::move(survivors)));
    throw StatusError(
        Status(StatusCode::kDataCorruption,
               "probe cache re-insert disagreement (resident " +
                   std::to_string(existing->opt) + " vs recomputed " +
                   std::to_string(opt) + "); poisoned entry dropped"));
  }
  if (existing != nullptr) {
    existing->last_used.store(
        shard.generation.fetch_add(1, std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
    return;
  }

  if (survivors.size() >= per_shard_capacity_) {
    std::size_t victim = 0;
    for (std::size_t i = 1; i < survivors.size(); ++i) {
      if (survivors[i]->last_used.load(std::memory_order_relaxed) <
          survivors[victim]->last_used.load(std::memory_order_relaxed))
        victim = i;
    }
    survivors.erase(survivors.begin() + static_cast<std::ptrdiff_t>(victim));
    shard.evictions.fetch_add(1, std::memory_order_relaxed);
    obs::count("probe_cache.evictions");
    if (obs::TraceRecorder* tr = obs::trace(); tr != nullptr)
      tr->instant("probe-cache/evict",
                  {obs::arg("shard", static_cast<std::int64_t>(
                                         hash & (shard_count_ - 1)))});
  }

  auto entry = std::make_shared<Entry>();
  entry->key = key;
  entry->opt = opt;
  entry->owner = t_owner_tag;
  entry->last_used.store(
      shard.generation.fetch_add(1, std::memory_order_relaxed) + 1,
      std::memory_order_relaxed);
  survivors.push_back(std::move(entry));
  publish(shard, rebuild(std::move(survivors)));
  shard.insertions.fetch_add(1, std::memory_order_relaxed);
  obs::count("probe_cache.insertions");
}

ProbeCacheStats ShardedProbeCache::stats() const {
  ProbeCacheStats stats;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    const Shard& shard = shards_[s];
    stats.lookups += shard.lookups.load(std::memory_order_relaxed);
    stats.hits += shard.hits.load(std::memory_order_relaxed);
    stats.cross_hits += shard.cross_hits.load(std::memory_order_relaxed);
    stats.insertions += shard.insertions.load(std::memory_order_relaxed);
    stats.evictions += shard.evictions.load(std::memory_order_relaxed);
  }
  return stats;
}

std::size_t ShardedProbeCache::shard_size(std::size_t shard) const {
  PCMAX_EXPECTS(shard < shard_count_);
  const std::shared_ptr<const Table> table = snapshot(shards_[shard]);
  return table != nullptr ? table->used : 0;
}

std::size_t ShardedProbeCache::size() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < shard_count_; ++s) total += shard_size(s);
  return total;
}

void ShardedProbeCache::clear() {
  for (std::size_t s = 0; s < shard_count_; ++s) {
    const std::lock_guard<std::mutex> lock(shards_[s].write_mutex);
    publish(shards_[s], nullptr);
  }
}

std::uint64_t ShardedProbeCache::corruption_drops() const noexcept {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < shard_count_; ++s)
    total += shards_[s].corruption_drops.load(std::memory_order_relaxed);
  return total;
}

}  // namespace pcmax
