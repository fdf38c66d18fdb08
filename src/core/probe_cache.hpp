// Probe-level DP solve cache.
//
// Every feasibility probe of the PTAS search rounds the instance for a
// target T and solves the higher-dimensional DP. Distinct targets often
// round to the *same* problem — identical class counts, class indices, and
// capacity k^2 — because the class index floor(t_j * k^2 / T) is a step
// function of T. ProbeKey canonicalizes a rounded problem so such probes
// share one DP solve; ProbeCache is an LRU-bounded memo from key to the
// DP's OPT (machine count).
//
// Two cache implementations share the ProbeCacheBase interface:
//   - ProbeCache: the single-threaded exact-LRU memo (one search, one
//     thread — the PR 2 design, unchanged in behavior).
//   - ShardedProbeCache: the cross-request cache the serve daemon shares
//     between worker threads. The LRU is split into power-of-two shards by
//     ProbeKey hash; each shard publishes an immutable open-addressed
//     snapshot behind a per-shard pointer latch held only for the
//     shared_ptr copy — a lookup is one latched handle copy (a refcount
//     increment), a latch-free probe walk over the immutable snapshot, and
//     one relaxed recency stamp. Writers serialize on a separate per-shard
//     mutex, rebuild the snapshot copy-on-write (RCU-style), evict the
//     least-recently-stamped entry when the shard is full, and publish by
//     swapping the handle under the latch.
//
// MonotoneBounds exploits the other structural fact of the search: the
// feasibility oracle is monotone in T (false below the threshold T*, true
// at and above it), so once a verdict is known for some target, every
// target at or beyond it on the same side is decided without any solve.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/rounding.hpp"

namespace pcmax {

/// Canonical identity of a rounded DP problem: per-class long-job counts,
/// class indices (the DP weights), and the capacity k^2. Two targets with
/// equal keys have byte-identical DP problems and hence equal OPT.
struct ProbeKey {
  std::vector<std::int64_t> counts;
  std::vector<std::int64_t> weights;
  std::int64_t capacity = 0;

  bool operator==(const ProbeKey&) const = default;
};

struct ProbeKeyHash {
  [[nodiscard]] std::size_t operator()(const ProbeKey& key) const noexcept;
};

/// The canonical key of a feasible rounding. Requires rounded.feasible and
/// at least one long job (callers answer the empty rounding without a DP).
[[nodiscard]] ProbeKey probe_key_for(const RoundedInstance& rounded);

/// The canonical key of an explicit DP problem. The key *is* the problem
/// (counts, weights, capacity), so any two roundings — classic arithmetic
/// or EPTAS-sparsified — that build byte-identical problems share one cache
/// entry, and roundings that differ anywhere cannot collide. Every engine
/// must derive its key through this single constructor so the canonical-
/// ization stays in one place (tests/eptas/test_probe_soundness.cpp pins
/// the cross-engine soundness). Requires a non-empty problem.
[[nodiscard]] ProbeKey probe_key_for(const dp::DpProblem& problem);

struct ProbeCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  /// Probes answered by MonotoneBounds before any rounding or solve.
  std::uint64_t bound_skips = 0;
  /// Hits on entries inserted under a different owner tag (another request
  /// of the serve daemon). Always 0 for the single-threaded ProbeCache.
  std::uint64_t cross_hits = 0;
};

/// Monotone feasibility bounds for one instance within one search: the
/// highest target observed infeasible and the lowest observed feasible.
/// Bounds are instance-specific — create one per search run; they must not
/// be shared across instances (unlike the caches, whose keys are canonical).
class MonotoneBounds {
 public:
  /// The verdict for `target` if the bounds already decide it, nullopt
  /// otherwise.
  [[nodiscard]] std::optional<bool> decide(std::int64_t target) const noexcept {
    if (target <= highest_infeasible_) return false;
    if (target >= lowest_feasible_) return true;
    return std::nullopt;
  }

  /// Records an oracle verdict. Verdicts must come from a monotone oracle;
  /// contradictory notes keep the bounds conservative (they never cross).
  void note(std::int64_t target, bool feasible) noexcept {
    if (feasible) {
      if (target < lowest_feasible_ && target > highest_infeasible_)
        lowest_feasible_ = target;
    } else {
      if (target > highest_infeasible_ && target < lowest_feasible_)
        highest_infeasible_ = target;
    }
  }

  [[nodiscard]] std::int64_t highest_infeasible() const noexcept {
    return highest_infeasible_;
  }
  [[nodiscard]] std::int64_t lowest_feasible() const noexcept {
    return lowest_feasible_;
  }

 private:
  std::int64_t highest_infeasible_ =
      std::numeric_limits<std::int64_t>::min();
  std::int64_t lowest_feasible_ = std::numeric_limits<std::int64_t>::max();
};

/// Memo from canonical rounded problems to their DP OPT. Keys are
/// self-contained, so one cache may be shared across targets, search
/// strategies, and even instances; it memoizes only the scalar OPT, never
/// the DP table, so reconstruction solves always run for real. Thread
/// safety is implementation-defined — see the concrete classes.
class ProbeCacheBase {
 public:
  virtual ~ProbeCacheBase() = default;

  /// The memoized OPT for `key`, refreshing its recency; nullopt on miss.
  [[nodiscard]] virtual std::optional<std::int32_t> lookup(
      const ProbeKey& key) = 0;

  /// Memoizes `opt` for `key` (no-op if present), evicting an entry when
  /// full.
  virtual void insert(const ProbeKey& key, std::int32_t opt) = 0;

  /// Cumulative counters; a consistent point-in-time snapshot for the
  /// single-threaded cache, a near-consistent aggregate for the sharded one.
  [[nodiscard]] virtual ProbeCacheStats stats() const = 0;

  static constexpr std::size_t kDefaultMaxEntries = 4096;
};

/// Exact-LRU bounded memo. Not thread-safe: one owner at a time (a solve, a
/// bench loop). The serve daemon uses ShardedProbeCache instead.
class ProbeCache final : public ProbeCacheBase {
 public:
  /// `max_entries` bounds resident entries; least-recently-used entries are
  /// evicted beyond it. Must be >= 1.
  explicit ProbeCache(std::size_t max_entries = kDefaultMaxEntries);

  [[nodiscard]] std::optional<std::int32_t> lookup(
      const ProbeKey& key) override;
  void insert(const ProbeKey& key, std::int32_t opt) override;
  [[nodiscard]] ProbeCacheStats stats() const override { return stats_; }

  [[nodiscard]] std::size_t size() const noexcept { return map_.size(); }
  [[nodiscard]] std::size_t max_entries() const noexcept {
    return max_entries_;
  }

  /// Drops all entries; statistics are kept.
  void clear();

 private:
  using Entry = std::pair<ProbeKey, std::int32_t>;

  std::size_t max_entries_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<ProbeKey, std::list<Entry>::iterator, ProbeKeyHash>
      map_;
  ProbeCacheStats stats_;
};

/// The cross-request probe cache: sharded, safe for concurrent lookup and
/// insert from many serve workers.
///
/// Layout: `shards` (rounded up to a power of two) independent shards, each
/// owning max_entries/shards entries. A key's shard is chosen by its hash,
/// so shards never share keys and per-shard eviction needs no global
/// coordination.
///
/// Read path: one copy of the shard's immutable snapshot handle under a
/// per-shard pointer latch (held for exactly one shared_ptr refcount
/// increment), then an open-addressed probe walk over the snapshot with no
/// lock at all, and — on a hit — one relaxed store stamping the entry with
/// the shard's atomic recency generation. Readers never block behind a
/// rebuild and never see a half-built table: writers rebuild whole
/// snapshots copy-on-write outside the latch, swap the handle under it,
/// and shared_ptr reference counting retires old snapshots only after the
/// last concurrent reader drops them. (libstdc++'s
/// std::atomic<std::shared_ptr> has this exact structure internally, but
/// its reader path releases the embedded spin latch with a relaxed store —
/// GCC 12 — which is a genuine C++-memory-model race that TSan reports;
/// the explicit latch makes the ordering provable and sanitizer-clean.)
///
/// Write path: per-shard mutex; insert rebuilds the shard snapshot with the
/// new entry, evicting the least-recently-stamped entry when the shard is
/// full. The DP is deterministic, so a re-insert must agree with the
/// resident value; a disagreement means a result was corrupted in flight
/// (e.g. an injected DP-cell fault). The cache then *drops* the poisoned
/// entry and throws StatusError(kDataCorruption) so the resilient driver
/// retries against a clean cache instead of re-serving the bad OPT to every
/// other request (self-healing).
///
/// Owner tags: a worker brackets each request with OwnerTagScope(request
/// id); hits on entries inserted under a different tag count as cross_hits
/// — the cross-request sharing the serve daemon exists to create.
class ShardedProbeCache final : public ProbeCacheBase {
 public:
  static constexpr std::size_t kDefaultShards = 8;

  /// `max_entries` bounds total resident entries across all shards (each
  /// shard gets max(1, max_entries/shards)); `shards` is rounded up to a
  /// power of two. Both must be >= 1.
  explicit ShardedProbeCache(std::size_t max_entries = kDefaultMaxEntries,
                             std::size_t shards = kDefaultShards);

  [[nodiscard]] std::optional<std::int32_t> lookup(
      const ProbeKey& key) override;
  void insert(const ProbeKey& key, std::int32_t opt) override;
  [[nodiscard]] ProbeCacheStats stats() const override;

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shard_count_;
  }
  [[nodiscard]] std::size_t max_entries_per_shard() const noexcept {
    return per_shard_capacity_;
  }
  /// Resident entries in one shard (<= max_entries_per_shard, always).
  [[nodiscard]] std::size_t shard_size(std::size_t shard) const;
  /// Total resident entries.
  [[nodiscard]] std::size_t size() const;

  /// Drops all entries; statistics are kept.
  void clear();

  /// Entries poisoned by a re-insert disagreement and dropped (see class
  /// comment). Not part of ProbeCacheStats: eviction counters reconcile
  /// capacity, this counter flags corruption.
  [[nodiscard]] std::uint64_t corruption_drops() const noexcept;

  /// RAII owner tag for the calling thread: entries inserted inside the
  /// scope carry `tag`, and hits on entries carrying a different tag count
  /// as cross_hits. Tag 0 means untagged (never counts as cross).
  class OwnerTagScope {
   public:
    explicit OwnerTagScope(std::uint64_t tag) noexcept
        : previous_(t_owner_tag) {
      t_owner_tag = tag;
    }
    OwnerTagScope(const OwnerTagScope&) = delete;
    OwnerTagScope& operator=(const OwnerTagScope&) = delete;
    ~OwnerTagScope() { t_owner_tag = previous_; }

   private:
    std::uint64_t previous_;
  };

 private:
  struct Entry {
    ProbeKey key;
    std::int32_t opt = 0;
    std::uint64_t owner = 0;
    /// Recency stamp from the shard's generation counter; relaxed stores
    /// from readers, read by the evicting writer. Approximate LRU: stamps
    /// racing an eviction scan may keep a slightly stale victim choice,
    /// never an unsafe one.
    mutable std::atomic<std::uint64_t> last_used{0};
  };

  /// Immutable open-addressed snapshot (linear probing, no tombstones —
  /// every rebuild starts clean). slots.size() is a power of two at least
  /// twice the shard capacity, so probe walks terminate at an empty slot.
  struct Table {
    std::vector<std::shared_ptr<const Entry>> slots;
    std::size_t mask = 0;
    std::size_t used = 0;
  };

  struct Shard {
    /// The published snapshot handle. Guarded by `latch`; both sides hold
    /// it only for the shared_ptr copy/swap, never across a walk or a
    /// rebuild.
    std::shared_ptr<const Table> table;
    mutable std::mutex latch;
    std::mutex write_mutex;
    std::atomic<std::uint64_t> generation{0};
    std::atomic<std::uint64_t> lookups{0};
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> cross_hits{0};
    std::atomic<std::uint64_t> insertions{0};
    std::atomic<std::uint64_t> evictions{0};
    std::atomic<std::uint64_t> corruption_drops{0};
  };

  [[nodiscard]] Shard& shard_for(std::size_t hash) const noexcept {
    return shards_[hash & (shard_count_ - 1)];
  }
  /// New snapshot holding `entries`; slot count fixed per shard.
  [[nodiscard]] std::shared_ptr<const Table> rebuild(
      std::vector<std::shared_ptr<const Entry>> entries) const;
  /// Copies the shard's snapshot handle under its latch.
  [[nodiscard]] static std::shared_ptr<const Table> snapshot(
      const Shard& shard);
  /// Swaps in `next` under the latch; the old snapshot is destroyed after
  /// the latch is released.
  static void publish(Shard& shard, std::shared_ptr<const Table> next);

  static constinit thread_local std::uint64_t t_owner_tag;

  std::size_t shard_count_;
  std::size_t per_shard_capacity_;
  std::size_t slot_count_;  // per shard, power of two
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace pcmax
