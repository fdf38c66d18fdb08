// The multi-tenant solve daemon. SolveServer owns a bounded request queue
// and N worker threads; each worker owns a simulated device and a full
// resilient engine chain (GPU PTAS -> CPU PTAS variants -> LPT), so one
// tenant's device faults degrade only that tenant's requests. The workers
// share one ShardedProbeCache, so rounded problems one request solved are
// cross-hits for every later request that rounds the same way.
//
// Request lifecycle:
//   submit() validates, assigns an id, computes the coalescing key, and
//   either admits the request to the queue (future returned) or rejects it
//   immediately with kUnavailable (queue full / shutting down) — admission
//   control, never unbounded queuing.
//   A worker pops the oldest request; with coalescing on it also claims
//   every queued duplicate (equal RequestKey). It solves once via
//   solve_resilient under the request's own deadline/memory policy, then
//   answers the leader and every follower with the same result (followers
//   marked coalesced).
//   shutdown() stops admission, drains the queue, and joins the workers;
//   every admitted request is answered before shutdown returns.
//
// Determinism: solve_resilient is deterministic for a given instance and
// policy, and cache hits only substitute OPT values the DP itself would
// have produced, so the response for a request is bit-identical whether it
// was solved alone, raced 8 workers, hit the shared cache, or coalesced
// behind a duplicate. tests/serve/test_serve_determinism.cpp holds this.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "core/probe_cache.hpp"
#include "core/resilient.hpp"
#include "core/status.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"

namespace pcmax::gpusim {
class Topology;
}  // namespace pcmax::gpusim

namespace pcmax::serve {

struct ServeOptions {
  int workers = 4;
  std::size_t queue_capacity = 64;
  /// Merge queued duplicate requests into one solve.
  bool coalesce = true;
  /// Lead each worker's chain with the simulated-GPU engine (the CPU PTAS
  /// engines and LPT always follow as fallbacks).
  bool use_gpu_engine = true;
  /// Share one ShardedProbeCache across all workers; off = every request
  /// solves all its probes for real.
  bool share_probe_cache = true;
  std::size_t cache_entries = ProbeCacheBase::kDefaultMaxEntries;
  std::size_t cache_shards = ShardedProbeCache::kDefaultShards;
  /// Start with the workers parked until resume(). Burst tests submit the
  /// whole batch first, so which requests coalesce does not depend on
  /// worker timing.
  bool start_paused = false;
};

/// Point-in-time server counters. submitted = admitted + rejected;
/// admitted = completed + failed + still in flight; coalesced counts the
/// follower requests answered from a leader's solve (a subset of
/// completed/failed).
struct ServeStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  /// Workers currently serving on their CPU-only chain because their
  /// device was lost (see SolveServer::reset_and_readmit).
  std::uint64_t quarantined = 0;
  std::uint64_t quarantine_entered = 0;    ///< cumulative entries
  std::uint64_t quarantine_readmitted = 0; ///< cumulative re-admissions
  /// Shared-cache counters; all zero when share_probe_cache is off.
  ProbeCacheStats cache;
};

class SolveServer {
 public:
  explicit SolveServer(const ServeOptions& options = {});
  SolveServer(const SolveServer&) = delete;
  SolveServer& operator=(const SolveServer&) = delete;
  /// Equivalent to shutdown(): every admitted request is answered first.
  ~SolveServer();

  /// Admits the request and returns the future response, or rejects with
  /// kInvalidInput (malformed instance) / kUnavailable (queue full or
  /// server shutting down). Never blocks on solve progress.
  [[nodiscard]] Result<std::future<SolveResponse>> submit(SolveRequest request);

  /// Releases workers parked by ServeOptions::start_paused. Idempotent.
  void resume();

  /// Stops admission, drains every queued request, joins the workers.
  /// Idempotent.
  void shutdown();

  [[nodiscard]] ServeStats stats() const;

  /// Resurrects quarantined workers: resets the shared topology (bringing
  /// lost devices and downed links back healthy and cold-starting the
  /// interconnect) and re-admits every quarantined worker to its GPU chain.
  /// Returns the number of workers re-admitted. The caller must quiesce the
  /// server first (no requests in flight — e.g. between bursts, or after
  /// draining the queue): resetting devices under a live solve would yank
  /// state from under it. Worker threads themselves only read their own
  /// health flag between requests, so this is safe whenever no solve is
  /// running.
  int reset_and_readmit();

  /// The shared cross-request cache; null when share_probe_cache is off.
  [[nodiscard]] ShardedProbeCache* probe_cache() noexcept {
    return cache_.get();
  }

  /// The workers' devices (worker i owns device i); null when
  /// use_gpu_engine is off. Read it only on a quiesced server.
  [[nodiscard]] const gpusim::Topology* topology() const noexcept {
    return topology_.get();
  }

 private:
  void worker_main(int index);
  [[nodiscard]] SolveResponse serve_one(PendingRequest& leader,
                                        std::span<const SolveEngine> chain,
                                        int index);
  /// Moves the worker onto its CPU-only chain when the attempt log shows a
  /// lost device.
  void maybe_quarantine(int index, const ResilientResult& result);

  ServeOptions options_;
  std::unique_ptr<ShardedProbeCache> cache_;  // null when sharing is off
  /// One device per worker, drawn from a shared fullmesh topology so the
  /// daemon's memory accounting models one multi-GPU node rather than N
  /// unrelated simulators; null when use_gpu_engine is off. Workers only
  /// ever touch their own device — no cross-worker transfers or barriers —
  /// so worker isolation (and response determinism) is unchanged.
  std::unique_ptr<gpusim::Topology> topology_;
  /// Per-worker health: true = quarantined (device lost; serve on the
  /// CPU-only chain until reset_and_readmit). Workers read/write only
  /// their own slot between requests; reset_and_readmit writes all slots
  /// on a quiesced server.
  std::vector<std::atomic<bool>> quarantined_;
  std::atomic<std::uint64_t> quarantine_entered_{0};
  std::atomic<std::uint64_t> quarantine_readmitted_{0};
  BoundedRequestQueue queue_;

  std::mutex gate_mutex_;
  std::condition_variable gate_;
  bool paused_;

  std::atomic<std::int64_t> next_id_{0};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};

  std::atomic<bool> shut_down_{false};
  std::vector<std::thread> workers_;
};

}  // namespace pcmax::serve
