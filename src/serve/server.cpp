#include "serve/server.hpp"

#include <utility>

#include "gpu/gpu_ptas.hpp"
#include "gpu/resilient_gpu.hpp"
#include "gpusim/device.hpp"
#include "gpusim/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/contracts.hpp"

namespace pcmax::serve {

namespace {

// Cheap structural validation mirroring Instance::validate, reported as a
// typed Status instead of a contract violation: a malformed request is a
// client error, not a server bug.
Status validate_request(const Instance& instance) {
  if (instance.machines < 1)
    return Status(StatusCode::kInvalidInput, "machines must be >= 1");
  if (instance.times.empty())
    return Status(StatusCode::kInvalidInput, "instance has no jobs");
  for (const std::int64_t t : instance.times)
    if (t < 1)
      return Status(StatusCode::kInvalidInput,
                    "processing times must be >= 1");
  return Status::ok();
}

}  // namespace

SolveServer::SolveServer(const ServeOptions& options)
    : options_(options),
      queue_(options.queue_capacity),
      paused_(options.start_paused) {
  PCMAX_EXPECTS(options.workers >= 1);
  if (options_.share_probe_cache)
    cache_ = std::make_unique<ShardedProbeCache>(options_.cache_entries,
                                                 options_.cache_shards);
  if (options_.use_gpu_engine)
    topology_ = std::make_unique<gpusim::Topology>(
        options_.workers, gpusim::DeviceSpec::k40(),
        gpusim::TopologyKind::kFullMesh);
  quarantined_ = std::vector<std::atomic<bool>>(
      static_cast<std::size_t>(options_.workers));
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i)
    workers_.emplace_back([this, i] { worker_main(i); });
}

SolveServer::~SolveServer() { shutdown(); }

Result<std::future<SolveResponse>> SolveServer::submit(SolveRequest request) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (Status invalid = validate_request(request.instance); !invalid.is_ok()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    obs::count("serve.rejected");
    return invalid;
  }

  PendingRequest pending;
  pending.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  pending.key = request_key_for(request.instance, request.options);
  pending.request = std::move(request);
  std::future<SolveResponse> future = pending.promise.get_future();

  if (obs::TraceRecorder* t = obs::trace(); t != nullptr)
    t->instant("serve/enqueue",
               {obs::arg("id", pending.id),
                obs::arg("jobs", static_cast<std::int64_t>(
                                     pending.request.instance.times.size()))});
  Status admitted = queue_.push(std::move(pending));
  if (!admitted.is_ok()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    obs::count("serve.rejected");
    if (obs::TraceRecorder* t = obs::trace(); t != nullptr)
      t->instant("serve/reject", {obs::arg("queued", static_cast<std::int64_t>(
                                               queue_.size()))});
    return admitted;
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  obs::count("serve.admitted");
  if (obs::TraceRecorder* t = obs::trace(); t != nullptr)
    t->instant("serve/admit", {obs::arg("queued", static_cast<std::int64_t>(
                                            queue_.size()))});
  return future;
}

void SolveServer::resume() {
  {
    const std::lock_guard<std::mutex> lock(gate_mutex_);
    paused_ = false;
  }
  gate_.notify_all();
}

void SolveServer::shutdown() {
  if (shut_down_.exchange(true)) {
    for (std::thread& worker : workers_)
      if (worker.joinable()) worker.join();
    return;
  }
  queue_.close();
  resume();  // release workers still parked at the start gate
  for (std::thread& worker : workers_)
    if (worker.joinable()) worker.join();
}

ServeStats SolveServer::stats() const {
  ServeStats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.admitted = admitted_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.coalesced = coalesced_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.failed = failed_.load(std::memory_order_relaxed);
  for (const std::atomic<bool>& q : quarantined_)
    stats.quarantined += q.load(std::memory_order_relaxed) ? 1 : 0;
  stats.quarantine_entered =
      quarantine_entered_.load(std::memory_order_relaxed);
  stats.quarantine_readmitted =
      quarantine_readmitted_.load(std::memory_order_relaxed);
  if (cache_) stats.cache = cache_->stats();
  return stats;
}

int SolveServer::reset_and_readmit() {
  if (topology_) topology_->reset();
  int readmitted = 0;
  for (std::atomic<bool>& q : quarantined_)
    if (q.exchange(false, std::memory_order_relaxed)) ++readmitted;
  if (readmitted > 0) {
    quarantine_readmitted_.fetch_add(static_cast<std::uint64_t>(readmitted),
                                     std::memory_order_relaxed);
    obs::count("serve.quarantine.readmitted",
               static_cast<std::uint64_t>(readmitted));
    if (obs::TraceRecorder* t = obs::trace(); t != nullptr)
      t->instant("serve/readmit",
                 {obs::arg("workers", static_cast<std::int64_t>(readmitted))});
  }
  return readmitted;
}

void SolveServer::maybe_quarantine(int index, const ResilientResult& result) {
  const auto lost_device = [](const Status& s) {
    return s.code() == StatusCode::kDeviceLost;
  };
  bool lost = lost_device(result.status);
  for (const AttemptRecord& attempt : result.attempts)
    lost = lost || lost_device(attempt.status);
  if (!lost) return;
  const auto i = static_cast<std::size_t>(index);
  if (quarantined_[i].exchange(true, std::memory_order_relaxed))
    return;  // already quarantined
  quarantine_entered_.fetch_add(1, std::memory_order_relaxed);
  obs::count("serve.quarantine.entered");
  if (obs::TraceRecorder* t = obs::trace(); t != nullptr)
    t->instant("serve/quarantine", {obs::arg("worker", index)});
}

void SolveServer::worker_main(int index) {
  // Every event this thread records lands on its own track, so one
  // request's spans are readable even when eight workers interleave.
  const obs::ScopedTrack track(obs::kWorkerTidBase + index);
  // A worker gives up its CPU at each simulated device synchronize, so a
  // caller's thread submitting requests never waits a whole scheduler
  // slice behind a solve (gpusim::ScopedHostYield).
  const gpusim::ScopedHostYield host_yield;

  // Each worker owns device `index` of the server's shared topology:
  // engine recovery (device reset) after one tenant's fault never disturbs
  // another tenant's in-flight solve, and per-device memory accounting
  // reflects one real multi-GPU node's budgets. A quarantined worker (its
  // device was lost) serves on the CPU-only chain — skipping the dead GPU
  // engine's guaranteed-failed attempt — until reset_and_readmit.
  const std::vector<SolveEngine> gpu_chain =
      options_.use_gpu_engine ? gpu::make_gpu_chain(topology_->device(index))
                              : std::vector<SolveEngine>{};
  const std::vector<SolveEngine> cpu_chain = make_default_chain();

  {
    std::unique_lock<std::mutex> lock(gate_mutex_);
    gate_.wait(lock, [&] { return !paused_; });
  }

  PendingRequest leader;
  std::vector<PendingRequest> followers;
  while (queue_.pop(leader, followers, options_.coalesce)) {
    const bool gpu_ok =
        options_.use_gpu_engine &&
        !quarantined_[static_cast<std::size_t>(index)].load(
            std::memory_order_relaxed);
    SolveResponse response =
        serve_one(leader, gpu_ok ? gpu_chain : cpu_chain, index);
    maybe_quarantine(index, response.result);
    for (PendingRequest& follower : followers) {
      coalesced_.fetch_add(1, std::memory_order_relaxed);
      obs::count("serve.coalesced");
      if (obs::TraceRecorder* t = obs::trace(); t != nullptr)
        t->instant("serve/coalesce", {obs::arg("id", follower.id),
                                      obs::arg("leader", leader.id)});
      SolveResponse echoed = response;
      echoed.request_id = follower.id;
      echoed.coalesced = true;
      follower.promise.set_value(std::move(echoed));
    }
    followers.clear();
    leader.promise.set_value(std::move(response));
  }
}

SolveResponse SolveServer::serve_one(PendingRequest& leader,
                                     std::span<const SolveEngine> chain,
                                     int index) {
  // Tag everything this request records ("req" trace arg) and everything
  // it inserts into the shared cache (cross-hit attribution). Tag 0 is
  // "untagged", so shift the id by one.
  const obs::ScopedRequestTag tag(leader.id);
  const ShardedProbeCache::OwnerTagScope owner(
      static_cast<std::uint64_t>(leader.id) + 1);
  const obs::ScopedSpan span(
      "serve/solve",
      {obs::arg("jobs", static_cast<std::int64_t>(
                    leader.request.instance.times.size())),
       obs::arg("machines", leader.request.instance.machines)});

  SolveResponse response;
  response.request_id = leader.id;
  response.worker = index;

  ResilientOptions options = leader.request.options;
  options.probe_cache = cache_.get();
  try {
    response.result = solve_resilient(leader.request.instance, chain, options);
    response.status = response.result.status;
  } catch (...) {
    // solve_resilient itself never throws; this guards response plumbing
    // (e.g. bad_alloc while copying the schedule).
    response.status = classify_current_exception();
  }
  if (response.ok()) {
    completed_.fetch_add(1, std::memory_order_relaxed);
    obs::count("serve.completed");
  } else {
    failed_.fetch_add(1, std::memory_order_relaxed);
    obs::count("serve.failed");
  }
  return response;
}

}  // namespace pcmax::serve
