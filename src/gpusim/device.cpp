#include "gpusim/device.hpp"

#include <algorithm>
#include <thread>
#include <unordered_map>

#include "faultsim/injector.hpp"
#include "obs/trace.hpp"
#include "util/contracts.hpp"

namespace pcmax::gpusim {

namespace {

thread_local bool t_host_yield = false;

}  // namespace

ScopedHostYield::ScopedHostYield() noexcept : previous_(t_host_yield) {
  t_host_yield = true;
}

ScopedHostYield::~ScopedHostYield() { t_host_yield = previous_; }

Device::Device(DeviceSpec spec, int ordinal)
    : spec_(std::move(spec)), ordinal_(ordinal), scheduler_(spec_.sm_count) {
  PCMAX_EXPECTS(ordinal >= 0);
  spec_.validate();
}

Device::Buffer& Device::Buffer::operator=(Buffer&& o) noexcept {
  if (this != &o) {
    release();
    device_ = o.device_;
    bytes_ = o.bytes_;
    epoch_ = o.epoch_;
    o.device_ = nullptr;
    o.bytes_ = 0;
  }
  return *this;
}

void Device::Buffer::release() noexcept {
  if (device_ != nullptr) {
    // A buffer allocated before a reset() is stale: its bytes were already
    // reclaimed wholesale, so releasing it must not touch the accounting.
    if (epoch_ == device_->epoch_) device_->memory_in_use_ -= bytes_;
    device_ = nullptr;
    bytes_ = 0;
  }
}

Device::Buffer Device::allocate(std::uint64_t bytes) {
  throw_if_lost("allocate");
  if (faultsim::fault_at(faultsim::Site::kDeviceAlloc).has_value())
    throw OutOfMemory("injected fault: device allocation of " +
                      std::to_string(bytes) + " bytes failed");
  if (memory_in_use_ + bytes > spec_.global_memory_bytes)
    throw OutOfMemory("device allocation of " + std::to_string(bytes) +
                      " bytes exceeds " +
                      std::to_string(spec_.global_memory_bytes -
                                     memory_in_use_) +
                      " bytes free");
  memory_in_use_ += bytes;
  peak_memory_ = std::max(peak_memory_, memory_in_use_);
  return Buffer(this, bytes, epoch_);
}

void Device::throw_if_lost(const char* op) const {
  if (lost_)
    throw DeviceLost("device " + std::to_string(ordinal_) + " is lost (" +
                     op + ")");
}

void Device::enqueue(int stream, std::string name, const WorkEstimate& work,
                     util::SimTime launch_latency, bool is_child) {
  PCMAX_EXPECTS(stream >= 0 && stream < spec_.max_streams);
  throw_if_lost("launch");
  // Fires before any state mutates, so a failed launch leaves the queue
  // exactly as it was (a caller may synchronize() the survivors).
  if (faultsim::fault_at(faultsim::Site::kKernelLaunch).has_value())
    throw LaunchFailure("injected fault: launch of kernel '" + name +
                        "' on stream " + std::to_string(stream) + " failed");
  FluidTask task =
      make_fluid_task(spec_, work, stream, is_child, pending_.size());
  task.latency = launch_latency;
  KernelRecord record;
  record.name = std::move(name);
  record.stream = stream;
  record.is_child = is_child;
  record.work = work;
  pending_.push_back(std::move(record));
  scheduler_.submit(task);

  ++stats_.kernels;
  if (is_child) ++stats_.child_kernels;
  stats_.child_kernels += work.child_launches;
  stats_.threads += work.threads;
  stats_.thread_ops += work.thread_ops;
  stats_.transactions += work.transactions;
}

void Device::launch(int stream, std::string name, const LaunchConfig& config,
                    const KernelFn& fn) {
  const WorkEstimate work = execute_kernel(config, fn, spec_);
  enqueue(stream, std::move(name), work, spec_.host_launch_overhead,
          /*is_child=*/false);
}

void Device::launch_estimated(int stream, std::string name,
                              const WorkEstimate& work, bool is_child) {
  enqueue(stream, std::move(name), work,
          is_child ? spec_.child_launch_overhead : spec_.host_launch_overhead,
          is_child);
}

void Device::launch_accounted(int stream, std::string name,
                              const WorkEstimate& work) {
  enqueue(stream, std::move(name), work, util::SimTime{},
          /*is_child=*/true);
}

void Device::advance(util::SimTime delta) {
  PCMAX_EXPECTS(delta >= util::SimTime{});
  PCMAX_EXPECTS(pending_.empty());
  now_ += delta;
}

void Device::reset() {
  pending_.clear();
  scheduler_ = FluidScheduler(spec_.sm_count);
  memory_in_use_ = 0;
  lost_ = false;
  ++epoch_;
}

util::SimTime Device::synchronize() {
  if (t_host_yield) std::this_thread::yield();
  throw_if_lost("synchronize");
  ++stats_.synchronizations;
  if (faultsim::fault_at(faultsim::Site::kDeviceLost).has_value()) {
    // The device falls off the bus: pending (unretired) work is gone and
    // every further operation rethrows until reset(). The clock freezes at
    // the moment of loss.
    pending_.clear();
    scheduler_ = FluidScheduler(spec_.sm_count);
    lost_ = true;
    throw DeviceLost("injected fault: device " + std::to_string(ordinal_) +
                     " lost");
  }
  if (const auto fault = faultsim::fault_at(faultsim::Site::kStreamSync)) {
    // The stream sits idle for the injected stall before any queued work
    // retires. A stall at or past the watchdog means the stream is hung:
    // the clock advances only to the watchdog (where the driver gives up)
    // and pending work is lost until reset().
    const auto stall = util::SimTime::milliseconds(fault->stall_ms);
    if (stall >= spec_.stall_watchdog) {
      now_ += spec_.stall_watchdog;
      throw StreamStalled("injected fault: stream stalled " +
                          stall.to_string() + ", watchdog " +
                          spec_.stall_watchdog.to_string());
    }
    now_ += stall;
  }
  if (!pending_.empty()) {
    scheduler_.clear_history();
    now_ = scheduler_.run(now_);
    for (const auto& c : scheduler_.completed()) {
      KernelRecord& record = pending_[c.task.tag];
      record.start = c.start;
      record.finish = c.finish;
    }
    if (trace_emission_ && obs::trace() != nullptr) emit_trace_spans();
    if (keep_log_)
      log_.insert(log_.end(), std::make_move_iterator(pending_.begin()),
                  std::make_move_iterator(pending_.end()));
    pending_.clear();
  }
  now_ += spec_.sync_overhead;
  return now_;
}

// Maps the just-timed launch batch onto Chrome-trace tracks: one pid per
// stream, kernel "family" spans on tid 1 and Dynamic Parallelism children on
// tid 2. As in real CUDA DP, a parent grid completes only after its child
// grids retire, so the family span covers [parent.start, last family
// member's finish]; the fluid scheduler serializes a stream FIFO, so family
// spans on one stream never overlap. A child with no preceding parent in
// the batch (no caller does this today) degrades to its own family.
void Device::emit_trace_spans() const {
  obs::TraceRecorder* const tr = obs::trace();
  PCMAX_EXPECTS(tr != nullptr);
  struct Family {
    const KernelRecord* parent;
    util::SimTime end;
    std::vector<const KernelRecord*> children;
  };
  std::vector<Family> families;
  std::unordered_map<int, std::size_t> open;  // stream -> family index
  for (const KernelRecord& record : pending_) {
    const auto it = record.is_child ? open.find(record.stream) : open.end();
    if (it == open.end()) {
      open[record.stream] = families.size();
      families.push_back(Family{&record, record.finish, {}});
    } else {
      Family& family = families[it->second];
      family.children.push_back(&record);
      family.end = std::max(family.end, record.finish);
    }
  }
  for (const Family& family : families) {
    const KernelRecord& p = *family.parent;
    const std::int32_t pid =
        obs::kStreamPidBase + ordinal_ * obs::kDevicePidStride + p.stream;
    tr->complete(
        p.name, pid, obs::kParentTid, p.start.ps(),
        (family.end - p.start).ps(),
        {obs::arg("threads", static_cast<std::int64_t>(p.work.threads)),
         obs::arg("txn", static_cast<std::int64_t>(p.work.transactions))});
    for (const KernelRecord* child : family.children)
      tr->complete(
          child->name, pid, obs::kChildTid, child->start.ps(),
          (child->finish - child->start).ps(),
          {obs::arg("threads", static_cast<std::int64_t>(child->work.threads)),
           obs::arg("txn",
                    static_cast<std::int64_t>(child->work.transactions))});
  }
}

}  // namespace pcmax::gpusim
