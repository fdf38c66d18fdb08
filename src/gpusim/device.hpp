// The simulated GPU device: stream queues, kernel launches (executable or
// analytic), Hyper-Q concurrency via the fluid scheduler, global-memory
// accounting, always-on counters, and an opt-in per-kernel timing log.
//
// Execution semantics: kernel functors run eagerly on the host at launch()
// so data is immediately visible (the simulator computes real results);
// *timing* is resolved lazily at synchronize(), which replays all launches
// through the fluid scheduler and advances the device clock. As on a real
// GPU, callers are responsible for ordering dependent kernels onto one
// stream or separating them by synchronize().
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "gpusim/cost_model.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/execute.hpp"
#include "gpusim/fluid.hpp"
#include "gpusim/kernel.hpp"

namespace pcmax::gpusim {

/// Thrown when an allocation would exceed the device's global memory.
class OutOfMemory : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when a kernel launch fails (only via injected faults today; a
/// real driver surfaces the same class of transient launch errors).
class LaunchFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when synchronize() observes a stream stalled past the device's
/// stall watchdog. The device keeps its clock but loses pending work;
/// call reset() before reusing it.
class StreamStalled : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when a device is permanently lost mid-solve (injected `device-lost`
/// fault, or a `link-down` fault leaving it unreachable). Unlike the
/// transient failures above, the loss is sticky: every further allocate /
/// launch / synchronize on the device rethrows until reset() revives it.
/// Maps to StatusCode::kDeviceLost at the resilient boundary.
class DeviceLost : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// While one is alive, every Device::synchronize() on the thread that made
/// it first gives up the thread's CPU (std::this_thread::yield), as a host
/// thread blocked on a real device would. A simulated solve never blocks
/// otherwise, so a thread in a long solve keeps its CPU for whole scheduler
/// slices while other runnable threads of the process wait for it;
/// serve::SolveServer's workers hold one so that the threads submitting
/// requests are not held off. Nothing simulated changes.
class ScopedHostYield {
 public:
  ScopedHostYield() noexcept;
  ~ScopedHostYield();
  ScopedHostYield(const ScopedHostYield&) = delete;
  ScopedHostYield& operator=(const ScopedHostYield&) = delete;

 private:
  bool previous_;
};

class Device {
 public:
  /// `ordinal` is the device's index within a multi-device Topology; it
  /// offsets the trace track (pid) of the device's kernel spans so every
  /// device gets its own rows. Standalone devices keep ordinal 0.
  explicit Device(DeviceSpec spec, int ordinal = 0);

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const DeviceSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] int ordinal() const noexcept { return ordinal_; }

  // --- Memory -----------------------------------------------------------

  /// RAII handle to a device allocation; releasing it returns the bytes.
  class Buffer {
   public:
    Buffer() noexcept = default;
    Buffer(Buffer&& o) noexcept
        : device_(o.device_), bytes_(o.bytes_), epoch_(o.epoch_) {
      o.device_ = nullptr;
      o.bytes_ = 0;
    }
    Buffer& operator=(Buffer&& o) noexcept;
    Buffer(const Buffer&) = delete;
    Buffer& operator=(const Buffer&) = delete;
    ~Buffer() { release(); }

    [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }
    void release() noexcept;

   private:
    friend class Device;
    Buffer(Device* device, std::uint64_t bytes, std::uint64_t epoch) noexcept
        : device_(device), bytes_(bytes), epoch_(epoch) {}
    Device* device_ = nullptr;
    std::uint64_t bytes_ = 0;
    std::uint64_t epoch_ = 0;  ///< allocation epoch; stale after reset()
  };

  /// Reserves `bytes` of global memory; throws OutOfMemory when the device
  /// capacity would be exceeded.
  [[nodiscard]] Buffer allocate(std::uint64_t bytes);

  [[nodiscard]] std::uint64_t memory_in_use() const noexcept {
    return memory_in_use_;
  }
  [[nodiscard]] std::uint64_t peak_memory() const noexcept {
    return peak_memory_;
  }

  // --- Kernels ----------------------------------------------------------

  /// Launches an executable kernel on `stream`: runs every thread functor
  /// now, records measured work, and schedules its timing at the next
  /// synchronize().
  void launch(int stream, std::string name, const LaunchConfig& config,
              const KernelFn& fn);

  /// Launches an analytic kernel whose structural work the caller computed.
  /// `is_child` marks a Dynamic Parallelism launch.
  void launch_estimated(int stream, std::string name,
                        const WorkEstimate& work, bool is_child = false);

  /// Launches an analytic kernel whose launch cost was already charged
  /// elsewhere (e.g. in the parent kernel's child_launches): the fluid task
  /// carries no launch latency of its own, only its work.
  void launch_accounted(int stream, std::string name,
                        const WorkEstimate& work);

  /// Drains all pending launches through the fluid scheduler, advances the
  /// device clock past the last completion plus the synchronization
  /// overhead, and returns the new clock.
  util::SimTime synchronize();

  /// Current device clock (simulated).
  [[nodiscard]] util::SimTime now() const noexcept { return now_; }

  /// Advances the clock by externally-accounted time (e.g. work simulated
  /// on scratch devices that represents concurrent activity on this one).
  /// Requires no pending launches. `delta` must be non-negative.
  void advance(util::SimTime delta);

  /// Models cudaDeviceReset after a fault: drops pending (unretired)
  /// launches and their scheduler state and zeroes the memory accounting so
  /// Buffers orphaned by an unwound solve stop counting against capacity.
  /// Live Buffers become stale handles — their release() is a no-op against
  /// the fresh accounting. The clock, stats, and kernel log survive. A lost
  /// device comes back healthy (the node rejoined).
  void reset();

  /// True once the device was lost mid-solve; sticky until reset().
  [[nodiscard]] bool lost() const noexcept { return lost_; }

  /// Marks the device lost without going through an injected fault (used by
  /// the topology when a link-down leaves the device unreachable).
  void mark_lost() noexcept { lost_ = true; }

  // --- Introspection ----------------------------------------------------

  struct KernelRecord {
    std::string name;
    int stream = 0;
    bool is_child = false;  // Dynamic Parallelism launch
    WorkEstimate work;
    util::SimTime start;
    util::SimTime finish;
  };

  struct Stats {
    std::uint64_t kernels = 0;
    std::uint64_t child_kernels = 0;
    std::uint64_t threads = 0;
    std::uint64_t thread_ops = 0;
    std::uint64_t transactions = 0;
    std::uint64_t synchronizations = 0;
  };

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Opts into the per-kernel log: from now on every synchronize() appends
  /// the timed records of the kernels it retired. Off by default, because
  /// the log grows by one record per kernel for the device's lifetime (a
  /// served request launches thousands); stats() is the always-on summary.
  void set_kernel_log(bool enabled) noexcept { keep_log_ = enabled; }
  [[nodiscard]] bool kernel_log() const noexcept { return keep_log_; }
  /// Kernels retired while the log was on, in launch order.
  [[nodiscard]] std::span<const KernelRecord> log() const noexcept {
    return log_;
  }
  /// Drops the kernel log.
  void clear_log() { log_.clear(); }

  /// When false, this device never emits obs trace spans even while a
  /// trace recorder is installed. Scratch devices that model concurrent
  /// activity (Hyper-Q probe overlap) disable emission so their private
  /// clocks do not pollute the primary device's timeline.
  void set_trace_emission(bool enabled) noexcept { trace_emission_ = enabled; }
  [[nodiscard]] bool trace_emission() const noexcept {
    return trace_emission_;
  }

 private:
  void throw_if_lost(const char* op) const;
  void enqueue(int stream, std::string name, const WorkEstimate& work,
               util::SimTime launch_latency, bool is_child);
  void emit_trace_spans() const;

  DeviceSpec spec_;
  int ordinal_ = 0;
  util::SimTime now_;
  FluidScheduler scheduler_;
  std::vector<KernelRecord> pending_;
  std::vector<KernelRecord> log_;
  Stats stats_;
  std::uint64_t memory_in_use_ = 0;
  std::uint64_t peak_memory_ = 0;
  std::uint64_t epoch_ = 0;  ///< bumped by reset(); invalidates old Buffers
  bool lost_ = false;
  bool trace_emission_ = true;
  bool keep_log_ = false;
};

}  // namespace pcmax::gpusim
