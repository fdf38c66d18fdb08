// Post-hoc stream utilization analysis over a device's kernel log: per
// stream, how many kernels ran, how long the stream was busy, and its
// utilization across the device's active span. Used by examples and the
// stream-count ablation to show where Hyper-Q concurrency saturates.
#pragma once

#include <vector>

#include "gpusim/device.hpp"

namespace pcmax::gpusim {

struct StreamSummary {
  int stream = 0;
  std::uint64_t kernels = 0;
  /// Total busy time: kernels on one stream never overlap (FIFO), so this
  /// is the sum of kernel durations.
  util::SimTime busy;
  /// First start to last finish on this stream.
  util::SimTime span;
};

struct DeviceTimeline {
  std::vector<StreamSummary> streams;
  /// First start to last finish across all streams.
  util::SimTime total_span;
  /// Sum of busy times over streams divided by the total span — the
  /// average number of concurrently busy streams.
  [[nodiscard]] double concurrency() const noexcept;
};

/// Summarizes a device's kernel log, which holds only kernels retired after
/// Device::set_kernel_log(true). Call after synchronize() (pending kernels
/// have no timing yet).
[[nodiscard]] DeviceTimeline summarize_streams(const Device& device);

}  // namespace pcmax::gpusim
