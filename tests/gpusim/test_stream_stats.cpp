#include "gpusim/stream_stats.hpp"

#include <gtest/gtest.h>

namespace pcmax::gpusim {
namespace {

WorkEstimate small_work() {
  WorkEstimate w;
  w.threads = 64;
  w.thread_ops = 64'000;
  return w;
}

TEST(StreamStats, EmptyDevice) {
  Device device(DeviceSpec::k40());
  const auto timeline = summarize_streams(device);
  EXPECT_TRUE(timeline.streams.empty());
  EXPECT_EQ(timeline.total_span, util::SimTime{});
  EXPECT_DOUBLE_EQ(timeline.concurrency(), 0.0);
}

TEST(StreamStats, SingleStreamAccounting) {
  Device device(DeviceSpec::k40());
  device.set_kernel_log(true);
  device.launch_estimated(0, "a", small_work());
  device.launch_estimated(0, "b", small_work());
  device.synchronize();
  const auto timeline = summarize_streams(device);
  ASSERT_EQ(timeline.streams.size(), 1u);
  EXPECT_EQ(timeline.streams[0].stream, 0);
  EXPECT_EQ(timeline.streams[0].kernels, 2u);
  EXPECT_GT(timeline.streams[0].busy, util::SimTime{});
  // FIFO kernels on one stream: busy <= span.
  EXPECT_LE(timeline.streams[0].busy, timeline.streams[0].span);
}

TEST(StreamStats, ConcurrencyAboveOneWithTwoStreams) {
  Device device(DeviceSpec::k40());
  device.set_kernel_log(true);
  WorkEstimate heavy;
  heavy.threads = 2048;
  heavy.thread_ops = 100'000'000;
  device.launch_estimated(0, "a", heavy);
  device.launch_estimated(1, "b", heavy);
  device.synchronize();
  const auto timeline = summarize_streams(device);
  ASSERT_EQ(timeline.streams.size(), 2u);
  EXPECT_GT(timeline.concurrency(), 1.2);
}

TEST(StreamStats, SerializedStreamsConcurrencyNearOne) {
  Device device(DeviceSpec::k40());
  device.set_kernel_log(true);
  WorkEstimate heavy;
  heavy.threads = 2048;
  heavy.thread_ops = 100'000'000;
  device.launch_estimated(0, "a", heavy);
  device.launch_estimated(0, "b", heavy);
  device.synchronize();
  const auto timeline = summarize_streams(device);
  EXPECT_LE(timeline.concurrency(), 1.0 + 1e-9);
}

TEST(StreamStats, SpanCoversAllStreams) {
  Device device(DeviceSpec::k40());
  device.set_kernel_log(true);
  device.launch_estimated(0, "a", small_work());
  device.launch_estimated(3, "b", small_work());
  device.launch_estimated(7, "c", small_work());
  device.synchronize();
  const auto timeline = summarize_streams(device);
  EXPECT_EQ(timeline.streams.size(), 3u);
  for (const auto& s : timeline.streams) {
    EXPECT_LE(s.span, timeline.total_span);
    EXPECT_LE(s.busy, timeline.total_span);
  }
}

// Work conservation for the fluid scheduler, observed through the log: the
// sum of exclusive kernel durations can never beat capacity x span.
TEST(StreamStats, WorkConservation) {
  Device device(DeviceSpec::k40());
  device.set_kernel_log(true);
  WorkEstimate w;
  w.threads = 15 * 64 * 32;  // fills the device
  w.thread_ops = 50'000'000;
  for (int s = 0; s < 8; ++s) device.launch_estimated(s, "k", w);
  device.synchronize();
  const auto timeline = summarize_streams(device);
  double busy_ns = 0.0;
  for (const auto& s : timeline.streams) busy_ns += s.busy.ns();
  // Each kernel's wall duration >= its exclusive time; 8 device-filling
  // kernels cannot all overlap fully, so total busy exceeds the span but
  // stays below streams x span.
  EXPECT_LE(busy_ns, 8.0 * timeline.total_span.ns() + 1.0);
  EXPECT_GE(busy_ns, timeline.total_span.ns() - 1.0);
}

}  // namespace
}  // namespace pcmax::gpusim
