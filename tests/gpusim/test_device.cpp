#include "gpusim/device.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "util/contracts.hpp"

namespace pcmax::gpusim {
namespace {

TEST(DeviceSpecTest, K40Defaults) {
  const auto spec = DeviceSpec::k40();
  EXPECT_EQ(spec.name, "tesla-k40");
  EXPECT_EQ(spec.total_cores(), 2880);
  EXPECT_EQ(spec.global_memory_bytes, 12ull << 30);
  EXPECT_EQ(spec.max_streams, 32);
  spec.validate();  // must not throw
}

TEST(DeviceSpecTest, PresetsAreValidAndDistinct) {
  for (const auto& spec :
       {DeviceSpec::k20(), DeviceSpec::k40(), DeviceSpec::modern()}) {
    spec.validate();
  }
  EXPECT_LT(DeviceSpec::k20().sm_count, DeviceSpec::k40().sm_count);
  EXPECT_GT(DeviceSpec::modern().mem_bandwidth_gbps,
            DeviceSpec::k40().mem_bandwidth_gbps);
  EXPECT_LT(DeviceSpec::modern().child_launch_overhead,
            DeviceSpec::k40().child_launch_overhead);
}

TEST(DeviceSpecTest, ValidateCatchesNonsense) {
  auto spec = DeviceSpec::k40();
  spec.sm_count = 0;
  EXPECT_THROW(spec.validate(), util::contract_violation);
}

TEST(Device, MemoryAccounting) {
  Device device(DeviceSpec::k40());
  EXPECT_EQ(device.memory_in_use(), 0u);
  {
    auto a = device.allocate(1ull << 30);
    EXPECT_EQ(device.memory_in_use(), 1ull << 30);
    auto b = device.allocate(2ull << 30);
    EXPECT_EQ(device.memory_in_use(), 3ull << 30);
  }
  EXPECT_EQ(device.memory_in_use(), 0u);
  EXPECT_EQ(device.peak_memory(), 3ull << 30);
}

TEST(Device, OutOfMemoryThrows) {
  Device device(DeviceSpec::k40());
  auto big = device.allocate(11ull << 30);
  EXPECT_THROW((void)device.allocate(2ull << 30), OutOfMemory);
  // Freeing makes room again.
  big.release();
  auto ok = device.allocate(2ull << 30);
  EXPECT_EQ(ok.bytes(), 2ull << 30);
}

TEST(Device, BufferMoveTransfersOwnership) {
  Device device(DeviceSpec::k40());
  auto a = device.allocate(1024);
  auto b = std::move(a);
  EXPECT_EQ(b.bytes(), 1024u);
  EXPECT_EQ(device.memory_in_use(), 1024u);
  b.release();
  EXPECT_EQ(device.memory_in_use(), 0u);
}

TEST(Device, BufferMoveAssignTransfersEpochAcrossReset) {
  Device device(DeviceSpec::k40());
  // reset() bumps the device epoch, so a buffer allocated afterwards and
  // move-ASSIGNED (not move-constructed) into another slot must still carry
  // the fresh epoch, or release() skips the accounting decrement.
  device.reset();
  Device::Buffer slot;
  slot = device.allocate(1024);
  EXPECT_EQ(device.memory_in_use(), 1024u);
  slot.release();
  EXPECT_EQ(device.memory_in_use(), 0u);

  // Conversely, a buffer from before a reset stays stale after move-assign.
  Device::Buffer stale;
  stale = device.allocate(512);
  device.reset();
  EXPECT_EQ(device.memory_in_use(), 0u);
  stale.release();
  EXPECT_EQ(device.memory_in_use(), 0u);
}

TEST(Device, ClockAdvancesAtSynchronize) {
  Device device(DeviceSpec::k40());
  EXPECT_EQ(device.now(), util::SimTime{});
  WorkEstimate w;
  w.threads = 32;
  w.thread_ops = 32;
  device.launch_estimated(0, "noop-ish", w);
  const auto t1 = device.synchronize();
  EXPECT_GT(t1, util::SimTime{});
  // Launch overhead at minimum.
  EXPECT_GE(t1, device.spec().host_launch_overhead);
}

TEST(Device, HostYieldChangesNothingSimulated) {
  const auto run = [] {
    Device device(DeviceSpec::k40());
    WorkEstimate w;
    w.threads = 4096;
    w.thread_ops = 1'000'000;
    for (int stream = 0; stream < 4; ++stream) {
      device.launch_estimated(stream, "a", w);
      device.launch_estimated(stream, "b", w);
      device.synchronize();
    }
    return std::pair{device.now(), device.stats().synchronizations};
  };
  const auto plain = run();
  {
    const ScopedHostYield outer;
    const ScopedHostYield nested;  // nesting is allowed
    EXPECT_EQ(run(), plain);
  }
  EXPECT_EQ(run(), plain);
}

TEST(Device, SynchronizeWithoutWorkCostsOnlySyncOverhead) {
  Device device(DeviceSpec::k40());
  const auto t = device.synchronize();
  EXPECT_EQ(t, device.spec().sync_overhead);
}

TEST(Device, StreamsOverlapAcrossSynchronize) {
  // Two big analytic kernels on different streams overlap; the same two on
  // one stream serialize. Overlapped elapsed must be strictly smaller.
  WorkEstimate w;
  w.threads = 15 * 2048;  // saturates a K40 at width 15... per kernel
  w.thread_ops = 200'000'000;

  Device overlap(DeviceSpec::k40());
  overlap.launch_estimated(0, "a", w);
  overlap.launch_estimated(1, "b", w);
  const auto t_overlap = overlap.synchronize();

  Device serial(DeviceSpec::k40());
  serial.launch_estimated(0, "a", w);
  serial.launch_estimated(0, "b", w);
  const auto t_serial = serial.synchronize();

  // Full contention: same total work, so equal end-to-end, or better when
  // latency overlaps. Overlap must never be slower.
  EXPECT_LE(t_overlap, t_serial);
}

TEST(Device, HyperQStreamLimitEnforced) {
  Device device(DeviceSpec::k40());
  WorkEstimate w;
  w.threads = 1;
  EXPECT_THROW(device.launch_estimated(32, "bad", w),
               util::contract_violation);
  EXPECT_THROW(device.launch_estimated(-1, "bad", w),
               util::contract_violation);
}

TEST(Device, KeepsNoKernelLogUnlessAskedTo) {
  Device device(DeviceSpec::k40());
  WorkEstimate w;
  w.threads = 64;
  w.thread_ops = 6400;
  EXPECT_FALSE(device.kernel_log());
  device.launch_estimated(0, "first", w);
  device.synchronize();
  EXPECT_TRUE(device.log().empty());
  EXPECT_EQ(device.stats().kernels, 1u);  // the counters are always on
  device.set_kernel_log(true);
  device.launch_estimated(0, "second", w);
  device.synchronize();
  ASSERT_EQ(device.log().size(), 1u);
  EXPECT_EQ(device.log()[0].name, "second");
}

TEST(Device, LogRecordsKernelTimes) {
  Device device(DeviceSpec::k40());
  device.set_kernel_log(true);
  WorkEstimate w;
  w.threads = 64;
  w.thread_ops = 6400;
  device.launch_estimated(0, "first", w);
  device.launch_estimated(0, "second", w);
  device.synchronize();
  ASSERT_EQ(device.log().size(), 2u);
  EXPECT_EQ(device.log()[0].name, "first");
  EXPECT_EQ(device.log()[1].name, "second");
  EXPECT_LE(device.log()[0].finish, device.log()[1].finish);
  EXPECT_GE(device.log()[1].start, device.log()[0].finish);
}

TEST(Device, StatsAccumulate) {
  Device device(DeviceSpec::k40());
  WorkEstimate w;
  w.threads = 128;
  w.thread_ops = 1000;
  w.transactions = 10;
  w.child_launches = 2;
  device.launch_estimated(3, "k", w);
  device.synchronize();
  EXPECT_EQ(device.stats().kernels, 1u);
  EXPECT_EQ(device.stats().child_kernels, 2u);
  EXPECT_EQ(device.stats().threads, 128u);
  EXPECT_EQ(device.stats().thread_ops, 1000u);
  EXPECT_EQ(device.stats().transactions, 10u);
  EXPECT_EQ(device.stats().synchronizations, 1u);
}

TEST(Device, ExecutableKernelComputesAndTimes) {
  Device device(DeviceSpec::k40());
  std::vector<int> data(256, 0);
  device.launch(0, "fill", LaunchConfig{2, 128}, [&](ThreadCtx& ctx) {
    data[ctx.global_id()] = 1;
    ctx.store(ctx.global_id() * 4);
    ctx.ops(1);
  });
  // Data is visible immediately (eager execution)...
  for (const auto v : data) EXPECT_EQ(v, 1);
  // ...timing resolves at synchronize.
  const auto t = device.synchronize();
  EXPECT_GT(t, device.spec().host_launch_overhead);
  EXPECT_EQ(device.stats().transactions, 8u);  // 256 * 4 B / 128 B
}

TEST(Device, ChildLaunchUsesDeviceSideLatency) {
  // Device-side (Dynamic Parallelism) launches pay the pending-launch-buffer
  // latency, host launches the driver latency; the two must differ exactly
  // by the spec's overheads for an otherwise identical kernel.
  WorkEstimate w;
  w.threads = 32;
  w.thread_ops = 32;

  Device host_launched(DeviceSpec::k40());
  host_launched.launch_estimated(0, "k", w, /*is_child=*/false);
  const auto t_host = host_launched.synchronize();

  Device child_launched(DeviceSpec::k40());
  child_launched.launch_estimated(0, "k", w, /*is_child=*/true);
  const auto t_child = child_launched.synchronize();

  const auto& spec = DeviceSpec::k40();
  EXPECT_EQ(t_child - t_host,
            spec.child_launch_overhead - spec.host_launch_overhead);
}

TEST(Fluid, CostModelMonotoneInWork) {
  const auto spec = DeviceSpec::k40();
  WorkEstimate small;
  small.threads = 1024;
  small.thread_ops = 10'000;
  small.transactions = 100;
  WorkEstimate big = small;
  big.thread_ops = 100'000;
  big.transactions = 1'000;
  EXPECT_LT(estimate_cost(spec, small).exclusive,
            estimate_cost(spec, big).exclusive);
}

TEST(Fluid, CostModelCoalescingMatters) {
  // Same threads/ops; 32x the transactions (strided access) must be slower.
  const auto spec = DeviceSpec::k40();
  WorkEstimate coalesced;
  coalesced.threads = 32 * 2048;
  coalesced.transactions = 2048;
  WorkEstimate strided = coalesced;
  strided.transactions = 2048 * 32;
  EXPECT_LT(estimate_cost(spec, coalesced).exclusive,
            estimate_cost(spec, strided).exclusive);
}

TEST(Fluid, CostModelWidthGrowsWithThreads) {
  const auto spec = DeviceSpec::k40();
  WorkEstimate one_warp;
  one_warp.threads = 32;
  one_warp.thread_ops = 320;
  WorkEstimate many;
  many.threads = 32 * 1024;
  many.thread_ops = 320;
  EXPECT_EQ(estimate_cost(spec, one_warp).width_sms, 1);
  EXPECT_EQ(estimate_cost(spec, many).width_sms, spec.sm_count);
}

TEST(Fluid, CostModelZeroWorkKernel) {
  const auto spec = DeviceSpec::k40();
  const auto cost = estimate_cost(spec, WorkEstimate{});
  EXPECT_EQ(cost.exclusive, util::SimTime{});
  EXPECT_EQ(cost.work, util::SimTime{});
  EXPECT_EQ(cost.width_sms, 1);
}

TEST(Fluid, CostModelBandwidthBoundAtScale) {
  // Enough coalesced transactions that the bandwidth roofline dominates
  // latency: doubling transactions must double the time (not saturate).
  const auto spec = DeviceSpec::k40();
  WorkEstimate w;
  w.threads = 15 * 64 * 32;  // full occupancy: latency fully hidden
  w.transactions = 50'000'000;
  WorkEstimate w2 = w;
  w2.transactions = 100'000'000;
  const double t1 = estimate_cost(spec, w).exclusive.ns();
  const double t2 = estimate_cost(spec, w2).exclusive.ns();
  EXPECT_NEAR(t2 / t1, 2.0, 0.01);
  // And the absolute rate matches the spec bandwidth: X * 128 B / B.
  EXPECT_NEAR(t1, 50'000'000.0 * 128.0 / spec.mem_bandwidth_gbps, t1 * 0.01);
}

TEST(Fluid, CostModelChildLaunchesAddSerialTime) {
  const auto spec = DeviceSpec::k40();
  WorkEstimate w;
  w.threads = 32;
  w.child_launches = 100;
  const auto cost = estimate_cost(spec, w);
  // 100 launches over dp_launch_lanes queues.
  EXPECT_EQ(cost.exclusive,
            spec.child_launch_overhead * 100 / spec.dp_launch_lanes);
}

}  // namespace
}  // namespace pcmax::gpusim
