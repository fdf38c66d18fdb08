// Fault-injection and recovery behavior of the simulated device: injected
// allocation failures, launch failures, stream stalls against the watchdog,
// and reset() semantics (wholesale reclamation, stale-buffer no-ops).
#include <gtest/gtest.h>

#include <utility>

#include "faultsim/injector.hpp"
#include "gpusim/device.hpp"

namespace pcmax::gpusim {
namespace {

faultsim::FaultPlan plan_from(const char* text) {
  auto plan = faultsim::parse_fault_plan(text);
  EXPECT_TRUE(plan.has_value()) << text;
  return *plan;
}

WorkEstimate small_work() {
  WorkEstimate w;
  w.threads = 64;
  w.thread_ops = 640;
  return w;
}

TEST(DeviceFaults, InjectedAllocationFailureDespiteFreeMemory) {
  faultsim::ScopedFaultInjector scoped(plan_from("seed=1;device-alloc:nth=2"));
  Device device(DeviceSpec::k40());
  auto first = device.allocate(1024);
  EXPECT_THROW((void)device.allocate(1024), OutOfMemory);
  // The failed allocation must not leak accounting.
  EXPECT_EQ(device.memory_in_use(), 1024u);
  // One-shot fault: the next allocation succeeds.
  auto third = device.allocate(2048);
  EXPECT_EQ(device.memory_in_use(), 1024u + 2048u);
}

TEST(DeviceFaults, InjectedLaunchFailureLeavesQueueConsistent) {
  faultsim::ScopedFaultInjector scoped(
      plan_from("seed=1;kernel-launch:nth=2"));
  Device device(DeviceSpec::k40());
  device.set_kernel_log(true);
  device.launch_estimated(0, "survivor", small_work());
  EXPECT_THROW(device.launch_estimated(0, "victim", small_work()),
               LaunchFailure);
  // The survivor still runs; the victim never entered the queue.
  device.launch_estimated(0, "after", small_work());
  device.synchronize();
  ASSERT_EQ(device.log().size(), 2u);
  EXPECT_EQ(device.log()[0].name, "survivor");
  EXPECT_EQ(device.log()[1].name, "after");
}

TEST(DeviceFaults, StallPastWatchdogThrowsAndChargesTheWatchdog) {
  faultsim::ScopedFaultInjector scoped(
      plan_from("seed=1;stream-sync:nth=1:stall-ms=10000"));
  Device device(DeviceSpec::k40());
  device.launch_estimated(0, "doomed", small_work());
  EXPECT_THROW((void)device.synchronize(), StreamStalled);
  // The clock advanced exactly to the watchdog where the driver gave up.
  EXPECT_EQ(device.now(), device.spec().stall_watchdog);
}

TEST(DeviceFaults, SubWatchdogStallOnlyDelays) {
  faultsim::ScopedFaultInjector scoped(
      plan_from("seed=1;stream-sync:nth=1:stall-ms=50"));
  Device stalled(DeviceSpec::k40());
  stalled.launch_estimated(0, "k", small_work());
  const auto t_stalled = stalled.synchronize();

  Device clean(DeviceSpec::k40());
  clean.launch_estimated(0, "k", small_work());
  const auto t_clean = clean.synchronize();

  EXPECT_EQ(t_stalled, t_clean + util::SimTime::milliseconds(50));
}

TEST(DeviceFaults, ResetDropsPendingWorkAndMemory) {
  Device device(DeviceSpec::k40());
  device.set_kernel_log(true);
  auto buffer = device.allocate(4096);
  device.launch_estimated(0, "doomed", small_work());
  device.reset();
  EXPECT_EQ(device.memory_in_use(), 0u);
  // The dropped launch never runs (launch *counters* survive reset — they
  // record submissions, not completions — but the kernel never retires).
  const auto before = device.now();
  device.synchronize();
  EXPECT_EQ(device.log().size(), 0u);
  EXPECT_EQ(device.stats().kernels, 1u);
  // Post-reset the device accepts work again.
  device.launch_estimated(0, "fresh", small_work());
  device.synchronize();
  ASSERT_EQ(device.log().size(), 1u);
  EXPECT_EQ(device.log()[0].name, "fresh");
  EXPECT_GT(device.now(), before);
}

TEST(DeviceFaults, StaleBufferReleaseAfterResetIsANoOp) {
  Device device(DeviceSpec::k40());
  auto stale = device.allocate(1ull << 20);
  device.reset();
  auto fresh = device.allocate(512);
  EXPECT_EQ(device.memory_in_use(), 512u);
  // Releasing the pre-reset buffer must not underflow the accounting of the
  // new epoch.
  stale.release();
  EXPECT_EQ(device.memory_in_use(), 512u);
  fresh.release();
  EXPECT_EQ(device.memory_in_use(), 0u);
}

TEST(DeviceFaults, StaleBufferDestructionAfterResetIsANoOp) {
  Device device(DeviceSpec::k40());
  {
    auto stale = device.allocate(2048);
    device.reset();
    EXPECT_EQ(device.memory_in_use(), 0u);
  }  // stale destructs here, against the new epoch
  EXPECT_EQ(device.memory_in_use(), 0u);
  auto ok = device.allocate(64);
  EXPECT_EQ(device.memory_in_use(), 64u);
}

TEST(DeviceFaults, OrganicOomStillFiresWithoutInjector) {
  Device device(DeviceSpec::k40());
  auto big = device.allocate(11ull << 30);
  EXPECT_THROW((void)device.allocate(2ull << 30), OutOfMemory);
  // Recovery by reset: wholesale reclamation makes room.
  device.reset();
  auto ok = device.allocate(2ull << 30);
  EXPECT_EQ(device.memory_in_use(), 2ull << 30);
}

TEST(DeviceFaults, PartialAllocationSequenceCleansUpOnFailure) {
  // Mirrors the solver pattern: allocate several buffers, fail midway, and
  // rely on RAII to return every successful allocation.
  faultsim::ScopedFaultInjector scoped(plan_from("seed=1;device-alloc:nth=3"));
  Device device(DeviceSpec::k40());
  EXPECT_THROW(
      {
        auto a = device.allocate(1024);
        auto b = device.allocate(1024);
        auto c = device.allocate(1024);  // injected failure
      },
      OutOfMemory);
  EXPECT_EQ(device.memory_in_use(), 0u);
}

}  // namespace
}  // namespace pcmax::gpusim
