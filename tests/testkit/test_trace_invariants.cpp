// Trace-invariant checker tests: real solver runs must satisfy the
// structural and reconciliation invariants, and hand-built traces violating
// each invariant must be caught with a useful diagnosis.
#include "testkit/trace_checks.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "core/probe_cache.hpp"
#include "core/ptas.hpp"
#include "dp/solver.hpp"
#include "gpu/gpu_ptas.hpp"
#include "gpusim/device.hpp"
#include "obs/session.hpp"
#include "workload/generators.hpp"

namespace pcmax::testkit {
namespace {

TEST(TraceInvariants, CpuSolveSatisfiesStructureAndReconciles) {
  const Instance instance = workload::uniform_instance(16, 4, 1, 60, 3);
  const dp::LevelBucketSolver solver;
  PtasOptions options;
  options.epsilon = 0.5;
  options.strategy = SearchStrategy::kQuarterSplit;

  obs::ObsSession session;
  const PtasResult result = solve_ptas(instance, solver, options);
  EXPECT_EQ(check_trace_structure(session.trace()), std::nullopt);
  EXPECT_EQ(check_trace_reconciles(session.metrics(), result), std::nullopt);
}

TEST(TraceInvariants, CachedSolveReconcilesCacheCounters) {
  const Instance instance = workload::uniform_instance(14, 4, 1, 50, 9);
  const dp::LevelBucketSolver solver;
  ProbeCache shared;
  PtasOptions options;
  options.epsilon = 0.5;
  options.use_probe_cache = true;
  options.probe_cache = &shared;
  // Warm the cache outside the session so the recorded solve both hits and
  // bound-skips; the reconciliation covers exactly the second run.
  (void)solve_ptas(instance, solver, options);

  obs::ObsSession session;
  const PtasResult result = solve_ptas(instance, solver, options);
  EXPECT_GT(result.cache_stats.hits + result.cache_stats.bound_skips, 0u);
  EXPECT_EQ(check_trace_structure(session.trace()), std::nullopt);
  EXPECT_EQ(check_trace_reconciles(session.metrics(), result), std::nullopt);
}

TEST(TraceInvariants, GpuSolveSatisfiesStructure) {
  const Instance instance = workload::uniform_instance(10, 3, 1, 30, 5);
  gpusim::Device device(gpusim::DeviceSpec::k40());
  gpu::GpuPtasOptions options;
  options.epsilon = 0.5;
  options.partition_dims = 5;

  obs::ObsSession session;
  const gpu::GpuPtasResult result =
      gpu::solve_gpu_ptas(instance, device, options);
  EXPECT_EQ(check_trace_structure(session.trace()), std::nullopt);
  EXPECT_EQ(check_trace_reconciles(session.metrics(), result.ptas),
            std::nullopt);
  // Kernel spans actually made it onto stream tracks.
  bool kernel_seen = false;
  for (const auto& e : session.trace().snapshot())
    if (e.kind == obs::EventKind::kComplete) kernel_seen = true;
  EXPECT_TRUE(kernel_seen);
}

TEST(TraceInvariants, DetectsUnbalancedSpans) {
  obs::TraceRecorder trace;
  trace.begin_span("left-open");
  const auto bad = check_trace_structure(trace);
  ASSERT_TRUE(bad.has_value());
  EXPECT_NE(bad->find("never closed"), std::string::npos);
}

TEST(TraceInvariants, DetectsMismatchedEndName) {
  obs::TraceRecorder trace;
  trace.begin_span("outer");
  trace.end_span("not-outer");
  const auto bad = check_trace_structure(trace);
  ASSERT_TRUE(bad.has_value());
  EXPECT_NE(bad->find("does not match"), std::string::npos);
}

TEST(TraceInvariants, DetectsBackwardsSimTime) {
  obs::TraceRecorder trace;
  std::int64_t now = 500;
  trace.set_sim_clock([&now] { return now; });
  trace.instant("first");
  now = 100;
  trace.instant("second");
  // The clock is per thread and captures `now`: uninstall it before `now`
  // goes out of scope.
  trace.set_sim_clock(nullptr);
  const auto bad = check_trace_structure(trace);
  ASSERT_TRUE(bad.has_value());
  EXPECT_NE(bad->find("backwards"), std::string::npos);
}

TEST(TraceInvariants, DetectsOverlappingStreamSpans) {
  obs::TraceRecorder trace;
  trace.complete("a", obs::kStreamPidBase, obs::kParentTid, 0, 1000);
  trace.complete("b", obs::kStreamPidBase, obs::kParentTid, 500, 1000);
  const auto bad = check_trace_structure(trace);
  ASSERT_TRUE(bad.has_value());
  EXPECT_NE(bad->find("overlapping"), std::string::npos);
}

TEST(TraceInvariants, AllowsBackToBackStreamSpans) {
  obs::TraceRecorder trace;
  trace.complete("a", obs::kStreamPidBase, obs::kParentTid, 0, 1000);
  trace.complete("b", obs::kStreamPidBase, obs::kParentTid, 1000, 1000);
  // Same extents on a different stream do not conflict either.
  trace.complete("c", obs::kStreamPidBase + 1, obs::kParentTid, 0, 1000);
  EXPECT_EQ(check_trace_structure(trace), std::nullopt);
}

TEST(TraceInvariants, DetectsOrphanChildKernel) {
  obs::TraceRecorder trace;
  trace.complete("parent", obs::kStreamPidBase, obs::kParentTid, 0, 1000);
  // Child pokes out of the only family span on its stream.
  trace.complete("child", obs::kStreamPidBase, obs::kChildTid, 900, 500);
  const auto bad = check_trace_structure(trace);
  ASSERT_TRUE(bad.has_value());
  EXPECT_NE(bad->find("not nested"), std::string::npos);

  obs::TraceRecorder no_parent;
  no_parent.complete("child", obs::kStreamPidBase, obs::kChildTid, 0, 100);
  const auto orphan = check_trace_structure(no_parent);
  ASSERT_TRUE(orphan.has_value());
  EXPECT_NE(orphan->find("no parent"), std::string::npos);
}

TEST(TraceInvariants, DetectsCounterDrift) {
  // A registry that never saw the solve cannot reconcile with its result.
  const Instance instance = workload::uniform_instance(12, 3, 1, 40, 7);
  const dp::LevelBucketSolver solver;
  PtasOptions options;
  options.epsilon = 0.5;
  const PtasResult result = solve_ptas(instance, solver, options);

  obs::MetricsRegistry empty;
  const auto bad = check_trace_reconciles(empty, result);
  ASSERT_TRUE(bad.has_value());
  EXPECT_NE(bad->find("dp.invocations"), std::string::npos);
}

}  // namespace
}  // namespace pcmax::testkit
