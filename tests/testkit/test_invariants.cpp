// The invariant checkers are the assertion vocabulary of the fuzzer, so they
// get their own tests: every checker must accept a known-good artifact and
// diagnose a deliberately corrupted copy of it.
#include "testkit/invariants.hpp"

#include <gtest/gtest.h>

#include "core/bounds.hpp"
#include "core/ptas.hpp"
#include "gpu/gpu_dp_solver.hpp"
#include "partition/divisor.hpp"
#include "testkit/oracles.hpp"

namespace pcmax::testkit {
namespace {

Instance small_instance() {
  Instance inst;
  inst.machines = 3;
  inst.times = {9, 8, 7, 6, 5, 4, 3, 2, 1};
  return inst;
}

TEST(CheckSchedule, AcceptsValidAndDiagnosesCorrupt) {
  const auto inst = small_instance();
  const dp::LevelBucketSolver solver;
  auto result = solve_ptas(inst, solver);
  EXPECT_EQ(check_schedule(inst, result.schedule), std::nullopt);

  auto bad = result.schedule;
  bad.assignment[0] = inst.machines;  // out of range
  EXPECT_TRUE(check_schedule(inst, bad).has_value());
  bad.assignment.pop_back();  // wrong job count
  EXPECT_TRUE(check_schedule(inst, bad).has_value());
}

TEST(CheckPtasResult, AcceptsRealResultAndCatchesLies) {
  const auto inst = small_instance();
  const dp::LevelBucketSolver solver;
  const auto result = solve_ptas(inst, solver);  // epsilon 0.3 -> k = 4
  EXPECT_EQ(check_ptas_result(inst, result, 4), std::nullopt);

  auto lying = result;
  lying.achieved_makespan += 1;  // certificate disagrees with the schedule
  EXPECT_TRUE(check_ptas_result(inst, lying, 4).has_value());

  auto low_target = result;
  low_target.best_target = 0;  // below every lower bound
  EXPECT_TRUE(check_ptas_result(inst, low_target, 4).has_value());
}

TEST(CheckPtasVsExact, TightensAroundTheOptimum) {
  const auto inst = small_instance();
  const dp::LevelBucketSolver solver;
  const auto result = solve_ptas(inst, solver);
  const auto exact = exact_makespan(inst);
  ASSERT_TRUE(exact.has_value());
  EXPECT_EQ(check_ptas_vs_exact(inst, result, 4, *exact), std::nullopt);

  // Claiming a larger optimum makes the real schedule look super-optimal.
  EXPECT_TRUE(check_ptas_vs_exact(inst, result, 4,
                                  result.achieved_makespan + 1)
                  .has_value());
}

TEST(CheckDpTable, AcceptsReferenceSolveAndCatchesEveryCorruption) {
  const dp::DpProblem problem{{2, 2}, {3, 4}, 8};
  const auto good = dp::ReferenceSolver().solve(problem);
  EXPECT_EQ(check_dp_table(problem, good), std::nullopt);

  auto corrupt = good;
  corrupt.table[0] = 1;  // origin must be 0
  EXPECT_TRUE(check_dp_table(problem, corrupt).has_value());

  corrupt = good;
  corrupt.table.back() += 1;  // back() must equal opt
  EXPECT_TRUE(check_dp_table(problem, corrupt).has_value());

  corrupt = good;
  corrupt.table.pop_back();  // size must match the radix
  EXPECT_TRUE(check_dp_table(problem, corrupt).has_value());

  corrupt = good;
  corrupt.table[1] = dp::kInfeasible;  // a reachable cell's predecessor
  EXPECT_TRUE(check_dp_table(problem, corrupt).has_value());

  corrupt = good;
  corrupt.table[1] = 5;  // exceeds the level upper bound (one job)
  EXPECT_TRUE(check_dp_table(problem, corrupt).has_value());
}

TEST(CheckTablesMatch, ComparesOptAlwaysAndTablesOnRequest) {
  const dp::DpProblem problem{{3, 2}, {2, 5}, 9};
  const auto a = dp::ReferenceSolver().solve(problem);
  auto b = dp::LevelScanSolver().solve(problem);
  EXPECT_EQ(check_tables_match("ref", a, "scan", b, true), std::nullopt);

  auto diverged = b;
  diverged.table[2] += 1;
  EXPECT_TRUE(check_tables_match("ref", a, "scan", diverged, true).has_value());
  // The same divergence is invisible to an OPT-only comparison.
  EXPECT_EQ(check_tables_match("ref", a, "scan", diverged, false),
            std::nullopt);

  auto wrong_opt = b;
  wrong_opt.opt += 1;
  EXPECT_TRUE(
      check_tables_match("ref", a, "scan", wrong_opt, false).has_value());
}

TEST(CheckBlockedBijection, HoldsOnPaperAndPrimeShapes) {
  const std::vector<std::int64_t> paper{6, 4, 6, 6, 4};
  const dp::MixedRadix paper_radix(paper);
  EXPECT_EQ(check_blocked_bijection(partition::BlockedLayout(
                paper_radix, partition::compute_divisor(paper, 3))),
            std::nullopt);

  // Prime extents force full unit splits — the bijection must survive.
  const std::vector<std::int64_t> primes{7, 5, 3};
  const dp::MixedRadix prime_radix(primes);
  EXPECT_EQ(check_blocked_bijection(partition::BlockedLayout(
                prime_radix, partition::compute_divisor(primes, 3))),
            std::nullopt);
}

TEST(CheckDeviceConservation, HoldsAfterAGpuSolve) {
  gpusim::Device device(gpusim::DeviceSpec::k40());
  device.set_kernel_log(true);
  const dp::DpProblem problem{{3, 3, 2}, {4, 5, 7}, 16};
  const auto result = gpu::GpuDpSolver(device, 5).solve(problem);
  EXPECT_EQ(result.opt, dp::ReferenceSolver().solve(problem).opt);
  ASSERT_FALSE(device.log().empty());
  EXPECT_EQ(check_device_conservation(device), std::nullopt);
}

TEST(Oracles, LowerBoundNeverExceedsTheOptimum) {
  const auto inst = small_instance();
  const auto exact = exact_makespan(inst);
  ASSERT_TRUE(exact.has_value());
  EXPECT_LE(oracle_lower_bound(inst), *exact);
  EXPECT_GE(lpt_makespan(inst), *exact);
  EXPECT_GE(oracle_lower_bound(inst), makespan_lower_bound(inst));
}

}  // namespace
}  // namespace pcmax::testkit
