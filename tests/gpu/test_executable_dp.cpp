#include "gpu/executable_dp.hpp"

#include <gtest/gtest.h>

#include "util/contracts.hpp"
#include "workload/shapes.hpp"

namespace pcmax::gpu {
namespace {

dp::DpProblem small_problem() {
  return dp::DpProblem{{2, 3, 1, 2}, {4, 5, 7, 11}, 16};
}

TEST(ExecutableDp, MatchesReferenceTable) {
  gpusim::Device device(gpusim::DeviceSpec::k40());
  const auto report = run_executable_dp(small_problem(), device, 3);
  const auto ref = dp::ReferenceSolver().solve(small_problem());
  EXPECT_EQ(report.result.table, ref.table);
  EXPECT_EQ(report.result.opt, ref.opt);
}

TEST(ExecutableDp, MatchesReferenceAcrossPartitionDims) {
  const auto p = small_problem();
  const auto ref = dp::ReferenceSolver().solve(p);
  for (const std::size_t dims : {1u, 2u, 4u}) {
    gpusim::Device device(gpusim::DeviceSpec::k40());
    EXPECT_EQ(run_executable_dp(p, device, dims).result.table, ref.table);
  }
}

TEST(ExecutableDp, MeasuredThreadCountsMatchStructure) {
  gpusim::Device device(gpusim::DeviceSpec::k40());
  device.set_kernel_log(true);  // the measured work comes from the log
  const auto report = run_executable_dp(small_problem(), device, 3);
  const auto sigma = small_problem().table_size();
  // FindOPT runs one thread per cell (padded to warp grids).
  EXPECT_GE(report.measured_find_opt.threads, sigma);
  // FindValidSub enumerates all candidates: sum over cells of prod(v+1),
  // which strictly exceeds the table size.
  EXPECT_GT(report.measured_find_valid_sub.threads, sigma);
  // SetOPT runs one thread per dependency.
  std::uint64_t total_deps = 0;
  for (const auto d : dp::dependency_counts(small_problem())) total_deps += d;
  EXPECT_GE(report.measured_set_opt.threads, total_deps);
}

TEST(ExecutableDp, AnalyticChargesTrackMeasuredTraffic) {
  // The analytic formulas are coarse by design; require agreement within
  // an order of magnitude on transactions for the dominant kernel (SetOPT)
  // and on total thread ops.
  gpusim::Device device(gpusim::DeviceSpec::k40());
  device.set_kernel_log(true);  // the measured work comes from the log
  const auto p = workload::dp_problem_for_extents({4, 3, 4, 3});
  const auto report = run_executable_dp(p, device, 3);

  const auto ratio = [](double a, double b) {
    return a > b ? a / b : b / a;
  };
  ASSERT_GT(report.measured_set_opt.transactions, 0u);
  ASSERT_GT(report.analytic_set_opt.transactions, 0u);
  // Transactions carry the widest band: the analytic formula packs scanned
  // words densely into 128-byte segments, while the traced scan fragments
  // across segment boundaries (8-byte coordinate words, per-thread offsets),
  // costing about an order of magnitude more. The gap is one constant and
  // is absorbed by the calibrated scan_broadcast/launch parameters.
  EXPECT_LT(ratio(static_cast<double>(report.measured_set_opt.transactions),
                  static_cast<double>(report.analytic_set_opt.transactions)),
            20.0);
  ASSERT_GT(report.measured_set_opt.thread_ops, 0u);
  EXPECT_LT(ratio(static_cast<double>(report.measured_set_opt.thread_ops),
                  static_cast<double>(report.analytic_set_opt.thread_ops)),
            10.0);
  EXPECT_LT(
      ratio(static_cast<double>(report.measured_find_valid_sub.thread_ops),
            static_cast<double>(report.analytic_find_valid_sub.thread_ops)),
      10.0);
}

TEST(ExecutableDp, AdvancesDeviceClock) {
  gpusim::Device device(gpusim::DeviceSpec::k40());
  const auto report = run_executable_dp(small_problem(), device, 2);
  EXPECT_GT(report.device_time, util::SimTime{});
  EXPECT_GT(device.stats().kernels, 0u);
  EXPECT_GT(device.stats().transactions, 0u);
}

TEST(ExecutableDp, RejectsHugeTables) {
  dp::DpProblem huge;
  huge.counts.assign(6, 9);  // 10^6 cells
  huge.weights = {1, 2, 3, 4, 5, 6};
  huge.capacity = 21;
  gpusim::Device device(gpusim::DeviceSpec::k40());
  EXPECT_THROW((void)run_executable_dp(huge, device, 3),
               util::contract_violation);
}

TEST(ExecutableDp, PaperShapeTableI) {
  // Full Table I shape (3456 cells) through the executable kernels.
  gpusim::Device device(gpusim::DeviceSpec::k40());
  const auto p = workload::dp_problem_for_extents({6, 4, 6, 6, 4});
  const auto report = run_executable_dp(p, device, 5);
  EXPECT_EQ(report.result.table, dp::ReferenceSolver().solve(p).table);
}

}  // namespace
}  // namespace pcmax::gpu
