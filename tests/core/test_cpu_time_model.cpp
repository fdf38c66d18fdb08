#include "core/cpu_time_model.hpp"

#include <gtest/gtest.h>

#include "dp/config.hpp"
#include "util/contracts.hpp"
#include "workload/shapes.hpp"

namespace pcmax {
namespace {

TEST(CpuTimeModel, PositiveForNonTrivialProblem) {
  const auto p = workload::dp_problem_for_extents({5, 5, 4});
  EXPECT_GT(estimate_openmp_dp_time(p, dp::dependency_counts(p)),
            util::SimTime{});
}

TEST(CpuTimeModel, MoreThreadsIsFaster) {
  const auto p = workload::dp_problem_for_extents({6, 4, 6, 6, 4});
  const auto deps = dp::dependency_counts(p);
  CpuModelParams p16;
  p16.threads = 16;
  CpuModelParams p28;
  p28.threads = 28;
  EXPECT_GT(estimate_openmp_dp_time(p, deps, p16),
            estimate_openmp_dp_time(p, deps, p28));
}

TEST(CpuTimeModel, SuperlinearInTableSize) {
  // The sigma-wide search makes the model grow faster than linearly: a table
  // 3.75x bigger must cost much more than 3.75x.
  const auto small = workload::dp_problem_for_extents({6, 4, 6, 6, 4});
  const auto large =
      workload::dp_problem_for_extents({3, 16, 15, 18});  // 12960
  const auto ts = estimate_openmp_dp_time(small, dp::dependency_counts(small));
  const auto tl = estimate_openmp_dp_time(large, dp::dependency_counts(large));
  EXPECT_GT(tl.ns(), ts.ns() * 5.0);
}

TEST(CpuTimeModel, MatchesBruteForceDependencyCounts) {
  // The model reads only |C_v|: counting the fitting configurations of every
  // cell directly must give the same estimate as the prefix sums.
  const auto p = workload::dp_problem_for_extents({5, 3, 6, 3, 4, 4, 2});
  const dp::MixedRadix radix = p.radix();
  const dp::ConfigSet configs(p.counts, p.weights, p.capacity, radix);
  std::vector<std::uint32_t> brute(radix.size(), 0);
  for (std::uint64_t id = 0; id < radix.size(); ++id) {
    const auto v = radix.unflatten(id);
    for (std::size_t c = 0; c < configs.size(); ++c)
      brute[id] += configs.fits(c, v) ? 1u : 0u;
  }
  EXPECT_EQ(estimate_openmp_dp_time(p, brute),
            estimate_openmp_dp_time(p, dp::dependency_counts(p)));
}

TEST(CpuTimeModel, RequiresDeps) {
  const auto p = workload::dp_problem_for_extents({5, 5, 4});
  EXPECT_THROW((void)estimate_openmp_dp_time(p, {}),
               util::contract_violation);
}

TEST(CpuTimeModel, RejectsBadThreadCount) {
  const auto p = workload::dp_problem_for_extents({5, 5, 4});
  CpuModelParams params;
  params.threads = 0;
  EXPECT_THROW(
      (void)estimate_openmp_dp_time(p, dp::dependency_counts(p), params),
      util::contract_violation);
}

}  // namespace
}  // namespace pcmax
