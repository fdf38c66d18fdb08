#include "partition/block_solver.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace pcmax::partition {
namespace {

dp::DpProblem ptas_like_problem() {
  return dp::DpProblem{{2, 3, 1, 2}, {4, 5, 7, 11}, 16};
}

TEST(BlockedSolver, MatchesReferenceOnPtasProblem) {
  const auto p = ptas_like_problem();
  const auto ref = dp::ReferenceSolver().solve(p);
  for (std::size_t dims = 0; dims <= 4; ++dims) {
    const auto blocked = BlockedSolver(dims).solve(p);
    EXPECT_EQ(blocked.table, ref.table) << "partition dims " << dims;
    EXPECT_EQ(blocked.opt, ref.opt);
  }
}

TEST(BlockedSolver, NameEncodesPartitionDims) {
  EXPECT_EQ(BlockedSolver(3).name(), "blocked-dim3");
  EXPECT_EQ(BlockedSolver(9).name(), "blocked-dim9");
}

TEST(BlockedSolver, HandlesInfeasibleClasses) {
  const dp::DpProblem p{{1, 1}, {4, 20}, 16};
  const auto ref = dp::ReferenceSolver().solve(p);
  const auto blocked = BlockedSolver(2).solve(p);
  EXPECT_EQ(blocked.table, ref.table);
  EXPECT_EQ(blocked.opt, dp::kInfeasible);
}

TEST(BlockedSolver, SingleCellTable) {
  const dp::DpProblem p{{0}, {1}, 1};
  const auto r = BlockedSolver(1).solve(p);
  EXPECT_EQ(r.opt, 0);
}

struct RandomCase {
  std::uint64_t seed;
  std::size_t partition_dims;
};

class BlockedSolverRandom : public ::testing::TestWithParam<RandomCase> {};

TEST_P(BlockedSolverRandom, MatchesReference) {
  util::Rng rng(GetParam().seed);
  dp::DpProblem p;
  const auto dims = static_cast<std::size_t>(rng.uniform(1, 7));
  for (std::size_t i = 0; i < dims; ++i) {
    p.counts.push_back(rng.uniform(0, 4));
    p.weights.push_back(rng.uniform(1, 9));
  }
  p.capacity = rng.uniform(6, 22);
  const auto ref = dp::ReferenceSolver().solve(p);
  const auto blocked = BlockedSolver(GetParam().partition_dims).solve(p);
  EXPECT_EQ(blocked.table, ref.table);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlockedSolverRandom,
    ::testing::Values(RandomCase{21, 1}, RandomCase{22, 2}, RandomCase{23, 3},
                      RandomCase{24, 4}, RandomCase{25, 5}, RandomCase{26, 6},
                      RandomCase{27, 7}, RandomCase{28, 8}, RandomCase{29, 9},
                      RandomCase{30, 3}, RandomCase{31, 5},
                      RandomCase{32, 7}));

}  // namespace
}  // namespace pcmax::partition
