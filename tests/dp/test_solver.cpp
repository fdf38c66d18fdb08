#include "dp/solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <numeric>

#include "faultsim/injector.hpp"
#include "obs/session.hpp"
#include "util/checked_math.hpp"
#include "util/rng.hpp"

namespace pcmax::dp {
namespace {

// Independent oracle: forward BFS relaxation over the table DAG. Every cell
// starts unreachable; from each settled cell u we relax u + s for every
// configuration s. This computes the same function as Equation (1) but via a
// forward shortest-path formulation rather than the backward recurrence.
std::vector<std::int32_t> bfs_oracle(const DpProblem& p) {
  const MixedRadix radix = p.radix();
  const ConfigSet configs(p.counts, p.weights, p.capacity, radix);
  std::vector<std::int32_t> dist(radix.size(), kInfeasible);
  dist[0] = 0;
  std::deque<std::uint64_t> frontier{0};
  while (!frontier.empty()) {
    const auto u = frontier.front();
    frontier.pop_front();
    const auto uv = radix.unflatten(u);
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const auto s = configs.config(c);
      bool in_range = true;
      for (std::size_t j = 0; j < uv.size(); ++j)
        if (uv[j] + s[j] > p.counts[j]) {
          in_range = false;
          break;
        }
      if (!in_range) continue;
      const std::uint64_t w = u + configs.delta(c);
      if (dist[w] > dist[u] + 1) {
        dist[w] = dist[u] + 1;
        frontier.push_back(w);  // BFS with unit weights: first visit is best
      }
    }
  }
  return dist;
}

DpProblem ptas_like_problem() {
  // k = 4, classes 4, 5, 7, 11 with a few jobs each — the exact structure the
  // PTAS produces with epsilon = 0.3.
  return DpProblem{{2, 3, 1, 2}, {4, 5, 7, 11}, 16};
}

TEST(ReferenceSolver, OriginIsZero) {
  const auto r = ReferenceSolver().solve(ptas_like_problem());
  EXPECT_EQ(r.table[0], 0);
}

TEST(ReferenceSolver, MatchesBfsOracle) {
  const auto p = ptas_like_problem();
  const auto r = ReferenceSolver().solve(p);
  EXPECT_EQ(r.table, bfs_oracle(p));
}

TEST(ReferenceSolver, SingletonProblem) {
  // One class of weight 4, capacity 16 -> 4 jobs per machine.
  const DpProblem p{{9}, {4}, 16};
  const auto r = ReferenceSolver().solve(p);
  EXPECT_EQ(r.opt, 3);  // ceil(9 / 4)
  for (std::int64_t i = 0; i <= 9; ++i)
    EXPECT_EQ(r.table[static_cast<std::size_t>(i)],
              static_cast<std::int32_t>((i + 3) / 4));
}

TEST(ReferenceSolver, InfeasibleWhenWeightExceedsCapacity) {
  const DpProblem p{{1, 1}, {4, 20}, 16};
  const auto r = ReferenceSolver().solve(p);
  EXPECT_EQ(r.opt, kInfeasible);
  // Cells with the oversized class at zero stay feasible.
  const MixedRadix radix = p.radix();
  EXPECT_EQ(r.table[radix.flatten(std::vector<std::int64_t>{1, 0})], 1);
  EXPECT_EQ(r.table[radix.flatten(std::vector<std::int64_t>{0, 1})],
            kInfeasible);
}

TEST(ReferenceSolver, VolumeLowerBoundAndSingletonUpperBound) {
  const auto p = ptas_like_problem();
  const auto r = ReferenceSolver().solve(p);
  const MixedRadix radix = p.radix();
  for (std::uint64_t id = 0; id < radix.size(); ++id) {
    const auto v = radix.unflatten(id);
    std::int64_t volume = 0, jobs = 0;
    for (std::size_t j = 0; j < v.size(); ++j) {
      volume += v[j] * p.weights[j];
      jobs += v[j];
    }
    const auto lower = static_cast<std::int32_t>(
        util::ceil_div(static_cast<std::uint64_t>(volume),
                       static_cast<std::uint64_t>(p.capacity)));
    ASSERT_NE(r.table[id], kInfeasible);
    EXPECT_GE(r.table[id], lower);
    EXPECT_LE(r.table[id], jobs);
  }
}

TEST(ReferenceSolver, MonotoneInCounts) {
  const auto p = ptas_like_problem();
  const auto r = ReferenceSolver().solve(p);
  const MixedRadix radix = p.radix();
  // Increasing any single coordinate never decreases OPT.
  for (std::uint64_t id = 0; id < radix.size(); ++id) {
    const auto v = radix.unflatten(id);
    for (std::size_t j = 0; j < v.size(); ++j) {
      if (v[j] == 0) continue;
      auto smaller = v;
      --smaller[j];
      EXPECT_LE(r.table[radix.flatten(smaller)], r.table[id]);
    }
  }
}

TEST(DependencyCounts, OriginUnitAndFullCells) {
  const auto p = ptas_like_problem();
  const auto deps = dependency_counts(p);
  const MixedRadix radix = p.radix();
  ASSERT_EQ(deps.size(), radix.size());
  EXPECT_EQ(deps[0], 0u);
  // A cell holding exactly one job of one class has exactly one dependency.
  std::vector<std::int64_t> one(p.counts.size(), 0);
  one[0] = 1;
  EXPECT_EQ(deps[radix.flatten(one)], 1u);
  // The full cell has |C| dependencies (every configuration fits N).
  EXPECT_EQ(deps.back(), ReferenceSolver().solve(p).config_count);
}

// |C_v| by definition: every configuration s tested against every cell v.
std::vector<std::uint32_t> brute_force_counts(const DpProblem& p,
                                              const ConfigSet& configs) {
  const MixedRadix radix = p.radix();
  std::vector<std::uint32_t> counts(radix.size(), 0);
  std::vector<std::int64_t> v(radix.dims());
  for (std::uint64_t id = 0; id < radix.size(); ++id) {
    radix.unflatten(id, v);
    for (std::size_t c = 0; c < configs.size(); ++c)
      counts[id] += configs.fits(c, v) ? 1u : 0u;
  }
  return counts;
}

TEST(DependencyCounts, MatchesBruteForceProperty) {
  // 300 PTAS-shaped problems of up to 7 dimensions and 200 000 cells:
  // capacity k^2, class weights from k - 1 up (some above the capacity, so
  // some classes fit no configuration at all).
  util::Rng rng(2024);
  std::uint64_t largest = 0;
  for (int i = 0; i < 300; ++i) {
    DpProblem p;
    const std::int64_t k = rng.uniform(2, 4);
    p.capacity = k * k;
    const auto dims = static_cast<std::size_t>(rng.uniform(1, 7));
    std::uint64_t cells = 1;
    for (std::size_t j = 0; j < dims; ++j) {
      const std::int64_t room =
          static_cast<std::int64_t>(200'000 / cells) - 1;
      p.counts.push_back(rng.uniform(0, std::clamp<std::int64_t>(room, 0, 14)));
      p.weights.push_back(rng.uniform(k - 1, k * k + 2));
      cells *= static_cast<std::uint64_t>(p.counts.back() + 1);
    }
    const MixedRadix radix = p.radix();
    const ConfigSet configs(p.counts, p.weights, p.capacity, radix);
    ASSERT_EQ(dependency_counts(p, configs), brute_force_counts(p, configs))
        << "problem " << i;
    largest = std::max(largest, radix.size());
  }
  EXPECT_GT(largest, 100'000u);
}

TEST(Solvers, AgreeOnPtasLikeProblem) {
  const auto p = ptas_like_problem();
  const auto ref = ReferenceSolver().solve(p);
  const auto scan = LevelScanSolver().solve(p);
  const auto bucket = LevelBucketSolver().solve(p);
  EXPECT_EQ(ref.table, scan.table);
  EXPECT_EQ(ref.table, bucket.table);
  EXPECT_EQ(ref.opt, scan.opt);
  EXPECT_EQ(ref.opt, bucket.opt);
}

TEST(Solvers, AgreeWithExplicitThreadCounts) {
  const auto p = ptas_like_problem();
  const auto ref = ReferenceSolver().solve(p);
  for (const int threads : {1, 2, 4}) {
    SolveOptions opt;
    opt.num_threads = threads;
    EXPECT_EQ(LevelScanSolver().solve(p, opt).table, ref.table);
    EXPECT_EQ(LevelBucketSolver().solve(p, opt).table, ref.table);
  }
}

struct RandomCase {
  std::uint64_t seed;
  std::size_t dims;
};

class SolverRandomParam : public ::testing::TestWithParam<RandomCase> {};

TEST_P(SolverRandomParam, AllSolversMatchOracle) {
  util::Rng rng(GetParam().seed);
  const std::size_t d = GetParam().dims;
  DpProblem p;
  for (std::size_t i = 0; i < d; ++i) {
    p.counts.push_back(rng.uniform(0, 3));
    p.weights.push_back(rng.uniform(1, 10));
  }
  p.capacity = rng.uniform(5, 20);

  const auto oracle = bfs_oracle(p);
  const auto ref = ReferenceSolver().solve(p);
  const auto scan = LevelScanSolver().solve(p);
  const auto bucket = LevelBucketSolver().solve(p);
  EXPECT_EQ(ref.table, oracle);
  EXPECT_EQ(scan.table, oracle);
  EXPECT_EQ(bucket.table, oracle);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SolverRandomParam,
    ::testing::Values(RandomCase{1, 2}, RandomCase{2, 2}, RandomCase{3, 3},
                      RandomCase{4, 3}, RandomCase{5, 4}, RandomCase{6, 4},
                      RandomCase{7, 5}, RandomCase{8, 5}, RandomCase{9, 6},
                      RandomCase{10, 6}, RandomCase{11, 7},
                      RandomCase{12, 8}));

// A random problem of up to 8 classes whose table stays small enough for the
// BFS oracle. It includes zero counts, d = 1, and in about one case in six a
// class heavier than the capacity.
DpProblem random_problem(std::uint64_t seed) {
  util::Rng rng(seed);
  const auto d = static_cast<std::size_t>(rng.uniform(1, 8));
  const std::int64_t max_count = d <= 4 ? 4 : d <= 6 ? 3 : 2;
  DpProblem p;
  p.capacity = rng.uniform(4, 20);
  for (std::size_t i = 0; i < d; ++i) {
    p.counts.push_back(rng.uniform(0, max_count));
    p.weights.push_back(rng.uniform(1, p.capacity));
  }
  if (rng.uniform(0, 5) == 0)
    p.weights[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(d) - 1))] =
        p.capacity + rng.uniform(1, 5);
  return p;
}

bool every_class_fits(const DpProblem& p) {
  for (std::size_t j = 0; j < p.counts.size(); ++j)
    if (p.counts[j] > 0 && p.weights[j] > p.capacity) return false;
  return true;
}

TEST(SolverProperties, NeighbourSandwichAndOracleAgreement) {
  int sandwiched = 0, overweight = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const DpProblem p = random_problem(seed);
    const auto oracle = bfs_oracle(p);
    ASSERT_EQ(ReferenceSolver().solve(p).table, oracle);
    for (const int threads : {1, 2, 4}) {
      SolveOptions options;
      options.num_threads = threads;
      ASSERT_EQ(LevelBucketSolver().solve(p, options).table, oracle)
          << threads << " threads";
      ASSERT_EQ(LevelScanSolver().solve(p, options).table, oracle)
          << threads << " threads";
    }
    if (!every_class_fits(p)) {
      ++overweight;
      continue;
    }
    ++sandwiched;
    // max_j T[v - e_j] <= T[v] <= min_j T[v - e_j] + 1 on every cell.
    const MixedRadix radix = p.radix();
    for (std::uint64_t id = 1; id < radix.size(); ++id) {
      const auto v = radix.unflatten(id);
      std::int32_t low = 0, high = kInfeasible;
      for (std::size_t j = 0; j < v.size(); ++j) {
        if (v[j] == 0) continue;
        const std::int32_t n = oracle[id - radix.strides()[j]];
        low = std::max(low, n);
        high = std::min(high, n);
      }
      ASSERT_LE(low, oracle[id]) << "cell " << id;
      ASSERT_LE(oracle[id], high + 1) << "cell " << id;
    }
  }
  // Both sides of the fallback were drawn.
  EXPECT_GT(sandwiched, 100);
  EXPECT_GT(overweight, 10);
}

std::uint64_t counter_after_bucket_solve(const DpProblem& p,
                                         std::string_view name) {
  obs::ObsSession session;
  (void)LevelBucketSolver().solve(p);
  return session.metrics().counter(name);
}

TEST(SolverProperties, CellCountersSplitTheTable) {
  const DpProblem p = ptas_like_problem();
  obs::ObsSession session;
  (void)LevelBucketSolver().solve(p);
  (void)LevelScanSolver().solve(p);
  const std::uint64_t bounded = session.metrics().counter("dp.cells_bounded");
  const std::uint64_t scanned = session.metrics().counter("dp.cells_scanned");
  EXPECT_GT(bounded, 0u);
  EXPECT_GT(scanned, 0u);
  EXPECT_EQ(bounded + scanned, 2 * (p.table_size() - 1));
}

TEST(SolverProperties, OverweightClassFallsBackToThePlainScan) {
  // Class 1 (weight 20) cannot go on any machine: e_1 is no configuration,
  // so the neighbour upper bound does not hold and every cell scans.
  const DpProblem p{{2, 1, 3}, {3, 20, 5}, 16};
  const auto oracle = bfs_oracle(p);
  EXPECT_EQ(LevelBucketSolver().solve(p).table, oracle);
  EXPECT_EQ(LevelScanSolver().solve(p).table, oracle);
  EXPECT_EQ(oracle.back(), kInfeasible);
  EXPECT_EQ(counter_after_bucket_solve(p, "dp.cells_bounded"), 0u);
  EXPECT_EQ(counter_after_bucket_solve(p, "dp.cells_scanned"),
            p.table_size() - 1);
  // With no jobs in the heavy class the bound applies again.
  const DpProblem empty_heavy{{2, 0, 3}, {3, 20, 5}, 16};
  EXPECT_EQ(LevelBucketSolver().solve(empty_heavy).table,
            bfs_oracle(empty_heavy));
  EXPECT_GT(counter_after_bucket_solve(empty_heavy, "dp.cells_bounded"), 0u);
}

// The extents of a table of exactly `cells` cells: `cells` split into random
// factors, with up to two zero-count classes (extent 1) mixed in.
std::vector<std::int64_t> random_factors(std::uint64_t cells, util::Rng& rng) {
  std::vector<std::int64_t> extents;
  while (cells > 1) {
    std::vector<std::uint64_t> divisors;
    for (std::uint64_t f = 2; f <= cells; ++f)
      if (cells % f == 0) divisors.push_back(f);
    const std::uint64_t f =
        extents.size() == 7
            ? cells
            : divisors[static_cast<std::size_t>(rng.uniform(
                  0, static_cast<std::int64_t>(divisors.size()) - 1))];
    extents.push_back(static_cast<std::int64_t>(f));
    cells /= f;
  }
  for (std::int64_t n = rng.uniform(0, 2); n > 0; --n) {
    const auto at = rng.uniform(0, static_cast<std::int64_t>(extents.size()));
    extents.insert(extents.begin() + at, 1);
  }
  return extents;
}

// A problem over `extents` with classes that fit at most about six to a
// machine and, in about one case in five, a class heavier than the capacity.
DpProblem problem_over(const std::vector<std::int64_t>& extents,
                       util::Rng& rng) {
  DpProblem p;
  p.capacity = rng.uniform(8, 40);
  for (const std::int64_t e : extents) {
    p.counts.push_back(e - 1);
    p.weights.push_back(rng.uniform(std::max<std::int64_t>(1, p.capacity / 6),
                                    p.capacity));
  }
  if (rng.uniform(0, 4) == 0)
    p.weights[static_cast<std::size_t>(rng.uniform(
        0, static_cast<std::int64_t>(extents.size()) - 1))] =
        p.capacity + rng.uniform(1, 5);
  return p;
}

TEST(SolverProperties, FillsAgreeAcrossTheSerialThreshold) {
  int below = 0, at_or_above = 0, overweight = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    // Three quarters sit on the threshold (-1, 0, +1 cells); the rest are
    // products of small extents up to 2^15 cells.
    std::vector<std::int64_t> extents;
    if (seed % 4 != 0) {
      extents = random_factors(kSerialFillCells - 2 + seed % 4, rng);
    } else {
      const std::int64_t cap = std::int64_t{1} << rng.uniform(2, 15);
      std::int64_t cells = 1;
      for (std::int64_t e = rng.uniform(2, 8); cells * e <= cap;
           e = rng.uniform(2, 8)) {
        extents.push_back(e);
        cells *= e;
      }
      if (extents.empty()) extents.push_back(cap);
    }
    const DpProblem p = problem_over(extents, rng);
    const std::uint64_t cells = p.table_size();
    (cells < kSerialFillCells ? below : at_or_above) += 1;
    overweight += every_class_fits(p) ? 0 : 1;

    const DpResult expected = ReferenceSolver().solve(p);
    std::uint64_t scanned_at_one_thread = 0;
    for (const int threads : {1, 2, 4}) {
      SolveOptions options;
      options.num_threads = threads;
      obs::ObsSession session;
      ASSERT_EQ(LevelBucketSolver().solve(p, options).table, expected.table)
          << threads << " threads";
      const std::uint64_t scanned =
          session.metrics().counter("dp.cells_scanned");
      ASSERT_EQ(scanned + session.metrics().counter("dp.cells_bounded"),
                cells - 1)
          << threads << " threads";
      if (threads == 1) scanned_at_one_thread = scanned;
      ASSERT_EQ(scanned, scanned_at_one_thread) << threads << " threads";
    }
    // Both fills, whichever side of the threshold the table is on.
    const ConfigSet configs(p.counts, p.weights, p.capacity, p.radix());
    ASSERT_EQ(fill_row_major(p, configs).table, expected.table);
    ASSERT_EQ(fill_by_level(p, configs, 3).table, expected.table);
  }
  EXPECT_GT(below, 80);
  EXPECT_GT(at_or_above, 150);
  EXPECT_GT(overweight, 30);
}

TEST(FillLevelBuckets, MatchesTheSolverAndTouchesNoFaultSite) {
  const DpProblem p = ptas_like_problem();
  const MixedRadix radix = p.radix();
  const ConfigSet configs(p.counts, p.weights, p.capacity, radix);
  const DpResult expected = LevelBucketSolver().solve(p);
  // Both sites would fire on their first hit; the fill must hit neither.
  faultsim::ScopedFaultInjector scoped(
      *faultsim::parse_fault_plan("seed=1;host-alloc:nth=1;dp-cell:nth=1"));
  for (const DpResult& filled :
       {fill_level_buckets(p, configs, 1), fill_level_buckets(p, configs, 2),
        fill_row_major(p, configs), fill_by_level(p, configs, 2)}) {
    EXPECT_EQ(filled.table, expected.table);
    EXPECT_EQ(filled.opt, expected.opt);
    EXPECT_EQ(filled.config_count, expected.config_count);
  }
  EXPECT_EQ(scoped.injector().total_fired(), 0u);
}

TEST(Solvers, RejectInvalidProblem) {
  DpProblem bad;
  bad.counts = {2};
  bad.weights = {1, 1};
  bad.capacity = 4;
  EXPECT_THROW((void)ReferenceSolver().solve(bad), util::contract_violation);
}

TEST(Solvers, ConfigCountReported) {
  const DpProblem p{{2}, {4}, 16};
  const auto r = ReferenceSolver().solve(p);
  EXPECT_EQ(r.config_count, 2u);  // s = 1 and s = 2
}

}  // namespace
}  // namespace pcmax::dp
