// Solver interface for the higher-dimensional DP. Several interchangeable
// implementations exist (reference oracle, Algorithm-2 level scan, bucketed
// OpenMP, blocked/partitioned, GPU-simulated); all must produce identical
// tables. The per-cell dependency counts that drive the deterministic
// CPU/GPU cost models come from dependency_counts, not from a solve.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "dp/config.hpp"
#include "dp/problem.hpp"

namespace pcmax::dp {

/// Sentinel for a cell no machine configuration can reach (only possible
/// when some class weight exceeds the capacity).
inline constexpr std::int32_t kInfeasible =
    std::numeric_limits<std::int32_t>::max();

struct SolveOptions {
  /// Most OpenMP threads a solve may use; 0 means the runtime default. The
  /// level solvers fill tables smaller than kSerialFillCells on the calling
  /// thread whatever this says.
  int num_threads = 0;
};

/// Tables with fewer cells than this are filled on the calling thread: on
/// the PTAS's smaller tables an OpenMP team costs at least what it saves
/// (bench_micro's BM_FillSweep and a replay of small-mix's DP calls,
/// docs/PERFORMANCE.md section 7).
inline constexpr std::uint64_t kSerialFillCells = 2048;

struct DpResult {
  /// OPT(N): minimum machine count, or kInfeasible.
  std::int32_t opt = kInfeasible;
  /// Full DP table, row-major; table.back() == opt.
  std::vector<std::int32_t> table;
  /// |C|: size of the global configuration set.
  std::uint64_t config_count = 0;
};

class DpSolver {
 public:
  virtual ~DpSolver() = default;

  /// Fills the whole DP table for `problem`. Implementations must be
  /// deterministic: same problem, same result, regardless of thread count.
  [[nodiscard]] virtual DpResult solve(const DpProblem& problem,
                                       const SolveOptions& options) const = 0;

  [[nodiscard]] DpResult solve(const DpProblem& problem) const {
    return solve(problem, SolveOptions{});
  }

  /// Human-readable solver name for logs and bench output.
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Obviously-correct single-threaded oracle: iterates cells in level order
/// via LevelBuckets and applies Equation (1) directly.
class ReferenceSolver final : public DpSolver {
 public:
  using DpSolver::solve;
  [[nodiscard]] DpResult solve(const DpProblem& problem,
                               const SolveOptions& options) const override;
  [[nodiscard]] std::string name() const override { return "reference"; }
};

/// Paper-faithful Algorithm 2: for every anti-diagonal level l, scan all
/// sigma cells (in parallel) and compute those whose level equals l. The
/// full-table scan per level is deliberate — it is the OpenMP baseline the
/// paper compares against.
class LevelScanSolver final : public DpSolver {
 public:
  using DpSolver::solve;
  [[nodiscard]] DpResult solve(const DpProblem& problem,
                               const SolveOptions& options) const override;
  [[nodiscard]] std::string name() const override { return "level-scan"; }
};

/// Optimized solver over fill_level_buckets: small tables in row-major order
/// on the calling thread, larger ones level by level in one OpenMP region.
class LevelBucketSolver final : public DpSolver {
 public:
  using DpSolver::solve;
  [[nodiscard]] DpResult solve(const DpProblem& problem,
                               const SolveOptions& options) const override;
  [[nodiscard]] std::string name() const override { return "level-bucket"; }
};

/// LevelBucketSolver's fill over `configs`, the configuration set the
/// caller enumerated for `problem`, on at most `num_threads` threads (0: the
/// OpenMP default). A table smaller than kSerialFillCells, or a one-thread
/// fill, runs fill_row_major; any other runs fill_by_level. Unlike
/// DpSolver::solve it hits no fault site: gpu::GpuDpSolver places
/// host-alloc before its device calls and dp-finalize after them.
[[nodiscard]] DpResult fill_level_buckets(const DpProblem& problem,
                                          const ConfigSet& configs,
                                          int num_threads);

/// The two fills fill_level_buckets chooses between, exposed so that
/// bench_micro can time both on one table and tests can compare them.
/// fill_row_major visits the cells on the calling thread in row-major order,
/// a topological order of Equation (1): every v - s precedes v.
/// fill_by_level opens one OpenMP region of `num_threads` threads (0: the
/// default) and shares each anti-diagonal level among them; the levels run
/// in order, with a barrier between two.
[[nodiscard]] DpResult fill_row_major(const DpProblem& problem,
                                      const ConfigSet& configs);
[[nodiscard]] DpResult fill_by_level(const DpProblem& problem,
                                     const ConfigSet& configs,
                                     int num_threads);

/// |C_v| = #{s in C : s <= v} for every cell v, row-major: the
/// configurations Equation (1) reduces over at v, which the GPU and OpenMP
/// cost models charge. Table values take no part, so it is the
/// d-dimensional prefix sum of C's indicator: one scatter pass plus one
/// running-sum pass per dimension. `configs` must be `problem`'s set.
[[nodiscard]] std::vector<std::uint32_t> dependency_counts(
    const DpProblem& problem, const ConfigSet& configs);
[[nodiscard]] std::vector<std::uint32_t> dependency_counts(
    const DpProblem& problem);

/// The smallest value `best` (the minimum over sub-configuration OPTs) can
/// take for a cell at `level`: every machine removes at most max_drop jobs,
/// so the cell's final value best + 1 is at least ceil(level / max_drop).
/// The plain scan stops there; the level solvers' neighbour bound uses
/// it to settle a cell whose equal neighbours all sit at this floor without
/// scanning. Exposed for the engines that run their own reduction loop over
/// ConfigSet::for_each_fitting (blocked, frontier, executable GPU).
[[nodiscard]] constexpr std::int32_t level_floor_best(
    std::int64_t level, std::int64_t max_drop) noexcept {
  if (max_drop <= 0) return kInfeasible;
  return static_cast<std::int32_t>((level + max_drop - 1) / max_drop) - 1;
}

}  // namespace pcmax::dp
