// Solver interface for the higher-dimensional DP. Several interchangeable
// implementations exist (reference oracle, Algorithm-2 level scan, bucketed
// OpenMP, blocked/partitioned, GPU-simulated); all must produce identical
// tables. Solvers optionally collect per-cell dependency counts, which drive
// the deterministic CPU/GPU cost models.
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
  /// Record per-cell dependency counts |C_v| in DpResult::deps.
  bool collect_deps = false;
  /// OpenMP thread count; 0 uses the runtime default.
  int num_threads = 0;
};

struct DpResult {
  /// OPT(N): minimum machine count, or kInfeasible.
  std::int32_t opt = kInfeasible;
  /// Full DP table, row-major; table.back() == opt.
  std::vector<std::int32_t> table;
  /// Per-cell |C_v| (valid sub-configuration count); empty unless
  /// SolveOptions::collect_deps was set. deps[0] corresponds to cell 0,
  /// whose value is its |C_v| even though the origin's OPT is fixed to 0.
  std::vector<std::uint32_t> deps;
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

/// Optimized level-synchronous solver: cells are pre-bucketed by level and
/// each bucket is processed with an OpenMP parallel-for.
class LevelBucketSolver final : public DpSolver {
 public:
  using DpSolver::solve;
  [[nodiscard]] DpResult solve(const DpProblem& problem,
                               const SolveOptions& options) const override;
  [[nodiscard]] std::string name() const override { return "level-bucket"; }
};

/// Computes one cell's OPT given the already-filled prefix of the table by
/// the plain Equation (1) scan over every fitting configuration.
/// `level` must be the cell's anti-diagonal level (coordinate sum of `v`).
/// Returns the OPT value for the cell and (optionally) counts dependencies.
/// When dep_count is null the scan stops early once the cell provably
/// reached its level lower bound ceil(level / max_level_drop); with
/// dep_count set every fitting configuration is visited so |C_v| is exact.
/// ReferenceSolver always uses it. LevelScanSolver and LevelBucketSolver use
/// it only when collecting dependencies or when some class with jobs is
/// heavier than the capacity; otherwise they first bound the cell by its
/// unit-vector neighbours, max_j T[v - e_j] <= OPT(v) <= min_j T[v - e_j] + 1,
/// and scan only when all neighbours are equal (docs/PERFORMANCE.md, §5).
/// Both paths give the same value for every cell.
[[nodiscard]] std::int32_t solve_cell(const ConfigSet& configs,
                                      std::span<const std::int64_t> v,
                                      std::int64_t level, std::uint64_t id,
                                      std::span<const std::int32_t> table,
                                      std::uint32_t* dep_count) noexcept;

/// The smallest value `best` (the minimum over sub-configuration OPTs) can
/// take for a cell at `level`: every machine removes at most max_drop jobs,
/// so the cell's final value best + 1 is at least ceil(level / max_drop).
/// solve_cell stops its scan there; the level solvers' neighbour bound uses
/// it to settle a cell whose equal neighbours all sit at this floor without
/// scanning. Exposed for the engines that run their own reduction loop over
/// ConfigSet::for_each_fitting (blocked, frontier, executable GPU).
[[nodiscard]] constexpr std::int32_t level_floor_best(
    std::int64_t level, std::int64_t max_drop) noexcept {
  if (max_drop <= 0) return kInfeasible;
  return static_cast<std::int32_t>((level + max_drop - 1) / max_drop) - 1;
}

}  // namespace pcmax::dp
