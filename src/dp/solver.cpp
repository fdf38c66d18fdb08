#include "dp/solver.hpp"

#include <algorithm>

#include <omp.h>

#include "faultsim/injector.hpp"
#include "obs/metrics.hpp"
#include "util/contracts.hpp"

namespace pcmax::dp {

namespace {

/// Equation (1) for one cell by the plain scan over every fitting
/// configuration, stopping once the cell reaches its level floor. The
/// ReferenceSolver's kernel, and the level solvers' when some class with
/// jobs is heavier than the capacity.
std::int32_t solve_cell(const ConfigSet& configs,
                        std::span<const std::int64_t> v, std::int64_t level,
                        std::uint64_t id,
                        std::span<const std::int32_t> table) noexcept {
  std::int32_t best = kInfeasible;
  const std::int32_t floor_best =
      level_floor_best(level, configs.max_level_drop());
  configs.for_each_fitting(v, level, [&](std::size_t c) noexcept {
    const std::int32_t sub = table[id - configs.delta(c)];
    if (sub < best) best = sub;
    return best > floor_best;
  });
  return best == kInfeasible ? kInfeasible : best + 1;
}

/// Equation (1) for one cell, narrowed first by its unit-vector neighbours
/// n_j = T[v - e_j], which lie one level down and are final. OPT is
/// monotone and every e_j is a configuration, so
///   max_j n_j <= OPT(v) <= min_j n_j + 1.
/// When the neighbours differ the cell is their maximum; when they all equal
/// L the cell is L exactly if some fitting configuration s has
/// T[v - s] = L - 1, and L + 1 otherwise. Requires every class with a
/// nonzero count to fit the capacity on its own. Returns the cell's value
/// and adds 1 to `scans` when it had to scan configurations.
std::int32_t sandwiched_cell(const ConfigSet& configs,
                             std::span<const std::uint64_t> strides,
                             std::span<const std::int64_t> v,
                             std::int64_t level, std::uint64_t id,
                             std::span<const std::int32_t> table,
                             std::uint64_t& scans) noexcept {
  std::int32_t low = 0;
  std::int32_t high = kInfeasible;
  for (std::size_t j = 0; j < v.size(); ++j) {
    if (v[j] == 0) continue;
    const std::int32_t n = table[id - strides[j]];
    low = std::max(low, n);
    high = std::min(high, n);
  }
  if (low > high) return low;
  // All neighbours equal `low`; the level floor may already rule out `low`.
  if (level_floor_best(level, configs.max_level_drop()) >= low) return low + 1;
  ++scans;
  bool reached = false;
  configs.for_each_fitting(v, level, [&](std::size_t c) noexcept {
    reached = table[id - configs.delta(c)] < low;
    return !reached;
  });
  return reached ? low : low + 1;
}

/// Shared per-solve state so the three solvers differ only in their
/// iteration strategy. Passes no fault site; solve_with_fault_sites and the
/// GPU engine place those around it.
struct SolveContext {
  MixedRadix radix;
  const ConfigSet& configs;
  DpResult result;
  /// Whether fill_cell may use sandwiched_cell: every class with jobs fits
  /// the capacity on its own.
  bool sandwich = true;

  SolveContext(const DpProblem& problem, const ConfigSet& config_set)
      : radix(problem.radix()), configs(config_set) {
    // Solvers keep coordinates in fixed stack buffers inside hot loops.
    PCMAX_EXPECTS(radix.dims() <= 64);
    result.table.assign(radix.size(), kInfeasible);
    result.table[0] = 0;
    result.config_count = configs.size();
    for (std::size_t j = 0; j < problem.counts.size(); ++j)
      if (problem.counts[j] > 0 && problem.weights[j] > problem.capacity)
        sandwich = false;
  }

  /// The cell kernel of the level solvers: the neighbour sandwich when it
  /// applies, the plain Equation (1) scan otherwise. Adds 1 to `scans` for
  /// every cell that scanned configurations.
  void fill_cell(std::span<const std::int64_t> v, std::int64_t level,
                 std::uint64_t id, std::uint64_t& scans) noexcept {
    if (sandwich) {
      result.table[id] = sandwiched_cell(configs, radix.strides(), v, level,
                                         id, result.table, scans);
      return;
    }
    ++scans;
    result.table[id] = solve_cell(configs, v, level, id, result.table);
  }

  /// Reports how the level solvers filled the table; once per solve, never
  /// from the cell loop.
  void count_cells(std::uint64_t scans) const {
    obs::count("dp.cells_scanned", scans);
    obs::count("dp.cells_bounded", radix.size() - 1 - scans);
  }
};

int resolve_threads(int num_threads) {
  return num_threads > 0 ? num_threads : omp_get_max_threads();
}

/// The cells after the origin in row-major order on the calling thread; the
/// odometer carries each cell's coordinates and level. Returns the cells
/// that scanned configurations.
std::uint64_t row_major(SolveContext& ctx) {
  std::int64_t coords[64] = {};
  const std::span<std::int64_t> v(coords, ctx.radix.dims());
  std::int64_t level = 0;
  std::uint64_t scans = 0;
  for (std::uint64_t id = 1; id < ctx.radix.size(); ++id) {
    level += ctx.radix.advance(v);
    ctx.fill_cell(v, level, id, scans);
  }
  return scans;
}

/// The cells level by level in one team of `threads` OpenMP threads; the
/// implicit barrier of each `omp for` finishes a level before any thread
/// starts the next. Returns the cells that scanned configurations.
std::uint64_t by_level(SolveContext& ctx, int threads) {
  const LevelBuckets buckets(ctx.radix);
  std::uint64_t scans = 0;
#pragma omp parallel num_threads(threads) reduction(+ : scans)
  {
    std::int64_t coords[64];
    const std::span<std::int64_t> v(coords, ctx.radix.dims());
    for (std::int64_t level = 1; level < buckets.levels(); ++level) {
      const auto cells = buckets.cells_at(level);
#pragma omp for schedule(dynamic, 64)
      for (std::int64_t i = 0; i < static_cast<std::int64_t>(cells.size());
           ++i) {
        const std::uint64_t id = cells[static_cast<std::size_t>(i)];
        ctx.radix.unflatten(id, v);
        ctx.fill_cell(v, level, id, scans);
      }
    }
  }
  return scans;
}

DpResult finish_fill(SolveContext& ctx, std::uint64_t scans) {
  ctx.count_cells(scans);
  ctx.result.opt = ctx.result.table.back();
  return std::move(ctx.result);
}

/// DpSolver::solve around a fill: validate, enumerate the configurations,
/// hit host-alloc for the table, fill(configs), then hit dp-finalize.
template <typename Fill>
DpResult solve_with_fault_sites(const DpProblem& problem, Fill&& fill) {
  problem.validate();
  const MixedRadix radix = problem.radix();
  const ConfigSet configs(problem.counts, problem.weights, problem.capacity,
                          radix);
  faultsim::check_host_alloc(radix.size() * sizeof(std::int32_t));
  DpResult result = fill(configs);
  result.opt = result.table.back();
  faultsim::maybe_corrupt_table(result.table, result.opt);
  return result;
}

}  // namespace

std::vector<std::uint32_t> dependency_counts(const DpProblem& problem,
                                             const ConfigSet& configs) {
  const MixedRadix radix = problem.radix();
  PCMAX_EXPECTS(configs.dims() == radix.dims());
  std::vector<std::uint32_t> counts(radix.size(), 0);
  // C's indicator: a configuration's index delta is its own row-major index.
  for (std::size_t c = 0; c < configs.size(); ++c) ++counts[configs.delta(c)];
  // A running sum along each dimension in turn leaves #{s in C : s <= v}.
  for (std::size_t j = 0; j < radix.dims(); ++j) {
    const std::uint64_t stride = radix.strides()[j];
    const std::uint64_t sweep =
        stride * static_cast<std::uint64_t>(radix.extents()[j]);
    for (std::uint64_t base = 0; base < radix.size(); base += sweep)
      for (std::uint64_t id = base + stride; id < base + sweep; ++id)
        counts[id] += counts[id - stride];
  }
  return counts;
}

std::vector<std::uint32_t> dependency_counts(const DpProblem& problem) {
  return dependency_counts(problem, ConfigSet(problem.counts, problem.weights,
                                              problem.capacity,
                                              problem.radix()));
}

DpResult ReferenceSolver::solve(const DpProblem& problem,
                                const SolveOptions& /*options*/) const {
  return solve_with_fault_sites(problem, [&](const ConfigSet& configs) {
    SolveContext ctx(problem, configs);
    const LevelBuckets buckets(ctx.radix);
    std::vector<std::int64_t> v(ctx.radix.dims());
    for (std::int64_t level = 1; level < buckets.levels(); ++level) {
      for (const std::uint64_t id : buckets.cells_at(level)) {
        ctx.radix.unflatten(id, v);
        ctx.result.table[id] =
            solve_cell(configs, v, level, id, ctx.result.table);
      }
    }
    return std::move(ctx.result);
  });
}

DpResult LevelScanSolver::solve(const DpProblem& problem,
                                const SolveOptions& options) const {
  return solve_with_fault_sites(problem, [&](const ConfigSet& configs) {
    SolveContext ctx(problem, configs);
    const auto size = ctx.radix.size();
    const std::int64_t levels = ctx.radix.max_level();
    const int threads = resolve_threads(options.num_threads);
    // Algorithm 2, lines 10-25: one sequential pass per anti-diagonal level,
    // each pass scanning the entire table in parallel.
    std::uint64_t scans = 0;
    for (std::int64_t level = 1; level <= levels; ++level) {
#pragma omp parallel for num_threads(threads) schedule(static) \
    firstprivate(level) reduction(+ : scans)
      for (std::int64_t signed_id = 1;
           signed_id < static_cast<std::int64_t>(size); ++signed_id) {
        const auto id = static_cast<std::uint64_t>(signed_id);
        std::int64_t coords[64];
        std::span<std::int64_t> v(coords, ctx.radix.dims());
        ctx.radix.unflatten(id, v);
        std::int64_t d = 0;
        for (const auto x : v) d += x;
        if (d != level) continue;
        ctx.fill_cell(v, level, id, scans);
      }
    }
    ctx.count_cells(scans);
    return std::move(ctx.result);
  });
}

DpResult fill_row_major(const DpProblem& problem, const ConfigSet& configs) {
  SolveContext ctx(problem, configs);
  return finish_fill(ctx, row_major(ctx));
}

DpResult fill_by_level(const DpProblem& problem, const ConfigSet& configs,
                       int num_threads) {
  SolveContext ctx(problem, configs);
  return finish_fill(ctx, by_level(ctx, resolve_threads(num_threads)));
}

DpResult fill_level_buckets(const DpProblem& problem,
                            const ConfigSet& configs, int num_threads) {
  SolveContext ctx(problem, configs);
  if (ctx.radix.size() < kSerialFillCells)
    return finish_fill(ctx, row_major(ctx));
  const int threads = resolve_threads(num_threads);
  return finish_fill(ctx,
                     threads == 1 ? row_major(ctx) : by_level(ctx, threads));
}

DpResult LevelBucketSolver::solve(const DpProblem& problem,
                                  const SolveOptions& options) const {
  return solve_with_fault_sites(problem, [&](const ConfigSet& configs) {
    return fill_level_buckets(problem, configs, options.num_threads);
  });
}

}  // namespace pcmax::dp
