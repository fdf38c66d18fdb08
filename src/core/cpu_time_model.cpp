#include "core/cpu_time_model.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace pcmax {

util::SimTime estimate_openmp_dp_time(const dp::DpProblem& problem,
                                      std::span<const std::uint32_t> deps,
                                      const CpuModelParams& params) {
  problem.validate();
  PCMAX_EXPECTS(params.threads >= 1);
  const dp::MixedRadix radix = problem.radix();
  PCMAX_EXPECTS(deps.size() == radix.size());

  const dp::LevelBuckets buckets(radix);
  const auto sigma = static_cast<double>(radix.size());
  const auto dims = static_cast<double>(radix.dims());

  // Barriers get more expensive with more participants (tree barrier).
  const double barrier_ns =
      params.barrier_us * 1e3 *
      (1.0 + std::log2(static_cast<double>(params.threads)));

  double total_ns = 0.0;
  for (std::int64_t level = 1; level < buckets.levels(); ++level) {
    const auto cells = buckets.cells_at(level);
    double cell_ns = 0.0;  // work parallelized across the level's cells
    for (const auto id : cells) {
      // Enumerate C_v, then locate each dependency in the table.
      const double cell_deps = deps[id];
      cell_ns += cell_deps * dims * params.enum_ns;
      cell_ns += cell_deps * (sigma / 2.0) * params.search_ns;
    }
    // The per-level table scan splits over all threads; the per-cell work
    // cannot use more threads than the level has cells.
    const double cell_threads = std::min<double>(
        params.threads, static_cast<double>(cells.size()));
    total_ns += sigma * params.scan_ns / params.threads +
                cell_ns / cell_threads + barrier_ns;
  }
  return util::SimTime::from_ns(total_ns);
}

}  // namespace pcmax
