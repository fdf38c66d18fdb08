#include "partition/block_solver.hpp"

#include <omp.h>

#include <vector>

#include "dp/config.hpp"
#include "faultsim/injector.hpp"
#include "partition/blocked_layout.hpp"
#include "partition/divisor.hpp"
#include "util/contracts.hpp"

namespace pcmax::partition {

namespace {

/// Per-block worker: fills every cell of `block_id`, walking in-block
/// anti-diagonal levels in order. The blocked table is shared but each block
/// writes only its own contiguous region; reads may touch earlier blocks,
/// which are complete because block-levels are processed in order.
class BlockWorker {
 public:
  BlockWorker(const BlockedLayout& layout, const dp::ConfigSet& configs,
              const dp::LevelBuckets& in_block_buckets,
              std::span<std::int32_t> blocked_table)
      : layout_(layout),
        configs_(configs),
        in_block_buckets_(in_block_buckets),
        blocked_table_(blocked_table) {}

  void run(std::uint64_t block_id) {
    const auto dims = layout_.table_radix().dims();
    std::int64_t bcoords[64], lcoords[64], cell[64], sub[64];
    layout_.grid().unflatten(block_id,
                             std::span<std::int64_t>(bcoords, dims));
    const auto& bs = layout_.block().extents();
    const std::uint64_t base = block_id * layout_.cells_per_block();

    for (std::int64_t lvl = 0; lvl < in_block_buckets_.levels(); ++lvl) {
      for (const auto local_id : in_block_buckets_.cells_at(lvl)) {
        if (base + local_id == 0) continue;  // origin is pinned to 0
        layout_.block().unflatten(local_id,
                                  std::span<std::int64_t>(lcoords, dims));
        std::int64_t level = 0;
        for (std::size_t i = 0; i < dims; ++i) {
          cell[i] = bcoords[i] * bs[i] + lcoords[i];
          level += cell[i];
        }
        const std::span<const std::int64_t> v(cell, dims);
        std::int32_t best = dp::kInfeasible;
        const std::int32_t floor_best =
            dp::level_floor_best(level, configs_.max_level_drop());
        configs_.for_each_fitting(v, level, [&](std::size_t c) {
          const auto s = configs_.config(c);
          for (std::size_t i = 0; i < dims; ++i) sub[i] = cell[i] - s[i];
          const std::int32_t val = blocked_table_[layout_.blocked_offset(
              std::span<const std::int64_t>(sub, dims))];
          if (val < best) best = val;
          return best > floor_best;
        });
        blocked_table_[base + local_id] =
            best == dp::kInfeasible ? dp::kInfeasible : best + 1;
      }
    }
  }

 private:
  const BlockedLayout& layout_;
  const dp::ConfigSet& configs_;
  const dp::LevelBuckets& in_block_buckets_;
  std::span<std::int32_t> blocked_table_;
};

}  // namespace

dp::DpResult BlockedSolver::solve(const dp::DpProblem& problem,
                                  const dp::SolveOptions& options) const {
  problem.validate();
  const dp::MixedRadix radix = problem.radix();
  PCMAX_EXPECTS(radix.dims() <= 64);

  const BlockedLayout layout(
      radix, compute_divisor(radix.extents(), partition_dims_));
  const dp::ConfigSet configs(problem.counts, problem.weights,
                              problem.capacity, radix);
  const dp::LevelBuckets block_buckets(layout.grid());
  const dp::LevelBuckets in_block_buckets(layout.block());

  dp::DpResult result;
  result.config_count = configs.size();
  faultsim::check_host_alloc(2 * radix.size() * sizeof(std::int32_t));
  std::vector<std::int32_t> blocked(radix.size(), dp::kInfeasible);
  blocked[0] = 0;

  BlockWorker worker(layout, configs, in_block_buckets, blocked);
  const int threads =
      options.num_threads > 0 ? options.num_threads : omp_get_max_threads();
  for (std::int64_t lvl = 0; lvl < block_buckets.levels(); ++lvl) {
    const auto blocks = block_buckets.cells_at(lvl);
#pragma omp parallel for num_threads(threads) schedule(dynamic, 1)
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(blocks.size());
         ++i)
      worker.run(blocks[static_cast<std::size_t>(i)]);
  }

  // Convert the blocked table back to row-major for the caller.
  result.table.assign(radix.size(), dp::kInfeasible);
  std::int64_t coords[64];
  std::span<std::int64_t> c(coords, radix.dims());
  for (std::uint64_t id = 0; id < radix.size(); ++id) {
    radix.unflatten(id, c);
    result.table[id] = blocked[layout.blocked_offset(c)];
  }
  result.opt = result.table.back();
  faultsim::maybe_corrupt_table(result.table, result.opt);
  return result;
}

}  // namespace pcmax::partition
