// Block-wavefront DP solver: the CPU realization of the paper's
// data-partitioning scheme (Algorithms 4 and 5).
//
// The table is stored in blocked layout. Block-levels (sum of block
// coordinates) are processed sequentially; blocks within a block-level are
// independent and run in parallel; inside a block, in-block anti-diagonal
// levels run sequentially with all cells of a level independent. Dependencies
// of a cell live either in the same block at a strictly lower in-block level
// or in a block of a strictly lower block-level, so this order is safe.
// gpu::GpuDpSolver charges its simulated kernels by walking the same order.
#pragma once

#include <cstdint>
#include <string>

#include "dp/solver.hpp"

namespace pcmax::partition {

class BlockedSolver final : public dp::DpSolver {
 public:
  /// `partition_dims` is the number of dimensions the divisor keeps
  /// (GPU-DIM3 ... GPU-DIM9 in the paper).
  explicit BlockedSolver(std::size_t partition_dims)
      : partition_dims_(partition_dims) {}

  using DpSolver::solve;
  [[nodiscard]] dp::DpResult solve(
      const dp::DpProblem& problem,
      const dp::SolveOptions& options) const override;
  [[nodiscard]] std::string name() const override {
    return "blocked-dim" + std::to_string(partition_dims_);
  }

  [[nodiscard]] std::size_t partition_dims() const noexcept {
    return partition_dims_;
  }

 private:
  std::size_t partition_dims_;
};

}  // namespace pcmax::partition
