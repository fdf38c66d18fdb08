// The GPU implementation of the higher-dimensional DP (Algorithms 4 and 5),
// executed on the simulated device.
//
// The real table values come from the level solvers' fill (bit identical
// to every CPU solver); walk_wavefront replays the block-wavefront order
// and drives the gpusim::Device: per in-block anti-diagonal level of each
// block it launches the FindOPT parent kernel plus the FindValidSub /
// SetOPT child kernels, each charged per the structural formulas of
// gpu/charge.hpp from cell coordinates and dp::dependency_counts. Blocks of
// one block-level are distributed cyclically over `stream_count` Hyper-Q
// streams (Algorithm 4 line 31); a device synchronization separates
// block-levels (the wavefront barrier).
//
// Device memory is accounted for the lifetime of a solve: the blocked
// DP-table plus per-block candidate scratch sized by the deepest in-flight
// blocks — the memory saving the data-partitioning scheme exists for.
#pragma once

#include <span>
#include <vector>

#include "dp/solver.hpp"
#include "gpu/charge.hpp"
#include "gpusim/device.hpp"
#include "gpusim/topology.hpp"
#include "partition/blocked_layout.hpp"
#include "placement/strategy.hpp"
#include "recover/recovery.hpp"

namespace pcmax::gpu {

/// Receives the block wavefront of one GPU solve; the engine's single- and
/// multi-device chargers implement it.
class WavefrontObserver {
 public:
  virtual ~WavefrontObserver() = default;
  virtual void on_solve_begin(const partition::BlockedLayout& layout,
                              std::uint64_t config_count) = 0;
  virtual void on_block_level(std::int64_t level,
                              std::span<const std::uint64_t> blocks) = 0;
  /// The work of one in-block anti-diagonal level of `block_id`: its cells,
  /// their sub-configuration candidates prod(v_i + 1) and their dependency
  /// counts |C_v|.
  virtual void on_in_block_level(std::uint64_t block_id,
                                 std::int64_t in_level,
                                 const LevelWork& work) = 0;
  virtual void on_solve_end() = 0;
};

/// Reports every in-block level's work to `observer` in block-wavefront
/// order: block-levels in turn, each level's blocks by id, each block's
/// in-block levels in turn. `deps` are the table's row-major
/// dp::dependency_counts and `config_count` is |C|.
void walk_wavefront(const partition::BlockedLayout& layout,
                    std::span<const std::uint32_t> deps,
                    std::uint64_t config_count, WavefrontObserver& observer);

/// How blocks of one block-level are assigned to streams.
enum class StreamPolicy {
  /// Algorithm 4 line 31: block i of the level goes to stream i mod S.
  kCyclic,
  /// Contiguous chunks of the level's blocks per stream. Included as an
  /// ablation: it serializes neighbouring (similarly-sized) blocks on one
  /// stream and balances worse than the paper's cyclic distribution.
  kChunked,
};

class GpuDpSolver final : public dp::DpSolver {
 public:
  /// `device` must outlive the solver. `partition_dims` selects GPU-DIMx.
  GpuDpSolver(gpusim::Device& device, std::size_t partition_dims,
              int stream_count = 4,
              StreamPolicy stream_policy = StreamPolicy::kCyclic);

  /// Multi-device variant: blocks are mapped onto `topology`'s devices by
  /// `placement`, each block's kernels run on its placed device, and
  /// cross-device dependent-sub-configuration reads are charged as
  /// interconnect transfers before each block-level barrier. Results are
  /// bit-identical to the single-device solver — only the charged time and
  /// per-device memory differ. A one-device topology takes the exact
  /// single-device path on device 0 (no placement, no transfer scans).
  ///
  /// `recovery` (off by default) enables checkpointed device-loss recovery:
  /// every `checkpoint_every` wavefront barriers the solve mirrors freshly
  /// computed blocks onto buddy devices, and a device lost mid-solve is
  /// survived by re-placing its blocks over the survivors, restoring the
  /// frontier from mirrors, and re-charging post-checkpoint work — the
  /// result stays bit-identical to a fault-free run. When recovery is
  /// impossible (alive devices < min_devices, or the mirrors died too) the
  /// solve throws a typed StatusError(kDeviceLost).
  GpuDpSolver(gpusim::Topology& topology, std::size_t partition_dims,
              int stream_count = 4,
              StreamPolicy stream_policy = StreamPolicy::kCyclic,
              placement::PlacementKind placement =
                  placement::PlacementKind::kLevelContiguous,
              recover::RecoveryOptions recovery = {});

  using DpSolver::solve;
  /// Fills the table on the calling thread whatever options.num_threads
  /// says: the engine's parallelism is the simulated device's, and a
  /// served request must not start an OpenMP team.
  [[nodiscard]] dp::DpResult solve(
      const dp::DpProblem& problem,
      const dp::SolveOptions& options) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] std::size_t partition_dims() const noexcept {
    return partition_dims_;
  }
  /// Simulated time the most recent solve() spent on the device(s).
  [[nodiscard]] util::SimTime last_solve_time() const noexcept {
    return last_solve_time_;
  }
  /// Peak device memory of the most recent solve(); under a multi-device
  /// topology, the maximum over the per-device peaks.
  [[nodiscard]] std::uint64_t last_peak_memory() const noexcept {
    return last_peak_memory_;
  }
  /// Per-device peak memory of the most recent solve(); one entry (the
  /// device's peak) in single-device mode.
  [[nodiscard]] std::span<const std::uint64_t> last_device_peaks()
      const noexcept {
    return last_device_peaks_;
  }

 private:
  gpusim::Device* device_;               // single-device path target
  gpusim::Topology* topology_ = nullptr; // null outside topology mode
  std::size_t partition_dims_;
  int stream_count_;
  StreamPolicy stream_policy_;
  placement::PlacementKind placement_ =
      placement::PlacementKind::kLevelContiguous;
  recover::RecoveryOptions recovery_;
  mutable util::SimTime last_solve_time_;
  mutable std::uint64_t last_peak_memory_ = 0;
  mutable std::vector<std::uint64_t> last_device_peaks_;
};

/// The strawman direct port of the OpenMP implementation (Section III): one
/// kernel per anti-diagonal level of the *unpartitioned* table, SetOPT
/// searching the entire DP-table, a single stream, and candidate scratch
/// sized at table scope. Exists to reproduce the paper's "about a hundred
/// times slower than OpenMP" observation.
class NaiveGpuDpSolver final : public dp::DpSolver {
 public:
  explicit NaiveGpuDpSolver(gpusim::Device& device);

  using DpSolver::solve;
  [[nodiscard]] dp::DpResult solve(
      const dp::DpProblem& problem,
      const dp::SolveOptions& options) const override;
  [[nodiscard]] std::string name() const override { return "gpu-naive"; }

  [[nodiscard]] util::SimTime last_solve_time() const noexcept {
    return last_solve_time_;
  }

 private:
  gpusim::Device& device_;
  mutable util::SimTime last_solve_time_;
};

}  // namespace pcmax::gpu
