#include "gpu/gpu_dp_solver.hpp"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "core/status.hpp"
#include "dp/config.hpp"
#include "faultsim/injector.hpp"
#include "gpu/resident.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "partition/divisor.hpp"
#include "recover/recovery.hpp"
#include "util/checked_math.hpp"
#include "util/contracts.hpp"

namespace pcmax::gpu {

namespace {

constexpr std::uint64_t kNaiveSegmentBytes = 128;
constexpr std::uint64_t kNaiveDivergence = 8;

/// Launches one in-block level's kernels on `stream`: the FindOPT parent and
/// the FindValidSub / SetOPT children it spawns, when they have threads.
void launch_level(gpusim::Device& device, int stream, const LevelWork& work,
                  const ChargeParams& params) {
  device.launch_estimated(stream, "FindOPT", charge_find_opt(work, params));
  if (work.candidates > 0)
    device.launch_accounted(stream, "FindValidSub",
                            charge_find_valid_sub(work, params));
  if (work.deps > 0)
    device.launch_accounted(stream, "SetOPT", charge_set_opt(work, params));
}

/// Drives the device along the block wavefront.
class ChargingObserver final : public WavefrontObserver {
 public:
  ChargingObserver(gpusim::Device& device, int stream_count,
                   StreamPolicy stream_policy)
      : device_(device),
        stream_count_(stream_count),
        stream_policy_(stream_policy) {}

  void on_solve_begin(const partition::BlockedLayout& layout,
                      std::uint64_t config_count) override {
    params_.dims = layout.table_radix().dims();
    params_.search_cells = layout.cells_per_block();
    // Persistent allocations for the whole solve: the blocked DP-table and
    // the configuration set (Algorithm 4 line 11).
    table_ = device_.allocate(
        util::checked_mul(layout.table_radix().size(), 4));
    configs_ = device_.allocate(
        util::checked_mul(util::checked_mul(config_count, params_.dims), 8));
    peak_ = device_.memory_in_use();
    first_level_ = true;
  }

  void on_block_level(std::int64_t /*level*/,
                      std::span<const std::uint64_t> blocks) override {
    // Wavefront barrier between block-levels (Algorithm 4 lines 29-31).
    if (!first_level_) device_.synchronize();
    first_level_ = false;
    // Distribute the level's blocks over the streams: cyclic (Algorithm 4
    // line 31) or contiguous chunks (ablation).
    stream_of_.clear();
    const auto streams = static_cast<std::size_t>(stream_count_);
    const std::size_t chunk =
        (blocks.size() + streams - 1) / std::max<std::size_t>(1, streams);
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      const std::size_t stream = stream_policy_ == StreamPolicy::kCyclic
                                     ? i % streams
                                     : i / std::max<std::size_t>(1, chunk);
      stream_of_[blocks[i]] = static_cast<int>(stream);
    }
  }

  void on_in_block_level(std::uint64_t block_id, std::int64_t /*in_level*/,
                         const LevelWork& work) override {
    if (work.cells == 0) return;
    const int stream = stream_of_.at(block_id);
    // Per-level candidate scratch (freed when the level's kernels retire;
    // the data-partitioning scheme sizes it by the block, not the table).
    [[maybe_unused]] const auto scratch =
        device_.allocate(util::checked_mul(work.candidates, 4));
    peak_ = std::max(peak_, device_.memory_in_use());
    launch_level(device_, stream, work, params_);
  }

  void on_solve_end() override {
    device_.synchronize();
    table_.release();
    configs_.release();
  }

  [[nodiscard]] std::uint64_t peak_memory() const noexcept { return peak_; }

 private:
  gpusim::Device& device_;
  int stream_count_;
  StreamPolicy stream_policy_;
  ChargeParams params_;
  std::unordered_map<std::uint64_t, int> stream_of_;
  gpusim::Device::Buffer table_;
  gpusim::Device::Buffer configs_;
  std::uint64_t peak_ = 0;
  bool first_level_ = true;
};

/// Drives a multi-device Topology along the block wavefront: each block's
/// kernels run on the device its placement chose, and before a block-level
/// starts, every dependency block a device needs but does not own is
/// charged as an interconnect transfer (plus a mirror allocation that lives
/// for the level — the exact working set resident.hpp computes). Real
/// values come from the host-side fill, so results are bit-identical to the
/// single-device path by construction.
///
/// With recovery enabled (RecoveryOptions::checkpoint_every > 0) the
/// observer also journals a recover::CheckpointLog: every
/// `checkpoint_every` barriers it ships the blocks computed since the
/// previous checkpoint to each owner's buddy device (charged transfers +
/// mirror allocations that persist while the block stays in the frontier
/// window) and records a WavefrontCheckpoint. When a device is lost at a
/// barrier or during a transfer, the level prologue re-places the lost
/// blocks over the survivors, restores frontier blocks from buddy mirrors,
/// re-charges post-checkpoint work, and resumes — results stay
/// bit-identical because the values were host-side all along; only the
/// charged time reflects the recovery.
class ShardedChargingObserver final : public WavefrontObserver {
 public:
  ShardedChargingObserver(gpusim::Topology& topology,
                          const placement::PlacementStrategy& strategy,
                          const dp::DpProblem& problem, int stream_count,
                          StreamPolicy stream_policy,
                          recover::RecoveryOptions recovery = {})
      : topology_(topology),
        strategy_(strategy),
        problem_(problem),
        stream_count_(stream_count),
        stream_policy_(stream_policy),
        recovery_(recovery) {}

  void on_solve_begin(const partition::BlockedLayout& layout,
                      std::uint64_t config_count) override {
    layout_ = &layout;
    params_.dims = layout.table_radix().dims();
    params_.search_cells = layout.cells_per_block();
    block_bytes_ = util::checked_mul(layout.cells_per_block(), 4);
    reach_ = dependency_reach(problem_, layout);
    const int n = topology_.device_count();
    emit_ = topology_.device(0).trace_emission();
    excluded_.assign(static_cast<std::size_t>(n), 0);
    log_.clear();
    ckpt_mirrors_.clear();
    reshard_.clear();
    // Devices lost in an earlier solve stay lost until Topology::reset();
    // with recovery enabled this solve places around them from the start
    // (or refuses, typed, when too few survive).
    if (recovery_.enabled()) {
      for (int d = 0; d < n; ++d)
        if (topology_.device_lost(d))
          excluded_[static_cast<std::size_t>(d)] = 1;
      if (topology_.alive_count() < std::max(recovery_.min_devices, 1))
        throw StatusError(Status(
            StatusCode::kDeviceLost,
            "unrecoverable: " + std::to_string(topology_.alive_count()) +
                "/" + std::to_string(n) +
                " devices alive at solve start, min_devices=" +
                std::to_string(std::max(recovery_.min_devices, 1))));
    }
    plan_ = strategy_.place(layout, n, reach_, excluded_);
    PCMAX_EXPECTS(plan_.size() == layout.block_count());

    // Per-device persistent allocations: the device's table shard plus a
    // replica of the configuration set (every device probes configurations
    // against its own blocks, as each real GPU would hold its own copy).
    std::vector<std::uint64_t> blocks_on(static_cast<std::size_t>(n), 0);
    for (const int d : plan_) ++blocks_on[static_cast<std::size_t>(d)];
    shards_.clear();
    configs_.clear();
    peaks_.assign(static_cast<std::size_t>(n), 0);
    for (int d = 0; d < n; ++d) {
      if (excluded_[static_cast<std::size_t>(d)] != 0) {
        shards_.emplace_back();
        configs_.emplace_back();
        continue;
      }
      gpusim::Device& dev = topology_.device(d);
      shards_.push_back(dev.allocate(util::checked_mul(
          blocks_on[static_cast<std::size_t>(d)], block_bytes_)));
      configs_.push_back(dev.allocate(
          util::checked_mul(util::checked_mul(config_count, params_.dims), 8)));
      peaks_[static_cast<std::size_t>(d)] = dev.memory_in_use();
    }
    first_level_ = true;
  }

  void on_block_level(std::int64_t level,
                      std::span<const std::uint64_t> blocks) override {
    int losses = 0;
    for (;;) {
      try {
        level_prologue(level, blocks);
        break;
      } catch (const gpusim::DeviceLost&) {
        // A device died at the barrier, or a link failure left one
        // unreachable mid-transfer. Without checkpoints there is nothing to
        // resume from: rethrow and let the resilient chain degrade.
        if (!recovery_.enabled() || ++losses > topology_.device_count())
          throw;
        recover_or_throw(level);
      }
    }
    first_level_ = false;
    if (recovery_.enabled()) log_.begin_level(level);
  }

  void on_in_block_level(std::uint64_t block_id, std::int64_t /*in_level*/,
                         const LevelWork& work) override {
    if (work.cells == 0) return;
    const auto d = static_cast<std::size_t>(plan_[block_id]);
    gpusim::Device& dev = topology_.device(static_cast<int>(d));
    const int stream = stream_of_.at(block_id);
    [[maybe_unused]] const auto scratch =
        dev.allocate(util::checked_mul(work.candidates, 4));
    peaks_[d] = std::max(peaks_[d], dev.memory_in_use());
    launch_level(dev, stream, work, params_);
    if (recovery_.enabled())
      log_.record(recover::BlockWork{block_id, work.cells, work.candidates,
                                     work.deps});
  }

  void on_solve_end() override {
    // Losses at the final barrier cost nothing: every value is already
    // final and host-side, so with recovery enabled the survivors simply
    // barrier again without the fallen device.
    for (int attempt = 0;; ++attempt) {
      try {
        topology_.barrier();
        break;
      } catch (const gpusim::DeviceLost&) {
        if (!recovery_.enabled() || attempt >= topology_.device_count()) {
          release_all();
          throw;
        }
        if (emit_) obs::count("recover.device_lost");
      }
    }
    release_all();
  }

  [[nodiscard]] const std::vector<std::uint64_t>& device_peaks()
      const noexcept {
    return peaks_;
  }

 private:
  void release_all() {
    mirrors_.clear();
    ckpt_mirrors_.clear();
    reshard_.clear();
    shards_.clear();
    configs_.clear();
  }

  /// Everything that happens between two block-levels: the wavefront
  /// barrier, a checkpoint when one is due, stream assignment, and the
  /// cross-device dependency transfer scan. Throws gpusim::DeviceLost when
  /// a device falls over anywhere inside; the caller recovers and retries
  /// (re-running the prologue re-charges barrier/transfer costs — that IS
  /// the recovery cost).
  void level_prologue(std::int64_t level,
                      std::span<const std::uint64_t> blocks) {
    const int n = topology_.device_count();
    // Wavefront barrier across all devices between block-levels; the
    // previous level's dependency mirrors are evicted once it retires.
    if (!first_level_) topology_.barrier();
    if (recovery_.enabled() && !first_level_ &&
        log_.levels_since_checkpoint() >= recovery_.checkpoint_every)
      take_checkpoint(level);
    mirrors_.clear();
    mirrored_.clear();

    // Per-device stream assignment: each device distributes ITS blocks of
    // the level over its streams, cyclic (Algorithm 4 line 31) or chunked.
    stream_of_.clear();
    std::vector<std::size_t> on_device(static_cast<std::size_t>(n), 0);
    for (const std::uint64_t b : blocks)
      ++on_device[static_cast<std::size_t>(plan_[b])];
    const auto streams = static_cast<std::size_t>(stream_count_);
    std::vector<std::size_t> index(static_cast<std::size_t>(n), 0);
    for (const std::uint64_t b : blocks) {
      const auto d = static_cast<std::size_t>(plan_[b]);
      const std::size_t i = index[d]++;
      const std::size_t chunk =
          (on_device[d] + streams - 1) / std::max<std::size_t>(1, streams);
      const std::size_t stream = stream_policy_ == StreamPolicy::kCyclic
                                     ? i % streams
                                     : i / std::max<std::size_t>(1, chunk);
      stream_of_[b] = static_cast<int>(stream);
    }

    // Cross-device dependency transfers: for every block of the level,
    // each reach-box predecessor owned by another device is shipped to the
    // block's device (once per level per destination) before the level's
    // kernels may start. The destination waits for its latest arrival.
    const dp::MixedRadix& grid = layout_->grid();
    std::vector<util::SimTime> arrival(static_cast<std::size_t>(n));
    std::vector<std::int64_t> g(grid.dims());
    for (const std::uint64_t b : blocks) {
      const int dst = plan_[b];
      grid.unflatten(b, g);
      placement::for_each_reach_predecessor(
          grid, g, reach_, [&](std::uint64_t pred) {
            const int src = plan_[pred];
            if (src == dst) return;
            const std::uint64_t key =
                static_cast<std::uint64_t>(dst) * layout_->block_count() +
                pred;
            if (!mirrored_.insert(key).second) return;
            const auto dd = static_cast<std::size_t>(dst);
            arrival[dd] = std::max(
                arrival[dd], topology_.transfer(src, dst, block_bytes_));
            mirrors_.push_back(topology_.device(dst).allocate(block_bytes_));
            peaks_[dd] = std::max(peaks_[dd],
                                  topology_.device(dst).memory_in_use());
          });
    }
    for (int d = 0; d < n; ++d) {
      if (topology_.device_lost(d)) continue;
      gpusim::Device& dev = topology_.device(d);
      const auto dd = static_cast<std::size_t>(d);
      if (arrival[dd] > dev.now()) dev.advance(arrival[dd] - dev.now());
    }
  }

  /// Block-level (anti-diagonal) of a block id in the block grid.
  [[nodiscard]] std::int64_t block_level(std::uint64_t block_id) const {
    std::vector<std::int64_t> g(layout_->grid().dims());
    layout_->grid().unflatten(block_id, g);
    std::int64_t lvl = 0;
    for (const std::int64_t c : g) lvl += c;
    return lvl;
  }

  /// Ships every block computed since the previous checkpoint to its
  /// owner's buddy (charged transfers + mirror allocations held while the
  /// block stays in the frontier window) and records the checkpoint. The
  /// shipping overlaps compute — only link occupancy is charged, device
  /// clocks do not wait on it — so the overhead is a sliver of contention.
  void take_checkpoint(std::int64_t level) {
    std::optional<obs::ScopedSpan> span;
    if (emit_ && obs::trace() != nullptr) {
      const auto args = {obs::arg("level", level)};
      span.emplace("recover/checkpoint", args);
    }

    // Mirrors of blocks that fell out of the frontier window can never be
    // restored from again; release their accounting.
    std::int64_t window = 0;
    for (const std::int64_t r : reach_) window += r;
    window = std::max<std::int64_t>(window, 1);
    std::erase_if(ckpt_mirrors_, [&](const HeldMirror& held) {
      return held.level < level - window;
    });

    const std::vector<int> buddies = recover::assign_buddies(excluded_);
    std::vector<std::uint64_t> mirrored;
    for (const auto& lr : log_.replay())
      for (const auto& bw : lr.blocks) mirrored.push_back(bw.block_id);
    std::sort(mirrored.begin(), mirrored.end());
    for (const std::uint64_t b : mirrored) {
      const int owner = plan_[b];
      const int buddy = buddies[static_cast<std::size_t>(owner)];
      if (buddy < 0) continue;  // lone survivor: nowhere to mirror
      topology_.transfer(owner, buddy, block_bytes_);
      ckpt_mirrors_.push_back(HeldMirror{
          block_level(b), topology_.device(buddy).allocate(block_bytes_)});
      const auto bd = static_cast<std::size_t>(buddy);
      peaks_[bd] =
          std::max(peaks_[bd], topology_.device(buddy).memory_in_use());
    }

    recover::WavefrontCheckpoint ckpt;
    ckpt.level = level;
    ckpt.shard_manifest = plan_;
    ckpt.mirror_of = buddies;
    const std::vector<std::uint64_t> frontier =
        recover::compute_frontier(*layout_, level, reach_);
    ckpt.frontier_digest = recover::frontier_digest(level, frontier, plan_);
    log_.install(std::move(ckpt), mirrored);
    if (emit_) obs::count("recover.checkpoints");
  }

  /// Reacts to a device loss: re-places the lost blocks over the
  /// survivors, restores frontier blocks from their buddy mirrors (charged
  /// transfers), and re-charges post-checkpoint work on the new owners.
  /// Throws a typed StatusError(kDeviceLost) when recovery is impossible
  /// (below min_devices, or the mirrors died with their holder) so the
  /// resilient chain degrades instead.
  void recover_or_throw(std::int64_t level) {
    const int n = topology_.device_count();
    int newly = 0;
    for (int d = 0; d < n; ++d) {
      const auto dd = static_cast<std::size_t>(d);
      if (excluded_[dd] == 0 && topology_.device_lost(d)) {
        excluded_[dd] = 1;
        ++newly;
      }
    }
    if (emit_ && newly > 0)
      obs::count("recover.device_lost", static_cast<std::uint64_t>(newly));

    std::optional<obs::ScopedSpan> span;
    if (emit_ && obs::trace() != nullptr) {
      const auto args = {obs::arg("level", level),
                         obs::arg("alive", topology_.alive_count())};
      span.emplace("recover/replacement", args);
    }

    // Merged replacement placement: survivors keep their blocks in place,
    // lost-device blocks re-home onto survivors per the strategy. (An
    // all-lost topology cannot even re-place; refuse first.)
    recover::RecoveryPlan rplan;
    if (topology_.alive_count() < std::max(recovery_.min_devices, 1)) {
      rplan.refusal = recover::RecoveryRefusal::kBelowMinDevices;
    } else {
      const std::vector<int> fresh =
          strategy_.place(*layout_, n, reach_, excluded_);
      std::vector<int> merged = plan_;
      for (std::size_t b = 0; b < merged.size(); ++b)
        if (excluded_[static_cast<std::size_t>(merged[b])] != 0)
          merged[b] = fresh[b];
      const std::vector<std::uint64_t> frontier =
          recover::compute_frontier(*layout_, level, reach_);
      rplan = recover::plan_recovery(log_, plan_, merged, excluded_,
                                     frontier, recovery_);
      if (rplan.recoverable()) execute_recovery(rplan, merged);
    }
    if (!rplan.recoverable()) {
      if (emit_) obs::count("recover.unrecoverable");
      throw StatusError(
          Status(StatusCode::kDeviceLost,
                 "unrecoverable device loss at block-level " +
                     std::to_string(level) + ": " +
                     std::string(recover::recovery_refusal_name(
                         rplan.refusal)) +
                     " (" + std::to_string(topology_.alive_count()) + "/" +
                     std::to_string(n) + " devices alive)"));
    }
  }

  void execute_recovery(const recover::RecoveryPlan& rplan,
                        std::vector<int>& merged) {
    {
      std::optional<obs::ScopedSpan> span;
      if (emit_ && obs::trace() != nullptr) {
        const auto args = {
            obs::arg("restores",
                     static_cast<std::int64_t>(rplan.restores.size())),
            obs::arg("replays",
                     static_cast<std::int64_t>(rplan.replays.size()))};
        span.emplace("recover/restore", args);
      }
      // Re-materialize mirrored frontier blocks on their new owners.
      for (const recover::RestoreStep& rs : rplan.restores) {
        if (rs.mirror_device != rs.new_owner)
          topology_.transfer(rs.mirror_device, rs.new_owner, block_bytes_);
        reshard_.push_back(
            topology_.device(rs.new_owner).allocate(block_bytes_));
        const auto od = static_cast<std::size_t>(rs.new_owner);
        peaks_[od] = std::max(
            peaks_[od], topology_.device(rs.new_owner).memory_in_use());
      }
      // Re-execute post-checkpoint work that died with its device: same
      // kernels, new owner, stream 0 (the next barrier times them).
      std::unordered_set<std::int64_t> levels_replayed;
      for (const recover::ReplayStep& rs : rplan.replays) {
        gpusim::Device& dev = topology_.device(rs.new_owner);
        reshard_.push_back(dev.allocate(block_bytes_));
        launch_level(
            dev, 0,
            LevelWork{rs.work.cells, rs.work.candidates, rs.work.deps},
            params_);
        const auto od = static_cast<std::size_t>(rs.new_owner);
        peaks_[od] = std::max(peaks_[od], dev.memory_in_use());
        levels_replayed.insert(rs.level);
      }
      if (emit_) {
        obs::count("recover.replacements");
        obs::count("recover.restored_blocks", rplan.restores.size());
        obs::count("recover.replayed_levels", levels_replayed.size());
      }
    }
    plan_ = std::move(merged);
  }

  gpusim::Topology& topology_;
  const placement::PlacementStrategy& strategy_;
  const dp::DpProblem& problem_;
  int stream_count_;
  StreamPolicy stream_policy_;
  recover::RecoveryOptions recovery_;
  ChargeParams params_;
  const partition::BlockedLayout* layout_ = nullptr;
  std::uint64_t block_bytes_ = 0;
  std::vector<std::int64_t> reach_;
  std::vector<int> plan_;
  std::unordered_map<std::uint64_t, int> stream_of_;
  std::vector<gpusim::Device::Buffer> shards_;
  std::vector<gpusim::Device::Buffer> configs_;
  std::vector<gpusim::Device::Buffer> mirrors_;
  std::unordered_set<std::uint64_t> mirrored_;  // (dst, pred) this level
  std::vector<std::uint64_t> peaks_;
  /// Checkpoint mirror accounting, held until the block leaves the
  /// frontier window.
  struct HeldMirror {
    std::int64_t level;
    gpusim::Device::Buffer buffer;
  };
  std::vector<HeldMirror> ckpt_mirrors_;
  /// Shard space re-allocated on gaining devices during recovery.
  std::vector<gpusim::Device::Buffer> reshard_;
  recover::CheckpointLog log_;
  std::vector<std::uint8_t> excluded_;
  bool emit_ = true;
  bool first_level_ = true;
};

/// One GPU solve: the dependency counts drive `observer` along the block
/// wavefront, then the level solvers' fill computes the values on the
/// calling thread alone. Both read one configuration set. As in every DP
/// engine, host-alloc is hit before the first device call and dp-finalize
/// after the last.
dp::DpResult fill_and_charge(const dp::DpProblem& problem,
                             std::size_t partition_dims,
                             WavefrontObserver& observer) {
  problem.validate();
  const dp::MixedRadix radix = problem.radix();
  const partition::BlockedLayout layout(
      radix, partition::compute_divisor(radix.extents(), partition_dims));
  const dp::ConfigSet configs(problem.counts, problem.weights,
                              problem.capacity, radix);
  // The host holds the table and its dependency counts.
  faultsim::check_host_alloc(2 * radix.size() * sizeof(std::int32_t));
  walk_wavefront(layout, dp::dependency_counts(problem, configs),
                 configs.size(), observer);
  dp::DpResult result = dp::fill_level_buckets(problem, configs, 1);
  faultsim::maybe_corrupt_table(result.table, result.opt);
  return result;
}

}  // namespace

void walk_wavefront(const partition::BlockedLayout& layout,
                    std::span<const std::uint32_t> deps,
                    std::uint64_t config_count, WavefrontObserver& observer) {
  const dp::MixedRadix& table = layout.table_radix();
  PCMAX_EXPECTS(deps.size() == table.size());
  const dp::MixedRadix& block = layout.block();
  const dp::LevelBuckets block_buckets(layout.grid());
  const dp::LevelBuckets in_block_buckets(block);
  std::vector<std::int64_t> origin(table.dims()), local(table.dims());
  observer.on_solve_begin(layout, config_count);
  for (std::int64_t level = 0; level < block_buckets.levels(); ++level) {
    const auto blocks = block_buckets.cells_at(level);
    observer.on_block_level(level, blocks);
    for (const std::uint64_t block_id : blocks) {
      layout.grid().unflatten(block_id, origin);
      for (std::int64_t in_level = 0; in_level < in_block_buckets.levels();
           ++in_level) {
        LevelWork work;
        for (const std::uint64_t local_id :
             in_block_buckets.cells_at(in_level)) {
          block.unflatten(local_id, local);
          std::uint64_t candidates = 1;
          std::uint64_t id = 0;
          for (std::size_t i = 0; i < local.size(); ++i) {
            const auto c = static_cast<std::uint64_t>(
                origin[i] * block.extents()[i] + local[i]);
            candidates *= c + 1;
            id += c * table.strides()[i];
          }
          ++work.cells;
          work.candidates += candidates;
          work.deps += deps[id];
        }
        observer.on_in_block_level(block_id, in_level, work);
      }
    }
  }
  observer.on_solve_end();
}

GpuDpSolver::GpuDpSolver(gpusim::Device& device, std::size_t partition_dims,
                         int stream_count, StreamPolicy stream_policy)
    : device_(&device),
      partition_dims_(partition_dims),
      stream_count_(stream_count),
      stream_policy_(stream_policy) {
  PCMAX_EXPECTS(stream_count >= 1);
  PCMAX_EXPECTS(stream_count <= device.spec().max_streams);
}

GpuDpSolver::GpuDpSolver(gpusim::Topology& topology,
                         std::size_t partition_dims, int stream_count,
                         StreamPolicy stream_policy,
                         placement::PlacementKind placement,
                         recover::RecoveryOptions recovery)
    : device_(&topology.device(0)),
      topology_(&topology),
      partition_dims_(partition_dims),
      stream_count_(stream_count),
      stream_policy_(stream_policy),
      placement_(placement),
      recovery_(recovery) {
  PCMAX_EXPECTS(stream_count >= 1);
  PCMAX_EXPECTS(stream_count <= device_->spec().max_streams);
  PCMAX_EXPECTS(recovery.checkpoint_every >= 0);
  PCMAX_EXPECTS(recovery.min_devices >= 0);
}

std::string GpuDpSolver::name() const {
  return "gpu-dim" + std::to_string(partition_dims_);
}

dp::DpResult GpuDpSolver::solve(const dp::DpProblem& problem,
                                const dp::SolveOptions& /*options*/) const {
  // A one-device topology short-circuits onto the exact single-device path
  // (device_ already points at its device 0), so devices=1 costs nothing
  // over the pre-topology solver.
  const bool sharded = topology_ != nullptr && topology_->device_count() > 1;
  const auto now = [&] {
    return sharded ? topology_->now() : device_->now();
  };
  const util::SimTime start = now();
  // Stamp spans opened during this solve with the device clock so they land
  // on the simulated-time track, bracketing the kernels they launched.
  // Scratch devices (trace_emission off) stay off every track: their
  // private clocks would interleave non-monotonically with the primary
  // device's timeline.
  std::optional<obs::SimClockGuard> sim_clock;
  std::optional<obs::ScopedSpan> span;
  if (device_->trace_emission() && obs::trace() != nullptr) {
    sim_clock.emplace([&now] { return now().ps(); });
    // Trace events carry at most two args: next to the table size, a
    // sharded solve reports its devices, a single-device one its streams.
    const auto args = {
        obs::arg("table", static_cast<std::int64_t>(problem.radix().size())),
        sharded ? obs::arg("devices", topology_->device_count())
                : obs::arg("streams", stream_count_)};
    span.emplace("gpu/dp-solve", args);
  }
  dp::DpResult result;
  if (sharded) {
    const std::unique_ptr<placement::PlacementStrategy> strategy =
        placement::make_placement(placement_);
    ShardedChargingObserver observer(*topology_, *strategy, problem,
                                     stream_count_, stream_policy_,
                                     recovery_);
    result = fill_and_charge(problem, partition_dims_, observer);
    last_device_peaks_ = observer.device_peaks();
  } else {
    ChargingObserver observer(*device_, stream_count_, stream_policy_);
    result = fill_and_charge(problem, partition_dims_, observer);
    last_device_peaks_.assign(1, observer.peak_memory());
  }
  last_solve_time_ = now() - start;
  last_peak_memory_ =
      *std::max_element(last_device_peaks_.begin(), last_device_peaks_.end());
  return result;
}

NaiveGpuDpSolver::NaiveGpuDpSolver(gpusim::Device& device)
    : device_(device) {}

dp::DpResult NaiveGpuDpSolver::solve(const dp::DpProblem& problem,
                                     const dp::SolveOptions& options) const {
  const util::SimTime start = device_.now();
  std::optional<obs::SimClockGuard> sim_clock;
  std::optional<obs::ScopedSpan> span;
  if (device_.trace_emission() && obs::trace() != nullptr) {
    sim_clock.emplace([this] { return device_.now().ps(); });
    const auto args = {
        obs::arg("table", static_cast<std::int64_t>(problem.radix().size()))};
    span.emplace("gpu/naive-solve", args);
  }

  // Real values from the bucketed solver; per-cell dependency counts from
  // the configuration set.
  dp::DpResult result = dp::LevelBucketSolver().solve(problem, options);
  const std::vector<std::uint32_t> deps = dp::dependency_counts(problem);

  const dp::MixedRadix radix = problem.radix();
  const dp::LevelBuckets buckets(radix);

  ChargeParams params;
  params.dims = radix.dims();
  params.search_cells = radix.size();  // SetOPT scans the whole table

  const auto table = device_.allocate(util::checked_mul(radix.size(), 4));
  const auto configs = device_.allocate(
      util::checked_mul(util::checked_mul(result.config_count, params.dims), 8));

  std::vector<std::int64_t> coords(radix.dims());
  for (std::int64_t level = 1; level < buckets.levels(); ++level) {
    LevelWork work;
    for (const auto id : buckets.cells_at(level)) {
      radix.unflatten(id, coords);
      std::uint64_t candidates = 1;
      for (const auto c : coords)
        candidates *= static_cast<std::uint64_t>(c) + 1;
      ++work.cells;
      work.candidates += candidates;
      work.deps += deps[id];
    }
    if (work.cells == 0) continue;
    // Table-scope candidate scratch: the memory behaviour the paper calls
    // out — this is what exhausts the 12 GB device on larger instances.
    [[maybe_unused]] const auto scratch =
        device_.allocate(util::checked_mul(work.candidates, 4));
    // The direct port runs ONE kernel per level with one thread per
    // configuration; each thread serially enumerates its candidates and
    // serially searches the whole table for every dependency (the OpenMP
    // inner loops verbatim). No dynamic parallelism, no blocking.
    gpusim::WorkEstimate w;
    w.threads = work.cells;
    w.thread_ops = work.candidates * 2 * params.dims +
                   work.deps * (params.search_cells / 2) * params.dims;
    // Scattered per-thread scans. Threads enter the early-exit compare loop
    // in lockstep but diverge almost immediately, so the warp re-fetches
    // most segments instead of broadcasting them (kNaiveDivergence-fold).
    w.transactions = work.deps * (params.search_cells / 2) * params.dims * 4 *
                     kNaiveDivergence / kNaiveSegmentBytes;
    device_.launch_estimated(0, "NaiveLevel", w);
    // One-level parallelism only: a device barrier after every level.
    device_.synchronize();
  }

  last_solve_time_ = device_.now() - start;
  return result;
}

}  // namespace pcmax::gpu
