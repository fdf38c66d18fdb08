#include "gpu/gpu_dp_solver.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "partition/divisor.hpp"
#include "util/rng.hpp"

namespace pcmax::gpu {
namespace {

dp::DpProblem ptas_like_problem() {
  return dp::DpProblem{{2, 3, 1, 2}, {4, 5, 7, 11}, 16};
}

TEST(GpuDpSolver, ResultsBitIdenticalToReference) {
  gpusim::Device device(gpusim::DeviceSpec::k40());
  const auto p = ptas_like_problem();
  const auto ref = dp::ReferenceSolver().solve(p);
  for (const std::size_t dims : {1u, 3u, 4u}) {
    const GpuDpSolver solver(device, dims);
    const auto r = solver.solve(p);
    EXPECT_EQ(r.table, ref.table) << "dims " << dims;
    EXPECT_EQ(r.opt, ref.opt);
  }
}

TEST(GpuDpSolver, AdvancesDeviceClock) {
  gpusim::Device device(gpusim::DeviceSpec::k40());
  const GpuDpSolver solver(device, 3);
  const auto before = device.now();
  (void)solver.solve(ptas_like_problem());
  EXPECT_GT(device.now(), before);
  EXPECT_GT(solver.last_solve_time(), util::SimTime{});
}

TEST(GpuDpSolver, LaunchesKernelsOnFourStreams) {
  gpusim::Device device(gpusim::DeviceSpec::k40());
  device.set_kernel_log(true);
  const GpuDpSolver solver(device, 4, 4);
  (void)solver.solve(ptas_like_problem());
  EXPECT_GT(device.stats().kernels, 0u);
  int max_stream = 0;
  for (const auto& rec : device.log())
    max_stream = std::max(max_stream, rec.stream);
  // The 3x4x2x3 = 72-cell table partitions into enough blocks to reach all
  // four streams.
  EXPECT_EQ(max_stream, 3);
}

TEST(GpuDpSolver, DynamicParallelismChargesChildren) {
  gpusim::Device device(gpusim::DeviceSpec::k40());
  const GpuDpSolver solver(device, 3);
  (void)solver.solve(ptas_like_problem());
  EXPECT_GT(device.stats().child_kernels, 0u);
}

TEST(GpuDpSolver, TracksPeakMemory) {
  gpusim::Device device(gpusim::DeviceSpec::k40());
  const GpuDpSolver solver(device, 3);
  (void)solver.solve(ptas_like_problem());
  const auto table_bytes = ptas_like_problem().table_size() * 4;
  EXPECT_GE(solver.last_peak_memory(), table_bytes);
  // Everything is released after the solve.
  EXPECT_EQ(device.memory_in_use(), 0u);
}

TEST(GpuDpSolver, NameReflectsPartitionDims) {
  gpusim::Device device(gpusim::DeviceSpec::k40());
  EXPECT_EQ(GpuDpSolver(device, 6).name(), "gpu-dim6");
}

TEST(GpuDpSolver, RejectsTooManyStreams) {
  gpusim::Device device(gpusim::DeviceSpec::k40());
  EXPECT_THROW(GpuDpSolver(device, 3, 33), util::contract_violation);
  EXPECT_THROW(GpuDpSolver(device, 3, 0), util::contract_violation);
}

TEST(GpuDpSolver, DeterministicTiming) {
  const auto run = [] {
    gpusim::Device device(gpusim::DeviceSpec::k40());
    const GpuDpSolver solver(device, 5);
    (void)solver.solve(ptas_like_problem());
    return solver.last_solve_time();
  };
  EXPECT_EQ(run(), run());
}

TEST(NaiveGpuDpSolver, ResultsMatchReference) {
  gpusim::Device device(gpusim::DeviceSpec::k40());
  const NaiveGpuDpSolver solver(device);
  const auto p = ptas_like_problem();
  EXPECT_EQ(solver.solve(p).table, dp::ReferenceSolver().solve(p).table);
}

TEST(NaiveGpuDpSolver, SlowerThanPartitionedOnNontrivialTables) {
  // Size 8640 shape (Table II): the whole-table search scope must dominate.
  const dp::DpProblem p{{4, 2, 5, 2, 3, 3, 1}, {4, 5, 6, 7, 8, 9, 10}, 16};

  gpusim::Device d1(gpusim::DeviceSpec::k40());
  const GpuDpSolver partitioned(d1, 5);
  (void)partitioned.solve(p);

  gpusim::Device d2(gpusim::DeviceSpec::k40());
  const NaiveGpuDpSolver naive(d2);
  (void)naive.solve(p);

  EXPECT_GT(naive.last_solve_time(), partitioned.last_solve_time());
}

TEST(GpuDpSolver, StreamPoliciesProduceIdenticalTables) {
  const auto p = ptas_like_problem();
  gpusim::Device d1(gpusim::DeviceSpec::k40());
  const GpuDpSolver cyclic(d1, 4, 4, StreamPolicy::kCyclic);
  gpusim::Device d2(gpusim::DeviceSpec::k40());
  const GpuDpSolver chunked(d2, 4, 4, StreamPolicy::kChunked);
  EXPECT_EQ(cyclic.solve(p).table, chunked.solve(p).table);
  // Timing may differ (that is the point of the ablation), but both must
  // be positive and deterministic.
  EXPECT_GT(cyclic.last_solve_time(), util::SimTime{});
  EXPECT_GT(chunked.last_solve_time(), util::SimTime{});
}

TEST(GpuDpSolver, RandomProblemsMatchReference) {
  util::Rng rng(99);
  for (int trial = 0; trial < 8; ++trial) {
    dp::DpProblem p;
    const auto dims = static_cast<std::size_t>(rng.uniform(1, 6));
    for (std::size_t i = 0; i < dims; ++i) {
      p.counts.push_back(rng.uniform(0, 4));
      p.weights.push_back(rng.uniform(1, 9));
    }
    p.capacity = rng.uniform(6, 20);
    gpusim::Device device(gpusim::DeviceSpec::k40());
    const GpuDpSolver solver(device,
                             static_cast<std::size_t>(rng.uniform(1, 9)));
    EXPECT_EQ(solver.solve(p).table, dp::ReferenceSolver().solve(p).table);
  }
}

// The wavefront walk must visit every block once per in-block level, in
// dependency-safe order, and hand the observer every cell's candidates and
// dependency count exactly once.
class RecordingObserver final : public WavefrontObserver {
 public:
  void on_solve_begin(const partition::BlockedLayout& layout,
                      std::uint64_t config_count) override {
    EXPECT_FALSE(begun_);
    begun_ = true;
    config_count_ = config_count;
    in_levels_ = dp::LevelBuckets(layout.block()).levels();
    block_level_of_.assign(layout.block_count(), -1);
    const dp::LevelBuckets buckets(layout.grid());
    for (std::int64_t l = 0; l < buckets.levels(); ++l)
      for (const auto b : buckets.cells_at(l)) block_level_of_[b] = l;
  }
  void on_block_level(std::int64_t level,
                      std::span<const std::uint64_t> blocks) override {
    EXPECT_EQ(level, last_block_level_ + 1) << "levels must be sequential";
    last_block_level_ = level;
    for (const auto b : blocks) EXPECT_EQ(block_level_of_[b], level);
    level_blocks_.assign(blocks.begin(), blocks.end());
    next_block_ = 0;
  }
  void on_in_block_level(std::uint64_t block_id, std::int64_t in_level,
                         const LevelWork& work) override {
    // Blocks of a level in order, each walking its in-block levels in turn.
    if (in_level == 0) ++next_block_;
    ASSERT_GE(next_block_, 1u);
    EXPECT_EQ(block_id, level_blocks_[next_block_ - 1]);
    EXPECT_EQ(in_level, expected_in_level_);
    expected_in_level_ = (in_level + 1) % in_levels_;
    cells_seen_ += work.cells;
    total_deps_ += work.deps;
    EXPECT_GE(work.candidates, work.cells);
    EXPECT_LE(work.deps, work.cells * config_count_);
  }
  void on_solve_end() override { ended_ = true; }

  std::uint64_t config_count_ = 0;
  std::int64_t in_levels_ = 0;
  std::vector<std::int64_t> block_level_of_;
  std::vector<std::uint64_t> level_blocks_;
  std::size_t next_block_ = 0;
  std::int64_t last_block_level_ = -1;
  std::int64_t expected_in_level_ = 0;
  std::uint64_t cells_seen_ = 0;
  std::uint64_t total_deps_ = 0;
  bool begun_ = false;
  bool ended_ = false;
};

TEST(WavefrontWalk, SeesEveryCellOnce) {
  const auto p = ptas_like_problem();
  const dp::MixedRadix radix = p.radix();
  for (const std::size_t dims : {1u, 3u, 4u}) {
    const partition::BlockedLayout layout(
        radix, partition::compute_divisor(radix.extents(), dims));
    const auto deps = dp::dependency_counts(p);
    RecordingObserver obs;
    walk_wavefront(layout, deps, dp::ReferenceSolver().solve(p).config_count,
                   obs);
    EXPECT_TRUE(obs.ended_);
    EXPECT_EQ(obs.last_block_level_ + 1,
              dp::LevelBuckets(layout.grid()).levels());
    EXPECT_EQ(obs.cells_seen_, p.table_size()) << "partition dims " << dims;
    // Total deps reported to the observer equal the sum of per-cell deps.
    EXPECT_EQ(obs.total_deps_,
              std::accumulate(deps.begin(), deps.end(), std::uint64_t{0}));
  }
}

TEST(WavefrontWalk, RejectsCountsOfAnotherTable) {
  const auto p = ptas_like_problem();
  const dp::MixedRadix radix = p.radix();
  const partition::BlockedLayout layout(
      radix, partition::compute_divisor(radix.extents(), 3));
  const std::vector<std::uint32_t> short_deps(radix.size() - 1, 0);
  RecordingObserver obs;
  EXPECT_THROW(walk_wavefront(layout, short_deps, 1, obs),
               util::contract_violation);
}

}  // namespace
}  // namespace pcmax::gpu
