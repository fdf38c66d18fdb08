// Reproduces Table VII of the paper: number of search iterations and total
// runtime for the GPU quarter-split PTAS vs the OpenMP bisection PTAS, on
// scheduling instances whose DP-tables land near the published sizes
// {12960, 20736, 27360, 30240, 403200}.
//
// The paper notes that constructing an instance with an exact table size is
// not possible a priori; like the authors, we search a family of uniform
// random instances for ones whose DP-table size (at the initial lower
// bound) falls near each target. The search is deterministic.
//
// Expected shape: the quarter split roughly halves the iteration count, and
// the GPU runtime advantage grows with the table size — reaching an order
// of magnitude or more on the largest row (the paper reports 300 s vs
// 9654 s at size 403200).
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "core/bounds.hpp"
#include "core/cpu_time_model.hpp"
#include "core/rounding.hpp"
#include "gpu/gpu_ptas.hpp"
#include "util/checked_math.hpp"
#include "util/text_table.hpp"
#include "workload/generators.hpp"

namespace {

using namespace pcmax;

/// DpSolver that solves with the bucketed engine and accumulates the
/// modeled OpenMP runtime of every call.
class ModeledOmpSolver final : public dp::DpSolver {
 public:
  explicit ModeledOmpSolver(int threads) : threads_(threads) {}

  using DpSolver::solve;
  dp::DpResult solve(const dp::DpProblem& problem,
                     const dp::SolveOptions& options) const override {
    dp::DpResult result = dp::LevelBucketSolver().solve(problem, options);
    CpuModelParams params;
    params.threads = threads_;
    total_ms_ +=
        estimate_openmp_dp_time(problem, dp::dependency_counts(problem), params)
            .ms();
    return result;
  }
  std::string name() const override { return "omp-modeled"; }

  [[nodiscard]] double total_ms() const noexcept { return total_ms_; }

 private:
  int threads_;
  mutable double total_ms_ = 0.0;
};

/// Deterministically scans a family of uniform instances for one whose
/// DP-table size at T = LB lands within [0.7, 1.4] of `target`.
std::optional<Instance> find_instance(std::uint64_t target) {
  std::optional<Instance> best;
  double best_error = 0.45;  // relative log-distance tolerance
  for (std::size_t n = 12; n <= 72; n += 2) {
    // Large tables need many populated classes, which requires the target
    // makespan to sit close to the longest job: include machine counts up
    // to about half the job count.
    const auto m_hi = std::min<std::int64_t>(36, static_cast<std::int64_t>(n));
    for (std::int64_t m = 3; m <= m_hi; ++m) {
      for (std::uint64_t seed = 1; seed <= 30; ++seed) {
        const auto inst =
            workload::uniform_instance(n, m, 20, 200, seed * 7919 + n);
        const auto lb = makespan_lower_bound(inst);
        const auto rounded = round_instance(inst, lb, 4);
        if (!rounded.feasible) continue;
        std::uint64_t size = 0;
        try {
          size = rounded.table_size();
        } catch (const util::overflow_error&) {
          continue;
        }
        if (size < 2) continue;
        const double err =
            std::abs(std::log(static_cast<double>(size) /
                              static_cast<double>(target)));
        if (err < best_error) {
          best_error = err;
          best = inst;
        }
      }
    }
  }
  return best;
}

}  // namespace

int main() {
  std::printf("== bench_table7: quarter split vs bisection "
              "(paper Table VII; simulated times, real searches) ==\n\n");
  const std::vector<std::uint64_t> targets{12960, 20736, 27360, 30240,
                                           403200};
  util::TextTable table({"table size", "#itr GPU", "runtime GPU (ms)",
                         "GPU overlapped (ms)", "#itr OpenMP",
                         "runtime OpenMP (ms)"});
  for (const auto target : targets) {
    const auto inst = find_instance(target);
    if (!inst.has_value()) {
      table.add_row({std::to_string(target), "-", "no instance found", "-",
                     "-", "-"});
      continue;
    }

    // Largest DP-table actually touched, for the row label.
    std::uint64_t max_table = 0;

    // GPU: Algorithm 3 quarter split on the simulated K40.
    gpusim::Device device(gpusim::DeviceSpec::k40());
    gpu::GpuPtasOptions gpu_options;
    gpu_options.partition_dims = 6;
    gpu_options.build_schedule = false;
    const auto gpu = gpu::solve_gpu_ptas(*inst, device, gpu_options);
    for (const auto& call : gpu.ptas.dp_calls)
      max_table = std::max(max_table, call.table_size);

    // GPU with the optimistic Hyper-Q reading: a round of concurrent
    // probes costs its slowest probe.
    gpusim::Device device2(gpusim::DeviceSpec::k40());
    gpu::GpuPtasOptions overlap = gpu_options;
    overlap.probe_overlap = gpu::ProbeOverlap::kHyperQ;
    const auto gpu_overlap = gpu::solve_gpu_ptas(*inst, device2, overlap);

    // OpenMP: Algorithm 1 bisection with the modeled 16-thread runtime.
    const ModeledOmpSolver omp_solver(16);
    PtasOptions omp_options;
    omp_options.build_schedule = false;
    const auto omp = solve_ptas(*inst, omp_solver, omp_options);

    if (gpu.ptas.best_target != omp.best_target)
      throw std::runtime_error("strategies disagree on T*");

    table.add_row({std::to_string(max_table),
                   std::to_string(gpu.ptas.search_iterations),
                   util::TextTable::cell(gpu.device_time.ms()),
                   util::TextTable::cell(gpu_overlap.device_time.ms()),
                   std::to_string(omp.search_iterations),
                   util::TextTable::cell(omp_solver.total_ms())});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("note: row label is the largest DP-table size the search "
              "touched; targets follow the paper's rows.\n");
  return 0;
}
