// Thread-scaling ablation: the modeled OpenMP implementation at 1..28
// threads. This reproduces the spirit of the predecessor paper's
// ("A Parallel Approximation Algorithm for Scheduling Parallel Identical
// Machines", Ghalami & Grosu, IPDPSW 2017) sequential-vs-OpenMP comparison
// that Section IV says was already established: level-synchronous DP
// scales with threads until per-level work runs out and barrier overhead
// flattens the curve on small tables.
#include <cstdio>

#include "bench_common.hpp"
#include "core/cpu_time_model.hpp"
#include "util/text_table.hpp"

int main() {
  using namespace pcmax;
  using bench::fmt_ms;

  std::printf("== bench_ablation_threads: OpenMP scaling (modeled) ==\n\n");
  const std::vector<int> thread_counts{1, 2, 4, 8, 16, 28};

  util::TextTable table({"table size", "1", "2", "4", "8", "16", "28",
                         "speedup@28"});
  for (const auto size : {std::uint64_t{3456}, std::uint64_t{20736},
                          std::uint64_t{362880}}) {
    const auto shape = workload::paper_shapes_for_size(size).front();
    const auto problem = workload::dp_problem_for_extents(shape.extents);
    const auto deps = dp::dependency_counts(problem);

    std::vector<std::string> row{std::to_string(size)};
    double t1 = 0.0, t28 = 0.0;
    for (const int threads : thread_counts) {
      CpuModelParams params;
      params.threads = threads;
      const double ms = estimate_openmp_dp_time(problem, deps, params).ms();
      if (threads == 1) t1 = ms;
      if (threads == 28) t28 = ms;
      row.push_back(fmt_ms(ms));
    }
    char speedup[32];
    std::snprintf(speedup, sizeof speedup, "%.1fx", t1 / t28);
    row.push_back(speedup);
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.to_string().c_str());
  return 0;
}
