// Google-benchmark micro-benchmarks for the core building blocks: these
// measure *real* wall time of the library on the host (unlike the paper
// reproduction benches, which report simulated device times).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "core/probe_cache.hpp"
#include "core/ptas.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "dp/frontier_solver.hpp"
#include "eptas/eptas.hpp"
#include "dp/reconstruct.hpp"
#include "faultsim/injector.hpp"
#include "dp/solver.hpp"
#include "gpu/gpu_dp_solver.hpp"
#include "gpusim/coalescing.hpp"
#include "gpusim/device.hpp"
#include "gpusim/topology.hpp"
#include "knapsack/solver.hpp"
#include "gpusim/fluid.hpp"
#include "partition/block_solver.hpp"
#include "partition/blocked_layout.hpp"
#include "partition/divisor.hpp"
#include "workload/generators.hpp"
#include "workload/shapes.hpp"

namespace {

using namespace pcmax;

void BM_MixedRadixRoundTrip(benchmark::State& state) {
  const dp::MixedRadix radix({6, 4, 6, 6, 4});
  std::vector<std::int64_t> coords(radix.dims());
  std::uint64_t id = 0;
  for (auto _ : state) {
    radix.unflatten(id, coords);
    benchmark::DoNotOptimize(radix.flatten(coords));
    id = (id + 1) % radix.size();
  }
}
BENCHMARK(BM_MixedRadixRoundTrip);

void BM_LevelBuckets(benchmark::State& state) {
  const dp::MixedRadix radix({6, 4, 6, 6, 4, 4, 3});
  for (auto _ : state) {
    const dp::LevelBuckets buckets(radix);
    benchmark::DoNotOptimize(buckets.levels());
  }
}
BENCHMARK(BM_LevelBuckets);

void BM_ConfigEnumeration(benchmark::State& state) {
  const auto problem = workload::dp_problem_for_extents(
      {4, 4, 6, 6, 2, 3, 3, 2});  // Table IV shape
  const dp::MixedRadix radix = problem.radix();
  for (auto _ : state) {
    const dp::ConfigSet configs(problem.counts, problem.weights,
                                problem.capacity, radix);
    benchmark::DoNotOptimize(configs.size());
  }
}
BENCHMARK(BM_ConfigEnumeration);

void BM_DpSolve(benchmark::State& state) {
  const auto& shapes = workload::fig3_group('a');
  const auto& shape = shapes[static_cast<std::size_t>(state.range(0))];
  const auto problem = workload::dp_problem_for_extents(shape.extents);
  const dp::LevelBucketSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(problem).opt);
  }
  state.SetLabel("sigma=" + std::to_string(shape.table_size));
}
BENCHMARK(BM_DpSolve)->Arg(0)->Arg(4)->Arg(6);

// The sweep behind dp::kSerialFillCells: one fill of a table of 2^n cells,
// n = 2..15, by fill_row_major (threads = 1) or by fill_by_level on a
// 4-thread team, over classes k, k+1, ... (k = 4: up to 4 classes; k = 8:
// up to 6). Args: n, k, threads.
void BM_FillSweep(benchmark::State& state) {
  const auto bits = state.range(0);
  const auto k = state.range(1);
  const int threads = static_cast<int>(state.range(2));
  const auto dims = std::min<std::int64_t>(bits, k == 4 ? 4 : 6);
  std::vector<std::int64_t> extents;
  for (std::int64_t i = 0; i < dims; ++i) {
    const std::int64_t dim_bits = bits / dims + (i < bits % dims ? 1 : 0);
    extents.push_back(std::int64_t{1} << dim_bits);
  }
  const auto problem = workload::dp_problem_for_extents(extents, k);
  const dp::ConfigSet configs(problem.counts, problem.weights,
                              problem.capacity, problem.radix());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        threads == 1 ? dp::fill_row_major(problem, configs).opt
                     : dp::fill_by_level(problem, configs, threads).opt);
  }
  state.SetLabel("cells=" + std::to_string(problem.table_size()));
}
BENCHMARK(BM_FillSweep)
    ->ArgsProduct({benchmark::CreateDenseRange(2, 15, 1), {4, 8}, {1, 4}})
    ->Unit(benchmark::kMicrosecond);

void BM_BlockedSolve(benchmark::State& state) {
  const auto problem =
      workload::dp_problem_for_extents({6, 4, 6, 6, 4});  // Table I
  const partition::BlockedSolver solver(
      static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(problem).opt);
  }
}
BENCHMARK(BM_BlockedSolve)->Arg(3)->Arg(5);

void BM_Reconstruct(benchmark::State& state) {
  const auto problem = workload::dp_problem_for_extents({6, 4, 6, 6, 4});
  const auto result = dp::ReferenceSolver().solve(problem);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dp::reconstruct_machines(problem, result));
  }
}
BENCHMARK(BM_Reconstruct);

void BM_BlockedLayoutRemap(benchmark::State& state) {
  const dp::MixedRadix radix({6, 4, 6, 6, 4});
  const partition::BlockedLayout layout(
      radix, partition::compute_divisor(radix.extents(), 5));
  std::uint64_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(layout.to_blocked(id));
    id = (id + 1) % radix.size();
  }
}
BENCHMARK(BM_BlockedLayoutRemap);

void BM_WarpCoalescing(benchmark::State& state) {
  std::vector<gpusim::ThreadTrace> traces(32);
  for (int t = 0; t < 32; ++t)
    for (int s = 0; s < 8; ++s)
      traces[static_cast<std::size_t>(t)].push_back(
          static_cast<std::uint64_t>(t) * 4 +
          static_cast<std::uint64_t>(s) * 4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gpusim::warp_transactions(traces, 128));
  }
}
BENCHMARK(BM_WarpCoalescing);

void BM_FluidScheduler(benchmark::State& state) {
  for (auto _ : state) {
    gpusim::FluidScheduler sched(15);
    for (int i = 0; i < 256; ++i) {
      gpusim::FluidTask task;
      task.stream = i % 4;
      task.latency = util::SimTime::microseconds(6);
      task.work = util::SimTime::microseconds(50 + i % 7);
      task.width_sms = 1 + i % 5;
      sched.submit(task);
    }
    benchmark::DoNotOptimize(sched.run(util::SimTime{}));
  }
}
BENCHMARK(BM_FluidScheduler);

// Real wall-clock comparison of the paper-faithful Algorithm-2 level scan
// against the bucketed solver, on the host running this bench: the scan
// re-walks all sigma cells once per anti-diagonal level, so its measured
// penalty grows with the level count — the inefficiency Section III.E
// attributes to the OpenMP implementation, observable without simulation.
void BM_Alg2LevelScan(benchmark::State& state) {
  const auto& shape = workload::fig3_group(
      'a')[static_cast<std::size_t>(state.range(0))];
  const auto problem = workload::dp_problem_for_extents(shape.extents);
  const dp::LevelScanSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(problem).opt);
  }
  state.SetLabel("sigma=" + std::to_string(shape.table_size));
}
BENCHMARK(BM_Alg2LevelScan)->Arg(0)->Arg(4)->Arg(6);

void BM_FrontierSolve(benchmark::State& state) {
  const auto problem = workload::dp_problem_for_extents({6, 4, 6, 6, 4});
  for (auto _ : state) {
    benchmark::DoNotOptimize(dp::solve_frontier(problem).opt);
  }
}
BENCHMARK(BM_FrontierSolve);

// devices=1 must short-circuit to the plain single-device wavefront: the
// topology-backed solver with one device and the direct Device solver run
// the identical code path after dispatch, so these two must match within
// noise (the acceptance bar for the multi-device layer's zero-overhead
// claim — see docs/SHARDING.md).
void BM_GpuDpSolveDirectDevice(benchmark::State& state) {
  const auto problem = workload::dp_problem_for_extents({6, 4, 6, 6, 4});
  gpusim::Device device(gpusim::DeviceSpec::k40());
  const gpu::GpuDpSolver solver(device, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(problem).opt);
  }
}
BENCHMARK(BM_GpuDpSolveDirectDevice);

void BM_GpuDpSolveTopologyOneDevice(benchmark::State& state) {
  const auto problem = workload::dp_problem_for_extents({6, 4, 6, 6, 4});
  gpusim::Topology topology(1, gpusim::DeviceSpec::k40());
  const gpu::GpuDpSolver solver(topology, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(problem).opt);
  }
}
BENCHMARK(BM_GpuDpSolveTopologyOneDevice);

void BM_KnapsackBlocked(benchmark::State& state) {
  knapsack::KnapsackProblem p;
  p.budgets = {12, 12, 12};
  p.items = {{10, {3, 1, 2}}, {7, {2, 2, 1}}, {4, {1, 0, 2}},
             {3, {0, 1, 1}}, {6, {2, 1, 0}}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(knapsack::solve_blocked(p, 3).best);
  }
}
BENCHMARK(BM_KnapsackBlocked);

void BM_ReorganizeLayout(benchmark::State& state) {
  const dp::MixedRadix radix({6, 4, 6, 6, 4});
  const partition::BlockedLayout layout(
      radix, partition::compute_divisor(radix.extents(), 5));
  std::vector<std::int32_t> table(radix.size(), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        layout.reorganize(std::span<const std::int32_t>(table)));
  }
}
BENCHMARK(BM_ReorganizeLayout);

// Observability overhead at the instrumentation sites themselves: one RAII
// span (two trace events) plus one counter bump per iteration. The disabled
// variant is the cost every solver path pays when no ObsSession is active —
// a relaxed atomic load and a branch — and must stay in the low
// single-digit nanoseconds.
void BM_ObsSpanDisabled(benchmark::State& state) {
  for (auto _ : state) {
    const obs::ScopedSpan span("bench/span", {obs::arg("i", 1)});
    obs::count("bench.counter");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_ObsSpanDisabled);

// Fault-hook overhead with no injector installed: the cost every
// instrumented site (device allocate/launch/synchronize, DP-table
// allocation and finalization) pays in production — one relaxed atomic
// load and a predictable branch, same discipline as the obs hooks above.
void BM_FaultHookDisabled(benchmark::State& state) {
  for (auto _ : state) {
    auto fault = faultsim::fault_at(faultsim::Site::kDeviceAlloc);
    benchmark::DoNotOptimize(fault);
  }
}
BENCHMARK(BM_FaultHookDisabled);

// Enabled variant with a non-matching nth rule: the per-hit cost when an
// injector is active but the site does not fire (atomic ordinal bump plus
// one rule scan).
void BM_FaultHookEnabled(benchmark::State& state) {
  faultsim::FaultPlan plan;
  plan.seed = 7;
  plan.rules.push_back(faultsim::FaultRule{
      faultsim::Site::kDeviceAlloc, /*nth=*/std::uint64_t{1} << 62,
      /*permille=*/0, /*stall_ms=*/0});
  const faultsim::ScopedFaultInjector scoped(plan);
  for (auto _ : state) {
    auto fault = faultsim::fault_at(faultsim::Site::kDeviceAlloc);
    benchmark::DoNotOptimize(fault);
  }
}
BENCHMARK(BM_FaultHookEnabled);

// Enabled variant: capped iteration count because every span appends two
// events to the recorder arena, which grows for the session's lifetime.
void BM_ObsSpanEnabled(benchmark::State& state) {
  obs::ObsSession session;
  for (auto _ : state) {
    const obs::ScopedSpan span("bench/span", {obs::arg("i", 1)});
    obs::count("bench.counter");
    benchmark::DoNotOptimize(&span);
  }
  state.SetLabel("events=" + std::to_string(session.trace().size()));
}
BENCHMARK(BM_ObsSpanEnabled)->Iterations(100000);

// Pinned perf-smoke workload for `--json <path>`: one fixed instance
// solved twice per strategy against a shared probe cache (the canonical
// repeated-probe pattern). The second rep must hit the cache, so CI can
// fail the build when the hit rate degenerates to zero.
std::vector<bench::JsonRecord> run_json_workload() {
  const Instance instance = workload::uniform_instance(64, 8, 1, 1000, 42);
  const dp::LevelBucketSolver solver;
  std::vector<bench::JsonRecord> records;
  for (const auto& [name, strategy] :
       {std::pair<const char*, SearchStrategy>{"bisect",
                                               SearchStrategy::kBisection},
        std::pair<const char*, SearchStrategy>{
            "quarter", SearchStrategy::kQuarterSplit}}) {
    ProbeCache shared;
    PtasOptions options;
    options.strategy = strategy;
    options.use_probe_cache = true;
    options.probe_cache = &shared;
    for (int rep = 1; rep <= 2; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      const PtasResult result = solve_ptas(instance, solver, options);
      const auto ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
      records.push_back({std::string("ptas-cache-repeat/") + name + "/rep" +
                             std::to_string(rep),
                         ns, bench::cells_evaluated(result),
                         result.dp_calls.size(),
                         result.cache_stats.hits +
                             result.cache_stats.bound_skips});
    }
  }
  // Same repeated-probe pattern through the sparsified EPTAS engine: its
  // probe keys are built from the sparsified DP problems, so the second rep
  // hitting the shared cache proves the sparsified keys are stable — the
  // hit-rate gate covers both roundings.
  {
    ProbeCache shared;
    PtasOptions options;
    options.epsilon = 0.25;
    options.use_probe_cache = true;
    options.probe_cache = &shared;
    for (int rep = 1; rep <= 2; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      const PtasResult result = eptas::solve_eptas(instance, solver, options);
      const auto ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
      records.push_back({"eptas-cache-repeat/bisect/rep" + std::to_string(rep),
                         ns, bench::cells_evaluated(result),
                         result.dp_calls.size(),
                         result.cache_stats.hits +
                             result.cache_stats.bound_skips});
    }
  }
  return records;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      pcmax::bench::json_path_from_args(argc, argv);
  if (!json_path.empty()) {
    // In --json mode the workload can also be recorded: --trace-out and
    // --metrics-out capture the same observability artifacts as pcmax_cli
    // (see docs/OBSERVABILITY.md), covering exactly the pinned workload.
    const std::string trace_path =
        pcmax::bench::flag_value_from_args(argc, argv, "--trace-out");
    const std::string metrics_path =
        pcmax::bench::flag_value_from_args(argc, argv, "--metrics-out");
    std::vector<pcmax::bench::JsonRecord> records;
    if (trace_path.empty() && metrics_path.empty()) {
      records = run_json_workload();
    } else {
      pcmax::obs::ObsSession session;
      records = run_json_workload();
      if (!trace_path.empty()) {
        pcmax::obs::write_file(
            trace_path, pcmax::obs::chrome_trace_json(session.trace()));
        std::printf("trace: %zu events -> %s\n", session.trace().size(),
                    trace_path.c_str());
      }
      if (!metrics_path.empty()) {
        pcmax::obs::write_file(
            metrics_path, pcmax::obs::metrics_json(session.metrics()));
        std::printf("metrics -> %s\n", metrics_path.c_str());
      }
    }
    pcmax::bench::write_json(json_path, records);
    std::printf("wrote %zu records to %s\n", records.size(),
                json_path.c_str());
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
