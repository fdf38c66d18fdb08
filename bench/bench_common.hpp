// Shared helpers for the paper-reproduction benchmark binaries.
//
// Two kinds of time pass through here, and they are not interchangeable:
//  * time_shape's ShapeTiming is *simulated*: OMP16/OMP28 from the
//    calibrated CPU model of the paper's OpenMP implementation, GPU-DIMx
//    from the simulated K40 device (see DESIGN.md, "Substitutions"). The
//    computations behind them are real — every DP table is actually solved
//    and verified.
//  * JsonRecord::ns, the --json trajectory field, is host wall time.
//    bench_shard is the one exception: its records still carry charged
//    simulated device time in `ns`.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/cpu_time_model.hpp"
#include "core/ptas.hpp"
#include "gpu/gpu_dp_solver.hpp"
#include "workload/shapes.hpp"

namespace pcmax::bench {

struct ShapeTiming {
  workload::TableShape shape;
  double omp16_ms = 0.0;
  double omp28_ms = 0.0;
  /// Simulated GPU time per partition-dimension setting.
  std::map<std::size_t, double> gpu_ms;
};

/// Solves the shape's DP problem once per engine and returns modeled times.
/// Every engine's table is checked against the bucketed solver; mismatches
/// throw.
[[nodiscard]] ShapeTiming time_shape(const workload::TableShape& shape,
                                     const std::vector<std::size_t>& gpu_dims);

/// Formats milliseconds with adaptive precision for table cells.
[[nodiscard]] std::string fmt_ms(double ms);

/// One benchmark case of the machine-readable perf trajectory (--json).
/// scripts/perf_trajectory.py folds these into BENCH_*.json histories.
struct JsonRecord {
  std::string name;
  /// Real host wall time of the case, nanoseconds.
  std::uint64_t ns = 0;
  /// DP cells actually evaluated: sum of table sizes over real (non-cached)
  /// solves.
  std::uint64_t cells = 0;
  /// DP invocations recorded (feasibility probes plus reconstruction),
  /// cache-answered ones included.
  std::uint64_t probes = 0;
  /// Probe-cache hits; 0 whenever the cache is off.
  std::uint64_t cache_hits = 0;
};

/// Writes `records` to `path` as a JSON array of objects. Throws on I/O
/// failure.
void write_json(const std::string& path,
                const std::vector<JsonRecord>& records);

/// The value of `flag` in argv (either `--flag VALUE` or `--flag=VALUE`),
/// or "" when absent. Throws when the flag is present without a value.
[[nodiscard]] std::string flag_value_from_args(int argc,
                                               const char* const* argv,
                                               std::string_view flag);

/// The value following a `--json` flag in argv, or "" when absent.
/// Throws when the flag is present without a value.
[[nodiscard]] std::string json_path_from_args(int argc,
                                              const char* const* argv);

/// Cells actually evaluated during a PTAS run: sum of table_size over the
/// run's non-cached DP invocations (the unit the probe-cache ablation
/// reports).
[[nodiscard]] std::uint64_t cells_evaluated(const PtasResult& result);

}  // namespace pcmax::bench
