// Executable realization of Algorithm 5 on the simulator's per-thread API.
//
// Unlike GpuDpSolver — which charges *analytic* WorkEstimates — this engine
// runs FindOPT / FindValidSub / SetOPT as real thread functors: every
// global-memory access is issued through ThreadCtx against a modeled
// address space (blocked DP-table, per-cell coordinate vectors, class
// weights), so the simulator measures actual warp-coalesced transaction
// counts. It is intentionally slow (host-side thread emulation) and meant
// for small tables: its purpose is to (a) compute the DP end to end through
// the kernel structure itself and (b) ground the analytic charge formulas
// of gpu/charge.hpp against measured traffic (see ExecutableReport).
#pragma once

#include <cstdint>

#include "dp/solver.hpp"
#include "gpusim/device.hpp"

namespace pcmax::gpu {

struct ExecutableReport {
  /// The solved DP (table in row-major order, like every other engine).
  dp::DpResult result;
  /// Work measured by executing the kernels with access tracing, read from
  /// the device's kernel log: zero unless the caller enabled
  /// Device::set_kernel_log before the run.
  gpusim::WorkEstimate measured_find_opt;
  gpusim::WorkEstimate measured_find_valid_sub;
  gpusim::WorkEstimate measured_set_opt;
  /// The analytic charges GpuDpSolver would have applied to the same run.
  gpusim::WorkEstimate analytic_find_opt;
  gpusim::WorkEstimate analytic_find_valid_sub;
  gpusim::WorkEstimate analytic_set_opt;
  /// Simulated device time of the executable run.
  util::SimTime device_time;
};

/// Runs the executable Algorithm-5 engine. Keep the table small (the host
/// emulates every thread); a guard rejects tables above 100k cells.
[[nodiscard]] ExecutableReport run_executable_dp(const dp::DpProblem& problem,
                                                 gpusim::Device& device,
                                                 std::size_t partition_dims,
                                                 int stream_count = 4);

}  // namespace pcmax::gpu
