// Deterministic time model of the paper's OpenMP implementation of
// Algorithm 2, used to report OMP16/OMP28 figures on hosts that do not have
// a dual Xeon E5-2697v3 (see DESIGN.md "Substitutions").
//
// The model replays the exact per-level work distribution of a real solve:
// per anti-diagonal level, every thread scans the whole table to find its
// level's cells (Algorithm 2 line 12), enumerates each cell's machine
// configurations, and — the dominant term — locates every dependent
// sub-configuration by searching the entire DP-table (Algorithm 2 lines
// 18-19, the behaviour Section III.E attributes to the OpenMP code). Level
// work is divided over the thread count; an OpenMP barrier separates levels.
#pragma once

#include "dp/solver.hpp"
#include "util/sim_time.hpp"

namespace pcmax {

struct CpuModelParams {
  int threads = 16;
  /// Cost per cell visited by the per-level table scan.
  double scan_ns = 0.5;
  /// Cost per dependency per dimension for configuration enumeration.
  double enum_ns = 1.0;
  /// Cost per table cell visited while locating one sub-configuration
  /// (vector compare with early exit). Calibrated against Table VII.
  double search_ns = 8.0;
  /// Per-level OpenMP barrier.
  double barrier_us = 5.0;
};

/// Estimated wall time of the OpenMP Algorithm 2 on `problem`, given its
/// per-cell dependency counts (dp::dependency_counts).
[[nodiscard]] util::SimTime estimate_openmp_dp_time(
    const dp::DpProblem& problem, std::span<const std::uint32_t> deps,
    const CpuModelParams& params = {});

}  // namespace pcmax
