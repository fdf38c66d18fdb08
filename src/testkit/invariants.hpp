// Invariant checkers: each verifies one structural property the repository
// guarantees and returns nullopt on success or a human-readable diagnosis on
// violation. They are the assertion vocabulary shared by the property tests
// and the differential fuzzer, and they check from first principles — none
// of them re-runs the code under test to judge itself.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/instance.hpp"
#include "core/ptas.hpp"
#include "core/resilient.hpp"
#include "dp/problem.hpp"
#include "dp/solver.hpp"
#include "exact/bb.hpp"
#include "gpusim/device.hpp"
#include "partition/blocked_layout.hpp"

namespace pcmax::testkit {

/// nullopt == the invariant holds; otherwise a diagnosis suitable for a
/// test failure message or a fuzz report.
using CheckResult = std::optional<std::string>;

/// Schedule validity plus conservation: every job on a real machine, and
/// the per-machine loads sum to the instance's total processing time.
[[nodiscard]] CheckResult check_schedule(const Instance& instance,
                                         const Schedule& schedule);

/// Full PTAS certificate: the schedule is valid, achieved_makespan matches
/// the actual loads, the found target lies in [LB, UB], the makespan
/// respects the (1 + 1/k) guarantee against the target, and the makespan is
/// at least the oracle lower bound (testkit/oracles.hpp).
[[nodiscard]] CheckResult check_ptas_result(const Instance& instance,
                                            const PtasResult& result,
                                            std::int64_t k);

/// Sharper variant when the exact optimum is known: OPT <= makespan and
/// makespan * k <= (k + 1) * OPT, both in exact integers.
[[nodiscard]] CheckResult check_ptas_vs_exact(const Instance& instance,
                                              const PtasResult& result,
                                              std::int64_t k,
                                              std::int64_t exact_opt);

/// DP-table self-consistency: origin 0, table.back() == opt, monotonicity
/// along every axis (a finite cell's axis-predecessors are finite and no
/// larger), the weight lower bound OPT(v) >= ceil(weight(v) / capacity),
/// and the level upper bound OPT(v) <= level(v) for reachable cells.
[[nodiscard]] CheckResult check_dp_table(const dp::DpProblem& problem,
                                         const dp::DpResult& result);

/// Two engines agree: equal OPT always; equal tables when `compare_tables`
/// (OPT-only engines pass an empty table).
[[nodiscard]] CheckResult check_tables_match(const std::string& name_a,
                                             const dp::DpResult& a,
                                             const std::string& name_b,
                                             const dp::DpResult& b,
                                             bool compare_tables);

/// The blocked layout is a bijection on [0, table_size): to_blocked and
/// from_blocked are mutual inverses and to_blocked covers every offset
/// exactly once; blocked_offset agrees with to_blocked on coordinates.
[[nodiscard]] CheckResult check_blocked_bijection(
    const partition::BlockedLayout& layout);

/// The probe cache is semantically invisible: a cached PTAS run returns the
/// same best target, achieved makespan, and schedule as an uncached run of
/// the same instance/solver/strategy. A cold-cache run replays the uncached
/// search trajectory exactly, so `require_same_iterations` additionally
/// demands equal round counts; pass false for runs against a warm shared
/// cache, where skipped rounds are legitimate.
[[nodiscard]] CheckResult check_ptas_cache_equivalence(
    const PtasResult& cached, const PtasResult& uncached,
    bool require_same_iterations);

/// The resilient-driver contract under faults: a kOk result carries a valid
/// schedule whose makespan matches an independent recomputation, respects
/// its stated rational quality bound against the oracle lower bound, and
/// names the engine that produced it; a kDeadlineExceeded result still
/// carries a valid best-effort schedule and is marked degraded; any other
/// failure must be a classified code (never kOk-with-no-schedule and never
/// kInternal, which the driver reserves for bugs).
[[nodiscard]] CheckResult check_resilient_result(const Instance& instance,
                                                 const ResilientResult& result);

/// The exact engine's certificate is internally consistent: the schedule is
/// valid with correct load conservation, its real makespan matches the
/// claimed one, lower_bound <= makespan always, lower_bound >= the trivial
/// instance bound, and a kOk status claims exactly lower_bound == makespan
/// (proven optimality) while budget expiry must carry kDeadlineExceeded and
/// an incumbent no worse than LPT. Checks the claim's shape, not OPT itself
/// — pair with check_schedule_vs_opt or a brute-force oracle for that.
[[nodiscard]] CheckResult check_exact_claim(const Instance& instance,
                                            const exact::BbResult& result);

/// Ground-truth differential check: `schedule` (produced by `engine`) must
/// be valid, never beat the true optimum `opt`, and respect the engine's
/// stated a-priori guarantee makespan * bound_den <= bound_num * opt in
/// exact integer arithmetic (overflow-checked).
[[nodiscard]] CheckResult check_schedule_vs_opt(
    const Instance& instance, const std::string& engine,
    const Schedule& schedule, std::int64_t bound_num, std::int64_t bound_den,
    std::int64_t opt);

/// Simulated-device conservation laws over the kernel log: every kernel's
/// finish >= start, nothing finishes after the device clock, per-stream
/// FIFO (kernels on one stream never overlap), and the device clock is at
/// least every stream's total busy time — charged time >= critical path.
/// Checks only kernels retired after Device::set_kernel_log(true).
[[nodiscard]] CheckResult check_device_conservation(
    const gpusim::Device& device);

}  // namespace pcmax::testkit
