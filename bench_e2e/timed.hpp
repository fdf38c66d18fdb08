// Timing helpers for bench_e2e's traced runs. The decorators time calls
// into the dp and core/probe_cache layers from outside: each forwards every
// call unchanged, so a decorated solve returns exactly what a plain one does
// (bench_e2e --selftest pins this), and only adds clock reads around it.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "core/probe_cache.hpp"
#include "dp/solver.hpp"

namespace pcmax::bench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t elapsed_ns(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              since)
      .count();
}

/// DpSolver decorator recording wall ns and table cells per forwarded
/// solve. One caller thread at a time (the DP's own OpenMP team runs inside
/// the forwarded call, not through this object).
class TimedSolver final : public dp::DpSolver {
 public:
  struct Call {
    std::int64_t ns = 0;
    std::uint64_t cells = 0;
    std::int64_t capacity = 0;  ///< k^2 of the rounding that built the table
  };

  explicit TimedSolver(const dp::DpSolver& inner) : inner_(inner) {}

  using dp::DpSolver::solve;
  [[nodiscard]] dp::DpResult solve(
      const dp::DpProblem& problem,
      const dp::SolveOptions& options) const override;
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  [[nodiscard]] const std::vector<Call>& calls() const noexcept {
    return calls_;
  }
  [[nodiscard]] std::int64_t total_ns() const noexcept;
  [[nodiscard]] std::uint64_t total_cells() const noexcept;

 private:
  const dp::DpSolver& inner_;
  mutable std::vector<Call> calls_;
};

/// ProbeCacheBase decorator counting lookups, hits and insertions and the
/// wall ns spent in each. Same threading rule as the wrapped cache.
class TimedProbeCache final : public ProbeCacheBase {
 public:
  explicit TimedProbeCache(ProbeCacheBase& inner) : inner_(inner) {}

  [[nodiscard]] std::optional<std::int32_t> lookup(
      const ProbeKey& key) override;
  void insert(const ProbeKey& key, std::int32_t opt) override;
  [[nodiscard]] ProbeCacheStats stats() const override {
    return inner_.stats();
  }

  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t insertions = 0;
  std::int64_t lookup_ns = 0;
  std::int64_t insert_ns = 0;

 private:
  ProbeCacheBase& inner_;
};

/// Wall ns of one makespan_lower_bound + makespan_upper_bound pair on
/// `instance`, replayed outside the solve (averaged over several calls:
/// each is well under a microsecond).
[[nodiscard]] std::int64_t replay_bounds_ns(const Instance& instance);

/// Wall ns to round `instance` at each of `targets` with accuracy k: the
/// classic round_instance, or sparsify_instance for the EPTAS engine.
[[nodiscard]] std::int64_t replay_rounding_ns(
    const Instance& instance, const std::vector<std::int64_t>& targets,
    std::int64_t k, bool sparsified);

/// Linearly interpolated `pct`-th percentile (0..100). Requires samples.
[[nodiscard]] double percentile(std::vector<double> samples, double pct);

[[nodiscard]] inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

/// A percentile together with the sample count behind it.
struct Percentile {
  double pct = 50.0;
  double value = 0.0;
  std::size_t samples = 0;
};

/// The highest of p99.9, p99, p95, p90 and p50 that has at least ten
/// samples beyond it (p50 when even that does not), and the sample count.
[[nodiscard]] Percentile tail_percentile(const std::vector<double>& samples);

/// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace pcmax::bench
