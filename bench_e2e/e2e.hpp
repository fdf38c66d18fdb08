// Shared declarations of the bench_e2e harness: the metric catalogue that
// BENCHMARK.json names, the per-run report, and the workload runners.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace pcmax::bench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Untraced metrics, identical on every workload (BENCHMARK.json
/// "end_to_end"). Batch workloads count solves, serve workloads count OK
/// responses; latency is call-to-validated-schedule for batch and
/// due-time-to-observed-response for serve.
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"latency_ms_p50", "ms"},
    {"latency_ms_p95", "ms"},
    {"makespan_over_lb", "ratio"},
};

/// Traced metrics (BENCHMARK.json "per_layer"). Every workload reports
/// every one; serve-only layers read 0 on the batch workloads.
inline constexpr MetricSpec kPerLayer[] = {
    {"dp.fill_share", "fraction"},
    {"dp.ns_per_cell", "ns"},
    {"dp.us_per_call_p50", "us"},
    {"dp.cells_per_solve", "count"},
    {"search.probes_per_solve", "count"},
    {"search.rounds_per_solve", "count"},
    {"search.bound_skip_frac", "fraction"},
    {"bounds.us_per_solve", "us"},
    {"rounding.us_per_probe", "us"},
    {"reconstruct.us_per_solve", "us"},
    {"cache.hit_frac", "fraction"},
    {"cache.cross_hit_frac", "fraction"},
    {"service_ms_p50", "ms"},
    {"serve.queue_wait_share", "fraction"},
    {"serve.coalesced_frac", "fraction"},
    {"resilient.attempts_per_req", "count"},
    {"resilient.fallback_frac", "fraction"},
    {"gpu.kernels_per_solve", "count"},
    {"other_frac", "fraction"},
    {"trace.overhead_frac", "fraction"},
    {"mem.peak_rss_mb", "MiB"},
};

/// Set-up is timed this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 5;

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool traced = false;
};

/// What one workload run measured. `values` holds every catalogue metric
/// the run produced (plus extras); `lines` are the human-readable report.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  std::map<std::string, double, std::less<>> values;
  std::vector<std::string> lines;

  /// Records one failed operation (solve or request) and why.
  void fail(std::string why);
  void set(std::string_view name, double value) {
    values[std::string(name)] = value;
  }
  /// Appends a printf-formatted report line.
  [[gnu::format(printf, 2, 3)]] void line(const char* fmt, ...);
};

[[nodiscard]] Report run_dp_heavy(const RunConfig& config);
[[nodiscard]] Report run_small_mix(const RunConfig& config);
[[nodiscard]] Report run_serve_burst_dup(const RunConfig& config);
[[nodiscard]] Report run_serve_open_unique(const RunConfig& config);

/// The decorator and split-solve checks behind --selftest; returns the
/// number of failed checks after printing each one.
[[nodiscard]] int run_selftest();

}  // namespace pcmax::bench
