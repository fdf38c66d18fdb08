// bench_e2e: end-to-end latency and throughput of certified schedules, with
// a traced mode that attributes the time to the layers it passed through.
//
//   bench_e2e --workload dp-heavy --seed 1 [--seconds 15] [--traced]
//             [--json out.json]
//   bench_e2e --selftest
//
// Workloads: dp-heavy, small-mix (batch solves through solve_ptas /
// solve_eptas) and serve-burst-dup, serve-open-unique (an in-process
// SolveServer). Every answer passes a correctness gate; any failure makes
// the exit code 1. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics, or with --traced the per-layer ones
// (e2e.hpp lists both). README.md documents workloads and metrics.
#include <cstdarg>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <span>
#include <string>
#include <string_view>

#include "bench_common.hpp"
#include "e2e.hpp"

namespace {

using namespace pcmax::bench;

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: bench_e2e --workload NAME --seed N [--seconds S] "
               "[--traced] [--json FILE]\n"
               "       bench_e2e --selftest\n"
               "workloads: dp-heavy small-mix serve-burst-dup "
               "serve-open-unique\n",
               error.c_str());
  std::exit(2);
}

std::string result_json(const Report& report, bool traced) {
  const std::span<const MetricSpec> specs =
      traced ? std::span<const MetricSpec>(kPerLayer)
             : std::span<const MetricSpec>(kEndToEnd);
  std::string json = "{\"correct\": ";
  json += report.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = report.values.find(specs[i].name);
    if (it == report.values.end() || !std::isfinite(it->second))
      throw std::logic_error(std::string("metric ") + specs[i].name +
                             " was not measured");
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", it->second);
    json += std::string(i == 0 ? "" : ", ") + "\"" + specs[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + specs[i].unit +
            "\"}";
  }
  return json + "}}";
}

}  // namespace

namespace pcmax::bench {

void Report::fail(std::string why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(std::move(why));
}

void Report::line(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  lines.emplace_back(buf);
}

}  // namespace pcmax::bench

int main(int argc, char** argv) {
  try {
    for (int i = 1; i < argc; ++i)
      if (std::string_view(argv[i]) == "--selftest")
        return run_selftest() == 0 ? 0 : 1;

    const std::string workload = flag_value_from_args(argc, argv, "--workload");
    const std::string seed = flag_value_from_args(argc, argv, "--seed");
    const std::string seconds = flag_value_from_args(argc, argv, "--seconds");
    const std::string json_path = json_path_from_args(argc, argv);
    RunConfig config;
    for (int i = 1; i < argc; ++i)
      if (std::string_view(argv[i]) == "--traced") config.traced = true;
    if (seed.empty()) usage("--seed is required");
    config.seed = std::strtoull(seed.c_str(), nullptr, 10);
    if (!seconds.empty()) config.seconds = std::atof(seconds.c_str());
    if (!(config.seconds > 0.0 && config.seconds <= 600.0))
      usage("--seconds must be in (0, 600]");

    Report (*run)(const RunConfig&) = nullptr;
    if (workload == "dp-heavy") run = run_dp_heavy;
    if (workload == "small-mix") run = run_small_mix;
    if (workload == "serve-burst-dup") run = run_serve_burst_dup;
    if (workload == "serve-open-unique") run = run_serve_open_unique;
    if (run == nullptr) usage("unknown --workload '" + workload + "'");

    std::printf("# bench_e2e %s seed %llu seconds %g %s\n", workload.c_str(),
                static_cast<unsigned long long>(config.seed), config.seconds,
                config.traced ? "traced" : "untraced");
    const Report report = run(config);
    for (const std::string& l : report.lines) std::printf("%s\n", l.c_str());
    for (const auto& [name, value] : report.values) {
      std::string unit = "";
      for (const auto& list : {std::span<const MetricSpec>(kEndToEnd),
                               std::span<const MetricSpec>(kPerLayer)})
        for (const MetricSpec& spec : list)
          if (name == spec.name) unit = spec.unit;
      std::printf("%-28s %14.6g %s\n", name.c_str(), value, unit.c_str());
    }
    std::printf("failed_frac %.6f (%llu of %llu)\n",
                report.attempted > 0 ? static_cast<double>(report.failed) /
                                           static_cast<double>(report.attempted)
                                     : 0.0,
                static_cast<unsigned long long>(report.failed),
                static_cast<unsigned long long>(report.attempted));
    for (const std::string& why : report.failures)
      std::printf("FAILED: %s\n", why.c_str());

    const std::string json = result_json(report, config.traced);
    if (!json_path.empty()) {
      std::ofstream out(json_path);
      out << json << "\n";
      if (!out) throw std::runtime_error("cannot write " + json_path);
    }
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return report.failed == 0 && report.attempted > 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
}
