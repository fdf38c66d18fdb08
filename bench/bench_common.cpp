#include "bench_common.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace pcmax::bench {

ShapeTiming time_shape(const workload::TableShape& shape,
                       const std::vector<std::size_t>& gpu_dims) {
  ShapeTiming timing;
  timing.shape = shape;

  const dp::DpProblem problem =
      workload::dp_problem_for_extents(shape.extents);

  const dp::DpResult reference = dp::LevelBucketSolver().solve(problem);
  const std::vector<std::uint32_t> deps = dp::dependency_counts(problem);

  CpuModelParams m16;
  m16.threads = 16;
  CpuModelParams m28;
  m28.threads = 28;
  timing.omp16_ms = estimate_openmp_dp_time(problem, deps, m16).ms();
  timing.omp28_ms = estimate_openmp_dp_time(problem, deps, m28).ms();

  for (const auto dims : gpu_dims) {
    gpusim::Device device(gpusim::DeviceSpec::k40());
    const gpu::GpuDpSolver solver(device, dims);
    const dp::DpResult result = solver.solve(problem);
    if (result.table != reference.table)
      throw std::runtime_error("GPU engine diverged on " + shape.label);
    timing.gpu_ms[dims] = solver.last_solve_time().ms();
  }
  return timing;
}

std::string fmt_ms(double ms) {
  char buf[32];
  if (ms >= 1000.0)
    std::snprintf(buf, sizeof buf, "%.0f", ms);
  else if (ms >= 10.0)
    std::snprintf(buf, sizeof buf, "%.1f", ms);
  else
    std::snprintf(buf, sizeof buf, "%.3f", ms);
  return buf;
}

namespace {

std::string escape_json(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

void write_json(const std::string& path,
                const std::vector<JsonRecord>& records) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  out << "[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const JsonRecord& r = records[i];
    out << "  {\"name\": \"" << escape_json(r.name) << "\", \"ns\": " << r.ns
        << ", \"cells\": " << r.cells << ", \"probes\": " << r.probes
        << ", \"cache_hits\": " << r.cache_hits << "}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "]\n";
  if (!out) throw std::runtime_error("failed writing " + path);
}

std::string flag_value_from_args(int argc, const char* const* argv,
                                 std::string_view flag) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == flag) {
      if (i + 1 >= argc)
        throw std::runtime_error(std::string(flag) + " requires a value");
      return argv[i + 1];
    }
    if (a.size() > flag.size() + 1 && a.substr(0, flag.size()) == flag &&
        a[flag.size()] == '=')
      return std::string(a.substr(flag.size() + 1));
  }
  return "";
}

std::string json_path_from_args(int argc, const char* const* argv) {
  return flag_value_from_args(argc, argv, "--json");
}

std::uint64_t cells_evaluated(const PtasResult& result) {
  std::uint64_t cells = 0;
  for (const DpInvocation& call : result.dp_calls)
    // Probes without long jobs answer without a DP (nonzero_dims == 0);
    // their nominal table_size of 1 is not an evaluated cell.
    if (!call.cached && call.nonzero_dims > 0) cells += call.table_size;
  return cells;
}

}  // namespace pcmax::bench
