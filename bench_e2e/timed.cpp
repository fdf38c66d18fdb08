#include "timed.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "core/bounds.hpp"
#include "core/rounding.hpp"
#include "eptas/sparsify.hpp"
#include "util/contracts.hpp"

namespace pcmax::bench {

namespace {
std::uint64_t g_sink = 0;  // keeps replayed calls observable
}  // namespace

std::int64_t replay_bounds_ns(const Instance& instance) {
  constexpr int kReplays = 16;
  const auto start = Clock::now();
  for (int i = 0; i < kReplays; ++i)
    g_sink += static_cast<std::uint64_t>(makespan_lower_bound(instance) +
                                         makespan_upper_bound(instance));
  return elapsed_ns(start) / kReplays;
}

std::int64_t replay_rounding_ns(const Instance& instance,
                                const std::vector<std::int64_t>& targets,
                                std::int64_t k, bool sparsified) {
  const auto start = Clock::now();
  for (const std::int64_t target : targets)
    g_sink += sparsified
                  ? eptas::sparsify_instance(instance, target, k)
                        .class_index.size()
                  : round_instance(instance, target, k).class_index.size();
  return elapsed_ns(start);
}

dp::DpResult TimedSolver::solve(const dp::DpProblem& problem,
                                const dp::SolveOptions& options) const {
  const auto start = Clock::now();
  dp::DpResult result = inner_.solve(problem, options);
  calls_.push_back(
      Call{elapsed_ns(start), problem.table_size(), problem.capacity});
  return result;
}

std::int64_t TimedSolver::total_ns() const noexcept {
  std::int64_t ns = 0;
  for (const Call& c : calls_) ns += c.ns;
  return ns;
}

std::uint64_t TimedSolver::total_cells() const noexcept {
  std::uint64_t cells = 0;
  for (const Call& c : calls_) cells += c.cells;
  return cells;
}

std::optional<std::int32_t> TimedProbeCache::lookup(const ProbeKey& key) {
  const auto start = Clock::now();
  std::optional<std::int32_t> hit = inner_.lookup(key);
  lookup_ns += elapsed_ns(start);
  ++lookups;
  if (hit.has_value()) ++hits;
  return hit;
}

void TimedProbeCache::insert(const ProbeKey& key, std::int32_t opt) {
  const auto start = Clock::now();
  inner_.insert(key, opt);
  insert_ns += elapsed_ns(start);
  ++insertions;
}

double percentile(std::vector<double> samples, double pct) {
  PCMAX_EXPECTS(!samples.empty());
  std::sort(samples.begin(), samples.end());
  const double rank =
      pct / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

Percentile tail_percentile(const std::vector<double>& samples) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) return p;
  for (const double pct : {99.9, 99.0, 95.0, 90.0}) {
    const double beyond =
        static_cast<double>(samples.size()) * (100.0 - pct) / 100.0;
    if (beyond >= 10.0 - 1e-9) {
      p.pct = pct;
      break;
    }
  }
  p.value = percentile(samples, p.pct);
  return p;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace pcmax::bench
