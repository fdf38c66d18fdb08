// Batch workloads (dp-heavy, small-mix) and the decorator self-test.
//
// An untraced pass calls solve_ptas / solve_eptas exactly as the CLI does
// and times each call. A traced pass solves the same cases through
// TimedSolver and TimedProbeCache, runs the search (build_schedule = false)
// and build_*_schedule_at_target as two timed calls, and replays the bound
// and rounding calls on the probed targets to size those layers. Whatever
// the layers do not cover is reported as `other`.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/bounds.hpp"
#include "core/ptas.hpp"
#include "core/resilient.hpp"
#include "e2e.hpp"
#include "eptas/eptas.hpp"
#include "timed.hpp"
#include "workloads.hpp"

namespace pcmax::bench {

namespace {

PtasOptions options_for(const BatchCase& c) {
  PtasOptions options;
  options.epsilon = epsilon_for_k(c.k);
  options.strategy = c.engine == Engine::kPtasQuarterCached
                         ? SearchStrategy::kQuarterSplit
                         : SearchStrategy::kBisection;
  options.use_probe_cache = c.engine == Engine::kPtasQuarterCached ||
                            c.engine == Engine::kEptasCached;
  return options;
}

PtasResult solve_case(const BatchCase& c, const dp::DpSolver& solver,
                      const PtasOptions& options) {
  return is_eptas(c.engine) ? eptas::solve_eptas(c.instance, solver, options)
                            : solve_ptas(c.instance, solver, options);
}

ScheduleBuild build_case(const BatchCase& c, const dp::DpSolver& solver,
                         std::int64_t target,
                         std::vector<DpInvocation>& calls) {
  return is_eptas(c.engine)
             ? eptas::build_eptas_schedule_at_target(c.instance, solver, c.k,
                                                     target, 0, calls)
             : build_schedule_at_target(c.instance, solver, c.k, target, 0,
                                        calls);
}

/// The correctness gate every answer passes; returns why it failed, or "".
std::string check_solve(const BatchCase& c, const PtasResult& r) {
  try {
    validate_schedule(c.instance, r.schedule);
  } catch (const std::exception& e) {
    return std::string("invalid schedule: ") + e.what();
  }
  const std::int64_t achieved = makespan(c.instance, r.schedule);
  const std::int64_t lb = makespan_lower_bound(c.instance);
  if (achieved != r.achieved_makespan)
    return "reported makespan " + std::to_string(r.achieved_makespan) +
           " != recomputed " + std::to_string(achieved);
  if (achieved < lb || r.best_target < lb)
    return "makespan or T* below the lower bound " + std::to_string(lb);
  if (achieved * c.k > (c.k + 1) * r.best_target)
    return "makespan " + std::to_string(achieved) +
           " breaks the (k+1)/k certificate at T*=" +
           std::to_string(r.best_target);
  if (c.perfect_packing && r.best_target != lb)
    return "T*=" + std::to_string(r.best_target) +
           " on a perfect packing with OPT=" + std::to_string(lb);
  if (c.expected_cells != 0 && cells_evaluated(r) != c.expected_cells)
    return "evaluated " + std::to_string(cells_evaluated(r)) +
           " DP cells, expected " + std::to_string(c.expected_cells);
  return {};
}

/// Layer sums over the traced solves of a run.
struct Layers {
  std::uint64_t solves = 0;
  std::int64_t e2e_ns = 0;
  std::int64_t dp_ns = 0;
  std::int64_t cache_ns = 0;
  std::int64_t reconstruct_ns = 0;  // build minus its DP fill
  std::int64_t bounds_ns = 0;       // replayed
  std::int64_t rounding_ns = 0;     // replayed
  std::uint64_t cells = 0;
  std::uint64_t probes = 0;  // search probes that rounded feasibly
  std::uint64_t rounds = 0;
  std::uint64_t bound_skips = 0;
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t insertions = 0;
  std::int64_t lookup_ns = 0;
  std::int64_t insert_ns = 0;
  // DP ns and cells per capacity k^2.
  std::map<std::int64_t, std::pair<std::int64_t, std::uint64_t>> by_k;
  std::vector<double> dp_call_us;
  std::vector<double> solve_ms;
};

/// One traced solve; returns the assembled result for the gate.
PtasResult traced_solve(const BatchCase& c, const dp::DpSolver& solver,
                        Layers& layers) {
  const TimedSolver timed(solver);
  ProbeCache cache;
  TimedProbeCache timed_cache(cache);
  PtasOptions options = options_for(c);
  options.build_schedule = false;
  if (options.use_probe_cache) options.probe_cache = &timed_cache;

  const auto start = Clock::now();
  PtasResult result = solve_case(c, timed, options);
  const std::int64_t search_ns = elapsed_ns(start);
  const std::int64_t search_dp_ns = timed.total_ns();
  const std::size_t search_probes = result.dp_calls.size();
  const auto build_start = Clock::now();
  ScheduleBuild build = build_case(c, timed, result.best_target,
                                   result.dp_calls);
  const std::int64_t build_ns = elapsed_ns(build_start);
  result.schedule = std::move(build.schedule);
  result.achieved_makespan = build.achieved_makespan;

  // Replays: the bounds every solve computes once, and the rounding of each
  // probed target.
  std::vector<std::int64_t> targets;
  for (std::size_t i = 0; i < search_probes; ++i)
    targets.push_back(result.dp_calls[i].target);
  layers.bounds_ns += replay_bounds_ns(c.instance);
  layers.rounding_ns +=
      replay_rounding_ns(c.instance, targets, c.k, is_eptas(c.engine));

  ++layers.solves;
  layers.e2e_ns += search_ns + build_ns;
  layers.dp_ns += timed.total_ns();
  layers.reconstruct_ns += build_ns - (timed.total_ns() - search_dp_ns);
  layers.cache_ns += timed_cache.lookup_ns + timed_cache.insert_ns;
  layers.lookup_ns += timed_cache.lookup_ns;
  layers.insert_ns += timed_cache.insert_ns;
  layers.lookups += timed_cache.lookups;
  layers.hits += timed_cache.hits;
  layers.insertions += timed_cache.insertions;
  layers.cells += timed.total_cells();
  layers.probes += search_probes;
  layers.rounds += result.search_iterations;
  layers.bound_skips += result.cache_stats.bound_skips;
  for (const TimedSolver::Call& call : timed.calls()) {
    auto& [ns, cells] = layers.by_k[call.capacity];
    ns += call.ns;
    cells += call.cells;
    layers.dp_call_us.push_back(static_cast<double>(call.ns) / 1e3);
  }
  layers.solve_ms.push_back(static_cast<double>(search_ns + build_ns) / 1e6);
  return result;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void report_layers(const Layers& l, double overhead, Report& report) {
  const auto n = static_cast<double>(l.solves);
  const auto e2e = static_cast<double>(l.e2e_ns);
  const auto other = static_cast<double>(l.e2e_ns - l.dp_ns - l.cache_ns -
                                         l.reconstruct_ns - l.bounds_ns -
                                         l.rounding_ns);
  const auto cells = static_cast<double>(l.cells);
  const auto probes = static_cast<double>(l.probes);

  report.set("dp.fill_share", ratio(static_cast<double>(l.dp_ns), e2e));
  report.set("dp.ns_per_cell", ratio(static_cast<double>(l.dp_ns), cells));
  report.set("dp.us_per_call_p50",
             l.dp_call_us.empty() ? 0.0 : median(l.dp_call_us));
  report.set("dp.cells_per_solve", ratio(cells, n));
  report.set("search.probes_per_solve", ratio(probes, n));
  report.set("search.rounds_per_solve",
             ratio(static_cast<double>(l.rounds), n));
  report.set("search.bound_skip_frac",
             ratio(static_cast<double>(l.bound_skips),
                   static_cast<double>(l.bound_skips) + probes));
  report.set("bounds.us_per_solve",
             ratio(static_cast<double>(l.bounds_ns) / 1e3, n));
  report.set("rounding.us_per_probe",
             ratio(static_cast<double>(l.rounding_ns) / 1e3, probes));
  report.set("reconstruct.us_per_solve",
             ratio(static_cast<double>(l.reconstruct_ns) / 1e3, n));
  report.set("cache.hit_frac", ratio(static_cast<double>(l.hits),
                                     static_cast<double>(l.lookups)));
  report.set("service_ms_p50", l.solve_ms.empty() ? 0.0 : median(l.solve_ms));
  report.set("other_frac", ratio(other, e2e));
  report.set("trace.overhead_frac", overhead);
  for (const char* serve_only :
       {"cache.cross_hit_frac", "serve.queue_wait_share",
        "serve.coalesced_frac", "resilient.attempts_per_req",
        "resilient.fallback_frac", "gpu.kernels_per_solve"})
    report.set(serve_only, 0.0);

  report.line("traced layers over %llu solves (wall ms, share of %.1f ms):",
              static_cast<unsigned long long>(l.solves), e2e / 1e6);
  const auto row = [&](const char* name, double ns) {
    report.line("  %-26s %10.2f ms  %6.2f%%", name, ns / 1e6,
                100.0 * ratio(ns, e2e));
  };
  row("dp fill (TimedSolver)", static_cast<double>(l.dp_ns));
  row("probe cache", static_cast<double>(l.cache_ns));
  row("reconstruct (self)", static_cast<double>(l.reconstruct_ns));
  row("bounds (replayed)", static_cast<double>(l.bounds_ns));
  row("rounding (replayed)", static_cast<double>(l.rounding_ns));
  row("other = search self", other);
  report.line("  %-26s %10.2f ms  reconciled: other %+.2f%% (must be >= -1%%)",
              "= traced end to end", e2e / 1e6, 100.0 * ratio(other, e2e));
  for (const auto& [capacity, ns_cells] : l.by_k)
    report.line("  dp.ns_per_cell.k%lld %.1f over %llu cells",
                std::llround(std::sqrt(static_cast<double>(capacity))),
                ratio(static_cast<double>(ns_cells.first),
                      static_cast<double>(ns_cells.second)),
                static_cast<unsigned long long>(ns_cells.second));
  report.line("  dp.fill_ms_per_solve %.3f  search.self_ms %.3f per solve",
              ratio(static_cast<double>(l.dp_ns) / 1e6, n),
              ratio(other / 1e6, n));
  report.line("  cache: %llu lookups, %llu hits, lookup %.0f ns, "
              "insert %.0f ns",
              static_cast<unsigned long long>(l.lookups),
              static_cast<unsigned long long>(l.hits),
              ratio(static_cast<double>(l.lookup_ns),
                    static_cast<double>(l.lookups)),
              ratio(static_cast<double>(l.insert_ns),
                    static_cast<double>(l.insertions)));
  if (other < -0.01 * e2e)
    report.fail("layers exceed the traced end-to-end time by more than 1%");
}

Report run_batch(std::vector<BatchCase> (*make)(std::uint64_t),
                 const RunConfig& config) {
  Report report;
  const dp::LevelBucketSolver solver;

  // Set-up: generate the cases and warm up with one solve per family.
  std::vector<double> setup_s;
  std::vector<BatchCase> cases;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto start = Clock::now();
    cases = make(config.seed);
    std::vector<std::string> warmed;
    for (const BatchCase& c : cases) {
      if (std::find(warmed.begin(), warmed.end(), c.family) != warmed.end())
        continue;
      warmed.emplace_back(c.family);
      solve_case(c, solver, options_for(c));
    }
    setup_s.push_back(static_cast<double>(elapsed_ns(start)) / 1e9);
  }

  // Untraced and (in a traced run) traced passes alternate over the same
  // cases; `solve_s` sums the timed calls of each untraced pass, against
  // which the traced passes' end-to-end sum gives the tracing overhead.
  std::vector<double> pass_rate, latency_ms, solve_s;
  std::vector<double> quality;
  std::map<std::string, std::pair<double, std::size_t>> family_ms;
  Layers layers;
  int traced_passes = 0;
  const auto run_start = Clock::now();
  for (int pass = 0;
       pass < (config.traced ? 2 : 1) ||
       static_cast<double>(elapsed_ns(run_start)) / 1e9 < config.seconds;
       ++pass) {
    const bool traced_pass = config.traced && pass % 2 == 1;
    traced_passes += traced_pass ? 1 : 0;
    if (!traced_pass) solve_s.push_back(0.0);
    const auto pass_start = Clock::now();
    for (const BatchCase& c : cases) {
      ++report.attempted;
      PtasResult result;
      if (traced_pass) {
        result = traced_solve(c, solver, layers);
      } else {
        const auto start = Clock::now();
        result = solve_case(c, solver, options_for(c));
        const double ms = static_cast<double>(elapsed_ns(start)) / 1e6;
        latency_ms.push_back(ms);
        solve_s.back() += ms / 1e3;
        if (pass == 0) {
          auto& [sum, count] = family_ms[c.family];
          sum += ms;
          ++count;
          quality.push_back(
              static_cast<double>(result.achieved_makespan) /
              static_cast<double>(makespan_lower_bound(c.instance)));
        }
      }
      if (const std::string why = check_solve(c, result); !why.empty())
        report.fail(std::string(c.family) + ": " + why);
    }
    if (!traced_pass)
      pass_rate.push_back(static_cast<double>(cases.size()) * 1e9 /
                          static_cast<double>(elapsed_ns(pass_start)));
  }

  double mean_quality = 0.0;
  for (const double q : quality) mean_quality += q;
  mean_quality /= static_cast<double>(quality.size());
  report.set("setup_s", median(setup_s));
  report.set("throughput_per_s", median(pass_rate));
  report.set("latency_ms_p50", percentile(latency_ms, 50.0));
  report.set("latency_ms_p95", percentile(latency_ms, 95.0));
  report.set("makespan_over_lb", mean_quality);

  report.line("%zu cases, %zu untraced passes: %.1f solves/s median "
              "(min %.1f, max %.1f); set-up median of %zu",
              cases.size(), pass_rate.size(), median(pass_rate),
              *std::min_element(pass_rate.begin(), pass_rate.end()),
              *std::max_element(pass_rate.begin(), pass_rate.end()),
              setup_s.size());
  for (const auto& [family, sum_count] : family_ms)
    report.line("  family %-10s %3zu cases  %8.3f ms mean solve",
                family.c_str(), sum_count.second,
                sum_count.first / static_cast<double>(sum_count.second));
  const Percentile tail = tail_percentile(latency_ms);
  report.line("latency p50 %.3f ms, p95 %.3f ms, p%g %.3f ms (n=%zu)",
              percentile(latency_ms, 50.0), percentile(latency_ms, 95.0),
              tail.pct, tail.value, tail.samples);
  if (config.traced) {
    double untraced_total = 0.0;
    for (int i = 0; i < traced_passes; ++i)
      untraced_total += solve_s[static_cast<std::size_t>(i)];
    report_layers(layers,
                  static_cast<double>(layers.e2e_ns) / 1e9 / untraced_total -
                      1.0,
                  report);
  }
  report.set("mem.peak_rss_mb", peak_rss_mb());
  return report;
}

}  // namespace

Report run_dp_heavy(const RunConfig& config) {
  return run_batch(dp_heavy_cases, config);
}

Report run_small_mix(const RunConfig& config) {
  return run_batch(small_mix_cases, config);
}

namespace {

bool same_calls(const std::vector<DpInvocation>& a,
                const std::vector<DpInvocation>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const DpInvocation& x, const DpInvocation& y) {
                      return x.target == y.target &&
                             x.table_size == y.table_size &&
                             x.nonzero_dims == y.nonzero_dims &&
                             x.long_jobs == y.long_jobs && x.opt == y.opt &&
                             x.cached == y.cached;
                    });
}

}  // namespace

int run_selftest() {
  int failures = 0;
  int checks = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    ++checks;
    if (!ok) {
      ++failures;
      std::printf("FAIL %s\n", what.c_str());
    }
  };

  // Every engine of both batch workloads: the first case of each dp-heavy
  // family and the first 24 small-mix cases (all three engines).
  std::vector<BatchCase> cases;
  for (BatchCase& c : dp_heavy_cases(7)) {
    const bool seen = std::any_of(
        cases.begin(), cases.end(),
        [&](const BatchCase& s) { return std::string(s.family) == c.family; });
    if (!seen) cases.push_back(std::move(c));
  }
  std::vector<BatchCase> mix = small_mix_cases(7);
  mix.resize(24);
  for (BatchCase& c : mix) cases.push_back(std::move(c));

  const dp::LevelBucketSolver solver;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const BatchCase& c = cases[i];
    const std::string name =
        "case " + std::to_string(i) + " (" + c.family + ")";
    const PtasResult plain = solve_case(c, solver, options_for(c));
    const std::string why = check_solve(c, plain);
    expect(why.empty(), name + ": plain solve fails the gate: " + why);

    // Decorated full solve: identical answer; counts match the result's.
    const TimedSolver timed(solver);
    ProbeCache cache;
    TimedProbeCache timed_cache(cache);
    PtasOptions options = options_for(c);
    if (options.use_probe_cache) options.probe_cache = &timed_cache;
    const PtasResult decorated = solve_case(c, timed, options);
    expect(decorated.schedule.assignment == plain.schedule.assignment &&
               decorated.best_target == plain.best_target &&
               same_calls(decorated.dp_calls, plain.dp_calls),
           name + ": decorated solve differs from the plain one");
    expect(timed.total_cells() == cells_evaluated(decorated),
           name + ": TimedSolver cells " +
               std::to_string(timed.total_cells()) + " != evaluated " +
               std::to_string(cells_evaluated(decorated)));
    expect(timed_cache.hits == decorated.cache_stats.hits &&
               timed_cache.lookups == decorated.cache_stats.lookups,
           name + ": TimedProbeCache hits/lookups differ from cache_stats");

    // Search only, then the reconstruction call: the same solve again.
    const TimedSolver split_timed(solver);
    ProbeCache split_cache;
    TimedProbeCache split_timed_cache(split_cache);
    PtasOptions split_options = options_for(c);
    split_options.build_schedule = false;
    if (split_options.use_probe_cache)
      split_options.probe_cache = &split_timed_cache;
    PtasResult split = solve_case(c, split_timed, split_options);
    const std::uint64_t search_cells = cells_evaluated(split);
    const ScheduleBuild build =
        build_case(c, split_timed, split.best_target, split.dp_calls);
    const DpInvocation& rebuilt = split.dp_calls.back();
    const std::uint64_t reconstruction_cells =
        rebuilt.nonzero_dims > 0 ? rebuilt.table_size : 0;
    expect(build.schedule.assignment == plain.schedule.assignment &&
               build.achieved_makespan == plain.achieved_makespan &&
               same_calls(split.dp_calls, plain.dp_calls),
           name + ": search + build_*_schedule_at_target differs from the "
                  "full solve");
    expect(split_timed.total_cells() == search_cells + reconstruction_cells,
           name + ": split cells != search cells + reconstruction table");
  }

  // The percentile rule: interpolation, and ten samples beyond the tail.
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  expect(percentile(samples, 50.0) == 50.5, "p50 of 1..100 is 50.5");
  expect(tail_percentile(samples).pct == 90.0,
         "100 samples: p90 is the highest with 10 beyond");
  samples.resize(1000, 1.0);
  expect(tail_percentile(samples).pct == 99.0 &&
             tail_percentile(samples).samples == 1000,
         "1000 samples: p99");
  samples.resize(15);
  expect(tail_percentile(samples).pct == 50.0, "15 samples: p50 only");

  std::printf("selftest: %d/%d checks passed over %zu cases\n",
              checks - failures, checks, cases.size());
  return failures;
}

}  // namespace pcmax::bench
