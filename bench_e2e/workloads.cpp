#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/bounds.hpp"
#include "core/rounding.hpp"
#include "eptas/sparsify.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"

namespace pcmax::bench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 finalizer over a golden-ratio stride.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {

/// Cells of the DP table a probe at `target` fills (0 without long jobs).
std::uint64_t probe_cells(const Instance& instance, std::int64_t target,
                          std::int64_t k, bool eptas) {
  if (eptas) {
    const auto sparse = eptas::sparsify_instance(instance, target, k);
    return sparse.class_index.empty() ? 0 : sparse.table_size();
  }
  const auto rounded = round_instance(instance, target, k);
  return rounded.class_index.empty() ? 0 : rounded.table_size();
}

/// Exact DP cells of a bisection solve on an instance with OPT == LB.
/// Every probe T >= OPT is feasible (rounding down keeps an optimal
/// schedule within capacity), so the search only ever lowers its upper
/// end and the probed targets depend on LB and UB alone.
std::uint64_t perfect_packing_cells(const Instance& instance, std::int64_t k,
                                    bool eptas) {
  std::int64_t lb = makespan_lower_bound(instance);
  std::int64_t ub = makespan_upper_bound(instance);
  std::uint64_t cells = 0;
  while (lb < ub) {
    const std::int64_t t = lb + (ub - lb) / 2;
    cells += probe_cells(instance, t, k, eptas);
    ub = t;
  }
  return cells + probe_cells(instance, lb, k, eptas);  // reconstruction
}

/// A dp-heavy family: every machine of the hidden optimum holds two jobs,
/// a in [first_lo, first_hi] and kLoad - a, so OPT = LB = kLoad. Only
/// instances whose exact DP work falls within +-4% of `cells` are kept.
struct PackingFamily {
  const char* name;
  Engine engine;
  std::int64_t k;
  std::int64_t machines;
  std::int64_t first_lo;
  std::int64_t first_hi;
  std::uint64_t cells;
  int count;
};

constexpr std::int64_t kLoad = 1000;

// Each family's band sits near its median DP work at that machine count, so
// few draws are rejected, and a solve takes roughly 40-60 ms on 4 cores.
constexpr PackingFamily kPackingFamilies[] = {
    {"ptas-k4", Engine::kPtasBisection, 4, 14, 100, 900, 500000, 24},
    {"ptas-k8", Engine::kPtasBisection, 8, 7, 100, 900, 100000, 24},
    {"eptas-k8", Engine::kEptasBisection, 8, 8, 100, 350, 80000, 24},
};

Instance perfect_packing(const PackingFamily& family, util::Rng& rng) {
  Instance instance;
  instance.machines = family.machines;
  for (std::int64_t m = 0; m < family.machines; ++m) {
    const std::int64_t a = rng.uniform(family.first_lo, family.first_hi);
    instance.times.push_back(a);
    instance.times.push_back(kLoad - a);
  }
  std::shuffle(instance.times.begin(), instance.times.end(), rng.engine());
  return instance;
}

}  // namespace

std::vector<BatchCase> dp_heavy_cases(std::uint64_t seed) {
  std::vector<BatchCase> cases;
  for (std::size_t f = 0; f < std::size(kPackingFamilies); ++f) {
    const PackingFamily& family = kPackingFamilies[f];
    util::Rng rng(derive_seed(seed, f));
    const auto lo = family.cells / 100 * 96;
    const auto hi = family.cells / 100 * 104;
    for (int i = 0, draws = 0; i < family.count; ++draws) {
      if (draws > 200000)
        throw std::runtime_error(std::string("dp-heavy family ") +
                                 family.name + " found no instance in band");
      Instance instance = perfect_packing(family, rng);
      const std::uint64_t cells =
          perfect_packing_cells(instance, family.k, is_eptas(family.engine));
      if (cells < lo || cells > hi) continue;
      cases.push_back(BatchCase{family.name, std::move(instance), family.k,
                                family.engine, cells, true});
      ++i;
    }
  }
  return cases;
}

std::vector<BatchCase> small_mix_cases(std::uint64_t seed) {
  constexpr std::int64_t kRatios[] = {3, 5, 8, 12, 17, 23, 30, 40};
  constexpr const char* kDistributions[] = {"uniform", "normal", "bimodal"};
  constexpr Engine kEngines[] = {Engine::kPtasBisection,
                                 Engine::kPtasQuarterCached,
                                 Engine::kEptasCached};
  constexpr int kReplicates = 10;
  constexpr std::int64_t kK = 4;  // epsilon 0.25
  constexpr std::uint64_t kTableCap = 65536;

  std::vector<BatchCase> cases;
  std::uint64_t stream = 0;
  for (int rep = 0; rep < kReplicates; ++rep) {
    for (std::int64_t m = 2; m <= 10; ++m) {
      for (const std::int64_t ratio : kRatios) {
        for (int dist = 0; dist < 3; ++dist, ++stream) {
          const auto jobs = static_cast<std::size_t>(m * ratio);
          for (std::uint64_t draw = 0;; ++draw) {
            if (draw > 10000)
              throw std::runtime_error("small-mix redraw limit reached");
            const std::uint64_t s = derive_seed(seed, stream * 10007 + draw);
            Instance instance =
                dist == 0   ? workload::uniform_instance(jobs, m, 1, 1000, s)
                : dist == 1 ? workload::normal_instance(jobs, m, 500.0,
                                                        150.0, s)
                            : workload::bimodal_instance(jobs, m, 1, 200, 600,
                                                         1000, 0.3, s);
            const auto rounded =
                round_instance(instance, makespan_lower_bound(instance), kK);
            if (rounded.table_size() > kTableCap) continue;
            // Rotate engines across (m, ratio) cells so no engine is tied
            // to one distribution.
            const std::uint64_t engine = (stream / 3 + rep) % 3;
            cases.push_back(BatchCase{kDistributions[dist],
                                      std::move(instance), kK,
                                      kEngines[engine]});
            break;
          }
        }
      }
    }
  }
  util::Rng rng(derive_seed(seed, stream));
  std::shuffle(cases.begin(), cases.end(), rng.engine());
  return cases;
}

Instance serve_instance(std::uint64_t seed) {
  return workload::uniform_instance(16, 8, 1, 1000, seed);
}

}  // namespace pcmax::bench
