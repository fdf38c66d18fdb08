// Seeded input generation for the bench_e2e workloads. The program under
// test only ever sees the generated instances; the same seed always yields
// the same instances. README.md gives the reasons behind each shape.
#pragma once

#include <cstdint>
#include <vector>

#include "core/instance.hpp"

namespace pcmax::bench {

/// How a batch case is solved; each value is one production call pattern.
enum class Engine {
  kPtasBisection,      ///< solve_ptas, bisection, probe cache off (CLI)
  kPtasQuarterCached,  ///< solve_ptas, quarter split, private probe cache
  kEptasBisection,     ///< solve_eptas, bisection, probe cache off (CLI)
  kEptasCached,        ///< solve_eptas, bisection, private probe cache
};

[[nodiscard]] inline bool is_eptas(Engine engine) {
  return engine == Engine::kEptasBisection || engine == Engine::kEptasCached;
}

struct BatchCase {
  const char* family = "";
  Instance instance;
  std::int64_t k = 4;
  Engine engine = Engine::kPtasBisection;
  /// Exact DP cells of the solve, search plus reconstruction, when known
  /// before solving (dp-heavy's perfect packings); 0 when unknown.
  std::uint64_t expected_cells = 0;
  /// OPT equals the lower bound by construction, so T* must too.
  bool perfect_packing = false;
};

/// dp-heavy: perfect-packing instances whose exact DP work lies in a narrow
/// per-family band (see README.md), in three families: classic k=4,
/// classic k=8 and EPTAS k=8, all bisection with the cache off.
[[nodiscard]] std::vector<BatchCase> dp_heavy_cases(std::uint64_t seed);

/// small-mix: a grid over machines, jobs-per-machine ratio and time
/// distribution at epsilon 0.25, rotating three engines; instances whose
/// classic table at T = LB exceeds 65536 cells are redrawn.
[[nodiscard]] std::vector<BatchCase> small_mix_cases(std::uint64_t seed);

/// One serve request: 16 jobs uniform in [1, 1000] on 8 machines.
[[nodiscard]] Instance serve_instance(std::uint64_t seed);

/// A well-mixed 64-bit seed for stream `stream` of run seed `seed`.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

}  // namespace pcmax::bench
