// pcmax differential fuzzer.
//
// Drives randomized cases through every DP engine and the PTAS schedulers
// under a wall-clock budget, checking the repository's central invariant:
// all engines agree bit-exactly with the reference oracle, and every PTAS
// result carries a valid (1 + 1/k) certificate against independent oracles.
// On failure the input is greedily shrunk to a minimal reproducer, a replay
// token is printed, and a repro file is written for CI artifact upload.
//
//   pcmax_fuzz --budget 60 --seed 1        # 60-second campaign
//   pcmax_fuzz --replay 1:4242            # re-run one failing case
//   pcmax_fuzz --budget 600 --seed $RANDOM --repro-dir out/
//
// Exit codes: 0 all cases green (and every engine exercised), 1 invariant
// violation (reproducer printed), 2 usage error.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/bounds.hpp"
#include "core/ptas.hpp"
#include "core/resilient.hpp"
#include "core/rounding.hpp"
#include "eptas/eptas.hpp"
#include "exact/bb.hpp"
#include "faultsim/injector.hpp"
#include "gpu/gpu_ptas.hpp"
#include "gpu/resilient_gpu.hpp"
#include "obs/export.hpp"
#include "obs/session.hpp"
#include "partition/block_solver.hpp"
#include "partition/divisor.hpp"
#include "testkit/engines.hpp"
#include "testkit/generators.hpp"
#include "testkit/invariants.hpp"
#include "testkit/metamorphic.hpp"
#include "testkit/oracles.hpp"
#include "testkit/replay.hpp"
#include "testkit/shrink.hpp"
#include "workload/shapes.hpp"

namespace {

using namespace pcmax;
using Clock = std::chrono::steady_clock;

[[noreturn]] void usage(const char* error) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr,
               "usage: pcmax_fuzz [--budget SECONDS] [--seed SEED]\n"
               "                  [--max-cases N] [--replay SEED:CASE]\n"
               "                  [--mode NAME] [--repro-dir DIR] [--verbose]\n"
               "\n"
               "--mode pins every case to one mode (e.g. exact, faults);\n"
               "the all-engines coverage gate is then skipped.\n");
  std::exit(2);
}

struct Args {
  double budget = 10.0;
  std::uint64_t seed = 1;
  std::uint64_t max_cases = 0;  // 0 = unlimited within the budget
  std::optional<testkit::CaseId> replay;
  /// Pin every case to one mode by name (resolved in main after the Mode
  /// table is known); empty = the usual round-robin + biased mix.
  std::string mode;
  std::string repro_dir = ".";
  bool verbose = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) usage(what);
      return argv[++i];
    };
    if (a == "--budget") {
      args.budget = std::atof(next("--budget needs seconds"));
      if (args.budget <= 0) usage("--budget must be positive");
    } else if (a == "--seed") {
      args.seed = static_cast<std::uint64_t>(
          std::strtoull(next("--seed needs a value"), nullptr, 10));
    } else if (a == "--max-cases") {
      args.max_cases = static_cast<std::uint64_t>(
          std::strtoull(next("--max-cases needs a value"), nullptr, 10));
    } else if (a == "--replay") {
      args.replay = testkit::parse_case(next("--replay needs SEED:CASE"));
      if (!args.replay.has_value()) usage("--replay wants the SEED:CASE form");
    } else if (a == "--mode") {
      args.mode = next("--mode needs a mode name");
    } else if (a == "--repro-dir") {
      args.repro_dir = next("--repro-dir needs a path");
    } else if (a == "--verbose") {
      args.verbose = true;
    } else {
      usage(("unknown flag: " + a).c_str());
    }
  }
  return args;
}

enum class Mode : int {
  kDpDifferential = 0,
  kPtasCertificate = 1,
  kLayoutBijection = 2,
  kSimulator = 3,
  kPtasCache = 4,
  kMetamorphic = 5,
  kFaults = 6,
  kExact = 7,
  kRecovery = 8,
  kEptas = 9,
};
constexpr int kModeCount = 10;

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kDpDifferential: return "dp-differential";
    case Mode::kPtasCertificate: return "ptas-certificate";
    case Mode::kLayoutBijection: return "layout-bijection";
    case Mode::kSimulator: return "simulator";
    case Mode::kPtasCache: return "ptas-cache";
    case Mode::kMetamorphic: return "metamorphic";
    case Mode::kFaults: return "faults";
    case Mode::kExact: return "exact";
    case Mode::kRecovery: return "recovery";
    case Mode::kEptas: return "eptas";
  }
  return "?";
}

std::optional<Mode> parse_mode(const std::string& name) {
  for (int i = 0; i < kModeCount; ++i)
    if (name == mode_name(static_cast<Mode>(i))) return static_cast<Mode>(i);
  return std::nullopt;
}

/// Random fault plan for the resilience mode: each site independently gets a
/// one-shot or probability rule, so plans range from benign to storms.
faultsim::FaultPlan random_fault_plan(util::Rng& rng) {
  faultsim::FaultPlan plan;
  plan.seed = static_cast<std::uint64_t>(rng.uniform(0, 1'000'000));
  for (std::size_t s = 0; s < faultsim::kSiteCount; ++s) {
    if (rng.uniform01() > 0.45) continue;
    faultsim::FaultRule rule;
    rule.site = static_cast<faultsim::Site>(s);
    if (rng.uniform01() < 0.5)
      rule.nth = static_cast<std::uint64_t>(rng.uniform(1, 8));
    else
      rule.permille = static_cast<std::uint32_t>(rng.uniform(50, 700));
    if (rule.site == faultsim::Site::kStreamSync) {
      constexpr std::int64_t kStalls[] = {50, 2000, 5000};
      rule.stall_ms = kStalls[rng.uniform(0, 2)];
    }
    plan.rules.push_back(rule);
  }
  return plan;
}

void append_list(std::string& s, const std::vector<std::int64_t>& values) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) s += ',';
    s += std::to_string(values[i]);
  }
}

std::string describe(const dp::DpProblem& p) {
  std::string s = "counts=[";
  append_list(s, p.counts);
  s += "] weights=[";
  append_list(s, p.weights);
  s += "] capacity=";
  s += std::to_string(p.capacity);
  return s;
}

std::string describe(const Instance& inst) {
  std::string s = "machines=" + std::to_string(inst.machines) + " times=[";
  append_list(s, inst.times);
  s += "]";
  return s;
}

struct Coverage {
  std::uint64_t cases = 0;
  std::uint64_t skipped = 0;
  std::map<std::string, std::uint64_t> per_mode;
  /// Engine-pair comparisons (reference, X), counted per case.
  std::map<std::string, std::uint64_t> per_engine;
  /// PTAS engines whose certificate was checked.
  std::map<std::string, std::uint64_t> per_ptas_engine;
  /// Instance-level schedulers judged against a proven optimum (exact mode).
  std::map<std::string, std::uint64_t> per_scheduler;
};

struct Failure {
  testkit::CaseId id;
  Mode mode = Mode::kDpDifferential;
  std::string diagnosis;
  std::string reproducer;
  /// Canonical fault-plan text when the failing mode injected faults; the
  /// reporter writes it as a standalone replay artifact for --fault-plan.
  std::string fault_plan;
};

class Fuzzer {
 public:
  Fuzzer(const Args& args, std::optional<Mode> mode_filter)
      : args_(args), mode_filter_(mode_filter) {}

  /// Runs one case; returns nullopt when it passed (or was skipped).
  std::optional<Failure> run_case(const testkit::CaseId& id) {
    util::Rng rng(testkit::case_rng_seed(id));
    // The first cases round-robin the modes so even a tiny budget exercises
    // every engine and checker; afterwards the mix is random but biased
    // toward the differential core. A --mode filter pins every case.
    Mode mode;
    if (mode_filter_.has_value()) {
      mode = *mode_filter_;
    } else if (id.index < 3 * kModeCount) {
      mode = static_cast<Mode>(id.index % kModeCount);
    } else {
      const auto roll = rng.uniform(0, 17);
      mode = roll < 5    ? Mode::kDpDifferential
             : roll < 8  ? Mode::kPtasCertificate
             : roll < 9  ? Mode::kLayoutBijection
             : roll < 10 ? Mode::kSimulator
             : roll < 12 ? Mode::kPtasCache
             : roll < 13 ? Mode::kMetamorphic
             : roll < 14 ? Mode::kFaults
             : roll < 16 ? Mode::kExact
             : roll < 17 ? Mode::kRecovery
                         : Mode::kEptas;
    }
    coverage_.cases++;
    coverage_.per_mode[mode_name(mode)]++;
    switch (mode) {
      case Mode::kDpDifferential: return run_dp_differential(id, rng);
      case Mode::kPtasCertificate: return run_ptas_certificate(id, rng);
      case Mode::kLayoutBijection: return run_layout_bijection(id, rng);
      case Mode::kSimulator: return run_simulator(id, rng);
      case Mode::kPtasCache: return run_ptas_cache(id, rng);
      case Mode::kMetamorphic: return run_metamorphic(id, rng);
      case Mode::kFaults: return run_faults(id, rng);
      case Mode::kExact: return run_exact(id, rng);
      case Mode::kRecovery: return run_recovery(id, rng);
      case Mode::kEptas: return run_eptas(id, rng);
    }
    return std::nullopt;
  }

  [[nodiscard]] const Coverage& coverage() const noexcept { return coverage_; }
  [[nodiscard]] const testkit::EngineRegistry& registry() const noexcept {
    return registry_;
  }

 private:
  /// Every engine against the reference, plus reference self-consistency.
  testkit::CheckResult check_problem_all_engines(const dp::DpProblem& problem,
                                                 bool count_coverage) {
    const auto& engines = registry_.engines();
    const auto reference = engines.front().solve(problem);
    if (auto bad = testkit::check_dp_table(problem, reference))
      return "reference self-check: " + *bad;
    for (std::size_t e = 1; e < engines.size(); ++e) {
      const auto result = engines[e].solve(problem);
      if (count_coverage) coverage_.per_engine[engines[e].name]++;
      if (auto bad = testkit::check_tables_match(
              engines.front().name, reference, engines[e].name, result,
              engines[e].full_table))
        return bad;
    }
    return std::nullopt;
  }

  std::optional<Failure> run_dp_differential(const testkit::CaseId& id,
                                             util::Rng& rng) {
    dp::DpProblem problem;
    if (rng.uniform(0, 3) == 0) {
      // Adversarial table shape with PTAS-style class weights.
      const auto extents = testkit::adversarial_extents(rng, 6, 5'000);
      problem = workload::dp_problem_for_extents(extents, rng.uniform(2, 5));
    } else {
      testkit::DpProblemLimits limits;
      limits.max_cells = 5'000;
      problem = testkit::random_dp_problem(rng, limits);
    }
    auto bad = check_problem_all_engines(problem, /*count_coverage=*/true);
    if (!bad.has_value()) return std::nullopt;

    Failure failure{id, Mode::kDpDifferential, *bad, {}, {}};
    const auto shrunk = testkit::shrink_dp_problem(
        problem, [this](const dp::DpProblem& candidate) {
          return check_problem_all_engines(candidate, /*count_coverage=*/false)
              .has_value();
        });
    failure.reproducer = describe(shrunk);
    return failure;
  }

  testkit::CheckResult check_ptas_case(const Instance& instance,
                                       const dp::DpSolver& solver,
                                       double epsilon,
                                       SearchStrategy strategy) {
    PtasOptions options;
    options.epsilon = epsilon;
    options.strategy = strategy;
    const auto k = k_for_epsilon(epsilon);
    const auto result = solve_ptas(instance, solver, options);
    // Tiny instances get the exact branch-and-bound oracle on top of the
    // certificate checks.
    if (instance.jobs() <= 9 && instance.machines <= 4) {
      if (const auto opt = testkit::exact_makespan(instance))
        return testkit::check_ptas_vs_exact(instance, result, k, *opt);
    }
    return testkit::check_ptas_result(instance, result, k);
  }

  std::optional<Failure> run_ptas_certificate(const testkit::CaseId& id,
                                              util::Rng& rng) {
    Instance instance;
    const auto k_choice = rng.uniform(0, 3);
    const double epsilon = k_choice == 0   ? 1.0
                           : k_choice == 1 ? 0.5
                           : k_choice == 2 ? 0.34
                                           : 0.25;
    const auto k = k_for_epsilon(epsilon);
    bool found = false;
    for (int attempt = 0; attempt < 5 && !found; ++attempt) {
      instance = testkit::random_instance(rng);
      // Gate on the DP table size at the lower-bound target (the largest
      // table the search can build): the curse of dimensionality belongs to
      // the benches, not the fuzzer.
      const auto rounded =
          round_instance(instance, makespan_lower_bound(instance), k);
      found = !rounded.feasible || rounded.table_size() <= 100'000;
    }
    if (!found) {
      coverage_.skipped++;
      return std::nullopt;
    }

    const dp::LevelBucketSolver bucket;
    const dp::LevelScanSolver scan;
    const partition::BlockedSolver blocked3(3);
    const partition::BlockedSolver blocked6(6);
    const dp::DpSolver* solvers[] = {&bucket, &scan, &blocked3, &blocked6};
    const auto* solver = solvers[rng.uniform(0, 3)];
    const auto strategy = rng.uniform(0, 1) == 0 ? SearchStrategy::kBisection
                                                 : SearchStrategy::kQuarterSplit;
    coverage_.per_ptas_engine[solver->name()]++;
    auto bad = check_ptas_case(instance, *solver, epsilon, strategy);

    // The GPU PTAS (Algorithm 3 end to end on the simulated device) rides
    // along on small instances.
    if (!bad.has_value() && instance.jobs() <= 16) {
      gpusim::Device device(gpusim::DeviceSpec::k40());
      device.set_kernel_log(true);  // read by check_device_conservation
      gpu::GpuPtasOptions gpu_options;
      gpu_options.epsilon = epsilon;
      const auto gpu_result = gpu::solve_gpu_ptas(instance, device, gpu_options);
      coverage_.per_ptas_engine["gpu-ptas"]++;
      bad = testkit::check_ptas_result(instance, gpu_result.ptas, k);
      if (!bad.has_value())
        bad = testkit::check_device_conservation(device);
    }
    if (!bad.has_value()) return std::nullopt;

    Failure failure{id, Mode::kPtasCertificate, *bad, {}, {}};
    const auto shrunk = testkit::shrink_instance(
        instance, [&](const Instance& candidate) {
          return check_ptas_case(candidate, *solver, epsilon, strategy)
              .has_value();
        });
    failure.reproducer = describe(shrunk);
    return failure;
  }

  testkit::CheckResult check_ptas_cache_case(const Instance& instance,
                                             const dp::DpSolver& solver,
                                             double epsilon,
                                             SearchStrategy strategy) {
    PtasOptions options;
    options.epsilon = epsilon;
    options.strategy = strategy;
    const auto k = k_for_epsilon(epsilon);
    const PtasResult uncached = solve_ptas(instance, solver, options);

    // Cold cache: the search trajectory must replay the uncached run exactly.
    options.use_probe_cache = true;
    const PtasResult cold = solve_ptas(instance, solver, options);
    if (auto bad = testkit::check_ptas_cache_equivalence(
            cold, uncached, /*require_same_iterations=*/true))
      return "cold cache: " + *bad;
    if (auto bad = testkit::check_ptas_result(instance, cold, k))
      return "cold cache: " + *bad;

    // Warm shared cache: the second run may answer probes (and skip rounds)
    // from memory but must land on the same schedule.
    ProbeCache shared;
    options.probe_cache = &shared;
    (void)solve_ptas(instance, solver, options);
    const PtasResult warm = solve_ptas(instance, solver, options);
    if (auto bad = testkit::check_ptas_cache_equivalence(
            warm, uncached, /*require_same_iterations=*/false))
      return "warm cache: " + *bad;
    if (auto bad = testkit::check_ptas_result(instance, warm, k))
      return "warm cache: " + *bad;
    return std::nullopt;
  }

  std::optional<Failure> run_ptas_cache(const testkit::CaseId& id,
                                        util::Rng& rng) {
    Instance instance;
    const auto k_choice = rng.uniform(0, 3);
    const double epsilon = k_choice == 0   ? 1.0
                           : k_choice == 1 ? 0.5
                           : k_choice == 2 ? 0.34
                                           : 0.25;
    const auto k = k_for_epsilon(epsilon);
    bool found = false;
    for (int attempt = 0; attempt < 5 && !found; ++attempt) {
      instance = testkit::random_instance(rng);
      // Tighter gate than ptas-certificate: this mode runs the full search
      // four times per case.
      const auto rounded =
          round_instance(instance, makespan_lower_bound(instance), k);
      found = !rounded.feasible || rounded.table_size() <= 50'000;
    }
    if (!found) {
      coverage_.skipped++;
      return std::nullopt;
    }

    const dp::LevelBucketSolver bucket;
    const dp::LevelScanSolver scan;
    const partition::BlockedSolver blocked3(3);
    const partition::BlockedSolver blocked6(6);
    const dp::DpSolver* solvers[] = {&bucket, &scan, &blocked3, &blocked6};
    const auto* solver = solvers[rng.uniform(0, 3)];
    const auto strategy = rng.uniform(0, 1) == 0
                              ? SearchStrategy::kBisection
                              : SearchStrategy::kQuarterSplit;
    coverage_.per_ptas_engine[solver->name()]++;
    auto bad = check_ptas_cache_case(instance, *solver, epsilon, strategy);
    if (!bad.has_value()) return std::nullopt;

    Failure failure{id, Mode::kPtasCache, *bad, {}, {}};
    const auto shrunk = testkit::shrink_instance(
        instance, [&](const Instance& candidate) {
          return check_ptas_cache_case(candidate, *solver, epsilon, strategy)
              .has_value();
        });
    failure.reproducer = describe(shrunk);
    return failure;
  }

  std::optional<Failure> run_metamorphic(const testkit::CaseId& id,
                                         util::Rng& rng) {
    Instance instance;
    const auto k_choice = rng.uniform(0, 3);
    const double epsilon = k_choice == 0   ? 1.0
                           : k_choice == 1 ? 0.5
                           : k_choice == 2 ? 0.34
                                           : 0.25;
    const auto k = k_for_epsilon(epsilon);
    bool found = false;
    for (int attempt = 0; attempt < 5 && !found; ++attempt) {
      instance = testkit::random_instance(rng);
      // The suite reruns the full search for the base, permuted, scaled and
      // extended variants (scaling leaves the rounded table size unchanged),
      // so gate as tightly as the cache mode.
      const auto rounded =
          round_instance(instance, makespan_lower_bound(instance), k);
      found = !rounded.feasible || rounded.table_size() <= 30'000;
    }
    if (!found) {
      coverage_.skipped++;
      return std::nullopt;
    }

    const dp::LevelBucketSolver bucket;
    const dp::LevelScanSolver scan;
    const partition::BlockedSolver blocked3(3);
    const partition::BlockedSolver blocked6(6);
    const dp::DpSolver* solvers[] = {&bucket, &scan, &blocked3, &blocked6};
    const auto* solver = solvers[rng.uniform(0, 3)];
    PtasOptions options;
    options.epsilon = epsilon;
    options.strategy = rng.uniform(0, 1) == 0 ? SearchStrategy::kBisection
                                              : SearchStrategy::kQuarterSplit;
    const auto suite_seed = testkit::case_rng_seed(id);
    coverage_.per_ptas_engine[solver->name()]++;
    auto bad =
        testkit::check_metamorphic_suite(instance, *solver, options, suite_seed);
    if (!bad.has_value()) return std::nullopt;

    Failure failure{id, Mode::kMetamorphic, *bad, {}, {}};
    const auto shrunk = testkit::shrink_instance(
        instance, [&](const Instance& candidate) {
          return testkit::check_metamorphic_suite(candidate, *solver, options,
                                                  suite_seed)
              .has_value();
        });
    failure.reproducer = describe(shrunk);
    return failure;
  }

  std::optional<Failure> run_layout_bijection(const testkit::CaseId& id,
                                              util::Rng& rng) {
    const auto extents = testkit::adversarial_extents(rng, 6, 20'000);
    const auto dims = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(extents.size())));
    const auto check = [dims](const std::vector<std::int64_t>& e) {
      const dp::MixedRadix radix(e);
      const partition::BlockedLayout layout(
          radix, partition::compute_divisor(e, dims));
      return testkit::check_blocked_bijection(layout);
    };
    auto bad = check(extents);
    if (!bad.has_value()) return std::nullopt;

    // Shrink via the DP-problem shrinker: extents are counts + 1.
    dp::DpProblem as_problem;
    as_problem.capacity = 1;
    for (const auto e : extents) {
      as_problem.counts.push_back(e - 1);
      as_problem.weights.push_back(1);
    }
    Failure failure{id, Mode::kLayoutBijection, *bad, {}, {}};
    const auto shrunk = testkit::shrink_dp_problem(
        as_problem, [&](const dp::DpProblem& candidate) {
          std::vector<std::int64_t> e;
          for (const auto n : candidate.counts) e.push_back(n + 1);
          return check(e).has_value();
        });
    std::string extents_text = "extents=[";
    for (std::size_t i = 0; i < shrunk.counts.size(); ++i) {
      if (i != 0) extents_text += ',';
      extents_text += std::to_string(shrunk.counts[i] + 1);
    }
    extents_text += "] partition-dims=";
    extents_text += std::to_string(dims);
    failure.reproducer = extents_text;
    return failure;
  }

  std::optional<Failure> run_simulator(const testkit::CaseId& id,
                                       util::Rng& rng) {
    testkit::DpProblemLimits limits;
    limits.max_cells = 2'000;
    limits.allow_infeasible = false;
    const auto problem = testkit::random_dp_problem(rng, limits);
    const auto check = [&](const dp::DpProblem& candidate)
        -> testkit::CheckResult {
      gpusim::Device device(gpusim::DeviceSpec::k40());
      device.set_kernel_log(true);  // read by check_device_conservation
      const gpu::GpuDpSolver solver(device, 5);
      const auto result = solver.solve(candidate);
      const auto reference = dp::ReferenceSolver().solve(candidate);
      if (auto bad = testkit::check_tables_match("reference", reference,
                                                 solver.name(), result, true))
        return bad;
      return testkit::check_device_conservation(device);
    };
    auto bad = check(problem);
    if (!bad.has_value()) return std::nullopt;

    Failure failure{id, Mode::kSimulator, *bad, {}, {}};
    const auto shrunk = testkit::shrink_dp_problem(
        problem, [&](const dp::DpProblem& candidate) {
          return check(candidate).has_value();
        });
    failure.reproducer = describe(shrunk);
    return failure;
  }

  /// One instance under one fault plan through both resilient chains: every
  /// solve must end in a valid schedule within its stated bound or a clean
  /// typed error (testkit::check_resilient_result).
  testkit::CheckResult check_resilient_case(const Instance& instance,
                                            const faultsim::FaultPlan& plan) {
    ResilientOptions options;
    options.max_transient_retries = 2;
    options.backoff_ms = 1;  // charged to sim time only; no wall sleeps
    {
      faultsim::ScopedFaultInjector scoped(plan);
      const auto result = solve_resilient(instance, options);
      if (auto bad = testkit::check_resilient_result(instance, result))
        return "cpu chain: " + *bad;
    }
    {
      gpusim::Device device(gpusim::DeviceSpec::k40());
      const auto chain = gpu::make_gpu_chain(device);
      faultsim::ScopedFaultInjector scoped(plan);
      const auto result = solve_resilient(instance, chain, options);
      if (auto bad = testkit::check_resilient_result(instance, result))
        return "gpu chain: " + *bad;
    }
    return std::nullopt;
  }

  /// Ground-truth differential: prove OPT by branch and bound, then judge
  /// every instance-level scheduler (LPT, list, MULTIFIT, both PTAS search
  /// drivers, exact-bb itself) against it — the (1 + 1/k) guarantee tested
  /// against the true optimum, not a bound proxy. Unproven instances are
  /// skipped (after a certificate sanity check), never failed. At tiny n
  /// the unpruned brute force cross-checks the branch and bound itself.
  testkit::CheckResult check_exact_case(const Instance& instance,
                                        bool count_coverage) {
    exact::BbOptions options;
    options.node_budget = 4'000'000;
    const auto bb = exact::solve_bb(instance, options);
    if (auto bad = testkit::check_exact_claim(instance, bb))
      return "exact-bb certificate: " + *bad;
    if (!bb.optimal()) {
      if (count_coverage) coverage_.skipped++;
      return std::nullopt;
    }
    const auto opt = bb.makespan;
    if (instance.jobs() <= 12) {
      const auto brute = testkit::brute_force_makespan(instance);
      if (brute.has_value() && *brute != opt)
        return "exact-bb proved OPT " + std::to_string(opt) +
               " but brute force found " + std::to_string(*brute);
    }
    for (const auto& engine : scheduler_registry_.engines()) {
      const auto schedule = engine.solve(instance);
      if (!schedule.has_value()) continue;  // engine declined (budget/table)
      if (count_coverage) coverage_.per_scheduler[engine.name]++;
      const auto [num, den] = engine.bound(instance);
      if (auto bad = testkit::check_schedule_vs_opt(instance, engine.name,
                                                    *schedule, num, den, opt))
        return bad;
    }
    return std::nullopt;
  }

  std::optional<Failure> run_exact(const testkit::CaseId& id, util::Rng& rng) {
    testkit::InstanceLimits limits;
    limits.max_jobs = 200;
    limits.max_machines = 10;
    limits.max_time = 1000;
    const auto instance = testkit::random_instance(rng, limits);
    auto bad = check_exact_case(instance, /*count_coverage=*/true);
    if (!bad.has_value()) return std::nullopt;

    Failure failure{id, Mode::kExact, *bad, {}, {}};
    const auto shrunk = testkit::shrink_instance(
        instance, [this](const Instance& candidate) {
          return check_exact_case(candidate, /*count_coverage=*/false)
              .has_value();
        });
    failure.reproducer = describe(shrunk);
    return failure;
  }

  /// Random device-lost / link-down plan for the recovery mode.
  static faultsim::FaultPlan random_loss_plan(util::Rng& rng) {
    faultsim::FaultPlan plan;
    plan.seed = static_cast<std::uint64_t>(rng.uniform(0, 1'000'000));
    faultsim::FaultRule lost;
    lost.site = faultsim::Site::kDeviceLost;
    if (rng.uniform01() < 0.7)
      lost.nth = static_cast<std::uint64_t>(rng.uniform(1, 24));
    else
      lost.permille = static_cast<std::uint32_t>(rng.uniform(20, 300));
    plan.rules.push_back(lost);
    if (rng.uniform01() < 0.5) {
      faultsim::FaultRule down;
      down.site = faultsim::Site::kLinkDown;
      if (rng.uniform01() < 0.7)
        down.nth = static_cast<std::uint64_t>(rng.uniform(1, 12));
      else
        down.permille = static_cast<std::uint32_t>(rng.uniform(20, 300));
      plan.rules.push_back(down);
    }
    return plan;
  }

  /// Sharded solve under device-loss injection: the result is either
  /// bit-identical to the fault-free reference (recovery succeeded) or a
  /// typed device-lost error (recovery refused or losses exhausted the
  /// retry budget) — never a wrong table, never a foreign exception.
  testkit::CheckResult check_recovery_case(const dp::DpProblem& problem,
                                           const faultsim::FaultPlan& plan,
                                           int devices,
                                           gpusim::TopologyKind kind,
                                           std::int64_t checkpoint_every,
                                           int min_devices) {
    const auto reference = dp::ReferenceSolver().solve(problem);
    gpusim::Topology topology(devices, gpusim::DeviceSpec::k40(), kind);
    recover::RecoveryOptions recovery;
    recovery.checkpoint_every = checkpoint_every;
    recovery.min_devices = min_devices;
    const gpu::GpuDpSolver solver(topology, 5, 4,
                                  gpu::StreamPolicy::kCyclic,
                                  placement::PlacementKind::kLevelContiguous,
                                  recovery);
    faultsim::ScopedFaultInjector scoped(plan);
    try {
      const auto result = solver.solve(problem);
      return testkit::check_tables_match("reference", reference,
                                         solver.name(), result, true);
    } catch (const StatusError& e) {
      if (e.status().code() == StatusCode::kDeviceLost) return std::nullopt;
      return "recovery solve failed with unexpected status: " +
             e.status().to_string();
    } catch (const gpusim::DeviceLost&) {
      // Loss storm past the per-level retry budget (or recovery off-path):
      // typed, and the resilient driver maps it to kDeviceLost.
      return std::nullopt;
    }
  }

  std::optional<Failure> run_recovery(const testkit::CaseId& id,
                                      util::Rng& rng) {
    testkit::DpProblemLimits limits;
    limits.max_cells = 2'000;
    limits.allow_infeasible = false;
    const auto problem = testkit::random_dp_problem(rng, limits);
    const auto plan = random_loss_plan(rng);
    const auto devices = static_cast<int>(rng.uniform(2, 4));
    const auto kind = rng.uniform(0, 1) == 0 ? gpusim::TopologyKind::kRing
                                             : gpusim::TopologyKind::kFullMesh;
    const auto checkpoint_every = rng.uniform(1, 3);
    const auto min_devices = static_cast<int>(rng.uniform(1, 2));
    auto bad = check_recovery_case(problem, plan, devices, kind,
                                   checkpoint_every, min_devices);
    if (!bad.has_value()) return std::nullopt;

    Failure failure{id, Mode::kRecovery, *bad, {}, plan.to_string()};
    const auto shrunk = testkit::shrink_dp_problem(
        problem, [&](const dp::DpProblem& candidate) {
          return check_recovery_case(candidate, plan, devices, kind,
                                     checkpoint_every, min_devices)
              .has_value();
        });
    failure.reproducer = describe(shrunk) + " plan=" + plan.to_string();
    return failure;
  }

  /// Sparsified-EPTAS mode: the full (1 + 1/k) certificate, the target
  /// differential against the classic PTAS at equal epsilon (snapped
  /// weights only shrink, so T*_eptas <= T*_ptas always), cold-cache
  /// equivalence, and — on small instances — the proven optimum itself.
  testkit::CheckResult check_eptas_case(const Instance& instance,
                                        const dp::DpSolver& solver,
                                        double epsilon,
                                        SearchStrategy strategy) {
    PtasOptions options;
    options.epsilon = epsilon;
    options.strategy = strategy;
    const auto k = k_for_epsilon(epsilon);
    const auto result = eptas::solve_eptas(instance, solver, options);
    if (auto bad = testkit::check_ptas_result(instance, result, k)) return bad;

    PtasOptions classic_options = options;
    classic_options.build_schedule = false;
    const auto classic = solve_ptas(instance, solver, classic_options);
    if (result.best_target > classic.best_target)
      return "eptas target " + std::to_string(result.best_target) +
             " exceeds the classic ptas target " +
             std::to_string(classic.best_target) + " at equal epsilon";

    PtasOptions cached_options = options;
    cached_options.use_probe_cache = true;
    const auto cached = eptas::solve_eptas(instance, solver, cached_options);
    if (auto bad = testkit::check_ptas_cache_equivalence(
            cached, result, /*require_same_iterations=*/true))
      return "cold cache: " + *bad;

    if (instance.jobs() <= 9 && instance.machines <= 4) {
      if (const auto opt = testkit::exact_makespan(instance))
        return testkit::check_ptas_vs_exact(instance, result, k, *opt);
    }
    return std::nullopt;
  }

  std::optional<Failure> run_eptas(const testkit::CaseId& id, util::Rng& rng) {
    Instance instance;
    const auto k_choice = rng.uniform(0, 3);
    const double epsilon = k_choice == 0   ? 1.0
                           : k_choice == 1 ? 0.5
                           : k_choice == 2 ? 0.34
                                           : 0.25;
    const auto k = k_for_epsilon(epsilon);
    bool found = false;
    for (int attempt = 0; attempt < 5 && !found; ++attempt) {
      instance = testkit::random_instance(rng);
      // Gate on the *classic* table size: the differential half solves both
      // roundings, and the sparsified table is never the larger one.
      const auto rounded =
          round_instance(instance, makespan_lower_bound(instance), k);
      found = !rounded.feasible || rounded.table_size() <= 50'000;
    }
    if (!found) {
      coverage_.skipped++;
      return std::nullopt;
    }

    const dp::LevelBucketSolver bucket;
    const dp::LevelScanSolver scan;
    const partition::BlockedSolver blocked3(3);
    const dp::DpSolver* solvers[] = {&bucket, &scan, &blocked3};
    const auto* solver = solvers[rng.uniform(0, 2)];
    const auto strategy = rng.uniform(0, 1) == 0
                              ? SearchStrategy::kBisection
                              : SearchStrategy::kQuarterSplit;
    coverage_.per_ptas_engine[solver->name()]++;
    auto bad = check_eptas_case(instance, *solver, epsilon, strategy);
    if (!bad.has_value()) return std::nullopt;

    Failure failure{id, Mode::kEptas, *bad, {}, {}};
    const auto shrunk = testkit::shrink_instance(
        instance, [&](const Instance& candidate) {
          return check_eptas_case(candidate, *solver, epsilon, strategy)
              .has_value();
        });
    failure.reproducer = describe(shrunk);
    return failure;
  }

  std::optional<Failure> run_faults(const testkit::CaseId& id,
                                    util::Rng& rng) {
    const auto plan = random_fault_plan(rng);
    testkit::InstanceLimits limits;
    limits.max_jobs = 14;
    limits.max_machines = 5;
    limits.max_time = 500;
    const auto instance = testkit::random_instance(rng, limits);
    auto bad = check_resilient_case(instance, plan);
    if (!bad.has_value()) return std::nullopt;

    Failure failure{id, Mode::kFaults, *bad, {}, plan.to_string()};
    const auto shrunk = testkit::shrink_instance(
        instance, [&](const Instance& candidate) {
          return check_resilient_case(candidate, plan).has_value();
        });
    failure.reproducer = describe(shrunk) + " plan=" + plan.to_string();
    return failure;
  }

  Args args_;
  std::optional<Mode> mode_filter_;
  testkit::EngineRegistry registry_;
  testkit::SchedulerEngineRegistry scheduler_registry_;
  Coverage coverage_;
};

void print_coverage(const Fuzzer& fuzzer) {
  const auto& cov = fuzzer.coverage();
  std::printf("coverage: %llu cases (%llu skipped)\n",
              static_cast<unsigned long long>(cov.cases),
              static_cast<unsigned long long>(cov.skipped));
  for (const auto& [mode, count] : cov.per_mode)
    std::printf("  mode %-18s %llu\n", mode.c_str(),
                static_cast<unsigned long long>(count));
  for (const auto& [engine, count] : cov.per_engine)
    std::printf("  pair reference<->%-14s %llu\n", engine.c_str(),
                static_cast<unsigned long long>(count));
  for (const auto& [engine, count] : cov.per_ptas_engine)
    std::printf("  ptas %-18s %llu certificates\n", engine.c_str(),
                static_cast<unsigned long long>(count));
  for (const auto& [engine, count] : cov.per_scheduler)
    std::printf("  vs-opt %-16s %llu instances\n", engine.c_str(),
                static_cast<unsigned long long>(count));
}

int report_failure(const Args& args, Fuzzer& fuzzer, const Failure& failure) {
  const auto token = testkit::format_case(failure.id);
  std::fprintf(stderr,
               "FAIL case %s mode=%s\n  %s\n  shrunk reproducer: %s\n"
               "  replay with: pcmax_fuzz --seed %llu --replay %s\n",
               token.c_str(), mode_name(failure.mode),
               failure.diagnosis.c_str(), failure.reproducer.c_str(),
               static_cast<unsigned long long>(failure.id.seed),
               token.c_str());
  std::error_code ec;
  std::filesystem::create_directories(args.repro_dir, ec);
  const auto prefix = args.repro_dir + "/fuzz-repro-" +
                      std::to_string(failure.id.seed) + "-" +
                      std::to_string(failure.id.index);
  const auto path = prefix + ".txt";
  std::ofstream out(path);
  if (out) {
    out << "case " << token << "\nmode " << mode_name(failure.mode)
        << "\ndiagnosis " << failure.diagnosis << "\nreproducer "
        << failure.reproducer << "\n";
    std::fprintf(stderr, "  repro written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "  could not write repro file %s\n", path.c_str());
  }

  // Fault-mode failures also get a standalone replay artifact holding the
  // canonical plan text, directly loadable via pcmax_cli --fault-plan.
  if (!failure.fault_plan.empty()) {
    const auto plan_path = prefix + "-faultplan.txt";
    std::ofstream plan_out(plan_path);
    if (plan_out) {
      plan_out << failure.fault_plan << "\n";
      std::fprintf(stderr, "  fault plan replay written to %s\n",
                   plan_path.c_str());
    } else {
      std::fprintf(stderr, "  could not write fault plan %s\n",
                   plan_path.c_str());
    }
  }

  // Replay the failing case once more with observability on and attach the
  // trace and metrics next to the repro: the CI artifact then carries the
  // full search/DP/kernel timeline of the failure (including the shrink
  // probes, which is useful context when diagnosing a flaky engine).
  try {
    obs::ObsSession session;
    fuzzer.run_case(failure.id);
    obs::write_file(prefix + "-trace.json",
                    obs::chrome_trace_json(session.trace()));
    obs::write_file(prefix + "-metrics.json",
                    obs::metrics_json(session.metrics()));
    std::fprintf(stderr, "  trace + metrics written to %s-{trace,metrics}.json\n",
                 prefix.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "  could not record failure trace: %s\n", e.what());
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  std::optional<Mode> mode_filter;
  if (!args.mode.empty()) {
    mode_filter = parse_mode(args.mode);
    if (!mode_filter.has_value())
      usage(("unknown --mode: " + args.mode).c_str());
  }
  Fuzzer fuzzer(args, mode_filter);

  if (args.replay.has_value()) {
    std::printf("replaying case %s\n",
                testkit::format_case(*args.replay).c_str());
    if (const auto failure = fuzzer.run_case(*args.replay))
      return report_failure(args, fuzzer, *failure);
    std::printf("case passed\n");
    return 0;
  }

  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.budget));
  std::uint64_t index = 0;
  while (Clock::now() < deadline &&
         (args.max_cases == 0 || index < args.max_cases)) {
    const testkit::CaseId id{args.seed, index};
    if (args.verbose)
      std::printf("case %s\n", testkit::format_case(id).c_str());
    if (const auto failure = fuzzer.run_case(id)) {
      print_coverage(fuzzer);
      return report_failure(args, fuzzer, *failure);
    }
    ++index;
  }

  print_coverage(fuzzer);

  // A green campaign must actually have exercised every registered engine;
  // otherwise the differential guarantee is vacuous. A --mode filter opts
  // out of the full mix on purpose, so the gate does not apply.
  if (mode_filter.has_value()) {
    std::printf("all %llu cases green (mode %s)\n",
                static_cast<unsigned long long>(fuzzer.coverage().cases),
                mode_name(*mode_filter));
    return 0;
  }
  for (const auto& engine : fuzzer.registry().engines()) {
    if (engine.name == fuzzer.registry().reference().name) continue;
    const auto& per_engine = fuzzer.coverage().per_engine;
    const auto it = per_engine.find(engine.name);
    if (it == per_engine.end() || it->second == 0) {
      std::fprintf(stderr, "engine %s was never exercised — raise --budget\n",
                   engine.name.c_str());
      return 1;
    }
  }
  std::printf("all %llu cases green\n",
              static_cast<unsigned long long>(fuzzer.coverage().cases));
  return 0;
}
