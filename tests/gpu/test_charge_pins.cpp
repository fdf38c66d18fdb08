// Charge pins: the simulated cost of the GPU DP engine, recorded for a
// seeded corpus of problems and compared byte-for-byte against
// tests/gpu/golden/charge_pins.txt. Each line holds one solve's charged
// picoseconds, its device counters, its per-device memory peaks and the
// fault-site hit counts it produced, so any change to how the engine walks
// the blocked layout, launches kernels, allocates device memory or touches
// a fault site shows up here even when every DP table stays identical.
// The corpus covers the single-device engine over partition dims {3, 6} x
// streams {1, 4}, the naive port, 2- and 4-device ring and fullmesh
// topologies with checkpoint_every {0, 1}, mid-solve device losses, and
// one injected fault per site. On an intentional cost-model change,
// regenerate with
//
//   build/tests/test_charge_pins --update-goldens
//
// and review the diff.
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <new>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.hpp"
#include "faultsim/injector.hpp"
#include "gpu/gpu_dp_solver.hpp"
#include "gpusim/topology.hpp"
#include "obs/export.hpp"
#include "util/rng.hpp"

namespace {

using namespace pcmax;

bool g_update_goldens = false;

constexpr int kProblems = 200;
constexpr int kShardedProblems = 40;
constexpr int kLossProblems = 12;

/// Seeded problems of 1-7 dimensions up to a few thousand cells. Weights
/// may exceed the capacity, so some tables are infeasible.
std::vector<dp::DpProblem> corpus() {
  util::Rng rng(20260419);
  std::vector<dp::DpProblem> problems;
  while (static_cast<int>(problems.size()) < kProblems) {
    dp::DpProblem p;
    const auto dims = static_cast<std::size_t>(rng.uniform(1, 7));
    for (std::size_t i = 0; i < dims; ++i) {
      p.counts.push_back(rng.uniform(0, 4));
      p.weights.push_back(rng.uniform(1, 9));
    }
    p.capacity = rng.uniform(6, 22);
    if (p.table_size() <= 6'000) problems.push_back(std::move(p));
  }
  return problems;
}

/// Joins `values` with '/'.
template <typename Values>
std::string joined(const Values& values) {
  std::string out;
  for (const auto v : values) {
    if (!out.empty()) out += '/';
    out += std::to_string(v);
  }
  return out;
}

std::string stats_text(const gpusim::Device::Stats& s) {
  return joined(std::vector<std::uint64_t>{s.kernels, s.child_kernels,
                                           s.threads, s.thread_ops,
                                           s.transactions,
                                           s.synchronizations});
}

/// Runs `solve` under an injector holding `plan` and describes the
/// outcome plus the hit count of every fault site.
std::string with_sites(const faultsim::FaultPlan& plan,
                       const std::function<void()>& solve) {
  faultsim::ScopedFaultInjector scoped(plan);
  std::string outcome = "ok";
  try {
    solve();
  } catch (const StatusError& e) {
    outcome = std::string(status_code_name(e.status().code()));
  } catch (const gpusim::OutOfMemory&) {
    outcome = "device-oom";
  } catch (const gpusim::LaunchFailure&) {
    outcome = "launch-failure";
  } catch (const gpusim::StreamStalled&) {
    outcome = "stream-stalled";
  } catch (const gpusim::DeviceLost&) {
    outcome = "device-lost";
  } catch (const std::bad_alloc&) {
    outcome = "host-oom";
  }
  std::vector<std::uint64_t> hits;
  for (std::size_t s = 0; s < faultsim::kSiteCount; ++s)
    hits.push_back(
        scoped.injector().stats(static_cast<faultsim::Site>(s)).hits);
  return outcome + " sites=" + joined(hits);
}

std::string single_line(const dp::DpProblem& p, std::size_t dims,
                        int streams, const faultsim::FaultPlan& plan) {
  gpusim::Device device(gpusim::DeviceSpec::k40());
  const gpu::GpuDpSolver solver(device, dims, streams);
  std::int32_t opt = 0;
  const std::string outcome =
      with_sites(plan, [&] { opt = solver.solve(p).opt; });
  return outcome + " opt=" + std::to_string(opt) +
         " now=" + std::to_string(device.now().ps()) +
         " ps=" + std::to_string(solver.last_solve_time().ps()) +
         " stats=" + stats_text(device.stats()) +
         " mem=" + std::to_string(device.memory_in_use()) +
         " peaks=" + joined(solver.last_device_peaks());
}

std::string sharded_line(const dp::DpProblem& p, int devices,
                         gpusim::TopologyKind kind, std::int64_t every,
                         const faultsim::FaultPlan& plan) {
  gpusim::Topology topology(devices, gpusim::DeviceSpec::k40(), kind);
  recover::RecoveryOptions recovery;
  recovery.checkpoint_every = every;
  const gpu::GpuDpSolver solver(topology, 4, 4, gpu::StreamPolicy::kCyclic,
                                placement::PlacementKind::kLevelContiguous,
                                recovery);
  const std::string outcome =
      with_sites(plan, [&] { (void)solver.solve(p); });
  std::string out = outcome + " now=" + std::to_string(topology.now().ps()) +
                    " ps=" + std::to_string(solver.last_solve_time().ps()) +
                    " peaks=" + joined(solver.last_device_peaks());
  for (int d = 0; d < devices; ++d)
    out += " dev" + std::to_string(d) + "=" +
           stats_text(topology.device(d).stats());
  return out;
}

faultsim::FaultPlan one_fault(faultsim::Site site, std::uint64_t nth,
                              std::int64_t stall_ms = 0) {
  faultsim::FaultPlan plan;
  plan.seed = 7;
  faultsim::FaultRule rule;
  rule.site = site;
  rule.nth = nth;
  rule.stall_ms = stall_ms;
  plan.rules.push_back(rule);
  return plan;
}

std::string charge_pins() {
  const std::vector<dp::DpProblem> problems = corpus();
  const faultsim::FaultPlan quiet;
  std::ostringstream out;
  for (int i = 0; i < kProblems; ++i) {
    const dp::DpProblem& p = problems[static_cast<std::size_t>(i)];
    out << "problem " << i << " table=" << p.table_size() << "\n";
    for (const std::size_t dims : {3u, 6u})
      for (const int streams : {1, 4})
        out << "  single dims=" << dims << " streams=" << streams << " "
            << single_line(p, dims, streams, quiet) << "\n";
    gpusim::Device device(gpusim::DeviceSpec::k40());
    const gpu::NaiveGpuDpSolver naive(device);
    dp::SolveOptions one_thread;  // keeps these small fills off OpenMP
    one_thread.num_threads = 1;
    (void)naive.solve(p, one_thread);
    out << "  naive ps=" << naive.last_solve_time().ps()
        << " stats=" << stats_text(device.stats()) << "\n";
  }
  for (int i = 0; i < kShardedProblems; ++i) {
    const dp::DpProblem& p = problems[static_cast<std::size_t>(i)];
    for (const int devices : {2, 4})
      for (const auto kind :
           {gpusim::TopologyKind::kRing, gpusim::TopologyKind::kFullMesh})
        for (const std::int64_t every : {0, 1})
          out << "sharded " << i << " devices=" << devices << " "
              << gpusim::topology_kind_name(kind) << " ckpt=" << every << " "
              << sharded_line(p, devices, kind, every, quiet) << "\n";
  }
  // Device losses at several barriers: recovered solves re-charge journaled
  // work, unrecoverable ones must fail at the same point.
  for (int i = 0; i < kLossProblems; ++i) {
    const dp::DpProblem& p = problems[static_cast<std::size_t>(i)];
    for (const std::uint64_t nth : {2u, 5u, 9u})
      out << "loss " << i << " nth=" << nth << " "
          << sharded_line(p, 4, gpusim::TopologyKind::kFullMesh, 1,
                          one_fault(faultsim::Site::kDeviceLost, nth))
          << "\n";
  }
  // One fired fault per single-device site: where it fires relative to the
  // device calls decides how much simulated time the failed solve charged.
  for (int i = 0; i < 10; ++i) {
    const dp::DpProblem& p = problems[static_cast<std::size_t>(i)];
    using faultsim::Site;
    const std::vector<std::pair<std::string, faultsim::FaultPlan>> plans = {
        {"host-alloc", one_fault(Site::kHostAlloc, 1)},
        {"dp-cell", one_fault(Site::kDpCell, 1)},
        {"device-alloc", one_fault(Site::kDeviceAlloc, 3)},
        {"kernel-launch", one_fault(Site::kKernelLaunch, 4)},
        {"stream-sync", one_fault(Site::kStreamSync, 2, 3)},
    };
    for (const auto& [name, plan] : plans)
      out << "fault " << i << " " << name << " "
          << single_line(p, 3, 4, plan) << "\n";
  }
  return out.str();
}

TEST(ChargePins, SimulatedCostMatchesGolden) {
  const std::string actual = charge_pins();
  const std::string path = std::string(PCMAX_GOLDEN_DIR) + "/charge_pins.txt";
  if (g_update_goldens) {
    obs::write_file(path, actual);
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden " << path
                  << " — regenerate with test_charge_pins --update-goldens";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string expected = buffer.str();
  // Report the first drifting line rather than two multi-megabyte strings.
  std::istringstream want(expected), got(actual);
  std::string w, g;
  int line = 0;
  while (true) {
    const bool more_w = static_cast<bool>(std::getline(want, w));
    const bool more_g = static_cast<bool>(std::getline(got, g));
    ++line;
    if (!more_w && !more_g) break;
    ASSERT_EQ(w, g) << "charge pins drift at line " << line;
  }
}

}  // namespace

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i)
    if (std::string_view(argv[i]) == "--update-goldens")
      g_update_goldens = true;
  return RUN_ALL_TESTS();
}
