// Soak: one long-lived SolveServer answers thousands of serve-shaped
// requests without growing. Each served 16x8 request launches thousands of
// simulated kernels, so a device that kept a record per kernel would grow
// by megabytes per request; the server must stay flat instead.
//
// The shared probe cache is bounded but grows until it is full: at its
// default 4096 entries that takes about 500 of these requests and 1 MiB.
// The soak caps it at 256 entries, full within the first 100 requests, so
// the RSS comparison from request 100 on measures the steady state.
#include <gtest/gtest.h>

#include <malloc.h>

#include <fstream>
#include <future>
#include <string>
#include <vector>

#include "core/rounding.hpp"
#include "gpusim/topology.hpp"
#include "serve/server.hpp"
#include "workload/generators.hpp"

namespace pcmax::serve {
namespace {

constexpr double kEpsilon = 0.3;
constexpr int kWorkers = 3;
constexpr int kRequests = 2000;
constexpr int kWarmup = 100;
constexpr int kWindow = 50;  // requests in flight at once
constexpr std::size_t kCacheEntries = 256;

// Under ASan or TSan the RSS follows the sanitizer's quarantine and shadow
// memory rather than the server, so only plain builds compare it.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kMeasureRss = false;
#else
constexpr bool kMeasureRss = true;
#endif

/// Resident set size of this process in KiB, from /proc/self/status, after
/// handing freed heap pages back to the kernel: the RSS then follows live
/// memory rather than the allocator's high-water mark.
std::int64_t vm_rss_kib() {
  malloc_trim(0);
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmRSS:") {
      std::int64_t kib = 0;
      status >> kib;
      return kib;
    }
    status.ignore(4096, '\n');
  }
  return -1;
}

TEST(ServeSoak, LongLivedServerStaysFlat) {
  ServeOptions options;
  options.workers = kWorkers;
  options.cache_entries = kCacheEntries;
  SolveServer server(options);
  const std::int64_t k = k_for_epsilon(kEpsilon);

  std::int64_t rss_warm = 0;
  for (int base = 0; base < kRequests; base += kWindow) {
    std::vector<std::future<SolveResponse>> window;
    for (int i = base; i < base + kWindow; ++i) {
      SolveRequest request;
      request.instance = workload::uniform_instance(
          16, 8, 1, 1000, static_cast<std::uint64_t>(i) + 1);
      request.options.epsilon = kEpsilon;
      request.options.num_threads = 1;  // workers are the parallelism axis
      auto admitted = server.submit(std::move(request));
      ASSERT_TRUE(admitted.has_value()) << admitted.status().to_string();
      window.push_back(std::move(*admitted));
    }
    for (auto& future : window) {
      const SolveResponse response = future.get();
      ASSERT_TRUE(response.ok()) << response.status.to_string();
      EXPECT_EQ(response.result.engine, "gpu-ptas");
      EXPECT_FALSE(response.result.degraded);
      EXPECT_EQ(response.result.k, k);
      EXPECT_EQ(response.result.bound_num, k + 1);
      EXPECT_EQ(response.result.bound_den, k);
    }
    if (base + kWindow == kWarmup) {
      ASSERT_EQ(server.probe_cache()->size(), kCacheEntries);
      rss_warm = vm_rss_kib();
    }
  }
  const std::int64_t rss_end = vm_rss_kib();

  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.failed, 0u);
  // The devices ran every solve but kept no per-kernel record of them.
  const gpusim::Topology* topology = server.topology();
  ASSERT_NE(topology, nullptr);
  for (int d = 0; d < topology->device_count(); ++d) {
    EXPECT_GT(topology->device(d).stats().kernels, 0u) << "device " << d;
    EXPECT_TRUE(topology->device(d).log().empty()) << "device " << d;
  }
  if (!kMeasureRss) return;
  ASSERT_GT(rss_warm, 0);
  EXPECT_LE(rss_end, rss_warm + rss_warm / 10)
      << "VmRSS grew from " << rss_warm << " KiB after " << kWarmup
      << " requests to " << rss_end << " KiB after " << kRequests;
}

}  // namespace
}  // namespace pcmax::serve
