// TraceRecorder unit tests: the disabled path, installation, event capture
// across both clock domains, and thread safety of the arena.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

namespace pcmax::obs {
namespace {

/// Installs a recorder for the test body and always uninstalls it, so a
/// failing assertion cannot leak tracing into later tests.
class InstallGuard {
 public:
  explicit InstallGuard(TraceRecorder& recorder) { install_trace(&recorder); }
  ~InstallGuard() { install_trace(nullptr); }
};

TEST(Trace, DisabledByDefault) {
  EXPECT_EQ(trace(), nullptr);
  // Instrumentation sites are silent no-ops without a recorder.
  const ScopedSpan span("noop/span", {arg("x", 1)});
  SimClockGuard clock([] { return std::int64_t{42}; });
  EXPECT_EQ(trace(), nullptr);
}

TEST(Trace, InstallAndUninstall) {
  TraceRecorder recorder;
  {
    InstallGuard guard(recorder);
    EXPECT_EQ(trace(), &recorder);
    trace()->instant("tick");
  }
  EXPECT_EQ(trace(), nullptr);
  EXPECT_EQ(recorder.size(), 1u);
}

TEST(Trace, SpanEventsCarryNamesAndArgs) {
  TraceRecorder recorder;
  recorder.begin_span("outer", {arg("lb", 3), arg("ub", 9)});
  recorder.instant("probe", {arg("target", 5)});
  recorder.end_span("outer");

  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, EventKind::kSpanBegin);
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_STREQ(events[0].args[0].key, "lb");
  EXPECT_EQ(events[0].args[0].value, 3);
  EXPECT_STREQ(events[0].args[1].key, "ub");
  EXPECT_EQ(events[0].args[1].value, 9);
  EXPECT_EQ(events[1].kind, EventKind::kInstant);
  EXPECT_EQ(events[1].args[0].value, 5);
  EXPECT_FALSE(events[1].args[1].used());
  EXPECT_EQ(events[2].kind, EventKind::kSpanEnd);
  // Wall clock is always stamped; no sim clock was installed.
  for (const auto& e : events) {
    EXPECT_GE(e.wall_ns, 0);
    EXPECT_EQ(e.sim_ps, -1);
  }
}

TEST(Trace, LongNamesAndKeysTruncateSafely) {
  TraceRecorder recorder;
  const std::string long_name(200, 'n');
  recorder.instant(long_name, {arg(std::string(99, 'k'), 7)});
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::strlen(events[0].name), sizeof(TraceEvent{}.name) - 1);
  EXPECT_EQ(std::strlen(events[0].args[0].key), sizeof(TraceArg{}.key) - 1);
  EXPECT_EQ(events[0].args[0].value, 7);
}

TEST(Trace, SimClockStampsHostEvents) {
  TraceRecorder recorder;
  std::int64_t now_ps = 100;
  const auto previous =
      recorder.set_sim_clock([&now_ps] { return now_ps; });
  EXPECT_EQ(previous, nullptr);
  recorder.instant("a");
  now_ps = 250;
  recorder.begin_span("b");
  recorder.end_span("b");
  recorder.set_sim_clock(nullptr);
  recorder.instant("c");

  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].sim_ps, 100);
  EXPECT_EQ(events[1].sim_ps, 250);
  EXPECT_EQ(events[2].sim_ps, 250);
  EXPECT_EQ(events[3].sim_ps, -1);
}

TEST(Trace, SimClockGuardRestoresPrevious) {
  TraceRecorder recorder;
  InstallGuard install(recorder);
  recorder.set_sim_clock([] { return std::int64_t{1}; });
  {
    SimClockGuard guard([] { return std::int64_t{2}; });
    recorder.instant("inner");
  }
  recorder.instant("outer");
  // The clock is per thread, not per recorder: leave none installed for the
  // tests that run after this one in the same process.
  recorder.set_sim_clock(nullptr);
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].sim_ps, 2);
  EXPECT_EQ(events[1].sim_ps, 1);
}

TEST(Trace, CompleteKeepsExplicitTrack) {
  TraceRecorder recorder;
  recorder.complete("kernel", kStreamPidBase + 3, kChildTid, 1000, 500,
                    {arg("threads", 64)});
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, EventKind::kComplete);
  EXPECT_EQ(events[0].pid, kStreamPidBase + 3);
  EXPECT_EQ(events[0].tid, kChildTid);
  EXPECT_EQ(events[0].sim_ps, 1000);
  EXPECT_EQ(events[0].dur_ps, 500);
}

TEST(Trace, ArenaGrowsPastOneBlock) {
  TraceRecorder recorder;
  constexpr std::size_t kEvents = 3000;  // > 2 blocks of 1024
  for (std::size_t i = 0; i < kEvents; ++i)
    recorder.instant("e", {arg("i", static_cast<std::int64_t>(i))});
  EXPECT_EQ(recorder.size(), kEvents);
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), kEvents);
  for (std::size_t i = 0; i < kEvents; ++i)
    EXPECT_EQ(events[i].args[0].value, static_cast<std::int64_t>(i));
}

TEST(Trace, ConcurrentRecordingKeepsUniqueSequence) {
  TraceRecorder recorder;
  InstallGuard install(recorder);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        const ScopedSpan span("worker/span", {arg("thread", t)});
        trace()->instant("worker/tick");
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto events = recorder.snapshot();
  EXPECT_EQ(events.size(),
            static_cast<std::size_t>(kThreads * kPerThread * 3));
  std::set<std::uint64_t> seqs;
  for (const auto& e : events) seqs.insert(e.seq);
  EXPECT_EQ(seqs.size(), events.size());
  // snapshot() returns record order.
  EXPECT_TRUE(std::is_sorted(events.begin(), events.end(),
                             [](const TraceEvent& a, const TraceEvent& b) {
                               return a.seq < b.seq;
                             }));
}

}  // namespace
}  // namespace pcmax::obs
