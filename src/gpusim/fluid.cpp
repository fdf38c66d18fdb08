#include "gpusim/fluid.hpp"

#include <algorithm>
#include <limits>

#include "util/checked_math.hpp"
#include "util/contracts.hpp"

namespace pcmax::gpusim {

namespace {

/// Live state of the head task of one stream.
struct ActiveTask {
  std::size_t stream;
  FluidTask task;
  util::SimTime start;
  std::int64_t latency_left_ps;
  std::int64_t work_left_ps;  // SM-picoseconds
  int rate_sms = 0;           // current allocation
};

/// Hands the device's SMs to the tasks past their launch latency that
/// still have work, one SM at a time in stream order, each up to its width.
/// In closed form: after r full rounds task i holds min(width_i, r), so all
/// tasks receive that for the largest r with sum_i min(width_i, r) <= SMs,
/// and the SMs left over go one each to the next tasks (in stream order)
/// still below their width.
void water_fill(std::vector<ActiveTask>& active, int capacity) {
  int widest = 0;
  for (auto& a : active) {
    a.rate_sms = 0;
    if (a.latency_left_ps == 0 && a.work_left_ps > 0)
      widest = std::max(widest, a.task.width_sms);
  }
  const auto granted = [&](int rounds) {
    std::int64_t total = 0;
    for (const auto& a : active)
      if (a.latency_left_ps == 0 && a.work_left_ps > 0)
        total += std::min(a.task.width_sms, rounds);
    return total;
  };
  int lo = 0;
  int hi = std::min(widest, capacity);
  while (lo < hi) {
    const int mid = lo + (hi - lo + 1) / 2;
    if (granted(mid) <= capacity)
      lo = mid;
    else
      hi = mid - 1;
  }
  auto remaining = static_cast<std::int64_t>(capacity) - granted(lo);
  for (auto& a : active) {
    if (a.latency_left_ps > 0 || a.work_left_ps == 0) continue;
    a.rate_sms = std::min(a.task.width_sms, lo);
    if (remaining > 0 && a.task.width_sms > lo) {
      ++a.rate_sms;
      --remaining;
    }
  }
}

}  // namespace

FluidScheduler::FluidScheduler(int capacity_sms) : capacity_(capacity_sms) {
  PCMAX_EXPECTS(capacity_sms >= 1);
}

void FluidScheduler::submit(const FluidTask& task) {
  PCMAX_EXPECTS(task.stream >= 0);
  PCMAX_EXPECTS(task.latency >= util::SimTime{});
  PCMAX_EXPECTS(task.work >= util::SimTime{});
  PCMAX_EXPECTS(task.work == util::SimTime{} || task.width_sms >= 1);
  const auto s = static_cast<std::size_t>(task.stream);
  if (s >= queues_.size()) queues_.resize(s + 1);
  queues_[s].push_back(task);
}

util::SimTime FluidScheduler::run(util::SimTime start_at) {
  // Per-stream cursor into the FIFO.
  std::vector<std::size_t> next(queues_.size(), 0);
  // The head task of every stream with work left, in stream order. A
  // completed head is replaced in place by its stream's next task, so the
  // order holds without re-sorting.
  std::vector<ActiveTask> active;
  util::SimTime now = start_at;
  const auto head = [&](std::size_t s) {
    const FluidTask& t = queues_[s][next[s]++];
    return ActiveTask{s, t, now, t.latency.ps(), t.work.ps(), 0};
  };
  for (std::size_t s = 0; s < queues_.size(); ++s)
    if (!queues_[s].empty()) active.push_back(head(s));

  util::SimTime last_finish = start_at;
  while (!active.empty()) {
    water_fill(active, capacity_);

    // Next event: a latency phase ends or an allocated task drains.
    std::int64_t dt = std::numeric_limits<std::int64_t>::max();
    for (const auto& a : active) {
      if (a.latency_left_ps > 0) {
        dt = std::min(dt, a.latency_left_ps);
      } else if (a.work_left_ps > 0 && a.rate_sms > 0) {
        dt = std::min<std::int64_t>(
            dt, static_cast<std::int64_t>(util::ceil_div(
                    static_cast<std::uint64_t>(a.work_left_ps),
                    static_cast<std::uint64_t>(a.rate_sms))));
      } else if (a.work_left_ps == 0 && a.latency_left_ps == 0) {
        dt = 0;  // completes immediately (zero-work task)
      }
    }
    PCMAX_ENSURES(dt != std::numeric_limits<std::int64_t>::max());

    now += util::SimTime::picoseconds(dt);
    for (auto& a : active) {
      if (a.latency_left_ps > 0) {
        a.latency_left_ps = std::max<std::int64_t>(0, a.latency_left_ps - dt);
      } else if (a.rate_sms > 0) {
        a.work_left_ps =
            std::max<std::int64_t>(0, a.work_left_ps - a.rate_sms * dt);
      }
    }

    // Retire drained heads in stream order and promote each stream's next
    // task; streams with nothing left drop out.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < active.size(); ++i) {
      ActiveTask& a = active[i];
      if (a.latency_left_ps == 0 && a.work_left_ps == 0) {
        completions_.push_back(FluidCompletion{a.task, a.start, now});
        last_finish = std::max(last_finish, now);
        if (next[a.stream] == queues_[a.stream].size()) continue;
        a = head(a.stream);
      }
      if (kept != i) active[kept] = active[i];
      ++kept;
    }
    active.resize(kept);
  }

  queues_.clear();
  return last_finish;
}

}  // namespace pcmax::gpusim
