#include "testkit/invariants.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <vector>

#include "core/bounds.hpp"
#include "core/certificate.hpp"
#include "testkit/oracles.hpp"
#include "util/checked_math.hpp"
#include "util/contracts.hpp"

namespace pcmax::testkit {

namespace {

std::string cell_label(const dp::MixedRadix& radix, std::uint64_t id) {
  std::string s = "cell " + std::to_string(id) + " = (";
  const auto v = radix.unflatten(id);
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) s += ',';
    s += std::to_string(v[i]);
  }
  s += ")";
  return s;
}

}  // namespace

CheckResult check_schedule(const Instance& instance, const Schedule& schedule) {
  try {
    validate_schedule(instance, schedule);
  } catch (const util::contract_violation& e) {
    return std::string("invalid schedule: ") + e.what();
  }
  const auto loads = machine_loads(instance, schedule);
  const auto total = std::accumulate(loads.begin(), loads.end(),
                                     std::int64_t{0});
  if (total != instance.total_time())
    return "load conservation violated: machine loads sum to " +
           std::to_string(total) + " but the instance has " +
           std::to_string(instance.total_time()) + " total time";
  return std::nullopt;
}

CheckResult check_ptas_result(const Instance& instance,
                              const PtasResult& result, std::int64_t k) {
  if (auto bad = check_schedule(instance, result.schedule)) return bad;
  const auto actual = makespan(instance, result.schedule);
  if (actual != result.achieved_makespan)
    return "achieved_makespan " + std::to_string(result.achieved_makespan) +
           " does not match the schedule's real makespan " +
           std::to_string(actual);
  const auto lb = makespan_lower_bound(instance);
  const auto ub = makespan_upper_bound(instance);
  if (result.best_target < lb || result.best_target > ub)
    return "best_target " + std::to_string(result.best_target) +
           " outside [LB, UB] = [" + std::to_string(lb) + ", " +
           std::to_string(ub) + "]";
  if (!within_ptas_guarantee(result.achieved_makespan, result.best_target, k))
    return "makespan " + std::to_string(result.achieved_makespan) +
           " violates the (1 + 1/" + std::to_string(k) +
           ") bound against target " + std::to_string(result.best_target);
  const auto oracle_lb = oracle_lower_bound(instance);
  if (result.achieved_makespan < oracle_lb)
    return "makespan " + std::to_string(result.achieved_makespan) +
           " beats the oracle lower bound " + std::to_string(oracle_lb) +
           " — the schedule or the loads are corrupt";
  return std::nullopt;
}

CheckResult check_ptas_vs_exact(const Instance& instance,
                                const PtasResult& result, std::int64_t k,
                                std::int64_t exact_opt) {
  if (auto bad = check_ptas_result(instance, result, k)) return bad;
  if (result.achieved_makespan < exact_opt)
    return "makespan " + std::to_string(result.achieved_makespan) +
           " below the exact optimum " + std::to_string(exact_opt);
  // makespan <= (1 + 1/k) * OPT, exactly: makespan * k <= (k + 1) * OPT.
  if (result.achieved_makespan * k > (k + 1) * exact_opt)
    return "makespan " + std::to_string(result.achieved_makespan) +
           " exceeds (1 + 1/" + std::to_string(k) + ") * OPT with OPT = " +
           std::to_string(exact_opt);
  return std::nullopt;
}

CheckResult check_dp_table(const dp::DpProblem& problem,
                           const dp::DpResult& result) {
  const auto radix = problem.radix();
  if (result.table.size() != radix.size())
    return "table has " + std::to_string(result.table.size()) +
           " cells, expected " + std::to_string(radix.size());
  if (result.table[0] != 0)
    return "origin cell is " + std::to_string(result.table[0]) +
           ", expected 0";
  if (result.table.back() != result.opt)
    return "table.back() = " + std::to_string(result.table.back()) +
           " disagrees with opt = " + std::to_string(result.opt);

  std::vector<std::int64_t> v(radix.dims());
  for (std::uint64_t id = 0; id < radix.size(); ++id) {
    const auto value = result.table[id];
    if (value == dp::kInfeasible) continue;
    if (value < 0)
      return cell_label(radix, id) + " holds negative OPT " +
             std::to_string(value);
    radix.unflatten(id, v);

    // Monotonicity: removing one job never increases the machine count.
    for (std::size_t d = 0; d < v.size(); ++d) {
      if (v[d] == 0) continue;
      const auto pred_id = id - radix.strides()[d];
      const auto pred = result.table[pred_id];
      if (pred == dp::kInfeasible)
        return cell_label(radix, id) + " is reachable (OPT " +
               std::to_string(value) + ") but its axis-" + std::to_string(d) +
               " predecessor is infeasible";
      if (pred > value)
        return "monotonicity violated along axis " + std::to_string(d) +
               ": " + cell_label(radix, id) + " has OPT " +
               std::to_string(value) + " < predecessor's " +
               std::to_string(pred);
    }

    // Weight lower bound: OPT(v) machines carry at most capacity each.
    std::int64_t weight = 0, level = 0;
    for (std::size_t d = 0; d < v.size(); ++d) {
      weight += v[d] * problem.weights[d];
      level += v[d];
    }
    if (level > 0 && problem.capacity > 0) {
      const auto min_machines = static_cast<std::int64_t>(
          util::ceil_div(static_cast<std::uint64_t>(weight),
                         static_cast<std::uint64_t>(problem.capacity)));
      if (value < min_machines)
        return cell_label(radix, id) + " claims OPT " + std::to_string(value) +
               " but total weight " + std::to_string(weight) +
               " needs at least " + std::to_string(min_machines) +
               " machines of capacity " + std::to_string(problem.capacity);
    }
    // Level upper bound: one machine per job always suffices once reachable.
    if (value > level)
      return cell_label(radix, id) + " claims OPT " + std::to_string(value) +
             " for only " + std::to_string(level) + " jobs";
  }
  return std::nullopt;
}

CheckResult check_tables_match(const std::string& name_a,
                               const dp::DpResult& a, const std::string& name_b,
                               const dp::DpResult& b, bool compare_tables) {
  if (a.opt != b.opt)
    return name_a + " and " + name_b + " disagree on OPT: " +
           std::to_string(a.opt) + " vs " + std::to_string(b.opt);
  if (!compare_tables) return std::nullopt;
  if (a.table.size() != b.table.size())
    return name_a + " and " + name_b + " produced tables of different size: " +
           std::to_string(a.table.size()) + " vs " +
           std::to_string(b.table.size());
  for (std::uint64_t id = 0; id < a.table.size(); ++id)
    if (a.table[id] != b.table[id])
      return name_a + " and " + name_b + " diverge at cell " +
             std::to_string(id) + ": " + std::to_string(a.table[id]) +
             " vs " + std::to_string(b.table[id]);
  return std::nullopt;
}

CheckResult check_blocked_bijection(const partition::BlockedLayout& layout) {
  const auto& radix = layout.table_radix();
  const auto size = radix.size();
  std::vector<char> seen(size, 0);
  std::vector<std::int64_t> v(radix.dims());
  for (std::uint64_t id = 0; id < size; ++id) {
    const auto blocked = layout.to_blocked(id);
    if (blocked >= size)
      return "to_blocked(" + std::to_string(id) + ") = " +
             std::to_string(blocked) + " out of range " + std::to_string(size);
    if (seen[blocked] != 0)
      return "to_blocked collides at blocked offset " +
             std::to_string(blocked);
    seen[blocked] = 1;
    if (layout.from_blocked(blocked) != id)
      return "from_blocked(to_blocked(" + std::to_string(id) +
             ")) != identity";
    radix.unflatten(id, v);
    if (layout.blocked_offset(v) != blocked)
      return "blocked_offset disagrees with to_blocked at " +
             cell_label(radix, id);
  }
  return std::nullopt;
}

CheckResult check_ptas_cache_equivalence(const PtasResult& cached,
                                         const PtasResult& uncached,
                                         bool require_same_iterations) {
  if (cached.best_target != uncached.best_target)
    return "probe cache changed the best target: " +
           std::to_string(cached.best_target) + " (cached) vs " +
           std::to_string(uncached.best_target) + " (uncached)";
  if (cached.achieved_makespan != uncached.achieved_makespan)
    return "probe cache changed the makespan: " +
           std::to_string(cached.achieved_makespan) + " (cached) vs " +
           std::to_string(uncached.achieved_makespan) + " (uncached)";
  if (cached.schedule.assignment != uncached.schedule.assignment)
    return "probe cache changed the schedule assignment";
  if (require_same_iterations &&
      cached.search_iterations != uncached.search_iterations)
    return "cold probe cache changed the search rounds: " +
           std::to_string(cached.search_iterations) + " (cached) vs " +
           std::to_string(uncached.search_iterations) + " (uncached)";
  return std::nullopt;
}

CheckResult check_resilient_result(const Instance& instance,
                                   const ResilientResult& result) {
  const StatusCode code = result.status.code();
  const bool carries_schedule =
      code == StatusCode::kOk || code == StatusCode::kDeadlineExceeded;
  if (!carries_schedule) {
    if (code == StatusCode::kInternal)
      return "unclassified failure (kInternal): " + result.status.message();
    if (result.attempts.empty() && code != StatusCode::kInvalidInput &&
        code != StatusCode::kUnavailable)
      return "failure " + std::string(status_code_name(code)) +
             " with no recorded attempts";
    return std::nullopt;
  }

  if (result.engine.empty())
    return "result carries a schedule but names no engine";
  if (auto bad = check_schedule(instance, result.schedule)) return bad;
  const std::int64_t actual = makespan(instance, result.schedule);
  if (actual != result.achieved_makespan)
    return "achieved_makespan " + std::to_string(result.achieved_makespan) +
           " does not match the schedule's real makespan " +
           std::to_string(actual);
  if (actual < oracle_lower_bound(instance))
    return "makespan " + std::to_string(actual) +
           " beats the oracle lower bound " +
           std::to_string(oracle_lower_bound(instance));
  if (result.bound_num < result.bound_den || result.bound_den <= 0)
    return "stated quality bound " + std::to_string(result.bound_num) + "/" +
           std::to_string(result.bound_den) + " is not a ratio >= 1";
  // The stated bound is against OPT, which LPT's makespan upper-bounds:
  // makespan <= (num/den) * OPT <= (num/den) * LPT must hold exactly.
  const std::int64_t lpt_ub = lpt_makespan(instance);
  if (actual * result.bound_den > result.bound_num * lpt_ub)
    return "makespan " + std::to_string(actual) +
           " violates the stated bound " + std::to_string(result.bound_num) +
           "/" + std::to_string(result.bound_den) +
           " against the LPT upper bound " + std::to_string(lpt_ub);
  if (code == StatusCode::kDeadlineExceeded && !result.degraded)
    return "deadline best-effort result is not marked degraded";
  return std::nullopt;
}

CheckResult check_exact_claim(const Instance& instance,
                              const exact::BbResult& result) {
  if (auto bad = check_schedule(instance, result.schedule)) return bad;
  const auto actual = makespan(instance, result.schedule);
  if (actual != result.makespan)
    return "claimed makespan " + std::to_string(result.makespan) +
           " does not match the schedule's real makespan " +
           std::to_string(actual);
  if (result.lower_bound > result.makespan)
    return "lower bound " + std::to_string(result.lower_bound) +
           " exceeds the claimed makespan " + std::to_string(result.makespan);
  if (result.lower_bound < makespan_lower_bound(instance))
    return "lower bound " + std::to_string(result.lower_bound) +
           " is weaker than the trivial instance bound " +
           std::to_string(makespan_lower_bound(instance));
  const StatusCode code = result.status.code();
  if (code == StatusCode::kOk) {
    if (result.lower_bound != result.makespan)
      return "status ok but lower bound " + std::to_string(result.lower_bound) +
             " != makespan " + std::to_string(result.makespan) +
             " — optimality is claimed but not certified";
    return std::nullopt;
  }
  if (code != StatusCode::kDeadlineExceeded)
    return "exact engine returned unexpected status " +
           std::string(status_code_name(code)) + ": " +
           result.status.message();
  // Budget expiry: the incumbent must still be at least LPT quality.
  const auto lpt_ub = lpt_makespan(instance);
  if (result.makespan > lpt_ub)
    return "budget-expired incumbent " + std::to_string(result.makespan) +
           " is worse than LPT's " + std::to_string(lpt_ub);
  return std::nullopt;
}

CheckResult check_schedule_vs_opt(const Instance& instance,
                                  const std::string& engine,
                                  const Schedule& schedule,
                                  std::int64_t bound_num,
                                  std::int64_t bound_den, std::int64_t opt) {
  if (opt <= 0) return "claimed optimum " + std::to_string(opt) + " is not positive";
  if (bound_num < bound_den || bound_den <= 0)
    return engine + " states a quality bound " + std::to_string(bound_num) +
           "/" + std::to_string(bound_den) + " that is not a ratio >= 1";
  if (auto bad = check_schedule(instance, schedule))
    return engine + ": " + *bad;
  const auto actual = makespan(instance, schedule);
  if (actual < opt)
    return engine + " produced makespan " + std::to_string(actual) +
           " below the proven optimum " + std::to_string(opt) +
           " — the optimum (or the schedule's loads) is wrong";
  // makespan <= (num/den) * OPT, exactly: makespan * den <= num * OPT.
  const auto lhs = util::checked_mul(static_cast<std::uint64_t>(actual),
                                     static_cast<std::uint64_t>(bound_den));
  const auto rhs = util::checked_mul(static_cast<std::uint64_t>(bound_num),
                                     static_cast<std::uint64_t>(opt));
  if (lhs > rhs)
    return engine + " violates its a-priori guarantee: makespan " +
           std::to_string(actual) + " > " + std::to_string(bound_num) + "/" +
           std::to_string(bound_den) + " * OPT with OPT = " +
           std::to_string(opt);
  return std::nullopt;
}

CheckResult check_device_conservation(const gpusim::Device& device) {
  const auto now = device.now();
  std::map<int, util::SimTime> busy;
  std::map<int, util::SimTime> last_finish;
  for (const auto& record : device.log()) {
    if (record.finish < record.start)
      return "kernel " + record.name + " finishes before it starts";
    if (record.finish > now)
      return "kernel " + record.name +
             " finishes after the device clock: " +
             record.finish.to_string() + " > " + now.to_string();
    // Per-stream FIFO: the log is in launch order, so each kernel must
    // start at or after its stream predecessor's finish.
    const auto it = last_finish.find(record.stream);
    if (it != last_finish.end() && record.start < it->second)
      return "stream " + std::to_string(record.stream) +
             " overlaps: kernel " + record.name + " starts at " +
             record.start.to_string() + " before the previous finish " +
             it->second.to_string();
    last_finish[record.stream] = record.finish;
    busy[record.stream] += record.finish - record.start;
  }
  // Charged time >= critical path: no stream can have been busy for longer
  // than the device clock advanced.
  for (const auto& [stream, total] : busy)
    if (total > now)
      return "stream " + std::to_string(stream) + " was busy for " +
             total.to_string() + " but the device clock only reached " +
             now.to_string();
  return std::nullopt;
}

}  // namespace pcmax::testkit
