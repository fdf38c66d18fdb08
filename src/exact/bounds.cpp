#include "exact/bounds.hpp"

#include <algorithm>
#include <numeric>

#include "baselines/heuristics.hpp"
#include "core/bounds.hpp"
#include "util/checked_math.hpp"
#include "util/contracts.hpp"

namespace pcmax::exact {

namespace {

/// ceil(a * b / c) in 128-bit intermediates: the a-posteriori bounds
/// multiply a makespan by c*m, which can exceed 64 bits on instances with
/// huge processing times; a silently wrapped lower bound would make the
/// search "prove" wrong optima.
std::int64_t ceil_mul_div(std::int64_t a, std::int64_t b, std::int64_t c) {
  PCMAX_EXPECTS(a >= 0 && b >= 0 && c > 0);
  const auto num = static_cast<util::int128>(a) * static_cast<util::int128>(b);
  const auto den = static_cast<util::int128>(c);
  return static_cast<std::int64_t>((num + den - 1) / den);
}

}  // namespace

std::int64_t RootBounds::lower() const noexcept {
  return std::max({trivial, pairing, lpt_ratio, lpt_aposteriori});
}

std::int64_t pairing_bound(const std::vector<std::int64_t>& sorted_desc,
                           std::int64_t machines) {
  PCMAX_EXPECTS(machines >= 1);
  const auto n = static_cast<std::int64_t>(sorted_desc.size());
  if (n <= machines) return 0;
  const auto m = static_cast<std::size_t>(machines);
  // Two of the m+1 largest jobs share a machine; the cheapest pairing is
  // the two smallest of them.
  std::int64_t bound = sorted_desc[m - 1] + sorted_desc[m];
  // Of the h*m+1 largest jobs, some machine receives h+1; each of those
  // jobs is at least the (h*m+1)-th largest.
  for (std::int64_t h = 1; h * machines < n; ++h)
    bound = std::max(
        bound, (h + 1) * sorted_desc[static_cast<std::size_t>(h * machines)]);
  return bound;
}

std::int64_t lpt_aposteriori_bound(std::int64_t lpt_makespan,
                                   std::int64_t critical_jobs,
                                   std::int64_t machines) {
  PCMAX_EXPECTS(lpt_makespan >= 0 && critical_jobs >= 1 && machines >= 1);
  // One job defines the makespan: OPT >= max_j t_j >= that job == LPT.
  if (critical_jobs == 1) return lpt_makespan;
  // LPT <= ((c+1)/c - 1/(c*m)) * OPT  (Graham's a-posteriori form, with c
  // jobs on the critical machine), so OPT >= LPT * c*m / ((c+1)*m - 1).
  return ceil_mul_div(lpt_makespan, critical_jobs * machines,
                      (critical_jobs + 1) * machines - 1);
}

std::int64_t completion_lower_bound(const std::vector<std::int64_t>& loads,
                                    std::int64_t remaining) {
  std::vector<std::int64_t> sorted = loads;
  std::sort(sorted.begin(), sorted.end());
  return completion_lower_bound_sorted(sorted, remaining);
}

std::int64_t completion_lower_bound_sorted(
    const std::vector<std::int64_t>& sorted, std::int64_t remaining) {
  PCMAX_EXPECTS(!sorted.empty() && remaining >= 0);
  const std::int64_t max_load = sorted.back();
  if (remaining == 0) return max_load;

  // Water-fill: find the segment [l[k-1], l[k]) whose slope-k fill absorbs
  // `remaining`, then take the integer ceiling of the level. f(L) =
  // sum max(0, L - l_i) is continuous and increasing, so exactly one
  // segment (or the open tail above l[m-1]) contains the solution.
  std::int64_t prefix = 0;
  const auto m = sorted.size();
  for (std::size_t k = 1; k <= m; ++k) {
    prefix += sorted[k - 1];
    const auto level = static_cast<std::int64_t>(
        (static_cast<util::int128>(remaining) +
         static_cast<util::int128>(prefix) + static_cast<util::int128>(k) -
         1) /
        static_cast<util::int128>(k));
    if (level < sorted[k - 1]) continue;  // level below this segment
    if (k < m && level > sorted[k]) continue;  // next machine joins first
    return std::max(max_load, level);
  }
  // Unreachable: k == m always accepts (no upper segment limit).
  return max_load;
}

RootBounds compute_root_bounds(const Instance& instance) {
  instance.validate();
  RootBounds bounds;
  bounds.trivial = makespan_lower_bound(instance);

  std::vector<std::int64_t> sorted = instance.times;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  bounds.pairing = pairing_bound(sorted, instance.machines);

  bounds.lpt_schedule = baselines::lpt(instance);
  const auto loads = machine_loads(instance, bounds.lpt_schedule);
  const auto critical = static_cast<std::size_t>(
      std::max_element(loads.begin(), loads.end()) - loads.begin());
  bounds.lpt_makespan = loads[critical];
  std::int64_t critical_jobs = 0;
  for (const auto m : bounds.lpt_schedule.assignment)
    if (static_cast<std::size_t>(m) == critical) ++critical_jobs;

  // OPT >= ceil(3m * LPT / (4m - 1)): Graham's LPT ratio read backwards.
  bounds.lpt_ratio = ceil_mul_div(bounds.lpt_makespan, 3 * instance.machines,
                                  4 * instance.machines - 1);
  bounds.lpt_aposteriori = lpt_aposteriori_bound(
      bounds.lpt_makespan, critical_jobs, instance.machines);
  return bounds;
}

}  // namespace pcmax::exact
