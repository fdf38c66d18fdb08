#include "core/certificate.hpp"

#include <algorithm>
#include <vector>

#include "core/bounds.hpp"
#include "util/checked_math.hpp"
#include "util/contracts.hpp"

namespace pcmax {

Certificate certify(const Instance& instance, const Schedule& schedule) {
  Certificate cert;
  cert.makespan = makespan(instance, schedule);  // validates
  cert.lower_bound = makespan_lower_bound(instance);
  cert.ratio_vs_lower_bound = static_cast<double>(cert.makespan) /
                              static_cast<double>(cert.lower_bound);
  return cert;
}

bool within_ptas_guarantee(std::int64_t achieved, std::int64_t target,
                           std::int64_t k) {
  PCMAX_EXPECTS(achieved >= 0);
  PCMAX_EXPECTS(target >= 1);
  PCMAX_EXPECTS(k >= 1);
  // achieved <= target * (k + 1) / k  <=>  achieved * k <= target * (k + 1).
  return achieved * k <= target * (k + 1);
}

std::string_view certificate_tier_name(CertificateTier tier) noexcept {
  switch (tier) {
    case CertificateTier::kNone: return "none";
    case CertificateTier::kAPriori: return "a-priori";
    case CertificateTier::kAPosteriori: return "a-posteriori";
    case CertificateTier::kOptimal: return "optimal";
  }
  return "unknown";
}

TieredBound lpt_certificate(const Instance& instance,
                            const Schedule& schedule) {
  const std::vector<std::int64_t> loads = machine_loads(instance, schedule);
  PCMAX_EXPECTS(!loads.empty());
  const auto critical = static_cast<std::size_t>(
      std::max_element(loads.begin(), loads.end()) - loads.begin());
  std::int64_t c = 0;
  for (const auto m : schedule.assignment)
    if (static_cast<std::size_t>(m) == critical) ++c;
  const std::int64_t m = instance.machines;

  TieredBound bound;
  bound.critical_jobs = c;
  if (c <= 1) {
    // Zero or one job defines the makespan: OPT >= max_j t_j >= makespan.
    bound.bound_num = 1;
    bound.bound_den = 1;
    bound.tier = CertificateTier::kOptimal;
    return bound;
  }
  // A-posteriori critical-machine form vs the a-priori Graham ratio,
  // compared as exact rationals (128-bit intermediates: both cross-products
  // are O(m^2 c), which can overflow 64 bits for adversarial m).
  const std::int64_t post_num = (c + 1) * m - 1;
  const std::int64_t post_den = c * m;
  const std::int64_t prior_num = 4 * m - 1;
  const std::int64_t prior_den = 3 * m;
  const auto tighter = static_cast<util::int128>(post_num) * prior_den <
                       static_cast<util::int128>(prior_num) * post_den;
  if (tighter) {
    bound.bound_num = post_num;
    bound.bound_den = post_den;
    bound.tier = CertificateTier::kAPosteriori;
  } else {
    bound.bound_num = prior_num;
    bound.bound_den = prior_den;
    bound.tier = CertificateTier::kAPriori;
  }
  return bound;
}

}  // namespace pcmax
