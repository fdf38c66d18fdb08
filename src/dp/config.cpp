#include "dp/config.hpp"

#include "util/checked_math.hpp"
#include "util/contracts.hpp"

namespace pcmax::dp {

namespace {

/// Calls visit(s, weight, jobs, delta) for every configuration s, in
/// lexicographic order; `s` holds the first `dim` coordinates so far.
template <typename Visit>
void enumerate(std::span<const std::int64_t> counts,
               std::span<const std::int64_t> weights, std::int64_t capacity,
               const MixedRadix& radix, std::vector<std::int64_t>& s,
               std::size_t dim, std::int64_t used, std::int64_t jobs,
               std::uint64_t delta, Visit& visit) {
  if (dim == counts.size()) {
    if (jobs > 0) visit(s, used, jobs, delta);  // s = 0 is no configuration
    return;
  }
  const std::int64_t w = weights[dim];
  const std::int64_t bound = std::min(counts[dim], (capacity - used) / w);
  for (std::int64_t x = 0; x <= bound; ++x) {
    s[dim] = x;
    enumerate(counts, weights, capacity, radix, s, dim + 1, used + x * w,
              jobs + x,
              delta + static_cast<std::uint64_t>(x) * radix.strides()[dim],
              visit);
  }
  s[dim] = 0;
}

}  // namespace

ConfigSet::ConfigSet(std::span<const std::int64_t> counts,
                     std::span<const std::int64_t> weights,
                     std::int64_t capacity, const MixedRadix& radix)
    : dims_(counts.size()) {
  PCMAX_EXPECTS(!counts.empty());
  PCMAX_EXPECTS(counts.size() == weights.size());
  PCMAX_EXPECTS(radix.dims() == counts.size());
  PCMAX_EXPECTS(capacity >= 0);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    PCMAX_EXPECTS(counts[i] >= 0);
    PCMAX_EXPECTS(weights[i] >= 1);
    PCMAX_EXPECTS(radix.extents()[i] == counts[i] + 1);
  }

  // Count first and size the arrays once: most sets are small and built per
  // DP call, where growing four vectors would cost more than the enumeration.
  std::vector<std::int64_t> s(dims_, 0);
  std::size_t n = 0;
  auto count = [&](const auto&, std::int64_t, std::int64_t, std::uint64_t) {
    ++n;
  };
  enumerate(counts, weights, capacity, radix, s, 0, 0, 0, 0, count);
  flat_.reserve(n * dims_);
  deltas_.reserve(n);
  weights_.reserve(n);
  level_drops_.reserve(n);
  auto store = [&](const std::vector<std::int64_t>& config,
                   std::int64_t weight, std::int64_t jobs,
                   std::uint64_t delta) {
    flat_.insert(flat_.end(), config.begin(), config.end());
    deltas_.push_back(delta);
    weights_.push_back(weight);
    level_drops_.push_back(jobs);
  };
  enumerate(counts, weights, capacity, radix, s, 0, 0, 0, 0, store);
  if (!flat_.empty()) hot_ = FitSet(flat_, dims_);
}

std::uint64_t candidate_count(std::span<const std::int64_t> v) {
  std::uint64_t n = 1;
  for (const auto c : v)
    n = util::checked_mul(n, static_cast<std::uint64_t>(c) + 1);
  return n;
}

}  // namespace pcmax::dp
