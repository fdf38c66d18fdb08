#include "dp/fitset.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/contracts.hpp"

namespace pcmax::dp {

FitSet::FitSet(std::span<const std::int64_t> rows, std::size_t dims)
    : dims_(dims) {
  PCMAX_EXPECTS(dims >= 1);
  PCMAX_EXPECTS(dims <= 64);
  PCMAX_EXPECTS(rows.size() % dims == 0);
  size_ = rows.size() / dims;
  PCMAX_EXPECTS(size_ <= 0xFFFFFFFFull);
  for (const auto x : rows) PCMAX_EXPECTS(x >= 0);
  // Per-build aggregates only: the fits scan itself is the DP's innermost
  // loop and must stay untouched by instrumentation.
  obs::count("fitset.builds");
  obs::count("fitset.rows", size_);
  obs::observe("fitset.rows_per_build", static_cast<std::int64_t>(size_));

  std::vector<std::int64_t> drops(size_, 0);
  for (std::size_t i = 0; i < size_; ++i)
    for (std::size_t j = 0; j < dims_; ++j)
      drops[i] += rows[i * dims_ + j];
  max_drop_ = size_ == 0 ? 0 : *std::max_element(drops.begin(), drops.end());

  // begin_at_drop_[l]: first sorted position whose drop is <= l — i.e. the
  // number of rows with drop > l, since positions are sorted descending.
  std::vector<std::size_t> rows_with_drop(
      static_cast<std::size_t>(max_drop_) + 1, 0);
  for (std::size_t i = 0; i < size_; ++i)
    ++rows_with_drop[static_cast<std::size_t>(drops[i])];
  begin_at_drop_.assign(static_cast<std::size_t>(max_drop_) + 1, 0);
  for (std::size_t l = static_cast<std::size_t>(max_drop_); l-- > 0;)
    begin_at_drop_[l] = begin_at_drop_[l + 1] + rows_with_drop[l + 1];

  // Descending drop by a counting sort; original order breaks ties, so the
  // scan order is deterministic and stable across rebuilds.
  orig_.resize(size_);
  std::vector<std::size_t> cursor = begin_at_drop_;
  for (std::size_t i = 0; i < size_; ++i)
    orig_[cursor[static_cast<std::size_t>(drops[i])]++] =
        static_cast<std::uint32_t>(i);

  // Transpose into dimension-major columns in sorted order.
  soa_.resize(size_ * dims_);
  max_coord_.assign(dims_, 0);
  for (std::size_t pos = 0; pos < size_; ++pos) {
    const std::size_t row = orig_[pos];
    for (std::size_t j = 0; j < dims_; ++j) {
      const std::int64_t x = rows[row * dims_ + j];
      soa_[j * size_ + pos] = x;
      max_coord_[j] = std::max(max_coord_[j], x);
    }
  }
}

}  // namespace pcmax::dp
