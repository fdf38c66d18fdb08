#include "dp/mixed_radix.hpp"

#include "util/checked_math.hpp"
#include "util/contracts.hpp"

namespace pcmax::dp {

MixedRadix::MixedRadix(std::vector<std::int64_t> extents)
    : extents_(std::move(extents)) {
  PCMAX_EXPECTS(!extents_.empty());
  for (const auto e : extents_) PCMAX_EXPECTS(e >= 1);

  strides_.assign(extents_.size(), 1);
  size_ = 1;
  for (std::size_t i = extents_.size(); i-- > 0;) {
    strides_[i] = size_;
    size_ = util::checked_mul(size_, static_cast<std::uint64_t>(extents_[i]));
    max_level_ += extents_[i] - 1;
  }
}

std::uint64_t MixedRadix::flatten(std::span<const std::int64_t> v) const {
  PCMAX_EXPECTS(v.size() == extents_.size());
  std::uint64_t index = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    PCMAX_EXPECTS(v[i] >= 0 && v[i] < extents_[i]);
    index += static_cast<std::uint64_t>(v[i]) * strides_[i];
  }
  return index;
}

namespace {

/// Calls digit(i, v_i) for every coordinate of `index`, dividing in
/// `Word`; every stride and the index must fit in Word.
template <typename Word, typename Digit>
void for_each_digit_in(std::uint64_t index,
                       const std::vector<std::uint64_t>& strides,
                       Digit& digit) {
  auto rest = static_cast<Word>(index);
  for (std::size_t i = 0; i < strides.size(); ++i) {
    const auto stride = static_cast<Word>(strides[i]);
    digit(i, static_cast<std::int64_t>(rest / stride));
    rest %= stride;
  }
}

/// for_each_digit_in on 32-bit words whenever the table has fewer than 2^32
/// cells: a 32-bit division is several times cheaper than a 64-bit one, and
/// no stride exceeds the table size.
template <typename Digit>
void for_each_digit(std::uint64_t index, std::uint64_t size,
                    const std::vector<std::uint64_t>& strides, Digit digit) {
  if (size <= 0xFFFFFFFFull)
    for_each_digit_in<std::uint32_t>(index, strides, digit);
  else
    for_each_digit_in<std::uint64_t>(index, strides, digit);
}

}  // namespace

void MixedRadix::unflatten(std::uint64_t index,
                           std::span<std::int64_t> out) const {
  PCMAX_EXPECTS(index < size_);
  PCMAX_EXPECTS(out.size() == extents_.size());
  for_each_digit(index, size_, strides_,
                 [&](std::size_t i, std::int64_t x) { out[i] = x; });
}

std::vector<std::int64_t> MixedRadix::unflatten(std::uint64_t index) const {
  std::vector<std::int64_t> v(dims());
  unflatten(index, v);
  return v;
}

std::int64_t MixedRadix::level_of(std::uint64_t index) const {
  PCMAX_EXPECTS(index < size_);
  std::int64_t level = 0;
  for_each_digit(index, size_, strides_,
                 [&](std::size_t, std::int64_t x) { level += x; });
  return level;
}

bool MixedRadix::contains(std::span<const std::int64_t> v) const noexcept {
  if (v.size() != extents_.size()) return false;
  for (std::size_t i = 0; i < v.size(); ++i)
    if (v[i] < 0 || v[i] >= extents_[i]) return false;
  return true;
}

LevelBuckets::LevelBuckets(const MixedRadix& radix) {
  const auto levels = static_cast<std::size_t>(radix.max_level()) + 1;
  std::vector<std::uint64_t> counts(levels, 0);

  // Counting sort by level. Levels are computed incrementally by walking the
  // coordinate odometer instead of dividing per cell; this is O(size) total.
  std::vector<std::int64_t> coord(radix.dims(), 0);
  std::int64_t level = 0;
  for (std::uint64_t id = 0; id < radix.size(); ++id) {
    ++counts[static_cast<std::size_t>(level)];
    level += radix.advance(coord);
  }

  offsets_.assign(levels + 1, 0);
  for (std::size_t l = 0; l < levels; ++l)
    offsets_[l + 1] = offsets_[l] + counts[l];

  ids_.resize(radix.size());
  std::vector<std::uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  std::fill(coord.begin(), coord.end(), 0);
  level = 0;
  for (std::uint64_t id = 0; id < radix.size(); ++id) {
    ids_[cursor[static_cast<std::size_t>(level)]++] = id;
    level += radix.advance(coord);
  }
}

std::span<const std::uint64_t> LevelBuckets::cells_at(
    std::int64_t level) const {
  PCMAX_EXPECTS(level >= 0 && level < levels());
  const auto l = static_cast<std::size_t>(level);
  return {ids_.data() + offsets_[l], ids_.data() + offsets_[l + 1]};
}

}  // namespace pcmax::dp
