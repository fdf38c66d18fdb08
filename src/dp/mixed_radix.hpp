// Row-major mixed-radix index arithmetic for higher-dimensional DP tables.
//
// A DP table over a count vector N = (n_1, ..., n_d) has extents
// (n_1+1, ..., n_d+1); every cell is a coordinate vector v with
// 0 <= v_i <= n_i, stored at the row-major flat index
//   sum_i v_i * stride_i,  stride_d = 1, stride_i = stride_{i+1} * extent_{i+1}.
// The anti-diagonal level of a cell is sum_i v_i (Algorithm 2, line 7).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace pcmax::dp {

class MixedRadix {
 public:
  /// Extents are per-dimension sizes; every extent must be >= 1.
  /// Throws util::contract_violation on empty/invalid extents and
  /// util::overflow_error if the table size exceeds 2^64-1.
  explicit MixedRadix(std::vector<std::int64_t> extents);

  [[nodiscard]] std::size_t dims() const noexcept { return extents_.size(); }
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] const std::vector<std::int64_t>& extents() const noexcept {
    return extents_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& strides() const noexcept {
    return strides_;
  }

  /// Row-major flat index of a coordinate vector (must be in range).
  [[nodiscard]] std::uint64_t flatten(std::span<const std::int64_t> v) const;

  /// Inverse of flatten; writes dims() coordinates into `out`. Like
  /// level_of, it divides in 32 bits when size() <= 2^32 - 1 and in 64 bits
  /// above that.
  void unflatten(std::uint64_t index, std::span<std::int64_t> out) const;

  /// Convenience overload allocating the coordinate vector.
  [[nodiscard]] std::vector<std::int64_t> unflatten(std::uint64_t index) const;

  /// Steps the coordinates `v` to the next cell in row-major order (last
  /// coordinate fastest) and returns the change in level; the last cell
  /// steps to the origin. Walks a table without a division per cell.
  std::int64_t advance(std::span<std::int64_t> v) const noexcept {
    std::int64_t change = 0;
    for (std::size_t i = v.size(); i-- > 0;) {
      if (++v[i] < extents_[i]) return change + 1;
      change -= extents_[i] - 1;
      v[i] = 0;
    }
    return change;
  }

  /// Anti-diagonal level (sum of coordinates) of the cell at `index`.
  [[nodiscard]] std::int64_t level_of(std::uint64_t index) const;

  /// Largest possible level: sum of (extent_i - 1).
  [[nodiscard]] std::int64_t max_level() const noexcept { return max_level_; }

  /// True when `v` is a valid coordinate vector for this radix.
  [[nodiscard]] bool contains(std::span<const std::int64_t> v) const noexcept;

 private:
  std::vector<std::int64_t> extents_;
  std::vector<std::uint64_t> strides_;
  std::uint64_t size_ = 0;
  std::int64_t max_level_ = 0;
};

/// Cell ids of a table grouped by anti-diagonal level in CSR form:
/// cells with level l are ids()[offsets()[l] .. offsets()[l+1]).
/// Within a level, ids are in increasing row-major order — the same
/// deterministic order Algorithm 2's scan visits them in.
class LevelBuckets {
 public:
  explicit LevelBuckets(const MixedRadix& radix);

  [[nodiscard]] std::int64_t levels() const noexcept {
    return static_cast<std::int64_t>(offsets_.size()) - 1;
  }
  [[nodiscard]] std::span<const std::uint64_t> cells_at(
      std::int64_t level) const;
  [[nodiscard]] std::uint64_t count_at(std::int64_t level) const {
    return static_cast<std::uint64_t>(cells_at(level).size());
  }

 private:
  std::vector<std::uint64_t> offsets_;
  std::vector<std::uint64_t> ids_;
};

}  // namespace pcmax::dp
