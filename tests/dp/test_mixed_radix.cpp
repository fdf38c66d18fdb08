#include "dp/mixed_radix.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "util/checked_math.hpp"
#include "util/contracts.hpp"

namespace pcmax::dp {
namespace {

TEST(MixedRadix, SizeIsProductOfExtents) {
  EXPECT_EQ(MixedRadix({6, 6, 6}).size(), 216u);
  EXPECT_EQ(MixedRadix({2}).size(), 2u);
  EXPECT_EQ(MixedRadix({1, 1, 1, 1}).size(), 1u);
  EXPECT_EQ(MixedRadix({3, 16, 15, 18}).size(), 12960u);  // Table III
}

TEST(MixedRadix, RowMajorStrides) {
  const MixedRadix r({4, 3, 2});
  ASSERT_EQ(r.strides().size(), 3u);
  EXPECT_EQ(r.strides()[2], 1u);
  EXPECT_EQ(r.strides()[1], 2u);
  EXPECT_EQ(r.strides()[0], 6u);
}

TEST(MixedRadix, FlattenMatchesManualComputation) {
  const MixedRadix r({4, 3, 2});
  const std::vector<std::int64_t> v{2, 1, 1};
  EXPECT_EQ(r.flatten(v), 2u * 6 + 1u * 2 + 1u);
}

TEST(MixedRadix, FlattenUnflattenRoundTrip) {
  const MixedRadix r({5, 4, 3, 2});
  for (std::uint64_t id = 0; id < r.size(); ++id) {
    const auto v = r.unflatten(id);
    EXPECT_EQ(r.flatten(v), id);
  }
}

TEST(MixedRadix, UnflattenFlattenRoundTripHigherDim) {
  const MixedRadix r({2, 3, 2, 2, 3, 3, 2, 2, 2, 2});  // Table I, 10 dims
  EXPECT_EQ(r.size(), 3456u);
  for (std::uint64_t id = 0; id < r.size(); id += 7) {
    const auto v = r.unflatten(id);
    EXPECT_EQ(r.flatten(v), id);
  }
}

TEST(MixedRadix, LevelOfMatchesCoordinateSum) {
  const MixedRadix r({4, 5, 3});
  for (std::uint64_t id = 0; id < r.size(); ++id) {
    const auto v = r.unflatten(id);
    EXPECT_EQ(r.level_of(id),
              std::accumulate(v.begin(), v.end(), std::int64_t{0}));
  }
}

TEST(MixedRadix, MaxLevel) {
  EXPECT_EQ(MixedRadix({6, 6, 6}).max_level(), 15);
  EXPECT_EQ(MixedRadix({1}).max_level(), 0);
  EXPECT_EQ(MixedRadix({2, 2}).max_level(), 2);
}

TEST(MixedRadix, Contains) {
  const MixedRadix r({3, 2});
  EXPECT_TRUE(r.contains(std::vector<std::int64_t>{0, 0}));
  EXPECT_TRUE(r.contains(std::vector<std::int64_t>{2, 1}));
  EXPECT_FALSE(r.contains(std::vector<std::int64_t>{3, 0}));
  EXPECT_FALSE(r.contains(std::vector<std::int64_t>{0, -1}));
  EXPECT_FALSE(r.contains(std::vector<std::int64_t>{0}));
}

TEST(MixedRadix, RejectsBadExtents) {
  EXPECT_THROW(MixedRadix({}), util::contract_violation);
  EXPECT_THROW(MixedRadix({0}), util::contract_violation);
  EXPECT_THROW(MixedRadix({3, -1}), util::contract_violation);
}

TEST(MixedRadix, OverflowDetected) {
  // 2^13 dims of extent 2 would be 2^8192 cells.
  std::vector<std::int64_t> extents(70, 2);
  EXPECT_THROW(MixedRadix(std::move(extents)), util::overflow_error);
}

TEST(MixedRadix, FlattenRejectsOutOfRange) {
  const MixedRadix r({3, 3});
  EXPECT_THROW((void)r.flatten(std::vector<std::int64_t>{3, 0}),
               util::contract_violation);
  EXPECT_THROW((void)r.flatten(std::vector<std::int64_t>{0, 0, 0}),
               util::contract_violation);
}

TEST(MixedRadix, RowMajorOrderingIsMonotoneInLastCoordinate) {
  const MixedRadix r({3, 4});
  for (std::int64_t a = 0; a < 3; ++a)
    for (std::int64_t b = 0; b + 1 < 4; ++b)
      EXPECT_EQ(r.flatten(std::vector<std::int64_t>{a, b}) + 1,
                r.flatten(std::vector<std::int64_t>{a, b + 1}));
}

class MixedRadixParam
    : public ::testing::TestWithParam<std::vector<std::int64_t>> {};

TEST_P(MixedRadixParam, RoundTripAndLevels) {
  const MixedRadix r(GetParam());
  std::uint64_t step = std::max<std::uint64_t>(1, r.size() / 997);
  for (std::uint64_t id = 0; id < r.size(); id += step) {
    const auto v = r.unflatten(id);
    EXPECT_EQ(r.flatten(v), id);
    EXPECT_EQ(r.level_of(id),
              std::accumulate(v.begin(), v.end(), std::int64_t{0}));
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperShapes, MixedRadixParam,
    ::testing::Values(std::vector<std::int64_t>{6, 4, 6, 6, 4},
                      std::vector<std::int64_t>{5, 3, 6, 3, 4, 4, 2},
                      std::vector<std::int64_t>{3, 16, 15, 18},
                      std::vector<std::int64_t>{4, 4, 6, 6, 2, 3, 3, 2},
                      std::vector<std::int64_t>{5, 6, 3, 7, 6, 4, 8, 3},
                      std::vector<std::int64_t>{3, 10, 7, 6, 4, 8, 10}));

// Radixes around the 32-bit division cut-over: unflatten and level_of divide
// in 32 bits up to size 2^32 - 1 and in 64 bits from 2^32 on. No table is
// allocated; the ids probe every stride boundary and the extreme cells.
class MixedRadixWidthParam
    : public ::testing::TestWithParam<std::vector<std::int64_t>> {};

TEST_P(MixedRadixWidthParam, RoundTripAcrossDivisionWidths) {
  const MixedRadix r(GetParam());
  std::vector<std::uint64_t> ids{0, 1, r.size() / 2, r.size() - 2,
                                 r.size() - 1};
  for (const std::uint64_t stride : r.strides())
    for (const std::uint64_t id : {stride - 1, stride, stride + 1})
      if (id < r.size()) ids.push_back(id);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 200; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    ids.push_back(x % r.size());
  }
  for (const std::uint64_t id : ids) {
    const auto v = r.unflatten(id);
    ASSERT_TRUE(r.contains(v)) << id;
    EXPECT_EQ(r.flatten(v), id);
    EXPECT_EQ(r.level_of(id),
              std::accumulate(v.begin(), v.end(), std::int64_t{0}));
  }
  const auto last = r.unflatten(r.size() - 1);
  EXPECT_EQ(std::accumulate(last.begin(), last.end(), std::int64_t{0}),
            r.max_level());
}

INSTANTIATE_TEST_SUITE_P(
    DivisionWidths, MixedRadixWidthParam,
    ::testing::Values(
        std::vector<std::int64_t>{65535, 65537},            // 2^32 - 1
        std::vector<std::int64_t>{3, 5, 17, 257, 65537},    // 2^32 - 1
        std::vector<std::int64_t>{65536, 65536},            // 2^32
        std::vector<std::int64_t>{1, 65536, 65536},         // stride 2^32
        std::vector<std::int64_t>{1 << 20, 1 << 20},        // 2^40
        std::vector<std::int64_t>{1024, 1024, 1024, 1024},  // 2^40
        std::vector<std::int64_t>{16, 16, 16, 16, 16, 16, 16, 16, 16, 16}));

}  // namespace
}  // namespace pcmax::dp
