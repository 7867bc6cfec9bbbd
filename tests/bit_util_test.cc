#include "common/bit_util.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/random.h"

namespace corra::bit_util {
namespace {

TEST(BitWidthTest, Zero) { EXPECT_EQ(BitWidth(0), 0); }

TEST(BitWidthTest, PowersOfTwoBoundaries) {
  for (int w = 1; w <= 63; ++w) {
    const uint64_t v = uint64_t{1} << (w - 1);
    EXPECT_EQ(BitWidth(v), w) << "value " << v;
    EXPECT_EQ(BitWidth(v - 1), v == 1 ? 0 : w - 1);
  }
  EXPECT_EQ(BitWidth(~uint64_t{0}), 64);
}

TEST(BitWidthTest, SmallValues) {
  EXPECT_EQ(BitWidth(1), 1);
  EXPECT_EQ(BitWidth(2), 2);
  EXPECT_EQ(BitWidth(3), 2);
  EXPECT_EQ(BitWidth(255), 8);
  EXPECT_EQ(BitWidth(256), 9);
}

TEST(ZigZagTest, SmallMagnitudesMapToSmallCodes) {
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
  EXPECT_EQ(ZigZagEncode(-2), 3u);
  EXPECT_EQ(ZigZagEncode(2), 4u);
}

TEST(ZigZagTest, RoundTripExtremes) {
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1},
                    std::numeric_limits<int64_t>::max(),
                    std::numeric_limits<int64_t>::min()}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v) << v;
  }
}

TEST(ZigZagTest, RoundTripRandom) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = static_cast<int64_t>(rng.Next());
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
}

TEST(RoundUpPow2Test, Basics) {
  EXPECT_EQ(RoundUpPow2(0, 8), 0u);
  EXPECT_EQ(RoundUpPow2(1, 8), 8u);
  EXPECT_EQ(RoundUpPow2(8, 8), 8u);
  EXPECT_EQ(RoundUpPow2(9, 8), 16u);
}

TEST(CeilDivTest, Basics) {
  EXPECT_EQ(CeilDiv(0, 8), 0u);
  EXPECT_EQ(CeilDiv(1, 8), 1u);
  EXPECT_EQ(CeilDiv(8, 8), 1u);
  EXPECT_EQ(CeilDiv(9, 8), 2u);
}

TEST(MaxZigZagBitWidthTest, Empty) {
  EXPECT_EQ(MaxZigZagBitWidth(ComputeMinMax({})), 0);
}

TEST(MaxZigZagBitWidthTest, Mixed) {
  const std::vector<int64_t> values = {-3, 0, 2};
  // zigzag(-3) = 5 -> 3 bits; zigzag(2) = 4 -> 3 bits.
  EXPECT_EQ(MaxZigZagBitWidth(ComputeMinMax(values)), 3);
}

TEST(MaxZigZagBitWidthTest, EitherExtremeCanSetTheWidth) {
  // zigzag(-5) = 9 -> 4 bits beats zigzag(2) = 4 -> 3 bits.
  const std::vector<int64_t> negative_wider = {-5, 0, 2};
  EXPECT_EQ(MaxZigZagBitWidth(ComputeMinMax(negative_wider)), 4);
  // zigzag(5) = 10 -> 4 bits beats zigzag(-1) = 1 -> 1 bit.
  const std::vector<int64_t> positive_wider = {-1, 0, 5};
  EXPECT_EQ(MaxZigZagBitWidth(ComputeMinMax(positive_wider)), 4);
  const std::vector<int64_t> extremes = {std::numeric_limits<int64_t>::min(),
                                         std::numeric_limits<int64_t>::max()};
  EXPECT_EQ(MaxZigZagBitWidth(ComputeMinMax(extremes)), 64);
}

TEST(MaxForBitWidthTest, AllEqual) {
  const std::vector<int64_t> values = {5, 5, 5};
  EXPECT_EQ(MaxForBitWidth(ComputeMinMax(values)), 0);
}

TEST(MaxForBitWidthTest, Range) {
  const std::vector<int64_t> values = {10, 14, 17};
  EXPECT_EQ(MaxForBitWidth(ComputeMinMax(values)), 3);  // max delta 7
}

TEST(MaxForBitWidthTest, FullInt64RangeTakes64Bits) {
  const std::vector<int64_t> values = {std::numeric_limits<int64_t>::min(),
                                       std::numeric_limits<int64_t>::max()};
  EXPECT_EQ(MaxForBitWidth(ComputeMinMax(values)), 64);
}

TEST(ComputeMinMaxTest, Empty) {
  const auto mm = ComputeMinMax({});
  EXPECT_EQ(mm.min, 0);
  EXPECT_EQ(mm.max, 0);
}

TEST(ComputeMinMaxTest, SingleAndNegative) {
  const std::vector<int64_t> one = {-9};
  auto mm = ComputeMinMax(one);
  EXPECT_EQ(mm.min, -9);
  EXPECT_EQ(mm.max, -9);

  const std::vector<int64_t> values = {3, -7, 12, 0};
  mm = ComputeMinMax(values);
  EXPECT_EQ(mm.min, -7);
  EXPECT_EQ(mm.max, 12);
}

TEST(ComputeMinMaxTest, Extremes) {
  const std::vector<int64_t> values = {
      std::numeric_limits<int64_t>::min(),
      std::numeric_limits<int64_t>::max()};
  const auto mm = ComputeMinMax(values);
  EXPECT_EQ(mm.min, std::numeric_limits<int64_t>::min());
  EXPECT_EQ(mm.max, std::numeric_limits<int64_t>::max());
}

}  // namespace
}  // namespace corra::bit_util
