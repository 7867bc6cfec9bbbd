// Round-trip and serialization tests for the O(1)-access vertical schemes:
// Plain, BitPack, FOR, Dict.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/bit_util.h"
#include "encoding/bitpack.h"
#include "encoding/dictionary.h"
#include "encoding/for.h"
#include "encoding/plain.h"
#include "test_util.h"

namespace corra::enc {
namespace {

using test::Dist;
using test::ExpectColumnMatches;
using test::MakeValues;
using test::SerializeRoundTrip;

class VerticalSchemeTest
    : public ::testing::TestWithParam<std::tuple<Dist, size_t>> {
 protected:
  std::vector<int64_t> Values() const {
    const auto [dist, n] = GetParam();
    return MakeValues(dist, n, 0xC0FFEE);
  }
};

TEST_P(VerticalSchemeTest, PlainRoundTrip) {
  const auto values = Values();
  auto column = PlainColumn::Encode(values);
  EXPECT_EQ(column->scheme(), Scheme::kPlain);
  ExpectColumnMatches(*column, values);
  auto reloaded = SerializeRoundTrip(*column);
  ASSERT_NE(reloaded, nullptr);
  ExpectColumnMatches(*reloaded, values);
}

TEST_P(VerticalSchemeTest, ForRoundTrip) {
  const auto values = Values();
  auto result = ForColumn::Encode(values);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto& column = *result.value();
  EXPECT_EQ(column.scheme(), Scheme::kFor);
  ExpectColumnMatches(column, values);
  auto reloaded = SerializeRoundTrip(column);
  ASSERT_NE(reloaded, nullptr);
  ExpectColumnMatches(*reloaded, values);
}

TEST_P(VerticalSchemeTest, DictRoundTrip) {
  const auto values = Values();
  auto result = DictColumn::Encode(values);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto& column = *result.value();
  EXPECT_EQ(column.scheme(), Scheme::kDict);
  ExpectColumnMatches(column, values);
  auto reloaded = SerializeRoundTrip(column);
  ASSERT_NE(reloaded, nullptr);
  ExpectColumnMatches(*reloaded, values);
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, VerticalSchemeTest,
    ::testing::Combine(
        ::testing::Values(Dist::kConstant, Dist::kSmallRange,
                          Dist::kWideRange, Dist::kNegative, Dist::kLowCard,
                          Dist::kSorted, Dist::kRunHeavy, Dist::kExtremes),
        ::testing::Values(size_t{1}, size_t{100}, size_t{4096})),
    [](const auto& param_info) {
      return test::DistName(std::get<0>(param_info.param)) + "_n" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST(BitPackTest, RoundTripNonNegative) {
  const auto values = MakeValues(Dist::kSmallRange, 1000, 5);
  auto result = BitPackColumn::Encode(values);
  ASSERT_TRUE(result.ok());
  ExpectColumnMatches(*result.value(), values);
  auto reloaded = SerializeRoundTrip(*result.value());
  ASSERT_NE(reloaded, nullptr);
  ExpectColumnMatches(*reloaded, values);
}

TEST(BitPackTest, RejectsNegative) {
  const std::vector<int64_t> values = {1, -2, 3};
  auto result = BitPackColumn::Encode(values);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
  EXPECT_EQ(BitPackColumn::EstimateSizeBytes(values), SIZE_MAX);
}

TEST(BitPackTest, WidthMatchesMaxValue) {
  const std::vector<int64_t> values = {0, 1, 255};
  auto result = BitPackColumn::Encode(values);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value()->bit_width(), 8);
  EXPECT_EQ(result.value()->SizeBytes(), 3u);  // ceil(3*8/8)
}

TEST(BitPackTest, AllZerosUseZeroBits) {
  const std::vector<int64_t> values(100, 0);
  auto result = BitPackColumn::Encode(values);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value()->bit_width(), 0);
  EXPECT_EQ(result.value()->SizeBytes(), 0u);
  ExpectColumnMatches(*result.value(), values);
}

TEST(ForTest, BaseIsMin) {
  const std::vector<int64_t> values = {1000, 1003, 1001};
  auto result = ForColumn::Encode(values);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value()->base(), 1000);
  EXPECT_EQ(result.value()->bit_width(), 2);  // range 3 -> 2 bits
}

TEST(ForTest, ConstantColumnCollapsesToBase) {
  const std::vector<int64_t> values(1000, -12345);
  auto result = ForColumn::Encode(values);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value()->bit_width(), 0);
  EXPECT_EQ(result.value()->SizeBytes(), sizeof(int64_t));
  ExpectColumnMatches(*result.value(), values);
}

TEST(ForTest, TpchDateWidthIs12Bits) {
  // ~2557 distinct days need 12 bits: the Table 2 vertical size of the
  // lineitem date columns.
  std::vector<int64_t> values;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    values.push_back(8035 + rng.Uniform(0, 2556));
  }
  values.push_back(8035);         // Force full range.
  values.push_back(8035 + 2556);
  auto result = ForColumn::Encode(values);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value()->bit_width(), 12);
}

TEST(ForTest, EstimateMatchesActual) {
  for (Dist d : {Dist::kSmallRange, Dist::kWideRange, Dist::kNegative}) {
    const auto values = MakeValues(d, 2048, 11);
    auto result = ForColumn::Encode(values);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(ForColumn::EstimateSizeBytes(values),
              result.value()->SizeBytes());
  }
}

TEST(ForTest, RangeOverloadsTakeTheWidthFromTheRange) {
  const std::vector<int64_t> equal = {5, 5, 5};
  const auto equal_range = bit_util::ComputeMinMax(equal);
  auto flat = ForColumn::Encode(equal, equal_range);
  ASSERT_TRUE(flat.ok());
  EXPECT_EQ(flat.value()->bit_width(), 0);
  EXPECT_EQ(ForColumn::EstimateSizeBytes(equal.size(), equal_range),
            sizeof(int64_t));

  const std::vector<int64_t> spread = {10, 14, 17};
  const auto spread_range = bit_util::ComputeMinMax(spread);
  auto packed = ForColumn::Encode(spread, spread_range);
  ASSERT_TRUE(packed.ok());
  EXPECT_EQ(packed.value()->bit_width(), 3);  // max offset 7
  EXPECT_EQ(ForColumn::EstimateSizeBytes(spread.size(), spread_range),
            packed.value()->SizeBytes());
  ExpectColumnMatches(*packed.value(), spread);
}

TEST(DictTest, DictionaryIsSortedUnique) {
  const std::vector<int64_t> values = {5, 3, 5, 9, 3, 3};
  auto result = DictColumn::Encode(values);
  ASSERT_TRUE(result.ok());
  const auto dict = result.value()->dictionary();
  EXPECT_EQ(std::vector<int64_t>(dict.begin(), dict.end()),
            (std::vector<int64_t>{3, 5, 9}));
  EXPECT_EQ(result.value()->bit_width(), 2);
}

TEST(DictTest, CodesIndexDictionary) {
  const std::vector<int64_t> values = {50, 10, 30, 10};
  auto result = DictColumn::Encode(values);
  ASSERT_TRUE(result.ok());
  const auto& col = *result.value();
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(col.dictionary()[col.GetCode(i)], values[i]);
  }
}

TEST(DictTest, EstimateMatchesActual) {
  const auto values = MakeValues(Dist::kLowCard, 4096, 13);
  auto result = DictColumn::Encode(values);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(DictColumn::EstimateSizeBytes(values),
            result.value()->SizeBytes());
}

TEST(DictTest, ExtremeAndHighBitKeys) {
  // Every int64 is a valid key: the extremes, zero, and keys that differ
  // only in their high bits (multiples of 2^40 share all low 40 bits).
  std::vector<int64_t> distinct = {INT64_MIN, INT64_MAX, 0, -1, 1};
  for (int64_t k = -40; k <= 40; ++k) {
    distinct.push_back(k * (int64_t{1} << 40));
  }
  std::vector<int64_t> values;
  Rng rng(21);
  for (int i = 0; i < 5000; ++i) {
    values.push_back(distinct[rng.Uniform(0, distinct.size() - 1)]);
  }
  values.insert(values.end(), distinct.begin(), distinct.end());
  auto result = DictColumn::Encode(values);
  ASSERT_TRUE(result.ok());
  const auto& col = *result.value();
  ExpectColumnMatches(col, values);

  std::vector<int64_t> sorted = distinct;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  const auto dict = col.dictionary();
  ASSERT_EQ(std::vector<int64_t>(dict.begin(), dict.end()), sorted);
  // Codes are the ranks of the sorted distinct values.
  for (size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(col.GetCode(i),
              static_cast<uint64_t>(
                  std::lower_bound(sorted.begin(), sorted.end(), values[i]) -
                  sorted.begin()));
  }
  EXPECT_EQ(DictColumn::EstimateSizeBytes(values), col.SizeBytes());
}

TEST(DictTest, CorruptCodeRejectedOnDeserialize) {
  const std::vector<int64_t> values = {1, 2, 3, 1};
  auto result = DictColumn::Encode(values);
  ASSERT_TRUE(result.ok());
  BufferWriter writer;
  result.value()->Serialize(&writer);
  auto bytes = std::move(writer).Finish();
  // The dictionary holds 3 entries (codes 0..2, 2 bits), so the packed
  // payload is a single data byte followed by kDecodePadBytes of load
  // slack. Overwrite that data byte with all-ones codes (3 = out of
  // range).
  bytes[bytes.size() - bit_util::kDecodePadBytes - 1] = 0xFF;
  BufferReader reader(bytes);
  auto reloaded = DeserializeEncodedColumn(&reader);
  EXPECT_FALSE(reloaded.ok());
}

TEST(PlainTest, ValuesSpanAliasesStorage) {
  const std::vector<int64_t> values = {9, 8, 7};
  auto column = PlainColumn::Encode(values);
  EXPECT_EQ(std::vector<int64_t>(column->values().begin(),
                                 column->values().end()),
            values);
}

TEST(EncodingTest, SchemeToStringCoversVerticalSchemes) {
  EXPECT_EQ(SchemeToString(Scheme::kPlain), "Plain");
  EXPECT_EQ(SchemeToString(Scheme::kBitPack), "BitPack");
  EXPECT_EQ(SchemeToString(Scheme::kFor), "FOR");
  EXPECT_EQ(SchemeToString(Scheme::kDict), "Dict");
  EXPECT_EQ(SchemeToString(Scheme::kDelta), "Delta");
  EXPECT_EQ(SchemeToString(Scheme::kRle), "RLE");
}

TEST(EncodingTest, HorizontalPredicate) {
  EXPECT_FALSE(IsHorizontal(Scheme::kFor));
  EXPECT_TRUE(IsHorizontal(Scheme::kDiff));
  EXPECT_TRUE(IsHorizontal(Scheme::kHierarchical));
  EXPECT_TRUE(IsHorizontal(Scheme::kMultiRef));
  EXPECT_TRUE(IsHorizontal(Scheme::kC3Dfor));
}

TEST(EncodingTest, ConstantTimePredicate) {
  EXPECT_TRUE(HasConstantTimeAccess(Scheme::kFor));
  EXPECT_TRUE(HasConstantTimeAccess(Scheme::kDict));
  EXPECT_FALSE(HasConstantTimeAccess(Scheme::kDelta));
  EXPECT_FALSE(HasConstantTimeAccess(Scheme::kRle));
}

TEST(EncodingTest, TruncatedStreamsAreCorruption) {
  const auto values = MakeValues(Dist::kSmallRange, 100, 21);
  for (int scheme = 0; scheme < 2; ++scheme) {
    BufferWriter writer;
    if (scheme == 0) {
      auto col = ForColumn::Encode(values);
      ASSERT_TRUE(col.ok());
      col.value()->Serialize(&writer);
    } else {
      auto col = DictColumn::Encode(values);
      ASSERT_TRUE(col.ok());
      col.value()->Serialize(&writer);
    }
    auto bytes = std::move(writer).Finish();
    for (size_t cut : {size_t{1}, bytes.size() / 2, bytes.size() - 1}) {
      std::vector<uint8_t> truncated(bytes.begin(),
                                     bytes.begin() + static_cast<long>(cut));
      BufferReader reader(truncated);
      auto result = DeserializeEncodedColumn(&reader);
      EXPECT_FALSE(result.ok()) << "cut at " << cut;
    }
  }
}

}  // namespace
}  // namespace corra::enc
