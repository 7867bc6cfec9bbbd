// Round-trip and serialization tests for the O(1)-access vertical schemes:
// Plain, BitPack, FOR, Dict.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/bit_stream.h"
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

// The sorted-rank model of Dict: the dictionary is the sorted distinct
// values and each row's code is its value's rank. Checks the encoder's
// serialized bytes and decoded values against it, and that its estimate
// is its size.
void ExpectSortedRankModel(const std::vector<int64_t>& values) {
  std::vector<int64_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::vector<uint64_t> ranks(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    ranks[i] = static_cast<uint64_t>(
        std::lower_bound(sorted.begin(), sorted.end(), values[i]) -
        sorted.begin());
  }
  const int width =
      bit_util::BitWidth(sorted.empty() ? 0 : sorted.size() - 1);
  BufferWriter expected;
  expected.Write<uint8_t>(static_cast<uint8_t>(Scheme::kDict));
  expected.WriteInt64Array(sorted);
  PackedArray::Pack(ranks, width).Write(&expected);

  auto result = DictColumn::Encode(values);
  ASSERT_TRUE(result.ok());
  const auto& col = *result.value();
  BufferWriter actual;
  col.Serialize(&actual);
  EXPECT_EQ(std::move(actual).Finish(), std::move(expected).Finish());
  EXPECT_EQ(DictColumn::EstimateSizeBytes(values), col.SizeBytes());
  ExpectColumnMatches(col, values);
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
  ExpectSortedRankModel(values);
}

TEST(DictTest, BothSidesOfTheNarrowDomainRuleMatchSortedRankModel) {
  // A domain with max - min < 2 * rows is counted and coded in a table
  // indexed by value - min; a wider one in a hash. Both must give the
  // model's bytes.
  for (const auto& [name, values] : test::NarrowDomainRuleCases(3000, 22)) {
    SCOPED_TRACE(name);
    ExpectSortedRankModel(values);
  }
}

// A Dict column's wire form: the dictionary, then `codes` packed at
// `width` bits.
std::vector<uint8_t> DictWireBytes(const std::vector<int64_t>& dict,
                                   const std::vector<uint64_t>& codes,
                                   int width) {
  BufferWriter writer;
  writer.Write<uint8_t>(static_cast<uint8_t>(Scheme::kDict));
  writer.WriteInt64Array(dict);
  PackedArray::Pack(codes, width).Write(&writer);
  return std::move(writer).Finish();
}

Result<std::unique_ptr<EncodedColumn>> LoadColumn(
    const std::vector<uint8_t>& bytes) {
  BufferReader reader(bytes);
  return DeserializeEncodedColumn(&reader);
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

TEST(DictTest, CorruptCodeInLastRowOfMultiMorselColumnRejected) {
  // Five entries at width 3: codes 5..7 fit the width but not the
  // dictionary. Three full morsels and a ragged one.
  const std::vector<int64_t> dict = {-7, 0, 3, 11, 90};
  std::vector<uint64_t> codes(3 * kMorselRows + 17);
  for (size_t i = 0; i < codes.size(); ++i) {
    codes[i] = i % dict.size();
  }
  ASSERT_TRUE(LoadColumn(DictWireBytes(dict, codes, 3)).ok());
  for (const uint64_t bad : {uint64_t{5}, uint64_t{7}}) {
    for (const size_t row : {3 * kMorselRows - 1, codes.size() - 1}) {
      SCOPED_TRACE("code " + std::to_string(bad) + " at row " +
                   std::to_string(row));
      std::vector<uint64_t> corrupt = codes;
      corrupt[row] = bad;
      auto column = LoadColumn(DictWireBytes(dict, corrupt, 3));
      ASSERT_FALSE(column.ok());
      EXPECT_TRUE(column.status().IsCorruption());
    }
  }
}

TEST(DictTest, DictionaryFillingItsWidthLoads) {
  // dict.size() == 2^width: every code the width holds is in range, so
  // the load check has nothing to find, and the column decodes.
  Rng rng(23);
  for (const int width : {0, 1, 3, 8}) {
    SCOPED_TRACE("width " + std::to_string(width));
    std::vector<int64_t> dict(size_t{1} << width);
    for (size_t k = 0; k < dict.size(); ++k) {
      dict[k] = 3 * static_cast<int64_t>(k) - 100;
    }
    std::vector<uint64_t> codes(2 * kMorselRows + 5);
    std::vector<int64_t> expected(codes.size());
    for (size_t i = 0; i < codes.size(); ++i) {
      codes[i] = static_cast<uint64_t>(
          rng.Uniform(0, static_cast<int64_t>(dict.size()) - 1));
      expected[i] = dict[codes[i]];
    }
    codes.back() = dict.size() - 1;
    expected.back() = dict.back();
    auto column = LoadColumn(DictWireBytes(dict, codes, width));
    ASSERT_TRUE(column.ok()) << column.status().ToString();
    ExpectColumnMatches(*column.value(), expected);
  }
}

TEST(DictTest, RowCountsBeyond32BitRowIdsRejected) {
  // The load check's filter kernel carries 32-bit row ids, as a block
  // does: a width-0 column (one entry, no code bits) of 2^32 rows is
  // Corruption, and one of 2^32 - 1 rows loads without unpacking.
  const auto width_zero = [](uint64_t rows) {
    BufferWriter writer;
    writer.Write<uint8_t>(static_cast<uint8_t>(Scheme::kDict));
    writer.WriteInt64Array(std::vector<int64_t>{42});
    writer.Write<uint8_t>(0);  // Width.
    writer.Write<uint64_t>(rows);
    writer.WriteBytes({});
    return std::move(writer).Finish();
  };
  auto huge = LoadColumn(width_zero(uint64_t{1} << 32));
  ASSERT_FALSE(huge.ok());
  EXPECT_TRUE(huge.status().IsCorruption());
  auto largest = LoadColumn(width_zero(UINT32_MAX));
  ASSERT_TRUE(largest.ok()) << largest.status().ToString();
  EXPECT_EQ(largest.value()->size(), UINT32_MAX);
  EXPECT_EQ(largest.value()->Get(UINT32_MAX - 1), 42);
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
