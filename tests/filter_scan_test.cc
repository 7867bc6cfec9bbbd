// Predicate pushdown (query/filter.h) and multi-block scans
// (query/table_scan.h).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <utility>

#include "common/bit_stream.h"
#include "core/corra_compressor.h"
#include "encoding/delta.h"
#include "encoding/dictionary.h"
#include "encoding/for.h"
#include "query/filter.h"
#include "query/table_scan.h"
#include "storage/file_io.h"
#include "storage/serde.h"
#include "test_util.h"

namespace corra::query {
namespace {

using test::Dist;
using test::MakeValues;

std::vector<uint32_t> ReferenceFilter(const std::vector<int64_t>& values,
                                      int64_t lo, int64_t hi) {
  std::vector<uint32_t> rows;
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i] >= lo && values[i] <= hi) {
      rows.push_back(static_cast<uint32_t>(i));
    }
  }
  return rows;
}

class FilterSchemeTest : public ::testing::TestWithParam<Dist> {};

TEST_P(FilterSchemeTest, ForMatchesReference) {
  const auto values = MakeValues(GetParam(), 3000, 1);
  auto column = enc::ForColumn::Encode(values).value();
  for (auto [lo, hi] : {std::pair<int64_t, int64_t>{-100, 100},
                        {0, 0},
                        {INT64_MIN, INT64_MAX},
                        {100, -100},
                        {-5000, -4500}}) {
    EXPECT_EQ(FilterToSelection(*column, lo, hi),
              ReferenceFilter(values, lo, hi))
        << "range [" << lo << ", " << hi << "]";
    EXPECT_EQ(CountInRange(*column, lo, hi),
              ReferenceFilter(values, lo, hi).size());
  }
}

TEST_P(FilterSchemeTest, DictMatchesReference) {
  const auto values = MakeValues(GetParam(), 3000, 2);
  auto column = enc::DictColumn::Encode(values).value();
  for (auto [lo, hi] : {std::pair<int64_t, int64_t>{-100, 100},
                        {3, 17},
                        {INT64_MIN, INT64_MAX},
                        {999, 999}}) {
    EXPECT_EQ(FilterToSelection(*column, lo, hi),
              ReferenceFilter(values, lo, hi));
  }
}

TEST_P(FilterSchemeTest, GenericPathMatchesReference) {
  // Delta has no fast path: exercises the chunked generic filter.
  const auto values = MakeValues(GetParam(), 3000, 3);
  auto column = enc::DeltaColumn::Encode(values).value();
  EXPECT_EQ(FilterToSelection(*column, -50, 50),
            ReferenceFilter(values, -50, 50));
}

INSTANTIATE_TEST_SUITE_P(Distributions, FilterSchemeTest,
                         ::testing::Values(Dist::kConstant,
                                           Dist::kSmallRange,
                                           Dist::kNegative, Dist::kLowCard,
                                           Dist::kRunHeavy),
                         [](const auto& param_info) {
                           return test::DistName(param_info.param);
                         });

// ---- Packed-domain filters at every width ---------------------------------

constexpr size_t kSweepRows = 2048 + 1005;  // A full morsel and a ragged one.
constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

// `count` codes below 2^width (width <= 64, and below `limit` when it is
// nonzero), a third of them clustered at each end of that range.
std::vector<uint64_t> SweepCodes(int width, uint64_t limit, size_t count,
                                 uint64_t seed) {
  uint64_t max = width >= 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
  if (limit != 0) {
    max = std::min(max, limit - 1);
  }
  std::mt19937_64 rng(seed);
  std::vector<uint64_t> codes(count);
  for (auto& c : codes) {
    const uint64_t r = rng();
    c = r % 3 == 0   ? std::min<uint64_t>(r >> 8 & 3, max)
        : r % 3 == 1 ? max - std::min<uint64_t>(r >> 8 & 3, max)
                     : (r >> 2) & max;
  }
  return codes;
}

// A column read from its wire form: the scheme byte, what `prefix`
// writes, then `codes` packed at `width` bits.
template <typename Prefix>
std::unique_ptr<enc::EncodedColumn> PackedColumn(
    enc::Scheme scheme, Prefix&& prefix, const std::vector<uint64_t>& codes,
    int width) {
  BufferWriter writer;
  writer.Write<uint8_t>(static_cast<uint8_t>(scheme));
  prefix(writer);
  PackedArray::Pack(codes, width).Write(&writer);
  const std::vector<uint8_t> bytes = std::move(writer).Finish();
  BufferReader reader(bytes);
  auto column = DeserializeEncodedColumn(&reader);
  EXPECT_TRUE(column.ok()) << column.status().ToString();
  return std::move(column).value();
}

// Checks FilterToSelection and CountInRange on `column` against
// decode-and-compare over ranges around its smallest, middle and
// largest values, both signs, the whole domain and an empty range, and
// over `extra` ranges.
void ExpectFiltersMatchDecode(
    const enc::EncodedColumn& column,
    const std::vector<std::pair<int64_t, int64_t>>& extra = {}) {
  std::vector<int64_t> values(column.size());
  column.DecodeRange(0, values.size(), values.data());
  std::vector<int64_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const int64_t low = sorted.front();
  const int64_t high = sorted.back();
  const int64_t quarter = sorted[sorted.size() / 4];
  const int64_t half = sorted[sorted.size() / 2];
  std::vector<std::pair<int64_t, int64_t>> bounds = {
      {low, low},
      {high, high},
      {quarter, half},
      {half + (half < kMax ? 1 : 0), quarter},  // Empty (lo > hi).
      {kMin, kMax},
      {kMin, -1},
      {0, kMax},
      {-1, 1},
      {kMin, low > kMin ? low - 1 : low},
      {high < kMax ? high + 1 : high, kMax}};
  bounds.insert(bounds.end(), extra.begin(), extra.end());
  for (const auto& [lo, hi] : bounds) {
    SCOPED_TRACE("range [" + std::to_string(lo) + ", " + std::to_string(hi) +
                 "]");
    const auto expected = ReferenceFilter(values, lo, hi);
    ASSERT_EQ(FilterToSelection(column, lo, hi), expected);
    ASSERT_EQ(CountInRange(column, lo, hi), expected.size());
  }
}

TEST(PackedFilterTest, ForMatchesDecodeAtEveryWidth) {
  for (int width = 0; width <= 64; ++width) {
    SCOPED_TRACE("width=" + std::to_string(width));
    // base is the minimum, as Encode stores it: values span
    // [base, base + 2^width - 1] and sit around 0.
    const uint64_t base =
        width == 0 ? 42 : ~uint64_t{0} << (width - 1);
    std::vector<int64_t> values;
    for (uint64_t offset :
         SweepCodes(width, 0, kSweepRows, 100 + static_cast<uint64_t>(width))) {
      values.push_back(static_cast<int64_t>(base + offset));
    }
    auto column = enc::ForColumn::Encode(values).value();
    ASSERT_EQ(column->bit_width(), width);
    ExpectFiltersMatchDecode(*column);
  }
}

TEST(PackedFilterTest, DictMatchesDecodeAtEveryWidth) {
  // Codes stored wider than the dictionary needs, as a reader may meet
  // them, down to a one-entry dictionary at width 0.
  for (int width = 0; width <= 64; ++width) {
    SCOPED_TRACE("width=" + std::to_string(width));
    const size_t entries = width >= 9 ? 257 : size_t{1} << width;
    std::vector<int64_t> dict(entries);
    for (size_t k = 0; k < entries; ++k) {
      dict[k] = -640 + 5 * static_cast<int64_t>(k);
    }
    if (entries >= 4) {
      dict.front() = kMin;
      dict.back() = kMax;
    }
    const auto column = PackedColumn(
        enc::Scheme::kDict, [&](BufferWriter& w) { w.WriteInt64Array(dict); },
        SweepCodes(width, entries, kSweepRows,
                   200 + static_cast<uint64_t>(width)),
        width);
    ExpectFiltersMatchDecode(*column);
  }
}

TEST(PackedFilterTest, BitPackMatchesDecodeAtEveryWidth) {
  // At width 64 the codes include ones with the top bit set, which decode
  // as negative values (the encoder never writes them; a file can hold
  // them).
  for (int width = 0; width <= 64; ++width) {
    SCOPED_TRACE("width=" + std::to_string(width));
    const auto column = PackedColumn(
        enc::Scheme::kBitPack, [](BufferWriter&) {},
        SweepCodes(width, 0, kSweepRows, 300 + static_cast<uint64_t>(width)),
        width);
    ExpectFiltersMatchDecode(*column);
  }
}

TEST(PackedFilterTest, LoadedBlockFiltersItsReadBufferInPlace) {
  // A block read through CorfFile::ReadBlockBytes views the read buffer,
  // which ends with the last column's stored slack, so the filter kernel
  // reads the file's own slack in place (under ASan, a load past it
  // fails).
  const std::string path =
      ::testing::TempDir() + "corra_filter_scan_test.corf";
  Rng rng(8);
  const std::array<enc::Scheme, 3> schemes = {
      enc::Scheme::kDict, enc::Scheme::kBitPack, enc::Scheme::kFor};
  std::vector<std::vector<int64_t>> raw(3, std::vector<int64_t>(kSweepRows));
  for (size_t i = 0; i < kSweepRows; ++i) {
    raw[0][i] = rng.Uniform(0, 49);
    raw[1][i] = rng.Uniform(100, 25000);
    raw[2][i] = rng.Uniform(8035, 10591);
  }
  Table table;
  CompressionPlan plan = CompressionPlan::AllAuto(schemes.size());
  for (size_t c = 0; c < schemes.size(); ++c) {
    ASSERT_TRUE(
        table.AddColumn(Column::Int64("c" + std::to_string(c), raw[c])).ok());
    plan.columns[c].auto_vertical = false;
    plan.columns[c].scheme = schemes[c];
  }
  auto compressed = CorraCompressor::Compress(table, plan);
  ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
  ASSERT_TRUE(WriteCompressedTable(compressed.value(), path).ok());
  {
    auto file = CorfFile::Open(path);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    auto bytes = file.value().ReadBlockBytes(0);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    auto block = Block::Deserialize(bytes.value());
    ASSERT_TRUE(block.ok()) << block.status().ToString();
    // One handle per column's stream besides ours: they view the buffer.
    EXPECT_EQ(bytes.value().owner().use_count(), 1 + 3);
    for (size_t c = 0; c < schemes.size(); ++c) {
      SCOPED_TRACE("column " + std::to_string(c));
      ASSERT_EQ(block.value().column(c).scheme(), schemes[c]);
      for (auto [lo, hi] : {std::pair<int64_t, int64_t>{kMin, kMax},
                            {20, 20},
                            {9000, 9025},
                            {5000, 5300}}) {
        EXPECT_EQ(FilterToSelection(block.value().column(c), lo, hi),
                  ReferenceFilter(raw[c], lo, hi));
        EXPECT_EQ(CountInRange(block.value().column(c), lo, hi),
                  ReferenceFilter(raw[c], lo, hi).size());
      }
    }
  }
  std::remove(path.c_str());
}

TEST(FilterTest, EmptyRangeAndEmptyColumn) {
  const std::vector<int64_t> values = {1, 2, 3};
  auto column = enc::ForColumn::Encode(values).value();
  EXPECT_TRUE(FilterToSelection(*column, 5, 4).empty());
  EXPECT_EQ(CountInRange(*column, 5, 4), 0u);

  auto empty = enc::ForColumn::Encode(std::span<const int64_t>{}).value();
  EXPECT_TRUE(FilterToSelection(*empty, INT64_MIN, INT64_MAX).empty());
}

TEST(FilterTest, RangeBelowForBase) {
  const std::vector<int64_t> values = {1000, 1001, 1002};
  auto column = enc::ForColumn::Encode(values).value();
  EXPECT_TRUE(FilterToSelection(*column, 0, 999).empty());
  EXPECT_EQ(FilterToSelection(*column, 0, 1000),
            (std::vector<uint32_t>{0}));
}

TEST(FilterTest, WrappingForFrameMatchesDecode) {
  // Hand-built FOR frames whose offsets take base + offset past
  // INT64_MAX, so base is not the minimum. Base 100, width 64 and offsets
  // {0, 5, 2^64 - 1} decode to {100, 105, 99}.
  const auto three = PackedColumn(
      enc::Scheme::kFor, [](BufferWriter& w) { w.Write<int64_t>(100); },
      {0, 5, ~uint64_t{0}}, 64);
  std::vector<int64_t> decoded(3);
  three->DecodeRange(0, 3, decoded.data());
  ASSERT_EQ(decoded, (std::vector<int64_t>{100, 105, 99}));
  EXPECT_EQ(CountInRange(*three, 0, 99), 1u);
  ExpectFiltersMatchDecode(
      *three, {{0, 99}, {99, 100}, {100, 105}, {101, kMax}, {kMin, 98}});

  // Width 5 from base INT64_MAX - 10 over a full morsel and a ragged one:
  // offsets above 10 wrap to the most negative values. Ranges below the
  // wrap (the wrapped values alone), across it and above it.
  const auto wide = PackedColumn(
      enc::Scheme::kFor, [](BufferWriter& w) { w.Write<int64_t>(kMax - 10); },
      SweepCodes(5, 0, kSweepRows, 400), 5);
  ExpectFiltersMatchDecode(*wide, {{kMin, kMin + 20},
                                   {kMin + 3, kMin + 9},
                                   {kMin, kMax - 5},
                                   {kMin + 10, kMax},
                                   {kMax - 10, kMax},
                                   {kMax - 4, kMax - 2}});
}

TEST(FilterTest, ForColumnEndingAtInt64MaxMatchesDecode) {
  // An encoder-written column whose maximum is INT64_MAX: base is its
  // minimum, but offsets its width holds beyond the maximum would wrap,
  // so it filters through decode-and-compare and must agree with it.
  Rng rng(17);
  std::vector<int64_t> values(kSweepRows);
  for (auto& v : values) {
    v = rng.Uniform(kMax - 6, kMax);
  }
  values.front() = kMax - 6;
  values.back() = kMax;
  auto column = enc::ForColumn::Encode(values).value();
  ASSERT_EQ(column->bit_width(), 3);
  ExpectFiltersMatchDecode(*column, {{kMax - 6, kMax - 4},
                                     {kMax - 3, kMax},
                                     {kMin, kMax - 6},
                                     {kMin, kMax - 7}});
}

TEST(FilterTest, WorksOnDiffEncodedColumns) {
  // Filters run through the generic path on horizontal columns (their
  // Gather consults the bound reference).
  Rng rng(4);
  const size_t n = 5000;
  std::vector<int64_t> ship(n);
  std::vector<int64_t> receipt(n);
  for (size_t i = 0; i < n; ++i) {
    ship[i] = rng.Uniform(8035, 10591);
    receipt[i] = ship[i] + rng.Uniform(1, 30);
  }
  Table table;
  ASSERT_TRUE(table.AddColumn(Column::Date("ship", ship)).ok());
  ASSERT_TRUE(table.AddColumn(Column::Date("receipt", receipt)).ok());
  CompressionPlan plan = CompressionPlan::AllAuto(2);
  plan.columns[1].auto_vertical = false;
  plan.columns[1].scheme = enc::Scheme::kDiff;
  plan.columns[1].reference = 0;
  auto compressed = CorraCompressor::Compress(table, plan).value();
  const auto got =
      FilterToSelection(compressed.block(0).column(1), 9000, 9100);
  EXPECT_EQ(got, ReferenceFilter(receipt, 9000, 9100));
}

// ---- Table scans -----------------------------------------------------------

class TableScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(5);
    const size_t n = 3500;
    ship_.resize(n);
    receipt_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      ship_[i] = rng.Uniform(8035, 10591);
      receipt_[i] = ship_[i] + rng.Uniform(1, 30);
    }
    Table table;
    ASSERT_TRUE(table.AddColumn(Column::Date("ship", ship_)).ok());
    ASSERT_TRUE(table.AddColumn(Column::Date("receipt", receipt_)).ok());
    CompressionPlan plan = CompressionPlan::AllAuto(2);
    plan.block_rows = 1000;  // 4 blocks: 1000+1000+1000+500.
    plan.columns[1].auto_vertical = false;
    plan.columns[1].scheme = enc::Scheme::kDiff;
    plan.columns[1].reference = 0;
    compressed_.emplace(
        CorraCompressor::Compress(table, plan).value());
  }

  std::vector<int64_t> ship_;
  std::vector<int64_t> receipt_;
  std::optional<CompressedTable> compressed_;
};

TEST_F(TableScanTest, SelectionSpanningAllBlocks) {
  std::vector<uint32_t> rows;
  for (uint32_t r = 3; r < 3500; r += 101) {
    rows.push_back(r);
  }
  auto out = ScanTableColumn(*compressed_, 1, rows);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(out.value()[i], receipt_[rows[i]]);
  }
}

TEST_F(TableScanTest, SelectionTouchingBlockBoundaries) {
  const std::vector<uint32_t> rows = {0,    999,  1000, 1001, 1999,
                                      2000, 2999, 3000, 3499};
  auto out = ScanTableColumn(*compressed_, 1, rows);
  ASSERT_TRUE(out.ok());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(out.value()[i], receipt_[rows[i]]);
  }
}

TEST_F(TableScanTest, SelectionSkippingBlocks) {
  // Nothing selected from blocks 1 and 2.
  const std::vector<uint32_t> rows = {5, 500, 3100, 3499};
  auto out = ScanTableColumn(*compressed_, 1, rows);
  ASSERT_TRUE(out.ok());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(out.value()[i], receipt_[rows[i]]);
  }
}

TEST_F(TableScanTest, EmptySelection) {
  auto out = ScanTableColumn(*compressed_, 1, {});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().empty());
}

TEST_F(TableScanTest, RejectsUnsortedSelection) {
  const std::vector<uint32_t> rows = {100, 50};
  EXPECT_FALSE(ScanTableColumn(*compressed_, 1, rows).ok());
}

TEST_F(TableScanTest, RejectsOutOfRangePosition) {
  const std::vector<uint32_t> rows = {3500};
  auto out = ScanTableColumn(*compressed_, 1, rows);
  EXPECT_TRUE(out.status().IsOutOfRange());
}

TEST_F(TableScanTest, RejectsBadColumn) {
  EXPECT_FALSE(ScanTableColumn(*compressed_, 7, {}).ok());
}

TEST_F(TableScanTest, PairScanSharesReference) {
  std::vector<uint32_t> rows;
  for (uint32_t r = 0; r < 3500; r += 7) {
    rows.push_back(r);
  }
  auto out = ScanTablePair(*compressed_, 0, 1, rows);
  ASSERT_TRUE(out.ok());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(out.value().reference[i], ship_[rows[i]]);
    EXPECT_EQ(out.value().target[i], receipt_[rows[i]]);
  }
}

TEST_F(TableScanTest, FilterThenScanPipeline) {
  // The intended composition: push a predicate into each block, stitch
  // the per-block selections into a global one, then materialize.
  std::vector<uint32_t> global;
  size_t base = 0;
  for (size_t b = 0; b < compressed_->num_blocks(); ++b) {
    for (uint32_t r :
         FilterToSelection(compressed_->block(b).column(1), 9000, 9050)) {
      global.push_back(static_cast<uint32_t>(base + r));
    }
    base += compressed_->block(b).rows();
  }
  auto out = ScanTableColumn(*compressed_, 1, global);
  ASSERT_TRUE(out.ok());
  for (int64_t v : out.value()) {
    EXPECT_GE(v, 9000);
    EXPECT_LE(v, 9050);
  }
  // Cross-check count against the uncompressed data.
  size_t expected = 0;
  for (int64_t v : receipt_) {
    expected += (v >= 9000 && v <= 9050) ? 1 : 0;
  }
  EXPECT_EQ(out.value().size(), expected);
}

}  // namespace
}  // namespace corra::query
