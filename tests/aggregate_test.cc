// Aggregate pushdown (query/aggregate.h) and parallel compression.

#include "query/aggregate.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "core/corra_compressor.h"
#include "core/diff_encoding.h"
#include "encoding/bitpack.h"
#include "encoding/delta.h"
#include "encoding/dictionary.h"
#include "encoding/for.h"
#include "test_util.h"

namespace corra::query {
namespace {

using test::Dist;
using test::MakeValues;

struct Expected {
  int64_t sum = 0;
  int64_t min = 0;
  int64_t max = 0;
};

Expected Reference(const std::vector<int64_t>& values) {
  Expected e;
  e.min = values.empty() ? 0 : values[0];
  e.max = e.min;
  uint64_t sum = 0;
  for (int64_t v : values) {
    sum += static_cast<uint64_t>(v);
    e.min = std::min(e.min, v);
    e.max = std::max(e.max, v);
  }
  e.sum = static_cast<int64_t>(sum);
  return e;
}

void ExpectAggregates(const enc::EncodedColumn& column,
                      const Expected& expected) {
  EXPECT_EQ(SumColumn(column), expected.sum);
  const auto range = MinMaxColumn(column);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->min, expected.min);
  EXPECT_EQ(range->max, expected.max);
}

struct Input {
  std::string name;
  std::vector<int64_t> values;
};

void PrintTo(const Input& input, std::ostream* os) { *os << input.name; }

std::vector<Input> Inputs() {
  std::vector<Input> inputs;
  for (const Dist dist : {Dist::kConstant, Dist::kSmallRange, Dist::kNegative,
                          Dist::kLowCard, Dist::kSorted, Dist::kExtremes}) {
    inputs.push_back({test::DistName(dist), MakeValues(dist, 3000, 1)});
  }
  // Two full morsels plus one row. In turn, the minimum and the maximum
  // sit on the row that seeds the fold, on both sides of the first morsel
  // boundary, and in the one-row last morsel.
  const size_t boundary_rows[] = {0, enc::kMorselRows - 1, enc::kMorselRows,
                                  2 * enc::kMorselRows};
  for (size_t i = 0; i < 4; ++i) {
    const size_t min_row = boundary_rows[i];
    const size_t max_row = boundary_rows[(i + 1) % 4];
    auto values = MakeValues(Dist::kSmallRange, 2 * enc::kMorselRows + 1,
                             10 + i);
    values[min_row] = 7;
    values[max_row] = 9000;
    inputs.push_back({"MinAt" + std::to_string(min_row) + "MaxAt" +
                          std::to_string(max_row),
                      std::move(values)});
  }
  inputs.push_back({"OneRow", {-42}});
  return inputs;
}

class AggregateTest : public ::testing::TestWithParam<Input> {};

// One column per read path: BitPack and Delta decode morsels, FOR sums
// offsets, Dict folds codes, Diff decodes through its reference.
TEST_P(AggregateTest, EverySchemeMatchesReference) {
  const std::vector<int64_t>& values = GetParam().values;
  const Expected expected = Reference(values);
  if (expected.min >= 0) {  // BitPack rejects negative values.
    SCOPED_TRACE("BitPack");
    ExpectAggregates(*enc::BitPackColumn::Encode(values).value(), expected);
  }
  {
    SCOPED_TRACE("FOR");
    ExpectAggregates(*enc::ForColumn::Encode(values).value(), expected);
  }
  {
    SCOPED_TRACE("Dict");
    ExpectAggregates(*enc::DictColumn::Encode(values).value(), expected);
  }
  {
    SCOPED_TRACE("Delta");
    ExpectAggregates(*enc::DeltaColumn::Encode(values).value(), expected);
  }
  {
    SCOPED_TRACE("Diff");
    std::vector<int64_t> reference(values.size());
    for (size_t i = 0; i < values.size(); ++i) {
      reference[i] = values[i] / 2;
    }
    const auto ref_column = enc::ForColumn::Encode(reference).value();
    auto diff = DiffEncodedColumn::Encode(values, reference, 0).value();
    const enc::EncodedColumn* refs[] = {ref_column.get()};
    ASSERT_TRUE(diff->BindReferences(refs).ok());
    ExpectAggregates(*diff, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Inputs, AggregateTest,
                         ::testing::ValuesIn(Inputs()),
                         [](const auto& param_info) {
                           return param_info.param.name;
                         });

TEST(AggregateTest, EmptyColumn) {
  auto column = enc::ForColumn::Encode(std::span<const int64_t>{}).value();
  EXPECT_EQ(SumColumn(*column), 0);
  EXPECT_FALSE(MinMaxColumn(*column).has_value());
}

TEST(AggregateTest, WorksOnDiffEncodedColumns) {
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
  ExpectAggregates(compressed.block(0).column(1), Reference(receipt));
}

// ---- Parallel compression --------------------------------------------------

Table MakeWideTable(size_t rows) {
  Rng rng(9);
  std::vector<int64_t> a(rows);
  std::vector<int64_t> b(rows);
  for (size_t i = 0; i < rows; ++i) {
    a[i] = rng.Uniform(0, 100000);
    b[i] = a[i] + rng.Uniform(0, 100);
  }
  Table table;
  EXPECT_TRUE(table.AddColumn(Column::Int64("a", std::move(a))).ok());
  EXPECT_TRUE(table.AddColumn(Column::Int64("b", std::move(b))).ok());
  return table;
}

TEST(ParallelCompressionTest, IdenticalToSerial) {
  const Table table = MakeWideTable(10000);
  CompressionPlan plan = CompressionPlan::AllAuto(2);
  plan.block_rows = 1000;  // 10 blocks.
  plan.columns[1].auto_vertical = false;
  plan.columns[1].scheme = enc::Scheme::kDiff;
  plan.columns[1].reference = 0;

  auto serial = CorraCompressor::Compress(table, plan).value();
  plan.num_threads = 4;
  auto parallel = CorraCompressor::Compress(table, plan).value();

  ASSERT_EQ(serial.num_blocks(), parallel.num_blocks());
  for (size_t b = 0; b < serial.num_blocks(); ++b) {
    // Byte-identical blocks: parallelism must not change the output.
    EXPECT_EQ(serial.block(b).Serialize(), parallel.block(b).Serialize())
        << "block " << b;
  }
}

TEST(ParallelCompressionTest, MoreThreadsThanBlocks) {
  const Table table = MakeWideTable(500);
  CompressionPlan plan = CompressionPlan::AllAuto(2);
  plan.block_rows = 200;  // 3 blocks.
  plan.num_threads = 16;
  auto compressed = CorraCompressor::Compress(table, plan);
  ASSERT_TRUE(compressed.ok());
  EXPECT_EQ(compressed.value().num_blocks(), 3u);
  EXPECT_EQ(compressed.value().DecodeColumn(0),
            std::vector<int64_t>(table.column(0).values().begin(),
                                 table.column(0).values().end()));
}

TEST(ParallelCompressionTest, ErrorInOneBlockPropagates) {
  // A multi-ref plan whose formulas only fit the first blocks: the rows
  // of the last block break the formula, so its encode must fail and the
  // failure must surface from the parallel path.
  const size_t rows = 3000;
  std::vector<int64_t> a(rows);
  std::vector<int64_t> total(rows);
  for (size_t i = 0; i < rows; ++i) {
    a[i] = static_cast<int64_t>(i % 100);
    total[i] = i < 2000 ? a[i] : a[i] + 12345;  // Last block: no match.
  }
  Table table;
  ASSERT_TRUE(table.AddColumn(Column::Int64("a", std::move(a))).ok());
  ASSERT_TRUE(
      table.AddColumn(Column::Int64("total", std::move(total))).ok());
  CompressionPlan plan = CompressionPlan::AllAuto(2);
  plan.block_rows = 1000;
  plan.num_threads = 3;
  plan.columns[1].auto_vertical = false;
  plan.columns[1].scheme = enc::Scheme::kMultiRef;
  plan.columns[1].formulas.groups = {{0}};
  plan.columns[1].formulas.formulas = {0b1};
  plan.columns[1].formulas.code_bits = 1;
  plan.columns[1].max_outlier_fraction = 0.01;
  auto compressed = CorraCompressor::Compress(table, plan);
  EXPECT_FALSE(compressed.ok());
  EXPECT_TRUE(compressed.status().IsInvalidArgument());
}

}  // namespace
}  // namespace corra::query
