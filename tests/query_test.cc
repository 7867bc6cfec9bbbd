// Selection vectors and materializing scans.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <unordered_set>

#include "core/corra_compressor.h"
#include "obs/metrics.h"
#include "query/latency.h"
#include "query/scan.h"
#include "query/selection_vector.h"
#include "query/table_scan.h"
#include "test_util.h"

namespace corra::query {
namespace {

TEST(SplitSelectionTest, RoutesGlobalRowsToBlocks) {
  // Three blocks of 1000 / 1000 / 500 rows; repeated positions on both
  // sides of each block edge stay in their own block.
  const std::vector<uint64_t> offsets = {0, 1000, 2000, 2500};
  const std::vector<uint64_t> rows = {0,    999,  999,  1000, 1000,
                                      1500, 2400, 2499, 2499};
  auto slices = SplitSelectionByBlocks(offsets, rows);
  ASSERT_TRUE(slices.ok()) << slices.status().ToString();
  ASSERT_EQ(slices.value().size(), 3u);

  EXPECT_EQ(slices.value()[0].block, 0u);
  EXPECT_EQ(slices.value()[0].out_offset, 0u);
  EXPECT_EQ(slices.value()[0].local_rows,
            (std::vector<uint32_t>{0, 999, 999}));

  EXPECT_EQ(slices.value()[1].block, 1u);
  EXPECT_EQ(slices.value()[1].out_offset, 3u);
  EXPECT_EQ(slices.value()[1].local_rows,
            (std::vector<uint32_t>{0, 0, 500}));

  EXPECT_EQ(slices.value()[2].block, 2u);
  EXPECT_EQ(slices.value()[2].out_offset, 6u);
  EXPECT_EQ(slices.value()[2].local_rows,
            (std::vector<uint32_t>{400, 499, 499}));
}

TEST(SplitSelectionTest, SkipsBlocksWithoutSelectedRows) {
  const std::vector<uint64_t> offsets = {0, 100, 200, 300};
  const std::vector<uint32_t> rows = {250, 299};
  auto slices = SplitSelectionByBlocks(offsets, rows);
  ASSERT_TRUE(slices.ok());
  ASSERT_EQ(slices.value().size(), 1u);
  EXPECT_EQ(slices.value()[0].block, 2u);
  EXPECT_EQ(slices.value()[0].local_rows,
            (std::vector<uint32_t>{50, 99}));
}

TEST(SplitSelectionTest, RejectsUnsortedAndOutOfRange) {
  const std::vector<uint64_t> offsets = {0, 100};
  const std::vector<uint64_t> unsorted = {50, 10};
  EXPECT_TRUE(SplitSelectionByBlocks(offsets, unsorted)
                  .status()
                  .IsInvalidArgument());
  const std::vector<uint64_t> beyond = {100};
  EXPECT_TRUE(
      SplitSelectionByBlocks(offsets, beyond).status().IsOutOfRange());
  const std::vector<uint64_t> empty_offsets;
  const std::vector<uint64_t> rows = {0};
  EXPECT_TRUE(SplitSelectionByBlocks(empty_offsets, rows)
                  .status()
                  .IsInvalidArgument());
}

TEST(SplitSelectionTest, EmptySelectionYieldsNoSlices) {
  const std::vector<uint64_t> offsets = {0, 100};
  auto slices =
      SplitSelectionByBlocks(offsets, std::span<const uint64_t>{});
  ASSERT_TRUE(slices.ok());
  EXPECT_TRUE(slices.value().empty());
}

TEST(SelectionVectorTest, SizeTracksSelectivity) {
  Rng rng(1);
  for (double sel : {0.0, 0.001, 0.01, 0.1, 0.5, 1.0}) {
    const auto rows = GenerateSelectionVector(100000, sel, &rng);
    EXPECT_EQ(rows.size(),
              static_cast<size_t>(std::llround(sel * 100000)));
  }
}

TEST(SelectionVectorTest, SortedAndUnique) {
  Rng rng(2);
  for (double sel : {0.01, 0.3, 0.7, 0.99}) {
    const auto rows = GenerateSelectionVector(50000, sel, &rng);
    for (size_t i = 1; i < rows.size(); ++i) {
      ASSERT_LT(rows[i - 1], rows[i]) << "sel " << sel;
    }
    ASSERT_TRUE(rows.empty() || rows.back() < 50000);
  }
}

TEST(SelectionVectorTest, FullSelectivityIsIdentity) {
  Rng rng(3);
  const auto rows = GenerateSelectionVector(1000, 1.0, &rng);
  ASSERT_EQ(rows.size(), 1000u);
  for (uint32_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(rows[i], i);
  }
}

TEST(SelectionVectorTest, SelectivityClamped) {
  Rng rng(4);
  EXPECT_EQ(GenerateSelectionVector(100, -0.5, &rng).size(), 0u);
  EXPECT_EQ(GenerateSelectionVector(100, 1.5, &rng).size(), 100u);
}

TEST(SelectionVectorTest, UniformCoverage) {
  // Positions must cover the whole range, not cluster at one end.
  Rng rng(5);
  const auto rows = GenerateSelectionVector(100000, 0.1, &rng);
  size_t low_half = 0;
  for (uint32_t r : rows) {
    low_half += r < 50000 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(low_half) / rows.size(), 0.5, 0.03);
}

TEST(SelectionVectorTest, BatchGeneratesIndependentVectors) {
  Rng rng(6);
  const auto vectors = GenerateSelectionVectors(10000, 0.01, 10, &rng);
  ASSERT_EQ(vectors.size(), 10u);  // The paper's 10 vectors.
  std::unordered_set<uint32_t> first(vectors[0].begin(), vectors[0].end());
  size_t overlap = 0;
  for (uint32_t r : vectors[1]) {
    overlap += first.count(r);
  }
  // Two independent 1% samples overlap on ~1% of their entries.
  EXPECT_LT(overlap, vectors[1].size() / 2);
}

TEST(PaperSweepTest, MatchesPaperGrid) {
  const auto sweep = PaperSelectivitySweep();
  // {0.001..0.009, 0.01..0.09, 0.1..1.0} = 9 + 9 + 10 points.
  ASSERT_EQ(sweep.size(), 28u);
  EXPECT_DOUBLE_EQ(sweep.front(), 0.001);
  EXPECT_DOUBLE_EQ(sweep.back(), 1.0);
  for (size_t i = 1; i < sweep.size(); ++i) {
    EXPECT_GT(sweep[i], sweep[i - 1]);
  }
}

class ScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(7);
    const size_t n = 20000;
    std::vector<int64_t> ship(n);
    std::vector<int64_t> receipt(n);
    for (size_t i = 0; i < n; ++i) {
      ship[i] = rng.Uniform(8035, 10591);
      receipt[i] = ship[i] + rng.Uniform(1, 30);
    }
    ship_ = ship;
    receipt_ = receipt;
    Table table;
    ASSERT_TRUE(table.AddColumn(Column::Date("ship", ship)).ok());
    ASSERT_TRUE(table.AddColumn(Column::Date("receipt", receipt)).ok());
    CompressionPlan plan = CompressionPlan::AllAuto(2);
    plan.columns[1].auto_vertical = false;
    plan.columns[1].scheme = enc::Scheme::kDiff;
    plan.columns[1].reference = 0;
    auto compressed = CorraCompressor::Compress(table, plan);
    ASSERT_TRUE(compressed.ok());
    compressed_.emplace(std::move(compressed).value());
  }

  std::vector<int64_t> ship_;
  std::vector<int64_t> receipt_;
  std::optional<CompressedTable> compressed_;
};

TEST_F(ScanTest, ScanColumnMaterializesSelection) {
  Rng rng(8);
  const auto rows =
      GenerateSelectionVector(compressed_->block(0).rows(), 0.05, &rng);
  const auto out = ScanColumn(compressed_->block(0), 1, rows);
  ASSERT_EQ(out.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(out[i], receipt_[rows[i]]);
  }
}

TEST_F(ScanTest, ScanPairSharesReferenceFetch) {
  Rng rng(9);
  const auto rows =
      GenerateSelectionVector(compressed_->block(0).rows(), 0.03, &rng);
  std::vector<int64_t> out_ref(rows.size());
  std::vector<int64_t> out_target(rows.size());
  ScanPair(compressed_->block(0), 0, 1, rows, out_ref.data(),
           out_target.data());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(out_ref[i], ship_[rows[i]]);
    EXPECT_EQ(out_target[i], receipt_[rows[i]]);
  }
}

TEST_F(ScanTest, ScanPairWithUnrelatedColumnsStillCorrect) {
  // ScanPair where the "reference" argument is not the target's actual
  // reference must fall back to independent gathers.
  Rng rng(10);
  const auto rows =
      GenerateSelectionVector(compressed_->block(0).rows(), 0.02, &rng);
  std::vector<int64_t> out_a(rows.size());
  std::vector<int64_t> out_b(rows.size());
  ScanPair(compressed_->block(0), 1, 0, rows, out_a.data(), out_b.data());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(out_a[i], receipt_[rows[i]]);
    EXPECT_EQ(out_b[i], ship_[rows[i]]);
  }
}

TEST_F(ScanTest, EmptySelection) {
  const std::vector<uint32_t> rows;
  const auto out = ScanColumn(compressed_->block(0), 1, rows);
  EXPECT_TRUE(out.empty());
}

TEST_F(ScanTest, EmptyAndSingleRowSelectionsEarlyReturn) {
  // Regression: the documented selection contract now pins down the
  // empty and single-position cases — both return without entering any
  // GatherRange internals. The empty case must not touch the output at
  // all; the single case is one point lookup per column.
  const Block& block = compressed_->block(0);
  int64_t sentinel = INT64_MIN;
  ScanColumn(block, 1, {}, &sentinel);
  EXPECT_EQ(sentinel, INT64_MIN);
  int64_t sentinel_ref = INT64_MIN;
  int64_t sentinel_target = INT64_MIN;
  ScanPair(block, 0, 1, {}, &sentinel_ref, &sentinel_target);
  EXPECT_EQ(sentinel_ref, INT64_MIN);
  EXPECT_EQ(sentinel_target, INT64_MIN);

  for (const uint32_t row : {uint32_t{0}, uint32_t{1234},
                             static_cast<uint32_t>(block.rows() - 1)}) {
    const std::vector<uint32_t> single = {row};
    int64_t out = INT64_MIN;
    ScanColumn(block, 1, single, &out);
    EXPECT_EQ(out, receipt_[row]);
    int64_t out_ref = INT64_MIN;
    int64_t out_target = INT64_MIN;
    ScanPair(block, 0, 1, single, &out_ref, &out_target);
    EXPECT_EQ(out_ref, ship_[row]);
    EXPECT_EQ(out_target, receipt_[row]);
  }
}

TEST_F(ScanTest, DuplicatePositionsMaterializeEachOccurrence) {
  // Duplicates satisfy the non-decreasing contract: every occurrence
  // materializes the same value, on the batched fast path.
  const std::vector<uint32_t> rows = {7, 7, 7, 300, 301, 301, 5000, 5000};
  std::vector<int64_t> out(rows.size(), INT64_MIN);
  ScanColumn(compressed_->block(0), 1, rows, out.data());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(out[i], receipt_[rows[i]]) << "i=" << i;
  }
  std::vector<int64_t> out_ref(rows.size(), INT64_MIN);
  std::vector<int64_t> out_target(rows.size(), INT64_MIN);
  ScanPair(compressed_->block(0), 0, 1, rows, out_ref.data(),
           out_target.data());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(out_ref[i], ship_[rows[i]]) << "i=" << i;
    EXPECT_EQ(out_target[i], receipt_[rows[i]]) << "i=" << i;
  }
}

using ScanDeathTest = ScanTest;

TEST_F(ScanDeathTest, UnsortedSelectionAssertsInDebugIsDefinedInRelease) {
  // A strictly-unsorted selection violates the documented contract:
  // debug builds fail loudly at the assertion; release builds fall back
  // to defined per-position behavior (out[i] == value at rows[i]).
  const std::vector<uint32_t> rows = {4000, 10, 4000, 3999, 0};
  std::vector<int64_t> out(rows.size(), INT64_MIN);
#ifndef NDEBUG
  EXPECT_DEATH(
      ScanColumn(compressed_->block(0), 1, rows, out.data()),
      "non-decreasing");
  EXPECT_DEATH(
      {
        std::vector<int64_t> ref(rows.size());
        std::vector<int64_t> target(rows.size());
        ScanPair(compressed_->block(0), 0, 1, rows, ref.data(),
                 target.data());
      },
      "non-decreasing");
#else
  ScanColumn(compressed_->block(0), 1, rows, out.data());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(out[i], receipt_[rows[i]]) << "i=" << i;
  }
  std::vector<int64_t> out_ref(rows.size(), INT64_MIN);
  std::vector<int64_t> out_target(rows.size(), INT64_MIN);
  ScanPair(compressed_->block(0), 0, 1, rows, out_ref.data(),
           out_target.data());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(out_ref[i], ship_[rows[i]]) << "i=" << i;
    EXPECT_EQ(out_target[i], receipt_[rows[i]]) << "i=" << i;
  }
#endif
}

// ScanColumns against one ScanColumn call per entry, on the 12-scheme
// table plus a Diff column whose reference is the Diff column (c12 on c1
// on c0): Diff, DFOR and Numerical share c0, and Hierarchical and 1-to-1
// share c2.
class ScanColumnsTest : public ::testing::Test {
 protected:
  static constexpr size_t kRows = 6000;
  static constexpr size_t kChained = 12;

  void SetUp() override {
    obs::SetEnabled(true);
    Rng rng(41);
    raw_ = test::AllSchemesColumns(kRows, 0.01, rng);
    std::vector<int64_t> chained(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      chained[i] = raw_[1][i] + rng.Uniform(1, 30);
    }
    raw_.push_back(std::move(chained));
    CompressionPlan plan = test::AllSchemesPlan(kRows);
    ColumnPlan diff_on_diff;
    diff_on_diff.auto_vertical = false;
    diff_on_diff.scheme = enc::Scheme::kDiff;
    diff_on_diff.reference = 1;
    plan.columns.push_back(diff_on_diff);
    auto compressed =
        CorraCompressor::Compress(test::TableOf(raw_), plan);
    ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
    compressed_.emplace(std::move(compressed).value());
    ASSERT_EQ(compressed_->num_blocks(), 1u);
    ASSERT_EQ(block().column(kChained).scheme(), enc::Scheme::kDiff);
  }

  const Block& block() const { return compressed_->block(0); }

  // query.gather_rows and query.decode_rows per scheme, process-wide.
  static std::map<std::string, uint64_t> RowCounters() {
    std::map<std::string, uint64_t> out;
    for (const auto& [name, value] :
         obs::Registry::Default().Snapshot().counters) {
      if (name.starts_with("query.gather_rows") ||
          name.starts_with("query.decode_rows")) {
        out[name] = value;
      }
    }
    return out;
  }

  // Row-counter growth from start to end, by name.
  static std::map<std::string, uint64_t> Growth(
      const std::map<std::string, uint64_t>& start,
      const std::map<std::string, uint64_t>& end) {
    std::map<std::string, uint64_t> out;
    for (const auto& [name, value] : end) {
      const auto it = start.find(name);
      const uint64_t delta = value - (it == start.end() ? 0 : it->second);
      if (delta != 0) {
        out[name] = delta;
      }
    }
    return out;
  }

  // ScanColumns(cols, rows) equals one ScanColumn per entry, value for
  // value, matches the raw table, and moves the row counters by as much.
  void ExpectMatchesPerColumn(const std::vector<size_t>& cols,
                              const std::vector<uint32_t>& rows) {
    const std::map<std::string, uint64_t> before = RowCounters();
    std::vector<std::vector<int64_t>> single;
    for (size_t col : cols) {
      single.push_back(ScanColumn(block(), col, rows));
    }
    const std::map<std::string, uint64_t> middle = RowCounters();
    // Outputs at an offset, past canaries, as Gather writes block slices.
    constexpr size_t kOffset = 3;
    std::vector<std::vector<int64_t>> multi(
        cols.size(), std::vector<int64_t>(kOffset + rows.size() + 1,
                                          INT64_MIN));
    std::vector<int64_t*> out;
    for (auto& column : multi) {
      out.push_back(column.data());
    }
    ScanColumns(block(), cols, rows, out, kOffset);
    const std::map<std::string, uint64_t> after = RowCounters();

    for (size_t k = 0; k < cols.size(); ++k) {
      SCOPED_TRACE("entry " + std::to_string(k) + " column " +
                   std::to_string(cols[k]));
      const std::vector<int64_t> got(multi[k].begin() + kOffset,
                                     multi[k].end() - 1);
      EXPECT_EQ(got, single[k]);
      for (size_t i = 0; i < rows.size(); ++i) {
        ASSERT_EQ(got[i], raw_[cols[k]][rows[i]]) << "i=" << i;
      }
      EXPECT_EQ(multi[k].front(), INT64_MIN);
      EXPECT_EQ(multi[k].back(), INT64_MIN);
    }
    EXPECT_EQ(Growth(middle, after), Growth(before, middle));
  }

  std::vector<std::vector<int64_t>> raw_;
  std::optional<CompressedTable> compressed_;
};

TEST_F(ScanColumnsTest, MatchesPerColumnScansForEverySelectionShape) {
  Rng rng(42);
  std::vector<uint32_t> contiguous(700);
  std::iota(contiguous.begin(), contiguous.end(), 2500);
  std::vector<uint32_t> duplicates = {0, 0, 17, 17, 17, 4000, 5999, 5999};
  const std::vector<std::pair<std::string, std::vector<uint32_t>>>
      selections = {
          {"empty", {}},
          {"single", {1234}},
          {"contiguous", contiguous},
          {"contiguous whole block",
           GenerateSelectionVector(kRows, 1.0, &rng)},
          {"sorted 2%", GenerateSelectionVector(kRows, 0.02, &rng)},
          {"sorted 40%", GenerateSelectionVector(kRows, 0.4, &rng)},
          {"sorted with duplicates", duplicates},
      };
  const std::vector<std::pair<std::string, std::vector<size_t>>> requests =
      {
          {"reference before target", {0, 1}},
          {"reference after target", {1, 0}},
          {"Hierarchical and 1-to-1 on their reference", {9, 2, 3}},
          {"Diff, DFOR and Numerical on one reference", {10, 0, 11, 1}},
          {"duplicated columns", {1, 1, 0, 1, 0}},
          {"targets without their references", {1, 3, 9, 10, 11}},
          {"target on a target, listed backwards", {kChained, 1, 0}},
          {"target on a target without the root", {1, kChained}},
          {"vertical columns only", {4, 5, 6, 7, 8}},
          {"every column", {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, kChained}},
      };
  for (const auto& [selection_name, rows] : selections) {
    for (const auto& [request_name, cols] : requests) {
      SCOPED_TRACE(selection_name + " / " + request_name);
      ExpectMatchesPerColumn(cols, rows);
    }
  }
}

TEST_F(ScanColumnsTest, RangeMatchesPerColumnDecodes) {
  const std::vector<size_t> cols = {kChained, 3, 1, 2, 0, 10, 9, 11, 1};
  for (const auto& [begin, count] :
       std::vector<std::pair<size_t, size_t>>{
           {0, 0}, {0, kRows}, {1, 1}, {2047, 2050}, {5000, 1000}}) {
    SCOPED_TRACE("begin " + std::to_string(begin) + " count " +
                 std::to_string(count));
    std::vector<std::vector<int64_t>> multi(cols.size(),
                                            std::vector<int64_t>(count));
    std::vector<int64_t*> out;
    for (auto& column : multi) {
      out.push_back(column.data());
    }
    ScanColumnsRange(block(), cols, begin, count, out);
    for (size_t k = 0; k < cols.size(); ++k) {
      std::vector<int64_t> single(count);
      int64_t* const single_out[] = {single.data()};
      ScanColumnsRange(block(), {&cols[k], 1}, begin, count, single_out);
      EXPECT_EQ(multi[k], single) << "column " << cols[k];
      EXPECT_TRUE(std::equal(single.begin(), single.end(),
                             raw_[cols[k]].begin() +
                                 static_cast<std::ptrdiff_t>(begin)))
          << "column " << cols[k];
    }
  }
}

TEST(LatencyTest, MeanRunSecondsAveragesBodies) {
  std::vector<std::vector<uint32_t>> vectors(4, std::vector<uint32_t>{0});
  size_t calls = 0;
  const double mean = MeanRunSeconds(
      vectors, [&calls](std::span<const uint32_t>) { ++calls; });
  EXPECT_EQ(calls, 4u);
  EXPECT_GE(mean, 0.0);
}

TEST(LatencyTest, ZoomSelectivitiesMatchPaper) {
  EXPECT_EQ(ZoomSelectivities(),
            (std::vector<double>{0.005, 0.01, 0.05, 0.1}));
}

}  // namespace
}  // namespace corra::query
