// Selection vectors and materializing scans.

#include <gtest/gtest.h>

#include <cmath>
#include <unordered_set>

#include "core/corra_compressor.h"
#include "query/latency.h"
#include "query/scan.h"
#include "query/selection_vector.h"
#include "query/table_scan.h"

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
