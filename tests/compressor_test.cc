// CorraCompressor: plans, block splitting, horizontal schemes end to end.

#include "core/corra_compressor.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "datagen/tpch.h"

namespace corra {
namespace {

Table MakeDatePair(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> ship(n);
  std::vector<int64_t> receipt(n);
  for (size_t i = 0; i < n; ++i) {
    ship[i] = rng.Uniform(8035, 10591);
    receipt[i] = ship[i] + rng.Uniform(1, 30);
  }
  Table table;
  EXPECT_TRUE(table.AddColumn(Column::Date("ship", std::move(ship))).ok());
  EXPECT_TRUE(
      table.AddColumn(Column::Date("receipt", std::move(receipt))).ok());
  return table;
}

TEST(CompressorTest, AllAutoMatchesBaselineSelector) {
  Table table = MakeDatePair(5000, 1);
  auto compressed =
      CorraCompressor::Compress(table, CompressionPlan::AllAuto(2));
  ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
  EXPECT_EQ(compressed.value().num_blocks(), 1u);
  // Both columns decode exactly.
  EXPECT_EQ(compressed.value().DecodeColumn(0),
            std::vector<int64_t>(table.column(0).values().begin(),
                                 table.column(0).values().end()));
  EXPECT_EQ(compressed.value().DecodeColumn(1),
            std::vector<int64_t>(table.column(1).values().begin(),
                                 table.column(1).values().end()));
}

TEST(CompressorTest, AllPlainIsUncompressed) {
  Table table = MakeDatePair(1000, 2);
  auto compressed =
      CorraCompressor::Compress(table, CompressionPlan::AllPlain(2));
  ASSERT_TRUE(compressed.ok());
  EXPECT_EQ(compressed.value().TotalSizeBytes(),
            2 * 1000 * sizeof(int64_t));
}

TEST(CompressorTest, DiffPlanShrinksTarget) {
  Table table = MakeDatePair(20000, 3);
  CompressionPlan plan = CompressionPlan::AllAuto(2);
  plan.columns[1].auto_vertical = false;
  plan.columns[1].scheme = enc::Scheme::kDiff;
  plan.columns[1].reference = 0;
  auto corra = CorraCompressor::Compress(table, plan);
  ASSERT_TRUE(corra.ok()) << corra.status().ToString();
  auto baseline =
      CorraCompressor::Compress(table, CompressionPlan::AllAuto(2));
  ASSERT_TRUE(baseline.ok());
  // Receipt shrinks (5 vs 12 bits); ship unchanged.
  EXPECT_LT(corra.value().ColumnSizeBytes(1),
            baseline.value().ColumnSizeBytes(1));
  EXPECT_EQ(corra.value().ColumnSizeBytes(0),
            baseline.value().ColumnSizeBytes(0));
  // Decoding still exact.
  EXPECT_EQ(corra.value().DecodeColumn(1),
            std::vector<int64_t>(table.column(1).values().begin(),
                                 table.column(1).values().end()));
}

TEST(CompressorTest, PlanValidationCatchesBadReferences) {
  Table table = MakeDatePair(100, 4);
  CompressionPlan plan = CompressionPlan::AllAuto(2);
  plan.columns[1].auto_vertical = false;
  plan.columns[1].scheme = enc::Scheme::kDiff;
  plan.columns[1].reference = -1;  // Missing.
  EXPECT_FALSE(CorraCompressor::Compress(table, plan).ok());
  plan.columns[1].reference = 1;  // Self.
  EXPECT_FALSE(CorraCompressor::Compress(table, plan).ok());
  plan.columns[1].reference = 9;  // Out of range.
  EXPECT_FALSE(CorraCompressor::Compress(table, plan).ok());
}

TEST(CompressorTest, PlanSizeMismatchRejected) {
  Table table = MakeDatePair(100, 5);
  EXPECT_FALSE(
      CorraCompressor::Compress(table, CompressionPlan::AllAuto(3)).ok());
}

TEST(CompressorTest, ZeroBlockRowsRejected) {
  Table table = MakeDatePair(100, 6);
  CompressionPlan plan = CompressionPlan::AllAuto(2);
  plan.block_rows = 0;
  EXPECT_FALSE(CorraCompressor::Compress(table, plan).ok());
}

TEST(CompressorTest, EmptyTableRejected) {
  Table table;
  EXPECT_FALSE(
      CorraCompressor::Compress(table, CompressionPlan::AllAuto(0)).ok());
}

TEST(CompressorTest, BlocksAreIndependentlyDecodable) {
  Table table = MakeDatePair(2500, 7);
  CompressionPlan plan = CompressionPlan::AllAuto(2);
  plan.columns[1].auto_vertical = false;
  plan.columns[1].scheme = enc::Scheme::kDiff;
  plan.columns[1].reference = 0;
  plan.block_rows = 1000;
  auto compressed = CorraCompressor::Compress(table, plan);
  ASSERT_TRUE(compressed.ok());
  ASSERT_EQ(compressed.value().num_blocks(), 3u);
  // Serialize each block, reload, decode: self-containment per block.
  size_t offset = 0;
  for (size_t b = 0; b < 3; ++b) {
    const auto bytes = compressed.value().block(b).Serialize();
    auto reloaded = Block::Deserialize(bytes, /*verify=*/true);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
    std::vector<int64_t> decoded(reloaded.value().rows());
    reloaded.value().column(1).DecodeAll(decoded.data());
    for (size_t i = 0; i < decoded.size(); ++i) {
      ASSERT_EQ(decoded[i], table.column(1).values()[offset + i]);
    }
    offset += decoded.size();
  }
}

TEST(CompressorTest, HierarchicalPlan) {
  Rng rng(8);
  const size_t n = 5000;
  std::vector<int64_t> city(n);
  std::vector<int64_t> zip(n);
  for (size_t i = 0; i < n; ++i) {
    city[i] = rng.Uniform(0, 49);
    zip[i] = 10000 + city[i] * 37 + rng.Uniform(0, 10);
  }
  Table table;
  ASSERT_TRUE(table.AddColumn(Column::Int64("city", city)).ok());
  ASSERT_TRUE(table.AddColumn(Column::Int64("zip", zip)).ok());
  CompressionPlan plan = CompressionPlan::AllAuto(2);
  plan.columns[1].auto_vertical = false;
  plan.columns[1].scheme = enc::Scheme::kHierarchical;
  plan.columns[1].reference = 0;
  auto compressed = CorraCompressor::Compress(table, plan);
  ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
  EXPECT_EQ(compressed.value().DecodeColumn(1), zip);
}

TEST(CompressorTest, MultiRefPlan) {
  Rng rng(9);
  const size_t n = 4000;
  std::vector<int64_t> a(n);
  std::vector<int64_t> b(n);
  std::vector<int64_t> total(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = rng.Uniform(100, 999);
    b[i] = 250;
    total[i] = rng.Bernoulli(0.5) ? a[i] : a[i] + b[i];
  }
  Table table;
  ASSERT_TRUE(table.AddColumn(Column::Money("a", a)).ok());
  ASSERT_TRUE(table.AddColumn(Column::Money("b", b)).ok());
  ASSERT_TRUE(table.AddColumn(Column::Money("total", total)).ok());
  CompressionPlan plan = CompressionPlan::AllAuto(3);
  plan.columns[2].auto_vertical = false;
  plan.columns[2].scheme = enc::Scheme::kMultiRef;
  plan.columns[2].formulas.groups = {{0}, {1}};
  plan.columns[2].formulas.formulas = {0b01, 0b11};
  plan.columns[2].formulas.code_bits = 1;
  auto compressed = CorraCompressor::Compress(table, plan);
  ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
  EXPECT_EQ(compressed.value().DecodeColumn(2), total);
}

TEST(CompressorTest, MultiRefGroupReferencingTargetRejected) {
  Table table = MakeDatePair(100, 10);
  CompressionPlan plan = CompressionPlan::AllAuto(2);
  plan.columns[1].auto_vertical = false;
  plan.columns[1].scheme = enc::Scheme::kMultiRef;
  plan.columns[1].formulas.groups = {{1}};  // Group includes the target.
  plan.columns[1].formulas.formulas = {0b1};
  plan.columns[1].formulas.code_bits = 1;
  EXPECT_FALSE(CorraCompressor::Compress(table, plan).ok());
}

TEST(CompressorTest, C3Plans) {
  Table table = MakeDatePair(3000, 11);
  for (enc::Scheme scheme :
       {enc::Scheme::kC3Dfor, enc::Scheme::kC3Numerical}) {
    CompressionPlan plan = CompressionPlan::AllAuto(2);
    plan.columns[1].auto_vertical = false;
    plan.columns[1].scheme = scheme;
    plan.columns[1].reference = 0;
    auto compressed = CorraCompressor::Compress(table, plan);
    ASSERT_TRUE(compressed.ok())
        << enc::SchemeToString(scheme) << ": "
        << compressed.status().ToString();
    EXPECT_EQ(compressed.value().DecodeColumn(1),
              std::vector<int64_t>(table.column(1).values().begin(),
                                   table.column(1).values().end()));
  }
}

TEST(CompressorTest, ExplicitVerticalSchemes) {
  Table table = MakeDatePair(1000, 12);
  for (enc::Scheme scheme :
       {enc::Scheme::kPlain, enc::Scheme::kBitPack, enc::Scheme::kFor,
        enc::Scheme::kDict, enc::Scheme::kDelta, enc::Scheme::kRle}) {
    CompressionPlan plan = CompressionPlan::AllAuto(2);
    plan.columns[0].auto_vertical = false;
    plan.columns[0].scheme = scheme;
    auto compressed = CorraCompressor::Compress(table, plan);
    ASSERT_TRUE(compressed.ok()) << enc::SchemeToString(scheme);
    EXPECT_EQ(compressed.value().block(0).column(0).scheme(), scheme);
    EXPECT_EQ(compressed.value().DecodeColumn(0),
              std::vector<int64_t>(table.column(0).values().begin(),
                                   table.column(0).values().end()));
  }
}

TEST(CompressorTest, DecompressInvertsCompress) {
  Table table = MakeDatePair(2500, 14);
  CompressionPlan plan = CompressionPlan::AllAuto(2);
  plan.block_rows = 1000;
  plan.columns[1].auto_vertical = false;
  plan.columns[1].scheme = enc::Scheme::kDiff;
  plan.columns[1].reference = 0;
  auto compressed = CorraCompressor::Compress(table, plan);
  ASSERT_TRUE(compressed.ok());
  auto restored = CorraCompressor::Decompress(compressed.value());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored.value().num_columns(), 2u);
  EXPECT_EQ(restored.value().schema(), table.schema());
  for (size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(std::vector<int64_t>(restored.value().column(c).values().begin(),
                                   restored.value().column(c).values().end()),
              std::vector<int64_t>(table.column(c).values().begin(),
                                   table.column(c).values().end()));
  }
}

TEST(CompressorTest, DecompressRestoresStringColumns) {
  const std::vector<std::string> cities = {"NYC", "Naples", "NYC",
                                           "Cortland", "Naples"};
  Table table;
  ASSERT_TRUE(table.AddColumn(Column::String("city", cities)).ok());
  auto compressed =
      CorraCompressor::Compress(table, CompressionPlan::AllAuto(1));
  ASSERT_TRUE(compressed.ok());
  auto restored = CorraCompressor::Decompress(compressed.value());
  ASSERT_TRUE(restored.ok());
  for (size_t row = 0; row < cities.size(); ++row) {
    EXPECT_EQ(restored.value().column(0).Render(row), cities[row]);
  }
}

TEST(CompressorTest, ParallelCompressionIsDeterministic) {
  // Mixed plan over ten blocks: diff-encoded, hierarchical, and
  // auto-vertical columns. Blocks are independent, so any thread count
  // must serialize to the same bytes.
  Rng rng(31);
  const size_t rows = 10000;
  std::vector<int64_t> ship(rows);
  std::vector<int64_t> receipt(rows);
  std::vector<int64_t> fare(rows);
  for (size_t i = 0; i < rows; ++i) {
    ship[i] = rng.Uniform(8035, 10591);
    receipt[i] = ship[i] + rng.Uniform(1, 30);
    fare[i] = rng.Uniform(100, 25000);
  }
  Table table;
  ASSERT_TRUE(table.AddColumn(Column::Date("ship", ship)).ok());
  ASSERT_TRUE(table.AddColumn(Column::Date("receipt", receipt)).ok());
  ASSERT_TRUE(table.AddColumn(Column::Money("fare", fare)).ok());

  CompressionPlan plan = CompressionPlan::AllAuto(3);
  plan.block_rows = 1000;
  plan.columns[1].auto_vertical = false;
  plan.columns[1].scheme = enc::Scheme::kDiff;
  plan.columns[1].reference = 0;

  plan.num_threads = 1;
  auto serial = CorraCompressor::Compress(table, plan);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_EQ(serial.value().num_blocks(), 10u);

  for (size_t threads : {2, 4, 16}) {
    plan.num_threads = threads;
    auto parallel = CorraCompressor::Compress(table, plan);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ASSERT_EQ(parallel.value().num_blocks(), serial.value().num_blocks());
    for (size_t b = 0; b < serial.value().num_blocks(); ++b) {
      EXPECT_EQ(parallel.value().block(b).Serialize(),
                serial.value().block(b).Serialize())
          << "block " << b << " with " << threads << " threads";
    }
  }
}

TEST(CompressorTest, ParallelCompressionPropagatesBlockErrors) {
  // A hierarchical column whose reference violates the scheme's
  // contract in some blocks must fail identically for any thread count.
  const size_t rows = 4000;
  std::vector<int64_t> ref(rows);
  std::vector<int64_t> target(rows);
  Rng rng(9);
  for (size_t i = 0; i < rows; ++i) {
    ref[i] = rng.Uniform(-1000000, 1000000);
    target[i] = rng.Uniform(-1000000, 1000000);
  }
  Table table;
  ASSERT_TRUE(table.AddColumn(Column::Int64("ref", ref)).ok());
  ASSERT_TRUE(table.AddColumn(Column::Int64("target", target)).ok());
  CompressionPlan plan = CompressionPlan::AllAuto(2);
  plan.block_rows = 1000;
  plan.columns[1].auto_vertical = false;
  plan.columns[1].scheme = enc::Scheme::kC3OneToOne;
  plan.columns[1].reference = 0;
  plan.columns[1].max_outlier_fraction = 0.0;

  plan.num_threads = 1;
  auto serial = CorraCompressor::Compress(table, plan);
  plan.num_threads = 4;
  auto parallel = CorraCompressor::Compress(table, plan);
  EXPECT_EQ(serial.ok(), parallel.ok());
  if (!serial.ok()) {
    EXPECT_EQ(serial.status().code(), parallel.status().code());
  }
}

TEST(CompressorTest, PlanFromOptimizerAppliesTpchConfig) {
  auto table = datagen::MakeLineitemTable(50000, 13);
  ASSERT_TRUE(table.ok());
  // Candidates: ship (1), commit (2), receipt (3); orderdate (0) excluded.
  const std::vector<size_t> candidates = {1, 2, 3};
  auto plan = CorraCompressor::PlanFromOptimizer(table.value(), candidates);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan.value().columns[2].scheme, enc::Scheme::kDiff);
  EXPECT_EQ(plan.value().columns[2].reference, 1);
  EXPECT_EQ(plan.value().columns[3].scheme, enc::Scheme::kDiff);
  EXPECT_EQ(plan.value().columns[3].reference, 1);
  EXPECT_TRUE(plan.value().columns[1].auto_vertical);

  auto compressed = CorraCompressor::Compress(table.value(), plan.value());
  ASSERT_TRUE(compressed.ok());
  EXPECT_EQ(compressed.value().DecodeColumn(3),
            std::vector<int64_t>(
                table.value().column(3).values().begin(),
                table.value().column(3).values().end()));
}

}  // namespace
}  // namespace corra
