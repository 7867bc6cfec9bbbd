// Multiple reference columns — Sec. 2.3 (Table 1, Fig. 4).

#include "core/multi_ref_encoding.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "encoding/for.h"
#include "test_util.h"

namespace corra {
namespace {

// A miniature Taxi-like setup: three reference columns in three groups
// (A = col0 + col1, B = col2, C = col3) and a target combining them.
struct MiniTaxi {
  std::vector<std::vector<int64_t>> columns;  // 4 reference columns.
  std::vector<int64_t> target;
  std::vector<size_t> formula_of_row;  // 0..3, 4 = outlier.
};

MiniTaxi MakeMiniTaxi(size_t n, double outlier_rate, uint64_t seed) {
  Rng rng(seed);
  MiniTaxi data;
  data.columns.assign(4, std::vector<int64_t>(n));
  data.target.resize(n);
  data.formula_of_row.resize(n);
  for (size_t i = 0; i < n; ++i) {
    data.columns[0][i] = rng.Uniform(100, 5000);  // fare
    data.columns[1][i] = rng.Uniform(0, 500);     // tip
    data.columns[2][i] = 250;                     // congestion
    data.columns[3][i] = 175;                     // airport
    const int64_t a = data.columns[0][i] + data.columns[1][i];
    const int64_t b = data.columns[2][i];
    const int64_t c = data.columns[3][i];
    double u = rng.NextDouble();
    if (u < outlier_rate) {
      data.formula_of_row[i] = 4;
      data.target[i] = a + b + c + 1000 + rng.Uniform(0, 100);
    } else if (u < outlier_rate + 0.30) {
      data.formula_of_row[i] = 0;
      data.target[i] = a;
    } else if (u < outlier_rate + 0.75) {  // A+B strictly dominates.
      data.formula_of_row[i] = 1;
      data.target[i] = a + b;
    } else if (u < outlier_rate + 0.85) {
      data.formula_of_row[i] = 2;
      data.target[i] = a + c;
    } else {
      data.formula_of_row[i] = 3;
      data.target[i] = a + b + c;
    }
  }
  return data;
}

FormulaTable PaperTable(/*group cols=*/std::vector<std::vector<uint32_t>>
                            groups = {{0, 1}, {2}, {3}}) {
  FormulaTable table;
  table.groups = std::move(groups);
  table.formulas = {0b001, 0b011, 0b101, 0b111};  // A, A+B, A+C, A+B+C.
  table.code_bits = 2;
  return table;
}

ColumnResolver ResolverFor(const MiniTaxi& data) {
  return [&data](uint32_t col) -> std::span<const int64_t> {
    return data.columns[col];
  };
}

struct BoundMulti {
  std::vector<std::unique_ptr<enc::ForColumn>> refs;
  std::unique_ptr<MultiRefColumn> column;
};

BoundMulti MakeBound(const MiniTaxi& data, const FormulaTable& table,
                     double max_outlier_fraction = 0.05) {
  BoundMulti b;
  auto encoded = MultiRefColumn::Encode(data.target, ResolverFor(data),
                                        table, max_outlier_fraction);
  EXPECT_TRUE(encoded.ok()) << encoded.status().ToString();
  b.column = std::move(encoded).value();
  std::vector<const enc::EncodedColumn*> resolved;
  for (const auto& values : data.columns) {
    auto ref = enc::ForColumn::Encode(values);
    EXPECT_TRUE(ref.ok());
    b.refs.push_back(std::move(ref).value());
  }
  for (uint32_t idx : b.column->ReferenceIndices()) {
    resolved.push_back(b.refs[idx].get());
  }
  EXPECT_TRUE(b.column->BindReferences(resolved).ok());
  return b;
}

TEST(FormulaTableTest, ValidatesStructure) {
  EXPECT_TRUE(PaperTable().Validate().ok());

  FormulaTable bad = PaperTable();
  bad.code_bits = 0;
  EXPECT_FALSE(bad.Validate().ok());

  bad = PaperTable();
  bad.code_bits = 9;
  EXPECT_FALSE(bad.Validate().ok());

  bad = PaperTable();
  bad.groups.clear();
  EXPECT_FALSE(bad.Validate().ok());

  bad = PaperTable();
  bad.groups.push_back({});  // Empty group.
  EXPECT_FALSE(bad.Validate().ok());

  bad = PaperTable();
  bad.formulas = {0b001, 0b010, 0b011, 0b100, 0b101};  // 5 > 2^2.
  EXPECT_FALSE(bad.Validate().ok());

  bad = PaperTable();
  bad.formulas = {0};  // Empty mask.
  EXPECT_FALSE(bad.Validate().ok());

  bad = PaperTable();
  bad.formulas = {0b1000};  // Mask references a 4th group.
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(MultiRefTest, ExactReconstructionNoOutliers) {
  const MiniTaxi data = MakeMiniTaxi(10000, 0.0, 1);
  auto b = MakeBound(data, PaperTable());
  EXPECT_EQ(b.column->outliers().size(), 0u);
  test::ExpectColumnMatches(*b.column, data.target);
}

TEST(MultiRefTest, ExactReconstructionWithOutliers) {
  const MiniTaxi data = MakeMiniTaxi(10000, 0.0032, 2);
  auto b = MakeBound(data, PaperTable());
  EXPECT_GT(b.column->outliers().size(), 0u);
  EXPECT_NEAR(b.column->outlier_fraction(), 0.0032, 0.002);
  test::ExpectColumnMatches(*b.column, data.target);
}

TEST(MultiRefTest, CodeStatsMatchGeneratedMix) {
  const MiniTaxi data = MakeMiniTaxi(50000, 0.0032, 3);
  auto b = MakeBound(data, PaperTable());
  const auto stats = b.column->ComputeCodeStats();
  ASSERT_EQ(stats.code_counts.size(), 4u);
  // Compare against the generator's ground truth.
  std::vector<size_t> expected(5, 0);
  for (size_t f : data.formula_of_row) {
    ++expected[f];
  }
  EXPECT_EQ(stats.code_counts[0], expected[0]);
  EXPECT_EQ(stats.code_counts[1], expected[1]);
  EXPECT_EQ(stats.code_counts[2], expected[2]);
  EXPECT_EQ(stats.code_counts[3], expected[3]);
  EXPECT_EQ(stats.outlier_count, expected[4]);
}

TEST(MultiRefTest, TwoBitsPerRowPlusOutliers) {
  const MiniTaxi data = MakeMiniTaxi(40000, 0.003, 4);
  auto b = MakeBound(data, PaperTable());
  // ~2 bits/row plus a small outlier store: far below the 2 bytes/row a
  // 14-bit FOR of the target would need.
  EXPECT_LT(b.column->SizeBytes(), 40000u * 2 / 8 + 3000u);
}

TEST(MultiRefTest, OutlierBudgetEnforced) {
  const MiniTaxi data = MakeMiniTaxi(5000, 0.20, 5);
  auto result = MultiRefColumn::Encode(data.target, ResolverFor(data),
                                       PaperTable(), /*max=*/0.05);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(MultiRefTest, FirstMatchingFormulaWins) {
  // When B's value is zero, A and A+B coincide; the first listed formula
  // (A, code 0) must be chosen deterministically.
  MiniTaxi data = MakeMiniTaxi(100, 0.0, 6);
  for (auto& v : data.columns[2]) {
    v = 0;
  }
  for (size_t i = 0; i < data.target.size(); ++i) {
    data.target[i] = data.columns[0][i] + data.columns[1][i];
  }
  auto b = MakeBound(data, PaperTable());
  const auto stats = b.column->ComputeCodeStats();
  EXPECT_EQ(stats.code_counts[0], 100u);
  EXPECT_EQ(stats.code_counts[1], 0u);
}

TEST(MultiRefTest, SerializeRoundTrip) {
  const MiniTaxi data = MakeMiniTaxi(8000, 0.004, 7);
  auto b = MakeBound(data, PaperTable());
  auto reloaded = test::SerializeRoundTrip(*b.column);
  ASSERT_NE(reloaded, nullptr);
  EXPECT_EQ(reloaded->scheme(), enc::Scheme::kMultiRef);
  std::vector<const enc::EncodedColumn*> resolved;
  for (uint32_t idx : reloaded->ReferenceIndices()) {
    resolved.push_back(b.refs[idx].get());
  }
  ASSERT_TRUE(reloaded->BindReferences(resolved).ok());
  test::ExpectColumnMatches(*reloaded, data.target);
  EXPECT_EQ(reloaded->SizeBytes(), b.column->SizeBytes());
}

TEST(MultiRefTest, ReferenceIndicesFlattenGroups) {
  const MiniTaxi data = MakeMiniTaxi(100, 0.0, 8);
  auto encoded =
      MultiRefColumn::Encode(data.target, ResolverFor(data), PaperTable());
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(encoded.value()->ReferenceIndices(),
            (std::vector<uint32_t>{0, 1, 2, 3}));
}

TEST(MultiRefTest, BindRejectsWrongCount) {
  const MiniTaxi data = MakeMiniTaxi(100, 0.0, 9);
  auto b = MakeBound(data, PaperTable());
  const enc::EncodedColumn* one[] = {b.refs[0].get()};
  EXPECT_FALSE(b.column->BindReferences(one).ok());
}

TEST(MultiRefTest, DeriveFormulasRecoversPaperTable) {
  const MiniTaxi data = MakeMiniTaxi(30000, 0.003, 10);
  auto derived = MultiRefColumn::DeriveFormulas(
      data.target, ResolverFor(data), {{0, 1}, {2}, {3}}, /*code_bits=*/2);
  ASSERT_TRUE(derived.ok()) << derived.status().ToString();
  // The four true formulas must be found (order: by frequency).
  std::vector<uint8_t> sorted = derived.value().formulas;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<uint8_t>{0b001, 0b011, 0b101, 0b111}));
  // Most frequent formula in the generator is A+B (0.45 weight above).
  EXPECT_EQ(derived.value().formulas[0], 0b011);
}

TEST(MultiRefTest, DeriveThenEncodeRoundTrips) {
  const MiniTaxi data = MakeMiniTaxi(20000, 0.002, 11);
  auto derived = MultiRefColumn::DeriveFormulas(
      data.target, ResolverFor(data), {{0, 1}, {2}, {3}});
  ASSERT_TRUE(derived.ok());
  auto b = MakeBound(data, derived.value());
  test::ExpectColumnMatches(*b.column, data.target);
}

TEST(MultiRefTest, DeriveReadsOnlyTheSampledPrefix) {
  // A 200k-row target derives the same table from its first 1000 rows
  // as the 1000-row prefix on its own: the rows past the sample are
  // never summed, but every reference must still span the whole target.
  const MiniTaxi data = MakeMiniTaxi(200'000, 0.003, 14);
  auto full = MultiRefColumn::DeriveFormulas(
      data.target, ResolverFor(data), {{0, 1}, {2}, {3}}, /*code_bits=*/2,
      /*sample_limit=*/1000);
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  MiniTaxi prefix;
  for (const auto& column : data.columns) {
    prefix.columns.emplace_back(column.begin(), column.begin() + 1000);
  }
  prefix.target.assign(data.target.begin(), data.target.begin() + 1000);
  auto sampled = MultiRefColumn::DeriveFormulas(
      prefix.target, ResolverFor(prefix), {{0, 1}, {2}, {3}},
      /*code_bits=*/2, /*sample_limit=*/1000);
  ASSERT_TRUE(sampled.ok()) << sampled.status().ToString();
  EXPECT_EQ(full.value().groups, sampled.value().groups);
  EXPECT_EQ(full.value().formulas, sampled.value().formulas);
  EXPECT_EQ(full.value().code_bits, sampled.value().code_bits);

  // A reference shorter than the target is still rejected.
  std::vector<int64_t> short_column(data.columns[0].begin(),
                                    data.columns[0].begin() + 1000);
  const auto short_resolver =
      [&](uint32_t col) -> std::span<const int64_t> {
    return col == 2 ? std::span<const int64_t>(short_column)
                    : std::span<const int64_t>(data.columns[col]);
  };
  EXPECT_FALSE(MultiRefColumn::DeriveFormulas(data.target, short_resolver,
                                              {{0, 1}, {2}, {3}}, 2, 1000)
                   .ok());
}

TEST(MultiRefTest, DeriveFailsWhenNothingMatches) {
  MiniTaxi data = MakeMiniTaxi(1000, 0.0, 12);
  for (auto& t : data.target) {
    t += 1;  // Break every formula.
  }
  // Also break the degenerate coincidences by zeroing nothing; the +1
  // offset alone defeats all subset sums because the groups are fixed.
  auto derived = MultiRefColumn::DeriveFormulas(
      data.target, ResolverFor(data), {{0, 1}, {2}, {3}});
  EXPECT_FALSE(derived.ok());
}

TEST(MultiRefTest, SingleGroupSingleFormula) {
  // Degenerate case: target == sum of one group, 1-bit codes.
  Rng rng(13);
  std::vector<int64_t> a(500);
  std::vector<int64_t> target(500);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.Uniform(0, 1000);
    target[i] = a[i];
  }
  FormulaTable table;
  table.groups = {{0}};
  table.formulas = {0b1};
  table.code_bits = 1;
  auto resolver = [&a](uint32_t) -> std::span<const int64_t> { return a; };
  auto encoded = MultiRefColumn::Encode(target, resolver, table);
  ASSERT_TRUE(encoded.ok());
  auto ref = enc::ForColumn::Encode(a);
  ASSERT_TRUE(ref.ok());
  const enc::EncodedColumn* refs[] = {ref.value().get()};
  ASSERT_TRUE(encoded.value()->BindReferences(refs).ok());
  test::ExpectColumnMatches(*encoded.value(), target);
}

}  // namespace
}  // namespace corra
