// The baseline selector must reproduce the paper's choice: FOR or Dict
// (with bit-packing) per column, preferring whichever is smaller, and never
// a checkpointed scheme under the default policy.

#include "encoding/selector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "encoding/bitpack.h"
#include "encoding/delta.h"
#include "encoding/dictionary.h"
#include "encoding/for.h"
#include "encoding/plain.h"
#include "encoding/rle.h"
#include "test_util.h"

namespace corra::enc {
namespace {

using test::Dist;
using test::ExpectColumnMatches;
using test::MakeValues;
using test::SerializedBytes;

TEST(SelectorTest, DenseRangePicksForOrBitPack) {
  // Uniform dense values: dictionary wins nothing; FOR/BitPack is minimal.
  const auto values = MakeValues(Dist::kSmallRange, 4096, 1);
  auto result = SelectBestScheme(values);
  ASSERT_TRUE(result.ok());
  const Scheme s = result.value()->scheme();
  EXPECT_TRUE(s == Scheme::kFor || s == Scheme::kBitPack)
      << SchemeToString(s);
  ExpectColumnMatches(*result.value(), values);
}

TEST(SelectorTest, LowCardinalityWideValuesPickDict) {
  // 10 distinct values scattered over a wide range: dict codes take 4
  // bits/row while FOR needs ~21.
  const auto values = MakeValues(Dist::kLowCard, 4096, 2);
  auto result = SelectBestScheme(values);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value()->scheme(), Scheme::kDict);
  ExpectColumnMatches(*result.value(), values);
}

TEST(SelectorTest, DefaultPolicyNeverPicksCheckpointedSchemes) {
  for (Dist d : {Dist::kConstant, Dist::kSorted, Dist::kRunHeavy,
                 Dist::kWideRange}) {
    const auto values = MakeValues(d, 2048, 3);
    auto result = SelectBestScheme(values);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(HasConstantTimeAccess(result.value()->scheme()))
        << test::DistName(d);
  }
}

TEST(SelectorTest, CheckpointedPolicyPicksRleForRuns) {
  const auto values = MakeValues(Dist::kRunHeavy, 8192, 4);
  auto result = SelectBestScheme(
      values, SelectionPolicy::kAllowCheckpointedSchemes);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value()->scheme(), Scheme::kRle);
  ExpectColumnMatches(*result.value(), values);
}

TEST(SelectorTest, CheckpointedPolicyPicksDeltaForSorted) {
  // Strictly increasing with tiny steps over a huge range: delta beats
  // FOR (whose width is the full range) and dict (all values distinct).
  std::vector<int64_t> values;
  int64_t acc = 0;
  Rng rng(5);
  for (int i = 0; i < 8192; ++i) {
    acc += rng.Uniform(100000, 100007);
    values.push_back(acc);
  }
  auto result = SelectBestScheme(
      values, SelectionPolicy::kAllowCheckpointedSchemes);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value()->scheme(), Scheme::kDelta);
}

TEST(SelectorTest, SelectionNeverWorseThanPlain) {
  for (Dist d :
       {Dist::kConstant, Dist::kSmallRange, Dist::kWideRange,
        Dist::kNegative, Dist::kLowCard, Dist::kSorted, Dist::kRunHeavy,
        Dist::kExtremes}) {
    const auto values = MakeValues(d, 2000, 6);
    auto result = SelectBestScheme(values);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result.value()->SizeBytes(), values.size() * sizeof(int64_t))
        << test::DistName(d);
  }
}

TEST(SelectorTest, EstimatesCoverExpectedSchemes) {
  const auto values = MakeValues(Dist::kSmallRange, 100, 7);
  auto fast = EstimateSchemes(values,
                              SelectionPolicy::kConstantTimeAccessOnly);
  EXPECT_EQ(fast.size(), 4u);  // Plain, BitPack, FOR, Dict.
  auto all =
      EstimateSchemes(values, SelectionPolicy::kAllowCheckpointedSchemes);
  EXPECT_EQ(all.size(), 6u);
}

TEST(SelectorTest, EstimatesAreAccurate) {
  // The selector decides from estimates; each estimate must equal the
  // actual encoded SizeBytes for the applicable schemes.
  const auto values = MakeValues(Dist::kLowCard, 3000, 8);
  for (const auto& e :
       EstimateSchemes(values, SelectionPolicy::kConstantTimeAccessOnly)) {
    if (e.size_bytes == SIZE_MAX) {
      continue;
    }
    switch (e.scheme) {
      case Scheme::kFor: {
        auto col = ForColumn::Encode(values);
        ASSERT_TRUE(col.ok());
        EXPECT_EQ(e.size_bytes, col.value()->SizeBytes());
        break;
      }
      case Scheme::kDict: {
        auto col = DictColumn::Encode(values);
        ASSERT_TRUE(col.ok());
        EXPECT_EQ(e.size_bytes, col.value()->SizeBytes());
        break;
      }
      default:
        break;
    }
  }
}

TEST(SelectorTest, EmptyColumn) {
  auto result = SelectBestScheme(std::span<const int64_t>{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value()->size(), 0u);
}

// --- Equivalence with the exact per-scheme estimates -------------------

// Encodes `values` with `scheme` directly, as the selector would.
std::unique_ptr<EncodedColumn> EncodeDirectly(
    Scheme scheme, std::span<const int64_t> values) {
  switch (scheme) {
    case Scheme::kPlain:
      return PlainColumn::Encode(values);
    case Scheme::kBitPack:
      return BitPackColumn::Encode(values).value();
    case Scheme::kFor:
      return ForColumn::Encode(values).value();
    case Scheme::kDict:
      return DictColumn::Encode(values).value();
    case Scheme::kDelta:
      return DeltaColumn::Encode(values).value();
    case Scheme::kRle:
      return RleColumn::Encode(values).value();
    default:
      return nullptr;
  }
}

// SelectBestScheme must pick the first minimum of the exact per-scheme
// estimates and produce the same bytes as encoding with that scheme
// directly; EstimateSchemes must be exact except for Dict after an early
// stop, where it stays between the winning estimate and Dict's size.
void ExpectSelectsFirstExactMinimum(const std::vector<int64_t>& values,
                                    const std::string& label) {
  for (SelectionPolicy policy : {SelectionPolicy::kConstantTimeAccessOnly,
                                 SelectionPolicy::kAllowCheckpointedSchemes}) {
    const SelectionOptions options{.policy = policy};
    std::vector<SchemeEstimate> exact = {
        {Scheme::kPlain, values.size() * sizeof(int64_t)},
        {Scheme::kBitPack, BitPackColumn::EstimateSizeBytes(values)},
        {Scheme::kFor, ForColumn::EstimateSizeBytes(values)},
        {Scheme::kDict, DictColumn::EstimateSizeBytes(values)}};
    if (policy == SelectionPolicy::kAllowCheckpointedSchemes) {
      exact.push_back({Scheme::kDelta, DeltaColumn::EstimateSizeBytes(values)});
      exact.push_back({Scheme::kRle, RleColumn::EstimateSizeBytes(values)});
    }
    size_t best = 0;
    for (size_t i = 1; i < exact.size(); ++i) {
      if (exact[i].size_bytes < exact[best].size_bytes) {
        best = i;
      }
    }
    const std::string where =
        label + " policy " + std::to_string(static_cast<int>(policy));

    const auto estimates = EstimateSchemes(values, options);
    ASSERT_EQ(estimates.size(), exact.size()) << where;
    for (size_t i = 0; i < exact.size(); ++i) {
      ASSERT_EQ(estimates[i].scheme, exact[i].scheme) << where;
      if (exact[i].scheme == Scheme::kDict && best != i) {
        EXPECT_LE(estimates[i].size_bytes, exact[i].size_bytes) << where;
        EXPECT_GE(estimates[i].size_bytes, exact[best].size_bytes) << where;
      } else {
        EXPECT_EQ(estimates[i].size_bytes, exact[i].size_bytes)
            << where << " " << SchemeToString(exact[i].scheme);
      }
    }

    auto selected = SelectBestScheme(values, options);
    ASSERT_TRUE(selected.ok()) << where;
    ASSERT_EQ(selected.value()->scheme(), exact[best].scheme)
        << where << " picked " << SchemeToString(selected.value()->scheme());
    const auto direct = EncodeDirectly(exact[best].scheme, values);
    ASSERT_NE(direct, nullptr) << where;
    EXPECT_EQ(SerializedBytes(*selected.value()), SerializedBytes(*direct))
        << where;
  }
}

TEST(SelectorTest, PicksFirstExactMinimumForEveryDistribution) {
  for (Dist d :
       {Dist::kConstant, Dist::kSmallRange, Dist::kWideRange,
        Dist::kNegative, Dist::kLowCard, Dist::kSorted, Dist::kRunHeavy,
        Dist::kExtremes}) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{2000}, size_t{70000}}) {
      const auto values = MakeValues(d, n, 40 + n);
      ExpectSelectsFirstExactMinimum(
          values, test::DistName(d) + " n " + std::to_string(n));
    }
  }
}

TEST(SelectorTest, PicksFirstExactMinimumOnBothSidesOfTheNarrowDomainRule) {
  for (const auto& [name, values] : test::NarrowDomainRuleCases(3000, 41)) {
    ExpectSelectsFirstExactMinimum(values, name);
  }
}

// `distinct` values spread over [low, low + max_offset] (its ends
// included), repeated cyclically over `rows` rows.
std::vector<int64_t> SpreadValues(size_t rows, size_t distinct, int64_t low,
                                  int64_t max_offset) {
  std::vector<int64_t> values(rows);
  for (size_t i = 0; i < rows; ++i) {
    const auto k = static_cast<int64_t>(i % distinct);
    values[i] = low + k * max_offset / static_cast<int64_t>(distinct - 1);
  }
  return values;
}

TEST(SelectorTest, PicksFirstExactMinimumAtTheDictCrossover) {
  // Dict's size grows with the distinct count while BitPack's and FOR's
  // depend only on the range. Find the first count at which Dict reaches
  // the best of them; one below it Dict wins, at and above it Dict loses
  // (ties go to the earlier scheme) and its count stops early. A 12-bit
  // span below 2 * rows runs the count in Dict's value-indexed table, a
  // 20-bit one in its hash.
  constexpr size_t kRows = 2048;
  for (int64_t max_offset :
       {int64_t{2 * kRows - 2}, (int64_t{1} << 20) - 1}) {
    for (int64_t low : {int64_t{0}, -(int64_t{1} << 19)}) {
      const std::string where =
          "span " + std::to_string(max_offset) + " low " + std::to_string(low);
      const auto wide = SpreadValues(kRows, 2, low, max_offset);
      const size_t best_other =
          std::min(BitPackColumn::EstimateSizeBytes(wide),
                   ForColumn::EstimateSizeBytes(wide));
      size_t crossover = 0;
      for (size_t d = 2; d <= kRows && crossover == 0; ++d) {
        if (DictSizeBytes(kRows, d) >= best_other) {
          crossover = d;
        }
      }
      ASSERT_NE(crossover, 0u) << where;
      for (size_t d : {crossover - 1, crossover, crossover + 1}) {
        const auto values = SpreadValues(kRows, d, low, max_offset);
        ASSERT_EQ(DictColumn::EstimateSizeBytes(values),
                  DictSizeBytes(kRows, d));
        ExpectSelectsFirstExactMinimum(values,
                                       where + " d " + std::to_string(d));
        auto selected = SelectBestScheme(values);
        ASSERT_TRUE(selected.ok());
        EXPECT_EQ(selected.value()->scheme() == Scheme::kDict, d < crossover)
            << where << " d " << d;
      }
    }
  }
}

}  // namespace
}  // namespace corra::enc
