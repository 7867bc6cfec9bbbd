// Non-hierarchical (diff) encoding — Sec. 2.1.

#include "core/diff_encoding.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "encoding/bitpack.h"
#include "encoding/delta.h"
#include "encoding/dictionary.h"
#include "encoding/for.h"
#include "encoding/plain.h"
#include "storage/serde.h"
#include "test_util.h"

namespace corra {
namespace {

// A (reference, target) pair with bounded differences, TPC-H style.
struct Pair {
  std::vector<int64_t> reference;
  std::vector<int64_t> target;
};

Pair BoundedPair(size_t n, int64_t lo_diff, int64_t hi_diff, uint64_t seed) {
  Rng rng(seed);
  Pair p;
  p.reference.resize(n);
  p.target.resize(n);
  for (size_t i = 0; i < n; ++i) {
    p.reference[i] = rng.Uniform(8035, 10591);  // TPC-H date domain.
    p.target[i] = p.reference[i] + rng.Uniform(lo_diff, hi_diff);
  }
  return p;
}

// Encodes the reference vertically, diff-encodes the target, binds them.
struct BoundDiff {
  std::unique_ptr<enc::ForColumn> ref;
  std::unique_ptr<DiffEncodedColumn> diff;
};

BoundDiff MakeBound(const Pair& p, const DiffOptions& options = {}) {
  BoundDiff b;
  auto ref = enc::ForColumn::Encode(p.reference);
  EXPECT_TRUE(ref.ok());
  b.ref = std::move(ref).value();
  auto diff = DiffEncodedColumn::Encode(p.target, p.reference, 0, options);
  EXPECT_TRUE(diff.ok()) << diff.status().ToString();
  b.diff = std::move(diff).value();
  const enc::EncodedColumn* refs[] = {b.ref.get()};
  EXPECT_TRUE(b.diff->BindReferences(refs).ok());
  return b;
}

TEST(DiffEncodingTest, RoundTripBoundedDiffs) {
  const Pair p = BoundedPair(5000, 1, 30, 1);
  auto b = MakeBound(p);
  test::ExpectColumnMatches(*b.diff, p.target);
}

TEST(DiffEncodingTest, NegativeDiffsSupported) {
  // commitdate - shipdate spans [-91, 89] in TPC-H.
  const Pair p = BoundedPair(5000, -91, 89, 2);
  auto b = MakeBound(p);
  test::ExpectColumnMatches(*b.diff, p.target);
  EXPECT_EQ(b.diff->bit_width(), 8);  // 181 distinct offsets.
}

TEST(DiffEncodingTest, ReceiptdateWidthIsFiveBits) {
  const Pair p = BoundedPair(20000, 1, 30, 3);
  auto b = MakeBound(p);
  EXPECT_EQ(b.diff->bit_width(), 5);  // 30 distinct offsets.
  // 5 bits/row versus 12 for the vertical column: the Table 2 ratio.
  EXPECT_LT(b.diff->SizeBytes(), b.ref->SizeBytes() / 2);
}

TEST(DiffEncodingTest, IdenticalColumnsNeedZeroBits) {
  Pair p = BoundedPair(1000, 0, 0, 4);
  auto b = MakeBound(p);
  EXPECT_EQ(b.diff->bit_width(), 0);
  test::ExpectColumnMatches(*b.diff, p.target);
}

TEST(DiffEncodingTest, LengthMismatchRejected) {
  const std::vector<int64_t> target = {1, 2, 3};
  const std::vector<int64_t> reference = {1, 2};
  EXPECT_FALSE(DiffEncodedColumn::Encode(target, reference, 0).ok());
  EXPECT_EQ(DiffEncodedColumn::EstimateSizeBytes(target, reference),
            SIZE_MAX);
}

TEST(DiffEncodingTest, ReferenceIndicesExposed) {
  const Pair p = BoundedPair(100, 1, 5, 5);
  auto diff = DiffEncodedColumn::Encode(p.target, p.reference, 7);
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff.value()->ReferenceIndices(),
            (std::vector<uint32_t>{7}));
}

TEST(DiffEncodingTest, BindRejectsWrongArity) {
  const Pair p = BoundedPair(100, 1, 5, 6);
  auto b = MakeBound(p);
  EXPECT_FALSE(b.diff->BindReferences({}).ok());
  const enc::EncodedColumn* two[] = {b.ref.get(), b.ref.get()};
  EXPECT_FALSE(b.diff->BindReferences(two).ok());
}

TEST(DiffEncodingTest, BindRejectsSizeMismatch) {
  const Pair p = BoundedPair(100, 1, 5, 7);
  auto diff = DiffEncodedColumn::Encode(p.target, p.reference, 0);
  ASSERT_TRUE(diff.ok());
  const std::vector<int64_t> short_ref(50, 0);
  auto wrong = enc::ForColumn::Encode(short_ref);
  ASSERT_TRUE(wrong.ok());
  const enc::EncodedColumn* refs[] = {wrong.value().get()};
  EXPECT_FALSE(diff.value()->BindReferences(refs).ok());
}

TEST(DiffEncodingTest, GatherWithReferenceMatchesGather) {
  const Pair p = BoundedPair(4000, -10, 200, 8);
  auto b = MakeBound(p);
  std::vector<uint32_t> rows;
  for (uint32_t i = 0; i < 4000; i += 7) {
    rows.push_back(i);
  }
  std::vector<int64_t> ref_values(rows.size());
  b.ref->GatherRange(rows, ref_values.data());
  std::vector<int64_t> via_ref(rows.size());
  b.diff->GatherWithReference(rows, ref_values.data(), via_ref.data());
  std::vector<int64_t> direct(rows.size());
  b.diff->GatherRange(rows, direct.data());
  EXPECT_EQ(via_ref, direct);
}

TEST(DiffEncodingTest, SerializeRoundTripPreservesEverything) {
  const Pair p = BoundedPair(3000, -5, 500, 9);
  auto b = MakeBound(p);
  auto reloaded = test::SerializeRoundTrip(*b.diff);
  ASSERT_NE(reloaded, nullptr);
  EXPECT_EQ(reloaded->scheme(), enc::Scheme::kDiff);
  const enc::EncodedColumn* refs[] = {b.ref.get()};
  ASSERT_TRUE(reloaded->BindReferences(refs).ok());
  test::ExpectColumnMatches(*reloaded, p.target);
  EXPECT_EQ(reloaded->SizeBytes(), b.diff->SizeBytes());
}

TEST(DiffEncodingTest, EstimateMatchesActualWithoutOutliers) {
  const Pair p = BoundedPair(2048, -91, 89, 10);
  auto b = MakeBound(p);
  EXPECT_EQ(DiffEncodedColumn::EstimateSizeBytes(p.target, p.reference),
            b.diff->SizeBytes());
}

// --- Outlier handling (Sec. 2.1 "Outlier Detection") ---------------------

Pair PairWithOutliers(size_t n, size_t outlier_every, uint64_t seed) {
  Pair p = BoundedPair(n, 1, 30, seed);
  for (size_t i = outlier_every / 2; i < n; i += outlier_every) {
    p.target[i] = p.reference[i] + 1000000 + static_cast<int64_t>(i);
  }
  return p;
}

TEST(DiffOutlierTest, OutliersShrinkTheWindow) {
  const Pair p = PairWithOutliers(20000, 1000, 11);
  DiffOptions with;
  with.use_outliers = true;
  with.max_outlier_fraction = 0.01;
  auto narrow = MakeBound(p, with);
  auto wide = MakeBound(p, DiffOptions{});  // No outliers: wide window.
  EXPECT_LT(narrow.diff->SizeBytes(), wide.diff->SizeBytes());
  EXPECT_GT(narrow.diff->outliers().size(), 0u);
  EXPECT_EQ(wide.diff->outliers().size(), 0u);
  // Both must still decode exactly.
  test::ExpectColumnMatches(*narrow.diff, p.target);
  test::ExpectColumnMatches(*wide.diff, p.target);
}

TEST(DiffOutlierTest, OutlierFractionRespected) {
  const Pair p = PairWithOutliers(10000, 500, 12);
  DiffOptions options;
  options.use_outliers = true;
  options.max_outlier_fraction = 0.01;
  auto b = MakeBound(p, options);
  EXPECT_LE(b.diff->outliers().size(), 100u);
}

TEST(DiffOutlierTest, OutlierRowsDecodeViaStore) {
  const Pair p = PairWithOutliers(5000, 250, 13);
  DiffOptions options;
  options.use_outliers = true;
  auto b = MakeBound(p, options);
  ASSERT_GT(b.diff->outliers().size(), 0u);
  // Spot-check a known outlier row.
  const uint32_t row = b.diff->outliers().row(0);
  EXPECT_EQ(b.diff->Get(row), p.target[row]);
}

TEST(DiffOutlierTest, SerializeRoundTripWithOutliers) {
  const Pair p = PairWithOutliers(5000, 100, 14);
  DiffOptions options;
  options.use_outliers = true;
  options.max_outlier_fraction = 0.05;
  auto b = MakeBound(p, options);
  ASSERT_GT(b.diff->outliers().size(), 0u);
  auto reloaded = test::SerializeRoundTrip(*b.diff);
  ASSERT_NE(reloaded, nullptr);
  const enc::EncodedColumn* refs[] = {b.ref.get()};
  ASSERT_TRUE(reloaded->BindReferences(refs).ok());
  test::ExpectColumnMatches(*reloaded, p.target);
}

TEST(DiffOutlierTest, GatherPatchesOutliers) {
  const Pair p = PairWithOutliers(5000, 100, 15);
  DiffOptions options;
  options.use_outliers = true;
  options.max_outlier_fraction = 0.05;
  auto b = MakeBound(p, options);
  // Select every row: gather must equal the original target everywhere,
  // including outlier rows.
  std::vector<uint32_t> rows(p.target.size());
  for (uint32_t i = 0; i < rows.size(); ++i) {
    rows[i] = i;
  }
  std::vector<int64_t> out(rows.size());
  b.diff->GatherRange(rows, out.data());
  EXPECT_EQ(out, p.target);
}

TEST(DiffEncodingTest, GatherConsistentAcrossReferenceTypes) {
  // The batch-level reference dispatch (ref_dispatch.h) must produce
  // identical results for every concrete reference encoding.
  Rng rng(77);
  const size_t n = 2000;
  std::vector<int64_t> reference(n);
  std::vector<int64_t> target(n);
  for (size_t i = 0; i < n; ++i) {
    reference[i] = rng.Uniform(0, 5000);
    target[i] = reference[i] + rng.Uniform(1, 30);
  }
  std::vector<uint32_t> rows;
  for (uint32_t i = 0; i < n; i += 3) {
    rows.push_back(i);
  }

  std::vector<std::unique_ptr<enc::EncodedColumn>> refs;
  refs.push_back(enc::PlainColumn::Encode(reference));
  refs.push_back(std::move(enc::ForColumn::Encode(reference)).value());
  refs.push_back(std::move(enc::BitPackColumn::Encode(reference)).value());
  refs.push_back(std::move(enc::DictColumn::Encode(reference)).value());
  refs.push_back(std::move(enc::DeltaColumn::Encode(reference)).value());

  std::vector<int64_t> expected;
  for (size_t r = 0; r < refs.size(); ++r) {
    auto diff = DiffEncodedColumn::Encode(target, reference, 0);
    ASSERT_TRUE(diff.ok());
    const enc::EncodedColumn* bound[] = {refs[r].get()};
    ASSERT_TRUE(diff.value()->BindReferences(bound).ok());
    std::vector<int64_t> out(rows.size());
    diff.value()->GatherRange(rows, out.data());
    if (r == 0) {
      expected = out;
      for (size_t i = 0; i < rows.size(); ++i) {
        ASSERT_EQ(out[i], target[rows[i]]);
      }
    } else {
      EXPECT_EQ(out, expected)
          << "reference scheme "
          << enc::SchemeToString(refs[r]->scheme());
    }
  }
}

TEST(DiffEncodingTest, ModeSelectionMatchesPaper) {
  // Non-negative diffs -> raw; any negative diff -> zig-zag; the window
  // mode only appears with the outlier extension.
  const std::vector<int64_t> reference = {100, 200, 300};
  const std::vector<int64_t> positive = {101, 230, 330};
  auto raw = DiffEncodedColumn::Encode(positive, reference, 0);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw.value()->mode(), DiffMode::kRaw);

  const std::vector<int64_t> mixed = {99, 230, 330};
  auto zigzag = DiffEncodedColumn::Encode(mixed, reference, 0);
  ASSERT_TRUE(zigzag.ok());
  EXPECT_EQ(zigzag.value()->mode(), DiffMode::kZigZag);

  // Paper Fig. 2 asymmetry: receipt|ship (diffs in [1,30]) packs at 5
  // bits; ship|receipt (diffs in [-30,-1]) needs 6 zig-zag bits.
  Rng rng(78);
  std::vector<int64_t> ship(1000);
  std::vector<int64_t> receipt(1000);
  for (size_t i = 0; i < ship.size(); ++i) {
    ship[i] = rng.Uniform(8035, 10591);
    receipt[i] = ship[i] + rng.Uniform(1, 30);
  }
  auto forward = DiffEncodedColumn::Encode(receipt, ship, 0);
  auto backward = DiffEncodedColumn::Encode(ship, receipt, 0);
  ASSERT_TRUE(forward.ok());
  ASSERT_TRUE(backward.ok());
  EXPECT_EQ(forward.value()->bit_width(), 5);
  EXPECT_EQ(backward.value()->bit_width(), 6);
}

TEST(DiffEncodingTest, ZigZagWidthComesFromTheWiderExtreme) {
  // Mixed-sign diffs are zig-zag coded; whichever extreme zig-zags wider
  // sets the width.
  const std::vector<int64_t> reference = {100, 200, 300};
  const std::vector<int64_t> negative_wider = {95, 200, 302};  // {-5,0,2}
  auto negative = DiffEncodedColumn::Encode(negative_wider, reference, 0);
  ASSERT_TRUE(negative.ok());
  EXPECT_EQ(negative.value()->mode(), DiffMode::kZigZag);
  EXPECT_EQ(negative.value()->bit_width(), 4);  // zigzag(-5) = 9

  const std::vector<int64_t> positive_wider = {99, 200, 305};  // {-1,0,5}
  auto positive = DiffEncodedColumn::Encode(positive_wider, reference, 0);
  ASSERT_TRUE(positive.ok());
  EXPECT_EQ(positive.value()->mode(), DiffMode::kZigZag);
  EXPECT_EQ(positive.value()->bit_width(), 4);  // zigzag(5) = 10
}

TEST(DiffEncodingTest, UnknownSchemeByteRejected) {
  const std::vector<int64_t> values = {1, 2, 3};
  auto diff = DiffEncodedColumn::Encode(values, values, 0);
  ASSERT_TRUE(diff.ok());
  BufferWriter writer;
  diff.value()->Serialize(&writer);
  auto bytes = std::move(writer).Finish();
  bytes[0] = 200;  // No scheme uses this id.
  BufferReader reader(bytes);
  auto result = DeserializeEncodedColumn(&reader);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption());
}

// Property sweep: diff encoding is exact for random pairs regardless of
// distribution shape.
class DiffPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DiffPropertyTest, ExactReconstruction) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Rng rng(seed);
  const size_t n = 500 + static_cast<size_t>(rng.Uniform(0, 2000));
  std::vector<int64_t> reference(n);
  std::vector<int64_t> target(n);
  for (size_t i = 0; i < n; ++i) {
    reference[i] = rng.Uniform(-1000000, 1000000);
    target[i] = reference[i] + rng.Uniform(-5000, 5000);
  }
  Pair p{std::move(reference), std::move(target)};
  DiffOptions options;
  options.use_outliers = (seed % 2 == 0);
  auto b = MakeBound(p, options);
  test::ExpectColumnMatches(*b.diff, p.target);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffPropertyTest,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace corra
