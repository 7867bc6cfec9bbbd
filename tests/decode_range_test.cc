// DecodeRange equivalence: for every scheme — vertical, horizontal, and
// C3 — the ranged kernel must reproduce the per-row Get() oracle over
// arbitrary (begin, count) windows, including the checkpoint-straddling
// ranges Delta and RLE seek through and morsel-boundary-straddling
// windows for the horizontal schemes' reference-morsel driver.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/buffer.h"
#include "common/random.h"
#include "core/c3/dfor.h"
#include "core/c3/numerical.h"
#include "core/c3/one_to_one.h"
#include "core/diff_encoding.h"
#include "core/hierarchical_encoding.h"
#include "core/multi_ref_encoding.h"
#include "encoding/bitpack.h"
#include "encoding/delta.h"
#include "encoding/dictionary.h"
#include "encoding/for.h"
#include "encoding/plain.h"
#include "encoding/rle.h"
#include "test_util.h"

namespace corra {
namespace {

// Checks DecodeRange against the Get oracle over deterministic edge
// windows (empty, full, single row, checkpoint/morsel straddles) plus
// `random_windows` random ones.
void ExpectDecodeRangeMatchesGet(const enc::EncodedColumn& column,
                                 uint64_t seed, size_t random_windows = 32) {
  const size_t n = column.size();
  ASSERT_GT(n, 0u);
  std::vector<std::pair<size_t, size_t>> windows = {
      {0, 0},      // Empty.
      {0, n},      // Full column.
      {0, 1},      // First row.
      {n - 1, 1},  // Last row.
      {n / 2, 0},  // Empty mid-column.
  };
  // Straddle every power-of-two-ish boundary the schemes care about:
  // Delta/RLE checkpoints (128), DFOR frames (1024), morsels (2048).
  for (size_t boundary : {size_t{128}, size_t{1024}, enc::kMorselRows}) {
    if (n > boundary + 2) {
      windows.emplace_back(boundary - 1, 3);             // Across.
      windows.emplace_back(boundary, 1);                 // At.
      windows.emplace_back(boundary / 2, boundary + 1);  // Over several.
    }
  }
  Rng rng(seed);
  for (size_t w = 0; w < random_windows; ++w) {
    const size_t begin =
        static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(n) - 1));
    const size_t count = static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(n - begin)));
    windows.emplace_back(begin, count);
  }

  for (const auto& [begin, count] : windows) {
    std::vector<int64_t> decoded(count + 1, INT64_MIN);
    column.DecodeRange(begin, count, decoded.data());
    for (size_t i = 0; i < count; ++i) {
      ASSERT_EQ(decoded[i], column.Get(begin + i))
          << "window [" << begin << ", +" << count << ") at row "
          << begin + i;
    }
    ASSERT_EQ(decoded[count], INT64_MIN)
        << "DecodeRange wrote past its window";
  }
}

// Checks GatherRange (and the Gather alias every query path uses)
// against the Get oracle over deterministic edge selections — empty,
// single row, full column, contiguous runs, boundary-straddling pairs,
// repeated positions — plus randomized sorted selections at several
// densities, so both sides of each scheme's internal sparse/dense split
// are exercised. `outlier_rows` (ascending) are the column's outlier-store
// rows, which the repeated-position selection lists twice each.
void ExpectGatherRangeMatchesGet(const enc::EncodedColumn& column,
                                 uint64_t seed,
                                 std::span<const uint32_t> outlier_rows) {
  const size_t n = column.size();
  ASSERT_GT(n, 0u);
  std::vector<std::vector<uint32_t>> selections;
  selections.push_back({});                                  // Empty.
  selections.push_back({0});                                 // First row.
  selections.push_back({static_cast<uint32_t>(n - 1)});      // Last row.
  selections.push_back({static_cast<uint32_t>(n / 2)});      // Middle.
  std::vector<uint32_t> full(n);
  for (size_t i = 0; i < n; ++i) {
    full[i] = static_cast<uint32_t>(i);
  }
  selections.push_back(full);                                // Full column.
  // Contiguous run in the middle (the query layer's dense case).
  selections.emplace_back(full.begin() + static_cast<long>(n / 3),
                          full.begin() + static_cast<long>(n / 2));
  // Positions hugging every boundary the schemes care about: Delta/RLE
  // checkpoints (32/128), DFOR frames (1024), morsels (2048).
  std::vector<uint32_t> boundaries;
  for (size_t b : {size_t{32}, size_t{64}, size_t{128}, size_t{1024},
                   enc::kMorselRows}) {
    if (b + 1 < n) {
      boundaries.push_back(static_cast<uint32_t>(b - 1));
      boundaries.push_back(static_cast<uint32_t>(b));
      boundaries.push_back(static_cast<uint32_t>(b + 1));
    }
  }
  selections.push_back(boundaries);
  // Repeated positions, which every gather caller allows: the first and
  // last row, every boundary row and every outlier row, each twice.
  std::vector<uint32_t> once = {0, static_cast<uint32_t>(n - 1)};
  once.insert(once.end(), boundaries.begin(), boundaries.end());
  once.insert(once.end(), outlier_rows.begin(), outlier_rows.end());
  std::vector<uint32_t> repeated = once;
  repeated.insert(repeated.end(), once.begin(), once.end());
  std::sort(repeated.begin(), repeated.end());
  selections.push_back(std::move(repeated));
  // Randomized sorted selections at sparse, medium, and dense rates (the
  // density thresholds sit between these).
  Rng rng(seed);
  for (const double rate : {0.005, 0.1, 0.7}) {
    std::vector<uint32_t> rows;
    for (size_t i = 0; i < n; ++i) {
      if (rng.NextDouble() < rate) {
        rows.push_back(static_cast<uint32_t>(i));
      }
    }
    selections.push_back(std::move(rows));
  }

  for (size_t s = 0; s < selections.size(); ++s) {
    const auto& rows = selections[s];
    SCOPED_TRACE("selection " + std::to_string(s) + " (" +
                 std::to_string(rows.size()) + " rows)");
    std::vector<int64_t> gathered(rows.size() + 1, INT64_MIN);
    column.GatherRange(rows, gathered.data());
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(gathered[i], column.Get(rows[i])) << "row " << rows[i];
    }
    ASSERT_EQ(gathered[rows.size()], INT64_MIN)
        << "GatherRange wrote past its output";
  }
}

// Both ranged-kernel equivalences in one call.
void ExpectRangedKernelsMatchGet(const enc::EncodedColumn& column,
                                 uint64_t seed,
                                 std::span<const uint32_t> outlier_rows = {}) {
  ExpectDecodeRangeMatchesGet(column, seed);
  ExpectGatherRangeMatchesGet(column, seed ^ 0x9E3779B97F4A7C15ull,
                              outlier_rows);
}

// The row indices of `store`, ascending.
std::vector<uint32_t> OutlierRows(const OutlierStore& store) {
  std::vector<uint32_t> rows(store.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i] = store.row(i);
  }
  return rows;
}

constexpr size_t kRows = 5000;  // > 2 morsels, > 4 DFOR frames.

TEST(DecodeRangeTest, VerticalSchemes) {
  for (const test::Dist dist :
       {test::Dist::kSmallRange, test::Dist::kLowCard, test::Dist::kSorted,
        test::Dist::kRunHeavy, test::Dist::kWideRange}) {
    SCOPED_TRACE(test::DistName(dist));
    const auto values = test::MakeValues(dist, kRows, 17);

    ExpectRangedKernelsMatchGet(*enc::PlainColumn::Encode(values), 1);
    ExpectRangedKernelsMatchGet(*enc::ForColumn::Encode(values).value(), 2);
    ExpectRangedKernelsMatchGet(*enc::DictColumn::Encode(values).value(), 3);
    ExpectRangedKernelsMatchGet(*enc::DeltaColumn::Encode(values).value(),
                                4);
    ExpectRangedKernelsMatchGet(*enc::RleColumn::Encode(values).value(), 5);
    if (const auto bitpack = enc::BitPackColumn::Encode(values);
        bitpack.ok()) {
      ExpectRangedKernelsMatchGet(*bitpack.value(), 6);
    }
  }
}

TEST(DecodeRangeTest, WideValuesExerciseStraddlingLoads) {
  // Extreme magnitudes force bit widths > 57, the PackedArray::Get splice.
  const auto values = test::MakeValues(test::Dist::kExtremes, kRows, 23);
  ExpectRangedKernelsMatchGet(*enc::ForColumn::Encode(values).value(), 7);
  ExpectRangedKernelsMatchGet(*enc::DeltaColumn::Encode(values).value(), 8);
}

TEST(DecodeRangeTest, DeltaRleSortedGatherMatchesGet) {
  // The checkpoint-seek-then-run Gather overrides (sorted positions).
  const auto values = test::MakeValues(test::Dist::kRunHeavy, kRows, 29);
  const auto delta = enc::DeltaColumn::Encode(values).value();
  const auto rle = enc::RleColumn::Encode(values).value();
  Rng rng(31);
  for (const double selectivity : {0.001, 0.05, 0.5, 1.0}) {
    std::vector<uint32_t> rows;
    for (size_t i = 0; i < kRows; ++i) {
      if (rng.NextDouble() < selectivity) {
        rows.push_back(static_cast<uint32_t>(i));
      }
    }
    std::vector<int64_t> out(rows.size());
    delta->GatherRange(rows, out.data());
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(out[i], values[rows[i]]) << "delta row " << rows[i];
    }
    rle->GatherRange(rows, out.data());
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(out[i], values[rows[i]]) << "rle row " << rows[i];
    }
  }
}

TEST(DecodeRangeTest, DeltaRleGatherReseeksOnBackwardPositions) {
  // The Gather contract says sorted, but the seek logic must not return
  // stale state for a caller that violates it.
  const auto values = test::MakeValues(test::Dist::kRunHeavy, kRows, 53);
  const auto delta = enc::DeltaColumn::Encode(values).value();
  const auto rle = enc::RleColumn::Encode(values).value();
  const std::vector<uint32_t> rows = {4000, 10, 4000, 3999, 0, 130, 129};
  std::vector<int64_t> out(rows.size());
  delta->GatherRange(rows, out.data());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(out[i], values[rows[i]]) << "delta row " << rows[i];
  }
  rle->GatherRange(rows, out.data());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(out[i], values[rows[i]]) << "rle row " << rows[i];
  }
}

TEST(DecodeRangeTest, DeltaCheckpointIntervalSweep) {
  // The configurable checkpoint index: every ranged kernel must agree
  // with Get at every interval, and the wire format must round-trip
  // (extended layout for non-legacy intervals, legacy layout for 128).
  const auto values = test::MakeValues(test::Dist::kSorted, kRows, 61);
  for (const size_t interval :
       {size_t{32}, size_t{64}, size_t{128}, size_t{256}, size_t{2048}}) {
    SCOPED_TRACE("interval=" + std::to_string(interval));
    auto column = enc::DeltaColumn::Encode(values, interval).value();
    EXPECT_EQ(column->checkpoint_interval(), interval);
    ExpectRangedKernelsMatchGet(*column, 600 + interval);

    BufferWriter writer;
    column->Serialize(&writer);
    const auto bytes = std::move(writer).Finish();
    // Legacy columns (interval 128) must keep the legacy layout — the
    // first u64 after the scheme byte is the checkpoint-array length,
    // never the extended-format marker.
    uint64_t first = 0;
    std::memcpy(&first, bytes.data() + 1, sizeof(first));
    if (interval == 128) {
      EXPECT_EQ(first, (kRows - 1) / interval + 1);
    } else {
      EXPECT_EQ(first, ~uint64_t{0});
    }
    BufferReader reader(bytes);
    uint8_t scheme_byte = 0;
    ASSERT_TRUE(reader.Read(&scheme_byte).ok());
    auto restored = enc::DeltaColumn::Deserialize(&reader).value();
    EXPECT_EQ(restored->checkpoint_interval(), interval);
    for (size_t row : {size_t{0}, size_t{31}, size_t{32}, interval - 1,
                       interval, kRows - 1}) {
      EXPECT_EQ(restored->Get(row), values[row]) << "row " << row;
    }
  }
  // Invalid intervals are rejected up front (16 is valid; 8, 4096 and
  // non-powers-of-two are not).
  EXPECT_FALSE(enc::DeltaColumn::Encode(values, 48).ok());
  EXPECT_FALSE(enc::DeltaColumn::Encode(values, 8).ok());
  EXPECT_FALSE(enc::DeltaColumn::Encode(values, 4096).ok());
  EXPECT_TRUE(enc::DeltaColumn::Encode(values, 16).ok());
}

TEST(DecodeRangeTest, DeltaInlineWireFormMatchesPackedEverywhere) {
  // A column read from the inline-checkpoint wire form must be
  // observationally identical to the packed encoder's: Get, DecodeRange,
  // and GatherRange (all three densities of the internal sparse/dense
  // split) agree row for row, across distributions and intervals.
  for (const test::Dist dist :
       {test::Dist::kSmallRange, test::Dist::kSorted, test::Dist::kRunHeavy,
        test::Dist::kExtremes}) {
    SCOPED_TRACE(test::DistName(dist));
    const auto values = test::MakeValues(dist, kRows, 71);
    for (const size_t interval :
         {size_t{16}, size_t{32}, size_t{256}, size_t{2048}}) {
      SCOPED_TRACE("interval=" + std::to_string(interval));
      const auto packed = enc::DeltaColumn::Encode(values, interval).value();
      const auto converted =
          test::ReadColumn(test::SerializeDeltaInline(values, interval));
      ASSERT_NE(converted, nullptr);
      ExpectRangedKernelsMatchGet(*converted, 700 + interval);

      Rng rng(703 + interval);
      for (int probe = 0; probe < 100; ++probe) {
        const size_t row = static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(kRows) - 1));
        ASSERT_EQ(converted->Get(row), packed->Get(row)) << "row " << row;
        ASSERT_EQ(converted->Get(row), values[row]) << "row " << row;
      }
      for (const double rate : {0.005, 0.1, 0.7}) {
        std::vector<uint32_t> rows;
        for (size_t i = 0; i < kRows; ++i) {
          if (rng.NextDouble() < rate) {
            rows.push_back(static_cast<uint32_t>(i));
          }
        }
        std::vector<int64_t> from_converted(rows.size());
        std::vector<int64_t> from_packed(rows.size());
        converted->GatherRange(rows, from_converted.data());
        packed->GatherRange(rows, from_packed.data());
        ASSERT_EQ(from_converted, from_packed) << "rate " << rate;
      }
    }
  }
}

TEST(DecodeRangeTest, DeltaWireFormsSniffAndWritePackedBytes) {
  // The three wire forms are told apart by their first u64 (legacy
  // checkpoint count, interval marker, inline marker), and a column read
  // from any of them writes the packed encoder's bytes again.
  const auto values = test::MakeValues(test::Dist::kSorted, kRows, 79);
  const auto first_u64 = [](const std::vector<uint8_t>& bytes) {
    uint64_t first = 0;
    std::memcpy(&first, bytes.data() + 1, sizeof(first));
    return first;
  };
  for (const size_t interval : {size_t{16}, size_t{128}, size_t{1024}}) {
    SCOPED_TRACE("interval=" + std::to_string(interval));
    const auto packed_bytes = test::SerializedBytes(
        *enc::DeltaColumn::Encode(values, interval).value());
    const auto inline_bytes = test::SerializeDeltaInline(values, interval);
    EXPECT_EQ(first_u64(packed_bytes),
              interval == 128 ? (kRows - 1) / interval + 1 : ~uint64_t{0});
    EXPECT_EQ(first_u64(inline_bytes), ~uint64_t{0} - 1);

    for (const auto* bytes : {&packed_bytes, &inline_bytes}) {
      const auto restored = test::ReadColumn(*bytes);
      ASSERT_NE(restored, nullptr);
      const auto& delta = static_cast<const enc::DeltaColumn&>(*restored);
      EXPECT_EQ(delta.checkpoint_interval(), interval);
      EXPECT_EQ(delta.size(), values.size());
      for (size_t row = 0; row < values.size(); ++row) {
        ASSERT_EQ(delta.Get(row), values[row]) << "row " << row;
      }
      EXPECT_EQ(test::SerializedBytes(delta), packed_bytes);
    }
  }
}

// Reference + correlated target, bound through a FOR reference column.
struct BoundPair {
  std::unique_ptr<enc::ForColumn> reference;
  std::unique_ptr<enc::EncodedColumn> target;
};

template <typename Encoder>
BoundPair MakeBoundPair(const std::vector<int64_t>& ref_values,
                        const std::vector<int64_t>& target_values,
                        Encoder&& encode) {
  BoundPair pair;
  pair.reference = enc::ForColumn::Encode(ref_values).value();
  pair.target = encode(target_values, ref_values);
  const enc::EncodedColumn* refs[] = {pair.reference.get()};
  EXPECT_TRUE(pair.target->BindReferences(refs).ok());
  return pair;
}

TEST(DecodeRangeTest, DiffAllModes) {
  Rng rng(37);
  std::vector<int64_t> reference(kRows);
  std::vector<int64_t> positive(kRows);
  std::vector<int64_t> negative(kRows);
  std::vector<int64_t> spiky(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    reference[i] = rng.Uniform(8035, 10591);
    positive[i] = reference[i] + rng.Uniform(1, 30);
    negative[i] = reference[i] - rng.Uniform(1, 30);
    // Mostly tight diffs with rare wide spikes -> window mode + outliers.
    spiky[i] = reference[i] + rng.Uniform(1000, 1030) +
               (rng.NextDouble() < 0.003 ? rng.Uniform(100000, 200000) : 0);
  }

  auto raw = MakeBoundPair(reference, positive, [](auto t, auto r) {
    return DiffEncodedColumn::Encode(t, r, 0).value();
  });
  EXPECT_EQ(static_cast<const DiffEncodedColumn&>(*raw.target).mode(),
            DiffMode::kRaw);
  ExpectRangedKernelsMatchGet(*raw.target, 11);

  auto zigzag = MakeBoundPair(reference, negative, [](auto t, auto r) {
    return DiffEncodedColumn::Encode(t, r, 0).value();
  });
  EXPECT_EQ(static_cast<const DiffEncodedColumn&>(*zigzag.target).mode(),
            DiffMode::kZigZag);
  ExpectRangedKernelsMatchGet(*zigzag.target, 12);

  DiffOptions options;
  options.use_outliers = true;
  auto window = MakeBoundPair(reference, spiky, [&](auto t, auto r) {
    return DiffEncodedColumn::Encode(t, r, 0, options).value();
  });
  const auto& window_diff =
      static_cast<const DiffEncodedColumn&>(*window.target);
  EXPECT_EQ(window_diff.mode(), DiffMode::kWindow);
  EXPECT_GT(window_diff.outliers().size(), 0u);
  ExpectRangedKernelsMatchGet(*window.target, 13,
                              OutlierRows(window_diff.outliers()));
}

TEST(DecodeRangeTest, HierarchicalAndC3Schemes) {
  Rng rng(41);
  std::vector<int64_t> city(kRows);
  std::vector<int64_t> zip(kRows);
  std::vector<int64_t> reference(kRows);
  std::vector<int64_t> affine(kRows);
  std::vector<int64_t> mapped(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    city[i] = rng.Uniform(0, 99);
    zip[i] = 10000 + city[i] * 30 + rng.Uniform(0, 29);
    reference[i] = rng.Uniform(8035, 10591);
    affine[i] = 3 * reference[i] + rng.Uniform(-20, 20);
    mapped[i] = city[i] * 7 + 1;
    if (rng.NextDouble() < 0.01) {
      mapped[i] += rng.Uniform(1, 5);  // 1-to-1 outliers.
    }
  }

  auto hier = MakeBoundPair(city, zip, [](auto t, auto r) {
    return HierarchicalColumn::Encode(t, r, 0).value();
  });
  ExpectRangedKernelsMatchGet(*hier.target, 14);

  auto dfor = MakeBoundPair(reference, affine, [](auto t, auto r) {
    return c3::DforColumn::Encode(t, r, 0).value();
  });
  ExpectRangedKernelsMatchGet(*dfor.target, 15);

  auto numerical = MakeBoundPair(reference, affine, [](auto t, auto r) {
    return c3::NumericalColumn::Encode(t, r, 0).value();
  });
  ExpectRangedKernelsMatchGet(*numerical.target, 16);

  auto one_to_one = MakeBoundPair(city, mapped, [](auto t, auto r) {
    return c3::OneToOneColumn::Encode(t, r, 0).value();
  });
  const OutlierStore& one_to_one_outliers =
      static_cast<const c3::OneToOneColumn&>(*one_to_one.target).outliers();
  EXPECT_GT(one_to_one_outliers.size(), 0u);
  ExpectRangedKernelsMatchGet(*one_to_one.target, 17,
                              OutlierRows(one_to_one_outliers));
}

// A MultiRef column and the reference columns it is bound to, which are
// declared first so they outlive it.
struct BoundMultiRef {
  std::vector<std::unique_ptr<enc::EncodedColumn>> references;
  std::unique_ptr<MultiRefColumn> column;
};

// Encodes `target` under `table` over `columns` and binds the references:
// Dict for the columns listed in `dict_columns`, FOR for the rest.
BoundMultiRef MakeMultiRef(const std::vector<std::vector<int64_t>>& columns,
                           const std::vector<int64_t>& target,
                           const FormulaTable& table,
                           const std::vector<size_t>& dict_columns = {}) {
  BoundMultiRef bound;
  bound.column = MultiRefColumn::Encode(
                     target,
                     [&](uint32_t col) -> std::span<const int64_t> {
                       return columns[col];
                     },
                     table)
                     .value();
  std::vector<const enc::EncodedColumn*> refs;
  for (size_t c = 0; c < columns.size(); ++c) {
    if (std::find(dict_columns.begin(), dict_columns.end(), c) !=
        dict_columns.end()) {
      bound.references.push_back(enc::DictColumn::Encode(columns[c]).value());
    } else {
      bound.references.push_back(enc::ForColumn::Encode(columns[c]).value());
    }
    refs.push_back(bound.references.back().get());
  }
  EXPECT_TRUE(bound.column->BindReferences(refs).ok());
  return bound;
}

// Three one-column groups and 2-bit codes.
BoundMultiRef MakeThreeGroupMultiRef() {
  Rng rng(43);
  std::vector<std::vector<int64_t>> columns(3, std::vector<int64_t>(kRows));
  std::vector<int64_t> target(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    columns[0][i] = rng.Uniform(100, 5000);
    columns[1][i] = 250;
    columns[2][i] = 175;
    const double u = rng.NextDouble();
    if (u < 0.01) {
      target[i] = columns[0][i] + 100000;  // Outlier.
    } else if (u < 0.5) {
      target[i] = columns[0][i];
    } else if (u < 0.8) {
      target[i] = columns[0][i] + columns[1][i];
    } else {
      target[i] = columns[0][i] + columns[1][i] + columns[2][i];
    }
  }
  FormulaTable table;
  table.groups = {{0}, {1}, {2}};
  table.formulas = {0b001, 0b011, 0b111};
  table.code_bits = 2;
  return MakeMultiRef(columns, target, table);
}

// Taxi's shape, widened: a six-column group A of FOR and Dict members
// (taxi's total_amount group), four one-column groups, 3-bit codes, two
// formulas that omit group 0, and 1% outliers.
BoundMultiRef MakeTaxiShapedMultiRef() {
  Rng rng(47);
  std::vector<std::vector<int64_t>> columns(10, std::vector<int64_t>(kRows));
  FormulaTable table;
  table.groups = {{0, 1, 2, 3, 4, 5}, {6}, {7}, {8}, {9}};
  table.formulas = {0b00001, 0b00011, 0b00101, 0b00111,
                    0b00010, 0b11001, 0b11110, 0b01001};
  table.code_bits = 3;
  std::vector<int64_t> target(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    columns[0][i] = rng.Uniform(250, 9000);         // fare_amount
    columns[1][i] = 50;                             // mta_tax
    columns[2][i] = rng.Uniform(0, 1) * 30;         // improvement_surcharge
    columns[3][i] = rng.Uniform(0, 2) * 50;         // extra
    columns[4][i] = rng.Uniform(0, 2500);           // tip_amount
    columns[5][i] = rng.Bernoulli(0.05) ? 655 : 0;  // tolls_amount
    columns[6][i] = rng.Bernoulli(0.7) ? 250 : 0;   // congestion_surcharge
    columns[7][i] = rng.Bernoulli(0.1) ? 175 : 0;   // airport_fee
    columns[8][i] = rng.Uniform(1, 400);
    columns[9][i] = rng.Uniform(-300, 300);
    const uint8_t mask = table.formulas[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(table.formulas.size()) - 1))];
    int64_t sum = 0;
    for (size_t g = 0; g < table.groups.size(); ++g) {
      if (mask & (1u << g)) {
        for (uint32_t col : table.groups[g]) {
          sum += columns[col][i];
        }
      }
    }
    target[i] = rng.Bernoulli(0.01) ? sum + 1000000 : sum;
  }
  return MakeMultiRef(columns, target, table, {1, 2, 3, 5, 6, 7});
}

// Gathers `size` sorted distinct rows and decodes a `size`-row window,
// both checked against Get.
void ExpectSizedKernelsMatchGet(const enc::EncodedColumn& column,
                                size_t size, Rng* rng) {
  SCOPED_TRACE("size " + std::to_string(size));
  const size_t n = column.size();
  std::vector<uint32_t> all(n);
  for (size_t i = 0; i < n; ++i) {
    all[i] = static_cast<uint32_t>(i);
  }
  for (size_t j = 0; j < size; ++j) {  // Partial Fisher-Yates shuffle.
    std::swap(all[j], all[static_cast<size_t>(rng->Uniform(
                          static_cast<int64_t>(j),
                          static_cast<int64_t>(n) - 1))]);
  }
  std::vector<uint32_t> rows(all.begin(),
                             all.begin() + static_cast<std::ptrdiff_t>(size));
  std::sort(rows.begin(), rows.end());
  std::vector<int64_t> gathered(size + 1, INT64_MIN);
  column.GatherRange(rows, gathered.data());
  for (size_t i = 0; i < size; ++i) {
    ASSERT_EQ(gathered[i], column.Get(rows[i])) << "row " << rows[i];
  }
  ASSERT_EQ(gathered[size], INT64_MIN) << "GatherRange wrote past its output";

  const size_t begin =
      static_cast<size_t>(rng->Uniform(0, static_cast<int64_t>(n - size)));
  std::vector<int64_t> decoded(size + 1, INT64_MIN);
  column.DecodeRange(begin, size, decoded.data());
  for (size_t i = 0; i < size; ++i) {
    ASSERT_EQ(decoded[i], column.Get(begin + i)) << "row " << begin + i;
  }
  ASSERT_EQ(decoded[size], INT64_MIN) << "DecodeRange wrote past its window";
}

TEST(DecodeRangeTest, MultiRef) {
  {
    SCOPED_TRACE("three one-column groups");
    const BoundMultiRef bound = MakeThreeGroupMultiRef();
    ASSERT_GT(bound.column->outliers().size(), 0u);
    ExpectRangedKernelsMatchGet(*bound.column, 18,
                                OutlierRows(bound.column->outliers()));
  }
  SCOPED_TRACE("taxi-shaped");
  const BoundMultiRef bound = MakeTaxiShapedMultiRef();
  ASSERT_GT(bound.column->outliers().size(), 0u);
  ExpectRangedKernelsMatchGet(*bound.column, 19,
                              OutlierRows(bound.column->outliers()));
  // One row, point_hot's 128, exactly one 2,048-row morsel, and just
  // past one and two morsels.
  Rng rng(53);
  for (const size_t size : {size_t{1}, size_t{128}, size_t{2048},
                            size_t{2049}, size_t{4097}}) {
    ExpectSizedKernelsMatchGet(*bound.column, size, &rng);
  }
}

}  // namespace
}  // namespace corra
