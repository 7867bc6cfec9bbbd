// Delta and RLE: the checkpointed schemes the paper's baseline excludes.

#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "common/bit_util.h"
#include "encoding/delta.h"
#include "encoding/rle.h"
#include "test_util.h"

namespace corra::enc {
namespace {

using test::Dist;
using test::ExpectColumnMatches;
using test::MakeValues;
using test::ReadColumn;
using test::SerializeDeltaInline;
using test::SerializedBytes;
using test::SerializeRoundTrip;

class CheckpointedSchemeTest
    : public ::testing::TestWithParam<std::tuple<Dist, size_t>> {
 protected:
  std::vector<int64_t> Values() const {
    const auto [dist, n] = GetParam();
    return MakeValues(dist, n, 0xBEEF);
  }
};

TEST_P(CheckpointedSchemeTest, DeltaRoundTrip) {
  const auto values = Values();
  auto result = DeltaColumn::Encode(values);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value()->scheme(), Scheme::kDelta);
  ExpectColumnMatches(*result.value(), values);
  auto reloaded = SerializeRoundTrip(*result.value());
  ASSERT_NE(reloaded, nullptr);
  ExpectColumnMatches(*reloaded, values);
}

TEST_P(CheckpointedSchemeTest, DeltaInlineWireFormReadsAsPacked) {
  const auto values = Values();
  for (const size_t interval :
       {size_t{16}, DeltaColumn::kDefaultCheckpointInterval}) {
    SCOPED_TRACE("interval " + std::to_string(interval));
    auto column = ReadColumn(SerializeDeltaInline(values, interval));
    ASSERT_NE(column, nullptr);
    ExpectColumnMatches(*column, values);
    EXPECT_EQ(SerializedBytes(*column),
              SerializedBytes(*DeltaColumn::Encode(values, interval).value()));
  }
}

TEST_P(CheckpointedSchemeTest, RleRoundTrip) {
  const auto values = Values();
  auto result = RleColumn::Encode(values);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value()->scheme(), Scheme::kRle);
  ExpectColumnMatches(*result.value(), values);
  auto reloaded = SerializeRoundTrip(*result.value());
  ASSERT_NE(reloaded, nullptr);
  ExpectColumnMatches(*reloaded, values);
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, CheckpointedSchemeTest,
    ::testing::Combine(
        ::testing::Values(Dist::kConstant, Dist::kSmallRange,
                          Dist::kNegative, Dist::kLowCard, Dist::kSorted,
                          Dist::kRunHeavy, Dist::kExtremes),
        ::testing::Values(size_t{1}, size_t{127}, size_t{128}, size_t{129},
                          size_t{5000})),
    [](const auto& param_info) {
      return test::DistName(std::get<0>(param_info.param)) + "_n" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST(DeltaTest, SortedDataUsesNarrowDeltas) {
  const auto values = MakeValues(Dist::kSorted, 10000, 3);
  auto result = DeltaColumn::Encode(values);
  ASSERT_TRUE(result.ok());
  // Steps are in [0, 5]; zig-zag needs at most 4 bits.
  EXPECT_LE(result.value()->bit_width(), 4);
  // Much smaller than the 8 bytes/value of Plain.
  EXPECT_LT(result.value()->SizeBytes(), values.size() * 2);
}

TEST(DeltaTest, GetCrossesCheckpointBoundaries) {
  const auto values = MakeValues(Dist::kSorted, 1000, 7);
  auto result = DeltaColumn::Encode(values);
  ASSERT_TRUE(result.ok());
  const auto& col = *result.value();
  for (size_t row : {size_t{0}, size_t{127}, size_t{128}, size_t{129},
                     size_t{255}, size_t{256}, size_t{999}}) {
    EXPECT_EQ(col.Get(row), values[row]) << row;
  }
}

TEST(DeltaTest, CheckpointShiftDerivedFromIntervalOnEveryPath) {
  // Regression: interval_shift_ used to carry a default-initialized
  // log2(32) next to the interval field; a construction path that set
  // one without the other would map rows to the wrong checkpoint for
  // any non-32 interval — off by entire checkpoint windows, and only
  // for rows past the first interval. Exercise every construction path
  // (Encode at non-default intervals, the inline wire form, and the
  // legacy 128-interval wire sniff) and check Get exactly at, just
  // before, and just after several checkpoint boundaries, where a stale
  // shift is guaranteed to pick the wrong anchor.
  const auto values = MakeValues(Dist::kSorted, 5000, 13);
  const auto check_boundaries = [&](const EncodedColumn& column,
                                    size_t interval) {
    for (size_t k = 1; k * interval < values.size(); ++k) {
      for (size_t row : {k * interval - 1, k * interval, k * interval + 1}) {
        if (row < values.size()) {
          ASSERT_EQ(column.Get(row), values[row])
              << "interval " << interval << " row " << row;
        }
      }
    }
  };
  for (const size_t interval :
       {size_t{16}, size_t{32}, size_t{64}, size_t{256}, size_t{2048}}) {
    auto column = DeltaColumn::Encode(values, interval).value();
    check_boundaries(*column, interval);
    const std::unique_ptr<EncodedColumn> reloaded_columns[] = {
        SerializeRoundTrip(*column),
        ReadColumn(SerializeDeltaInline(values, interval))};
    for (const auto& reloaded : reloaded_columns) {
      ASSERT_NE(reloaded, nullptr);
      EXPECT_EQ(static_cast<const DeltaColumn&>(*reloaded)
                    .checkpoint_interval(),
                interval);
      check_boundaries(*reloaded, interval);
    }
  }
  // The legacy wire layout (no marker, implied interval 128): Serialize
  // of a 128-interval packed column writes it, and the sniffing reader
  // must rebuild the 128 mapping rather than any default.
  auto legacy = DeltaColumn::Encode(values, 128).value();
  auto reloaded = SerializeRoundTrip(*legacy);
  ASSERT_NE(reloaded, nullptr);
  EXPECT_EQ(static_cast<const DeltaColumn&>(*reloaded).checkpoint_interval(),
            128u);
  check_boundaries(*reloaded, 128);
}

TEST(DeltaTest, InlineWriterMatchesRecordedEncoderBytes) {
  // SerializeDeltaInline must write exactly what the deleted inline
  // encoder wrote: these digests are FNV-1a 64 of that encoder's
  // serialized bytes at interval 16 (widths 0, 4, 64 and 32; every
  // fixture ends in a partial window).
  struct Fixture {
    Dist dist;
    size_t rows;
    uint64_t digest;
  };
  for (const Fixture& f : {Fixture{Dist::kConstant, 100, 0x6597ee7030c2e91e},
                           Fixture{Dist::kSorted, 1000, 0x086cc9f46c378354},
                           Fixture{Dist::kExtremes, 333, 0x1e770a97732c0595},
                           Fixture{Dist::kWideRange, 517,
                                   0x40c1f98ae9bea951}}) {
    SCOPED_TRACE(test::DistName(f.dist));
    const auto values = MakeValues(f.dist, f.rows, 0x1D);
    const auto bytes = SerializeDeltaInline(values, 16);
    EXPECT_EQ(test::Fnv1a64(bytes), f.digest);
    auto column = ReadColumn(bytes);
    ASSERT_NE(column, nullptr);
    ExpectColumnMatches(*column, values);
    EXPECT_EQ(SerializedBytes(*column),
              SerializedBytes(*DeltaColumn::Encode(values, 16).value()));
  }
}

TEST(DeltaTest, InlineWireFormConvertsToPackedBytesAtEveryWidthAndInterval) {
  // Every delta width 0..64 (the first delta is the widest) at every
  // interval, with row counts that leave the last window empty, full,
  // or partial: the converted column re-serializes to exactly the bytes
  // the packed encoder writes for the same values and interval.
  for (int width = 0; width <= 64; ++width) {
    const uint64_t mask = width == 0    ? 0
                          : width == 64 ? ~uint64_t{0}
                                        : (uint64_t{1} << width) - 1;
    for (size_t interval = DeltaColumn::kMinCheckpointInterval;
         interval <= DeltaColumn::kMaxCheckpointInterval; interval *= 2) {
      for (const size_t rows : {size_t{0}, size_t{1}, size_t{2}, interval,
                                interval + 1, 2 * interval + 7}) {
        SCOPED_TRACE("width " + std::to_string(width) + " interval " +
                     std::to_string(interval) + " rows " +
                     std::to_string(rows));
        std::mt19937_64 rng(static_cast<uint64_t>(width) * 100003 +
                            interval * 7 + rows);
        std::vector<int64_t> values(rows);
        uint64_t acc = rng();
        for (size_t i = 0; i < rows; ++i) {
          if (i > 0) {
            acc += static_cast<uint64_t>(
                bit_util::ZigZagDecode(i == 1 ? mask : rng() & mask));
          }
          values[i] = static_cast<int64_t>(acc);
        }
        auto packed = DeltaColumn::Encode(values, interval).value();
        ASSERT_EQ(packed->bit_width(), rows > 1 ? width : 0);
        auto column = ReadColumn(SerializeDeltaInline(values, interval));
        ASSERT_NE(column, nullptr);
        ASSERT_EQ(SerializedBytes(*column), SerializedBytes(*packed));
        if (rows > 0) {
          ASSERT_EQ(column->Get(rows - 1), values[rows - 1]);
        }
      }
    }
  }
}

TEST(DeltaTest, InlineWireFormTruncatedOrOverflowingCountRejected) {
  const auto values = MakeValues(Dist::kSorted, 5000, 79);
  const auto bytes = SerializeDeltaInline(values, 32);
  const size_t count_offset = 1 + 8 + 8 + 1;  // scheme, marker, interval, w.
  const size_t len_offset = count_offset + 8;
  uint64_t rows64 = 0;
  std::memcpy(&rows64, bytes.data() + count_offset, sizeof(rows64));
  ASSERT_EQ(rows64, values.size());

  // Halve the window stream's byte-count prefix and drop the rest.
  auto truncated = bytes;
  uint64_t stream_len = 0;
  std::memcpy(&stream_len, truncated.data() + len_offset, sizeof(stream_len));
  const uint64_t half = stream_len / 2;
  std::memcpy(truncated.data() + len_offset, &half, sizeof(half));
  truncated.resize(len_offset + 8 + half);
  BufferReader truncated_reader(truncated);
  EXPECT_FALSE(DeserializeEncodedColumn(&truncated_reader).ok());

  // Regression: a row count near 2^64 used to make the windows-times-
  // stride size check wrap around and pass, building a column whose row
  // count vastly exceeded its buffer. The division-based check rejects
  // it.
  auto overflow = bytes;
  const uint64_t absurd_count = ~uint64_t{0} - 7;
  std::memcpy(overflow.data() + count_offset, &absurd_count,
              sizeof(absurd_count));
  BufferReader overflow_reader(overflow);
  EXPECT_FALSE(DeserializeEncodedColumn(&overflow_reader).ok());
}

TEST(DeltaTest, CheckpointCountMismatchRejected) {
  const auto values = MakeValues(Dist::kSorted, 500, 9);
  auto result = DeltaColumn::Encode(values);
  ASSERT_TRUE(result.ok());
  BufferWriter writer;
  result.value()->Serialize(&writer);
  auto bytes = std::move(writer).Finish();
  // Lower the checkpoint array length prefix (first 8 bytes after the
  // scheme byte) from 4 to 3 entries — structurally valid but wrong count.
  bytes[1] = 3;
  BufferReader reader(bytes);
  auto reloaded = DeserializeEncodedColumn(&reader);
  EXPECT_FALSE(reloaded.ok());
}

TEST(RleTest, RunHeavyDataCompressesWell) {
  const auto values = MakeValues(Dist::kRunHeavy, 100000, 5);
  auto result = RleColumn::Encode(values);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result.value()->run_count(), values.size() / 10);
  EXPECT_LT(result.value()->SizeBytes(), values.size());
}

TEST(RleTest, SingleRunColumn) {
  const std::vector<int64_t> values(10000, 42);
  auto result = RleColumn::Encode(values);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value()->run_count(), 1u);
  ExpectColumnMatches(*result.value(), values);
}

TEST(RleTest, AlternatingWorstCase) {
  std::vector<int64_t> values(2000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<int64_t>(i % 2);
  }
  auto result = RleColumn::Encode(values);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value()->run_count(), values.size());
  ExpectColumnMatches(*result.value(), values);
}

TEST(RleTest, GetAtRunBoundaries) {
  std::vector<int64_t> values;
  for (int run = 0; run < 50; ++run) {
    for (int i = 0; i < 60; ++i) {
      values.push_back(run);
    }
  }
  auto result = RleColumn::Encode(values);
  ASSERT_TRUE(result.ok());
  const auto& col = *result.value();
  for (size_t row : {size_t{0}, size_t{59}, size_t{60}, size_t{119},
                     size_t{120}, values.size() - 1}) {
    EXPECT_EQ(col.Get(row), values[row]) << row;
  }
}

TEST(RleTest, NonIncreasingRunEndsRejected) {
  const std::vector<int64_t> values = {1, 1, 2, 2};
  auto result = RleColumn::Encode(values);
  ASSERT_TRUE(result.ok());
  BufferWriter writer;
  result.value()->Serialize(&writer);
  auto bytes = std::move(writer).Finish();
  // run_values: len 8B + 2*8B; run_ends length prefix at 25, entries at 33.
  // Set both run ends to the same value.
  const size_t run_ends_data = 1 + 8 + 16 + 8;
  std::memcpy(bytes.data() + run_ends_data, "\x02\x00\x00\x00", 4);
  std::memcpy(bytes.data() + run_ends_data + 4, "\x02\x00\x00\x00", 4);
  BufferReader reader(bytes);
  auto reloaded = DeserializeEncodedColumn(&reader);
  EXPECT_FALSE(reloaded.ok());
}

TEST(RleTest, EstimateTracksRunCount) {
  const auto run_heavy = MakeValues(Dist::kRunHeavy, 10000, 1);
  const auto noisy = MakeValues(Dist::kWideRange, 10000, 1);
  EXPECT_LT(RleColumn::EstimateSizeBytes(run_heavy),
            RleColumn::EstimateSizeBytes(noisy));
}

}  // namespace
}  // namespace corra::enc
