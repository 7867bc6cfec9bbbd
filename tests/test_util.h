// Shared helpers for Corra's test suite: deterministic value generators
// covering the distribution shapes the encodings care about, plus
// round-trip assertion helpers.

#ifndef CORRA_TESTS_TEST_UTIL_H_
#define CORRA_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/bit_stream.h"
#include "common/bit_util.h"
#include "common/buffer.h"
#include "common/random.h"
#include "core/corra_compressor.h"
#include "encoding/encoded_column.h"
#include "query/aggregate.h"
#include "storage/file_io.h"
#include "storage/serde.h"
#include "storage/table.h"

namespace corra::test {

/// Named value-distribution shapes for parameterized sweeps.
enum class Dist {
  kConstant,      // All values equal.
  kSmallRange,    // Uniform in [100, 131].
  kWideRange,     // Uniform in [-1e9, 1e9].
  kNegative,      // Uniform in [-5000, -4000].
  kLowCard,       // 10 distinct scattered values.
  kSorted,        // Strictly increasing with small steps.
  kRunHeavy,      // Long runs of repeated values.
  kExtremes,      // Mix including INT64_MIN / INT64_MAX magnitudes.
};

inline std::string DistName(Dist d) {
  switch (d) {
    case Dist::kConstant:
      return "Constant";
    case Dist::kSmallRange:
      return "SmallRange";
    case Dist::kWideRange:
      return "WideRange";
    case Dist::kNegative:
      return "Negative";
    case Dist::kLowCard:
      return "LowCard";
    case Dist::kSorted:
      return "Sorted";
    case Dist::kRunHeavy:
      return "RunHeavy";
    case Dist::kExtremes:
      return "Extremes";
  }
  return "Unknown";
}

inline std::vector<int64_t> MakeValues(Dist dist, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> values(n);
  switch (dist) {
    case Dist::kConstant:
      for (auto& v : values) {
        v = 777;
      }
      break;
    case Dist::kSmallRange:
      for (auto& v : values) {
        v = rng.Uniform(100, 131);
      }
      break;
    case Dist::kWideRange:
      for (auto& v : values) {
        v = rng.Uniform(-1000000000, 1000000000);
      }
      break;
    case Dist::kNegative:
      for (auto& v : values) {
        v = rng.Uniform(-5000, -4000);
      }
      break;
    case Dist::kLowCard: {
      static constexpr int64_t kPool[] = {-900, -1, 0,    3,     17,
                                          256,  999, 4096, 70000, 1 << 20};
      for (auto& v : values) {
        v = kPool[rng.Uniform(0, 9)];
      }
      break;
    }
    case Dist::kSorted: {
      int64_t acc = -100;
      for (auto& v : values) {
        acc += rng.Uniform(0, 5);
        v = acc;
      }
      break;
    }
    case Dist::kRunHeavy: {
      int64_t current = 0;
      size_t remaining = 0;
      for (auto& v : values) {
        if (remaining == 0) {
          current = rng.Uniform(-10, 10);
          remaining = static_cast<size_t>(rng.Uniform(1, 50));
        }
        v = current;
        --remaining;
      }
      break;
    }
    case Dist::kExtremes: {
      for (size_t i = 0; i < n; ++i) {
        switch (i % 4) {
          case 0:
            values[i] = INT64_MAX - static_cast<int64_t>(rng.Uniform(0, 9));
            break;
          case 1:
            values[i] = INT64_MIN + static_cast<int64_t>(rng.Uniform(0, 9));
            break;
          default:
            values[i] = rng.Uniform(-3, 3);
        }
      }
      break;
    }
  }
  return values;
}

// Named inputs on both sides of Dict's narrow-domain rule (max - min <
// 2 * rows picks the value-indexed table, wider domains the hash): one
// row, no rows, and `rows` rows of a constant, a negative minimum,
// max - min at 2 * rows - 1 and one above, a sparse narrow domain,
// narrow domains at either int64 extreme and the whole int64 range.
inline std::vector<std::pair<std::string, std::vector<int64_t>>>
NarrowDomainRuleCases(size_t rows, uint64_t seed) {
  Rng rng(seed);
  // `rows` values in [lo, lo + max_offset], both ends present, drawn
  // uniformly, or from `distinct` evenly spaced values when it is > 1.
  const auto spread = [&](int64_t lo, uint64_t max_offset, size_t distinct) {
    std::vector<int64_t> values(rows);
    for (auto& v : values) {
      const uint64_t offset =
          distinct > 1
              ? static_cast<uint64_t>(rng.Uniform(
                    0, static_cast<int64_t>(distinct) - 1)) *
                    (max_offset / (distinct - 1))
              : static_cast<uint64_t>(
                    rng.Uniform(0, static_cast<int64_t>(max_offset)));
      v = static_cast<int64_t>(static_cast<uint64_t>(lo) + offset);
    }
    values.front() = lo;
    values.back() =
        static_cast<int64_t>(static_cast<uint64_t>(lo) + max_offset);
    return values;
  };
  return {{"constant", std::vector<int64_t>(rows, -7)},
          {"one row", {INT64_MIN}},
          {"empty", {}},
          {"negative min", spread(-5000, rows / 4, 0)},
          {"span at the bound", spread(12, 2 * rows - 1, 0)},
          {"span one above", spread(12, 2 * rows, 0)},
          {"sparse narrow", spread(-100, 2 * rows - 1, 7)},
          {"narrow at INT64_MAX", spread(INT64_MAX - 40, 40, 0)},
          {"narrow at INT64_MIN", spread(INT64_MIN, 40, 0)},
          {"int64 extremes", spread(INT64_MIN, UINT64_MAX, 3)}};
}

/// Asserts Get / DecodeAll / GatherRange all reproduce `expected`.
inline void ExpectColumnMatches(const enc::EncodedColumn& column,
                                const std::vector<int64_t>& expected) {
  ASSERT_EQ(column.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(column.Get(i), expected[i]) << "Get at row " << i;
  }
  std::vector<int64_t> decoded(expected.size());
  column.DecodeAll(decoded.data());
  ASSERT_EQ(decoded, expected) << "DecodeAll mismatch";
  // Gather on a strided subset.
  std::vector<uint32_t> rows;
  for (size_t i = 0; i < expected.size(); i += 3) {
    rows.push_back(static_cast<uint32_t>(i));
  }
  std::vector<int64_t> gathered(rows.size());
  column.GatherRange(rows, gathered.data());
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(gathered[i], expected[rows[i]]) << "Gather at " << rows[i];
  }
}

/// FNV-1a 64 of `bytes`: the digest the golden-bytes tests pin, and the
/// payload checksum of CORF v2 and v3 files.
inline uint64_t Fnv1a64(std::span<const uint8_t> bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// Writes `table` in a legacy CORF layout, the backward-compatibility
/// fixture for readers: `version` 2 has no per-block column stats section
/// (readers treat such files as stats-less), 3 has it. Both checksum each
/// payload with FNV-1a 64 as their writers did, so a v3 file is byte for
/// byte what WriteCompressedTable wrote before v4 moved to CRC32C.
inline void WriteCompressedTableLegacy(const CompressedTable& table,
                                       const std::string& path,
                                       uint8_t version) {
  ASSERT_TRUE(version == 2 || version == 3) << "version " << int{version};
  std::vector<std::vector<uint8_t>> payloads;
  std::vector<ColumnStats> stats;
  for (size_t b = 0; b < table.num_blocks(); ++b) {
    const Block& block = table.block(b);
    payloads.push_back(block.Serialize());
    for (size_t c = 0; version >= 3 && c < block.num_columns(); ++c) {
      ColumnStats column_stats{INT64_MAX, INT64_MIN};  // Empty block.
      if (const auto& range = block.range(c)) {
        column_stats = {range->min, range->max};
      } else if (const auto mm = query::MinMaxColumn(block.column(c))) {
        column_stats = {mm->min, mm->max};
      }
      stats.push_back(column_stats);
    }
  }
  auto build_header = [&](const std::vector<uint64_t>& offsets) {
    BufferWriter writer;
    writer.Write<uint32_t>(0x46524F43);  // "CORF"
    writer.Write<uint8_t>(version);
    writer.Write<uint32_t>(static_cast<uint32_t>(table.schema().num_fields()));
    for (const Field& field : table.schema().fields()) {
      writer.WriteString(field.name);
      writer.Write<uint8_t>(static_cast<uint8_t>(field.type));
    }
    writer.Write<uint32_t>(static_cast<uint32_t>(payloads.size()));
    for (size_t b = 0; b < payloads.size(); ++b) {
      writer.Write<uint64_t>(offsets[b]);
      writer.Write<uint64_t>(payloads[b].size());
      writer.Write<uint64_t>(table.block(b).rows());
      writer.Write<uint64_t>(Fnv1a64(payloads[b]));
    }
    for (const ColumnStats& column_stats : stats) {
      writer.Write<int64_t>(column_stats.min);
      writer.Write<int64_t>(column_stats.max);
    }
    return std::move(writer).Finish();
  };
  std::vector<uint64_t> offsets(payloads.size(), 0);
  uint64_t cursor = build_header(offsets).size();
  for (size_t b = 0; b < payloads.size(); ++b) {
    offsets[b] = cursor;
    cursor += payloads[b].size();
  }
  const std::vector<uint8_t> header = build_header(offsets);
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(std::fwrite(header.data(), 1, header.size(), file),
            header.size());
  for (const auto& payload : payloads) {
    ASSERT_EQ(std::fwrite(payload.data(), 1, payload.size(), file),
              payload.size());
  }
  ASSERT_EQ(std::fclose(file), 0);
}

/// Serializes `values` as a Delta column in the inline-checkpoint wire
/// form that older writers produced and DeltaColumn::Deserialize still
/// reads: the scheme byte, the inline marker (UINT64_MAX - 1), the
/// interval, the delta width and the row count, then one length-prefixed
/// window stream. Window k, 8 + RoundUp8(CeilDiv(interval * width, 8))
/// bytes long, holds the absolute value of row k * interval and then
/// `interval` zig-zag delta slots packed from bit 0, slot j holding the
/// delta of row k * interval + 1 + j; slots past the last row stay zero.
inline std::vector<uint8_t> SerializeDeltaInline(
    std::span<const int64_t> values, size_t interval) {
  const auto zigzag_delta = [&](size_t row) {
    return bit_util::ZigZagEncode(
        static_cast<int64_t>(static_cast<uint64_t>(values[row]) -
                             static_cast<uint64_t>(values[row - 1])));
  };
  uint64_t widest = 0;
  for (size_t row = 1; row < values.size(); ++row) {
    widest = std::max(widest, zigzag_delta(row));
  }
  const int width = bit_util::BitWidth(widest);
  const size_t stride =
      8 + bit_util::RoundUpPow2(
              bit_util::CeilDiv(interval * static_cast<size_t>(width), 8), 8);
  const size_t windows =
      values.empty() ? 0 : (values.size() - 1) / interval + 1;
  std::vector<uint8_t> stream(windows * stride, 0);
  for (size_t k = 0; k < windows; ++k) {
    const size_t first = k * interval;
    uint8_t* window = stream.data() + k * stride;
    std::memcpy(window, &values[first], sizeof(int64_t));
    std::vector<uint64_t> slots;
    for (size_t row = first + 1;
         row <= std::min(first + interval, values.size() - 1); ++row) {
      slots.push_back(zigzag_delta(row));
    }
    const PackedArray packed = PackedArray::Pack(slots, width);
    std::memcpy(window + 8, packed.data(), packed.SizeBytes());
  }
  BufferWriter writer;
  writer.Write<uint8_t>(static_cast<uint8_t>(enc::Scheme::kDelta));
  writer.Write<uint64_t>(~uint64_t{0} - 1);
  writer.Write<uint64_t>(interval);
  writer.Write<uint8_t>(static_cast<uint8_t>(width));
  writer.Write<uint64_t>(values.size());
  writer.WriteBytes(stream);
  return std::move(writer).Finish();
}

/// One column per scheme, in the order AllSchemesColumns and
/// AllSchemesPlan use.
inline constexpr std::array<enc::Scheme, 12> kAllSchemes = {
    enc::Scheme::kFor,      enc::Scheme::kDiff,
    enc::Scheme::kDict,     enc::Scheme::kHierarchical,
    enc::Scheme::kPlain,    enc::Scheme::kRle,
    enc::Scheme::kMultiRef, enc::Scheme::kDelta,
    enc::Scheme::kBitPack,  enc::Scheme::kC3OneToOne,
    enc::Scheme::kC3Dfor,   enc::Scheme::kC3Numerical};

/// `rows` rows of a table covering all 12 schemes, one column each in
/// kAllSchemes order, shaped so AllSchemesPlan's pinned scheme encodes
/// it. The Diff, MultiRef and C3 1-to-1 columns get about
/// `outlier_rate` outlier rows each: a diff far outside the window, a
/// sum that matches no formula, a value off its city's dominant mapping.
inline std::vector<std::vector<int64_t>> AllSchemesColumns(
    size_t rows, double outlier_rate, Rng& rng) {
  std::vector<std::vector<int64_t>> raw(kAllSchemes.size(),
                                        std::vector<int64_t>(rows));
  for (size_t i = 0; i < rows; ++i) {
    const int64_t ship = rng.Uniform(8035, 10591);
    const int64_t city = rng.Uniform(0, 49);
    const int64_t a = rng.Uniform(100, 999);
    raw[0][i] = ship;                                     // kFor
    raw[1][i] = ship + rng.Uniform(1, 30);                // kDiff (ref 0)
    raw[2][i] = city;                                     // kDict
    raw[3][i] = 10000 + city * 37 + rng.Uniform(0, 10);   // kHierarchical
    raw[4][i] = a;                                        // kPlain
    raw[5][i] = 250;                                      // kRle
    raw[6][i] = rng.Bernoulli(0.5) ? a : a + 250;         // kMultiRef
    raw[7][i] = static_cast<int64_t>(i) * 3 + rng.Uniform(0, 2);  // kDelta
    raw[8][i] = rng.Uniform(100, 25000);                  // kBitPack
    raw[9][i] = city * 1000 + 17;                         // kC3OneToOne
    raw[10][i] = ship + rng.Uniform(1, 30);               // kC3Dfor
    raw[11][i] = ship + rng.Uniform(1, 30);               // kC3Numerical
    if (rng.Bernoulli(outlier_rate)) {
      raw[1][i] += rng.Uniform(100000, 200000);
    }
    if (rng.Bernoulli(outlier_rate)) {
      raw[6][i] = a + rng.Uniform(1000, 5000);
    }
    if (rng.Bernoulli(outlier_rate)) {
      raw[9][i] += rng.Uniform(1, 500);
    }
  }
  return raw;
}

/// A table of `columns`, named c0, c1, ...
inline Table TableOf(const std::vector<std::vector<int64_t>>& columns) {
  Table table;
  for (size_t c = 0; c < columns.size(); ++c) {
    EXPECT_TRUE(
        table.AddColumn(Column::Int64("c" + std::to_string(c), columns[c]))
            .ok());
  }
  return table;
}

/// The plan that pins kAllSchemes on AllSchemesColumns' table, with
/// Diff's outliers on.
inline CompressionPlan AllSchemesPlan(size_t block_rows) {
  CompressionPlan plan = CompressionPlan::AllAuto(kAllSchemes.size());
  plan.block_rows = block_rows;
  for (size_t c = 0; c < kAllSchemes.size(); ++c) {
    plan.columns[c].auto_vertical = false;
    plan.columns[c].scheme = kAllSchemes[c];
  }
  plan.columns[1].reference = 0;
  plan.columns[1].diff_options.use_outliers = true;
  plan.columns[1].diff_options.max_outlier_fraction = 0.05;
  plan.columns[3].reference = 2;
  plan.columns[6].formulas.groups = {{4}, {5}};
  plan.columns[6].formulas.formulas = {0b01, 0b11};
  plan.columns[6].formulas.code_bits = 1;
  plan.columns[9].reference = 2;
  plan.columns[10].reference = 0;
  plan.columns[11].reference = 0;
  return plan;
}

/// An owning copy of `bytes` in a buffer of exactly their size, the form
/// CorfFile::ReadBlockBytes returns (so ASan flags a read past its end).
inline SharedBuffer SharedCopy(std::span<const uint8_t> bytes) {
  std::shared_ptr<uint8_t[]> copy =
      std::make_shared_for_overwrite<uint8_t[]>(bytes.size());
  std::copy(bytes.begin(), bytes.end(), copy.get());
  return SharedBuffer(std::move(copy), bytes.size());
}

/// The wire representation of `column` (scheme byte first).
inline std::vector<uint8_t> SerializedBytes(const enc::EncodedColumn& column) {
  BufferWriter writer;
  column.Serialize(&writer);
  return std::move(writer).Finish();
}

/// Reads one serialized column through the scheme dispatcher, expecting
/// success with no trailing bytes.
inline std::unique_ptr<enc::EncodedColumn> ReadColumn(
    std::span<const uint8_t> bytes) {
  BufferReader reader(bytes);
  auto result = DeserializeEncodedColumn(&reader);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) {
    return nullptr;
  }
  EXPECT_TRUE(reader.exhausted()) << "trailing bytes after deserialize";
  return std::move(result).value();
}

/// Serializes `column` and reads it back through the scheme dispatcher.
inline std::unique_ptr<enc::EncodedColumn> SerializeRoundTrip(
    const enc::EncodedColumn& column) {
  static thread_local std::vector<uint8_t> bytes;
  bytes = SerializedBytes(column);
  return ReadColumn(bytes);
}

}  // namespace corra::test

#endif  // CORRA_TESTS_TEST_UTIL_H_
