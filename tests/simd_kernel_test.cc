// Kernel tests for the SIMD kernel layer (common/simd/simd.h).
//
// One suite, parameterized over every kernel table this CPU can run: the
// scalar table always, the AVX2 table when the CPU has AVX2. Each case
// checks its table against a reference model, so one run covers both
// backends whatever CORRA_FORCE_SCALAR says; the public entry points are
// one-line wrappers over whichever table dispatch picked.
//
// The unpack sweep is exhaustive in bit width (0..64) and crosses every
// alignment case the driver distinguishes: begin offsets that are not
// 64-value aligned (scalar head), lengths straddling one or more
// 64-value kernel blocks, and tails shorter than a block. CRC32C is
// checked against a bitwise model at every length up to 64 and every
// start offset mod 8.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/bit_stream.h"
#include "common/bit_util.h"
#include "common/simd/kernel_table.h"

namespace corra {
namespace {

using simd::internal::KernelTable;

// Enough values to cover several 64-value kernel blocks plus a ragged
// tail that never reaches a block boundary.
constexpr size_t kSweepCount = 64 * 5 + 37;

std::vector<uint64_t> RandomValues(int bit_width, size_t count,
                                   uint64_t seed) {
  std::mt19937_64 rng(seed);
  const uint64_t mask = bit_width >= 64
                            ? ~uint64_t{0}
                            : (uint64_t{1} << bit_width) - 1;
  std::vector<uint64_t> values(count);
  for (auto& v : values) {
    v = rng() & mask;
  }
  // Force boundary patterns into the mix so all-ones / all-zeros words
  // are always exercised.
  if (count > 4 && bit_width > 0) {
    values[0] = mask;
    values[1] = 0;
    values[count - 1] = mask;
    values[count - 2] = 0;
  }
  return values;
}

std::vector<const KernelTable*> RunnableTables() {
  std::vector<const KernelTable*> tables = {&simd::internal::ScalarTable()};
  if (const KernelTable* avx2 = simd::internal::Avx2Table()) {
    tables.push_back(avx2);
  }
  return tables;
}

class KernelTest : public ::testing::TestWithParam<const KernelTable*> {
 protected:
  const KernelTable& table() const { return *GetParam(); }
};

INSTANTIATE_TEST_SUITE_P(
    Tables, KernelTest, ::testing::ValuesIn(RunnableTables()),
    [](const auto& param_info) -> std::string {
      return param_info.param == &simd::internal::ScalarTable() ? "scalar"
                                                                : "avx2";
    });

TEST_P(KernelTest, DispatchPicksAvx2UnlessForcedScalar) {
  // The runtime escape hatch (any value but "0") pins the scalar table;
  // otherwise the AVX2 table runs wherever the CPU has it.
  const char* force = std::getenv("CORRA_FORCE_SCALAR");
  const bool forced = force != nullptr && std::strcmp(force, "0") != 0;
  const KernelTable* avx2 = simd::internal::Avx2Table();
  const KernelTable& expected =
      avx2 != nullptr && !forced ? *avx2 : simd::internal::ScalarTable();
  EXPECT_EQ(&simd::internal::ActiveTable() == &table(),
            &expected == &table());
}

TEST_P(KernelTest, UnpackExhaustiveWidthsOffsetsAndLengths) {
  // Begin offsets: 64-value-block aligned, just off-aligned, byte-odd,
  // and deep in the stream; lengths: empty, sub-block, exactly one
  // block, block +/- 1, and multi-block straddles.
  const size_t begins[] = {0, 1, 2, 7, 8, 31, 63, 64, 65, 100, 127, 128, 200};
  const size_t lengths[] = {0, 1, 3, 63, 64, 65, 127, 128, 129, 192, 255};
  for (int width = 0; width <= 64; ++width) {
    SCOPED_TRACE("width=" + std::to_string(width));
    const auto values =
        RandomValues(width, kSweepCount, 1000 + static_cast<uint64_t>(width));
    const PackedArray packed = PackedArray::Pack(values, width);

    std::vector<uint64_t> got(kSweepCount + 1, 0xDEADBEEF);
    for (size_t begin : begins) {
      for (size_t len : lengths) {
        if (begin + len > kSweepCount) {
          continue;
        }
        SCOPED_TRACE("begin=" + std::to_string(begin) +
                     " len=" + std::to_string(len));
        simd::internal::UnpackRangeWith(table().unpack64, packed.data(),
                                        width, begin, len, got.data());
        for (size_t i = 0; i < len; ++i) {
          ASSERT_EQ(got[i], values[begin + i]) << "i=" << i;
        }
      }
      // Also the full remaining stream from this offset (ragged tail).
      const size_t rest = kSweepCount - begin;
      simd::internal::UnpackRangeWith(table().unpack64, packed.data(), width,
                                      begin, rest, got.data());
      for (size_t i = 0; i < rest; ++i) {
        ASSERT_EQ(got[i], values[begin + i]) << "i=" << i;
      }
    }
  }
}

TEST_P(KernelTest, FilterMatchesReferenceModel) {
  std::mt19937_64 rng(11);
  std::vector<int64_t> values(kSweepCount);
  for (auto& v : values) {
    // Small domain so the bounds actually select; sprinkle extremes.
    v = static_cast<int64_t>(rng() % 200) - 100;
  }
  values[3] = std::numeric_limits<int64_t>::min();
  values[4] = std::numeric_limits<int64_t>::max();
  const int64_t bounds[][2] = {{-50, 50},
                               {0, 0},
                               {100, -100},  // Empty (lo > hi).
                               {std::numeric_limits<int64_t>::min(),
                                std::numeric_limits<int64_t>::max()},
                               {std::numeric_limits<int64_t>::max(),
                                std::numeric_limits<int64_t>::max()}};
  for (const auto& b : bounds) {
    for (size_t len : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                       size_t{9}, size_t{100}, kSweepCount}) {
      SCOPED_TRACE("lo=" + std::to_string(b[0]) + " hi=" +
                   std::to_string(b[1]) + " len=" + std::to_string(len));
      std::vector<uint32_t> got(len + 1, 0xAAAA);
      const size_t n =
          table().filter_i64(values.data(), len, b[0], b[1], 1000,
                             got.data());
      std::vector<uint32_t> expected;
      for (size_t i = 0; i < len; ++i) {
        if (values[i] >= b[0] && values[i] <= b[1]) {
          expected.push_back(1000 + static_cast<uint32_t>(i));
        }
      }
      ASSERT_EQ(n, expected.size());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], expected[i]) << "i=" << i;
      }
    }
  }
}

// The scalar model of the packed filter: the rows begin + i, i < count,
// whose value lies in the unsigned range [lo, hi].
std::vector<uint32_t> PackedFilterModel(const std::vector<uint64_t>& values,
                                        size_t begin, size_t count,
                                        uint64_t lo, uint64_t hi) {
  std::vector<uint32_t> rows;
  for (size_t row = begin; row < begin + count; ++row) {
    if (values[row] >= lo && values[row] <= hi) {
      rows.push_back(static_cast<uint32_t>(row));
    }
  }
  return rows;
}

// Runs the table's packed filter over [begin, begin + count) of `packed`
// into a buffer of exactly `count` slots followed by sentinels, checks
// that the sentinels survive, and returns the rows it reported.
std::vector<uint32_t> RunPackedFilter(const KernelTable& table,
                                      const uint8_t* data, int bit_width,
                                      size_t begin, size_t count,
                                      uint64_t lo, uint64_t hi) {
  constexpr uint32_t kSentinel = 0xA5A5A5A5;
  std::vector<uint32_t> got(count + 8, kSentinel);
  const size_t n = table.filter_packed(data, bit_width, begin, count, lo, hi,
                                       got.data());
  EXPECT_LE(n, count);
  for (size_t i = count; i < got.size(); ++i) {
    EXPECT_EQ(got[i], kSentinel) << "wrote past count at " << i;
  }
  got.resize(std::min(n, count));
  return got;
}

TEST_P(KernelTest, PackedFilterMatchesReferenceModel) {
  // Every width; begins on and off 8- and 64-code boundaries; counts
  // around one 8-code step and one 64-code block, and a whole morsel;
  // bounds that are empty (lo > hi), the smallest and the largest code
  // alone, a middle range, and ranges reaching above the largest code.
  constexpr size_t kRows = 2048 + 200;
  const size_t begins[] = {0, 3, 8, 61, 64, 100, 131};
  const size_t counts[] = {0, 1, 7, 8, 9, 63, 64, 65, 2048};
  for (int width = 0; width <= 64; ++width) {
    SCOPED_TRACE("width=" + std::to_string(width));
    const uint64_t max = width >= 64 ? ~uint64_t{0}
                                     : (uint64_t{1} << width) - 1;
    // Codes cluster at both ends of the domain as well, so the one-code
    // ranges select rows at every width.
    std::mt19937_64 rng(900 + static_cast<uint64_t>(width));
    std::vector<uint64_t> values(kRows);
    for (auto& v : values) {
      const uint64_t r = rng();
      v = r % 4 == 0 ? (r >> 8) % 3 & max
          : r % 4 == 1 ? max - ((r >> 8) % 3 & max)
                       : (r >> 2) & max;
    }
    const PackedArray packed = PackedArray::Pack(values, width);
    const uint64_t bounds[][2] = {{5, 4},
                                  {max, 0},
                                  {0, 0},
                                  {max, max},
                                  {max / 4, max / 2},
                                  {max / 2, ~uint64_t{0}},
                                  {1, max + 1},
                                  // Above 2^32, with small low 32 bits.
                                  {0, (uint64_t{1} << 32) + 1},
                                  {max + 1, ~uint64_t{0}}};
    for (const auto& b : bounds) {
      for (size_t begin : begins) {
        for (size_t count : counts) {
          if (begin + count > kRows) {
            continue;
          }
          SCOPED_TRACE("lo=" + std::to_string(b[0]) +
                       " hi=" + std::to_string(b[1]) +
                       " begin=" + std::to_string(begin) +
                       " count=" + std::to_string(count));
          ASSERT_EQ(RunPackedFilter(table(), packed.data(), width, begin,
                                    count, b[0], b[1]),
                    PackedFilterModel(values, begin, count, b[0], b[1]));
        }
      }
    }
  }
}

TEST_P(KernelTest, UnsignedFilterUsesFullDomain) {
  // Width-64 codes over the whole unsigned domain, including codes >=
  // 2^63, compare unsigned.
  std::mt19937_64 rng(12);
  std::vector<uint64_t> codes(kSweepCount);
  for (auto& c : codes) {
    c = rng();
  }
  codes[0] = 0;
  codes[1] = ~uint64_t{0};
  codes[2] = uint64_t{1} << 63;
  const PackedArray packed = PackedArray::Pack(codes, 64);
  const uint64_t bounds[][2] = {
      {0, ~uint64_t{0}},
      {uint64_t{1} << 63, ~uint64_t{0}},
      {0, (uint64_t{1} << 63) - 1},
      {42, 41},  // Empty.
      {uint64_t{1} << 62, uint64_t{3} << 62}};
  for (const auto& b : bounds) {
    SCOPED_TRACE("lo=" + std::to_string(b[0]) +
                 " hi=" + std::to_string(b[1]));
    ASSERT_EQ(RunPackedFilter(table(), packed.data(), 64, 0, kSweepCount,
                              b[0], b[1]),
              PackedFilterModel(codes, 0, kSweepCount, b[0], b[1]));
  }
}

TEST_P(KernelTest, SumWrapsLikeTwosComplement) {
  std::mt19937_64 rng(13);
  std::vector<uint64_t> values(kSweepCount);
  for (auto& v : values) {
    v = rng();  // Overflows the 64-bit sum many times over.
  }
  for (size_t len : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                     kSweepCount}) {
    SCOPED_TRACE("len=" + std::to_string(len));
    uint64_t expected = 0;
    for (size_t i = 0; i < len; ++i) {
      expected += values[i];
    }
    EXPECT_EQ(table().sum_u64(values.data(), len), expected);
  }
}

TEST_P(KernelTest, TranslateAddConstAddRefZigZag) {
  std::mt19937_64 rng(15);
  std::vector<int64_t> dict(300);
  for (auto& d : dict) {
    d = static_cast<int64_t>(rng());
  }
  std::vector<uint64_t> codes(kSweepCount);
  for (auto& c : codes) {
    c = rng() % dict.size();
  }
  std::vector<int64_t> ref(kSweepCount);
  std::vector<uint64_t> deltas(kSweepCount);
  for (size_t i = 0; i < kSweepCount; ++i) {
    ref[i] = static_cast<int64_t>(rng());
    deltas[i] = rng();
  }
  for (size_t len : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{5},
                     kSweepCount}) {
    SCOPED_TRACE("len=" + std::to_string(len));
    std::vector<int64_t> got(len + 1, -1);
    table().translate_codes(dict.data(), codes.data(), len, got.data());
    for (size_t i = 0; i < len; ++i) {
      ASSERT_EQ(got[i], dict[codes[i]]) << "i=" << i;
    }

    got.assign(ref.begin(), ref.begin() + static_cast<long>(len));
    table().add_const(got.data(), len, int64_t{-987654321});
    for (size_t i = 0; i < len; ++i) {
      const int64_t expected = static_cast<int64_t>(
          static_cast<uint64_t>(ref[i]) -
          static_cast<uint64_t>(987654321));
      ASSERT_EQ(got[i], expected) << "i=" << i;
    }

    got.assign(len + 1, -1);
    table().add_ref_base(ref.data(), deltas.data(), 12345, len, got.data());
    for (size_t i = 0; i < len; ++i) {
      const int64_t expected = static_cast<int64_t>(
          static_cast<uint64_t>(ref[i]) + 12345 + deltas[i]);
      ASSERT_EQ(got[i], expected) << "i=" << i;
    }

    got.assign(len + 1, -1);
    table().add_ref_zigzag(ref.data(), deltas.data(), len, got.data());
    for (size_t i = 0; i < len; ++i) {
      const int64_t expected = static_cast<int64_t>(
          static_cast<uint64_t>(ref[i]) +
          static_cast<uint64_t>(bit_util::ZigZagDecode(deltas[i])));
      ASSERT_EQ(got[i], expected) << "i=" << i;
    }
  }
}

TEST_P(KernelTest, DeltaDecodeAllWidths) {
  // Full-range codes at width 64 make the prefix sum wrap around.
  const size_t begins[] = {0, 1, 7, 13, 63, 64, 65, 130};
  const size_t lengths[] = {0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 33, 64, 200};
  for (int width = 0; width <= 64; ++width) {
    SCOPED_TRACE("width=" + std::to_string(width));
    const auto values =
        RandomValues(width, kSweepCount, 300 + static_cast<uint64_t>(width));
    const PackedArray packed = PackedArray::Pack(values, width);
    for (size_t begin : begins) {
      for (size_t len : lengths) {
        if (begin + len > kSweepCount) {
          continue;
        }
        SCOPED_TRACE("begin=" + std::to_string(begin) +
                     " len=" + std::to_string(len));
        const int64_t seed = 424242;
        std::vector<int64_t> got(len + 1, -1);
        table().delta_decode(packed.data(), width, begin, len, seed,
                             got.data());
        uint64_t acc = static_cast<uint64_t>(seed);
        for (size_t i = 0; i < len; ++i) {
          acc += static_cast<uint64_t>(
              bit_util::ZigZagDecode(values[begin + i]));
          ASSERT_EQ(got[i], static_cast<int64_t>(acc)) << "i=" << i;
        }
      }
    }
  }
}

TEST_P(KernelTest, DeltaPointAndGatherMatchPrefixModel) {
  // A checkpointed stream exactly as DeltaColumn lays it out: slot 0
  // unused (0), slot i the zig-zag delta value[i] - value[i-1], plus a
  // checkpoint of the absolute value every interval rows. The widths
  // cross every path of the packed zig-zag fold under both kernels:
  // <= 14 (four values per load), <= 28 (two), wider, and > 57. Only an
  // odd width over 57 has values that straddle nine bytes (an even one
  // starts each value at an even bit, so shift + width <= 64).
  constexpr size_t kRows = 64 * 40 + 17;
  for (int width :
       {0, 1, 5, 11, 13, 14, 15, 23, 28, 29, 40, 57, 58, 59, 63, 64}) {
    for (const int shift : {4, 5, 6, 7}) {
      const size_t interval = size_t{1} << shift;
      SCOPED_TRACE("width=" + std::to_string(width) +
                   " interval=" + std::to_string(interval));
      auto deltas =
          RandomValues(width, kRows, 900 + static_cast<uint64_t>(width));
      deltas[0] = 0;
      std::vector<int64_t> model(kRows);
      std::vector<int64_t> checkpoints;
      uint64_t acc = 0;
      for (size_t i = 0; i < kRows; ++i) {
        acc += static_cast<uint64_t>(bit_util::ZigZagDecode(deltas[i]));
        model[i] = static_cast<int64_t>(acc);
        if (i % interval == 0) {
          checkpoints.push_back(model[i]);
        }
      }
      const PackedArray packed = PackedArray::Pack(deltas, width);

      // Every row: every replay length, in both directions, and the last
      // interval's forward-only replay.
      for (size_t row = 0; row < kRows; ++row) {
        ASSERT_EQ(table().delta_point(packed.data(), width,
                                      checkpoints.data(), shift, kRows, row),
                  model[row])
            << "row=" << row;
      }

      // Sorted, unsorted, empty, and single-row selections through the
      // batched gather kernel.
      std::mt19937_64 rng(55);
      std::vector<uint32_t> rows;
      for (size_t i = 0; i < kRows; ++i) {
        if (rng() % 7 == 0) {
          rows.push_back(static_cast<uint32_t>(i));
        }
      }
      const std::vector<uint32_t> unsorted = {
          static_cast<uint32_t>(kRows - 1), 3, 700, 699, 0, 64, 63};
      for (const auto& selection :
           {rows, unsorted, std::vector<uint32_t>{},
            std::vector<uint32_t>{static_cast<uint32_t>(kRows / 2)}}) {
        std::vector<int64_t> got(selection.size() + 1, -1);
        table().delta_gather(packed.data(), width, checkpoints.data(), shift,
                             kRows, selection.data(), selection.size(),
                             got.data());
        for (size_t i = 0; i < selection.size(); ++i) {
          ASSERT_EQ(got[i], model[selection[i]]) << "i=" << i;
        }
      }
    }
  }
}

TEST_P(KernelTest, ExpandRunsMatchesModel) {
  // Runs of varying lengths incl. single-row runs and a long tail run.
  std::vector<int64_t> run_values;
  std::vector<uint32_t> run_ends;
  std::mt19937_64 rng(66);
  uint32_t end = 0;
  while (end < 5000) {
    end += 1 + static_cast<uint32_t>(rng() % 40);
    run_values.push_back(static_cast<int64_t>(rng()));
    run_ends.push_back(end);
  }
  const size_t rows = run_ends.back();
  auto run_of = [&](size_t row) {
    size_t r = 0;
    while (run_ends[r] <= row) {
      ++r;
    }
    return r;
  };
  for (const auto& [begin, count] :
       {std::pair<size_t, size_t>{0, rows}, {0, 1}, {rows - 1, 1},
        {17, 1000}, {run_ends[3], 5}, {run_ends[4] - 1, 2}, {100, 0}}) {
    SCOPED_TRACE("begin=" + std::to_string(begin) +
                 " count=" + std::to_string(count));
    std::vector<int64_t> got(count + 1, -1);
    if (count > 0) {
      table().expand_runs(run_values.data(), run_ends.data(), run_of(begin),
                          begin, count, got.data());
    }
    for (size_t i = 0; i < count; ++i) {
      ASSERT_EQ(got[i], run_values[run_of(begin + i)]) << "i=" << i;
    }
    ASSERT_EQ(got[count], -1);
  }
}

TEST_P(KernelTest, GatherBitsAllWidthsAndPositions) {
  for (int width = 0; width <= 64; ++width) {
    SCOPED_TRACE("width=" + std::to_string(width));
    const auto values =
        RandomValues(width, kSweepCount, 500 + static_cast<uint64_t>(width));
    const PackedArray packed = PackedArray::Pack(values, width);
    std::mt19937_64 rng(77);
    std::vector<uint32_t> rows;
    for (int i = 0; i < 100; ++i) {
      rows.push_back(static_cast<uint32_t>(rng() % kSweepCount));
    }
    rows.push_back(0);
    rows.push_back(kSweepCount - 1);  // Last position: pad-boundary load.
    for (size_t len : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{5},
                       rows.size()}) {
      SCOPED_TRACE("len=" + std::to_string(len));
      std::vector<uint64_t> got(len + 1, 0xDEAD);
      table().gather_bits(packed.data(), width, rows.data(), len, got.data());
      for (size_t i = 0; i < len; ++i) {
        ASSERT_EQ(got[i], values[rows[i]]) << "i=" << i;
      }
    }
  }
}

TEST_P(KernelTest, GatherBitsOfZeroRowsTouchesNothing) {
  // An empty selection may come with null row and output pointers (an
  // empty vector's data()); no width may write through them.
  const PackedArray packed =
      PackedArray::Pack(RandomValues(64, 64, 3), 64);
  for (int width = 0; width <= 64; ++width) {
    SCOPED_TRACE("width=" + std::to_string(width));
    table().gather_bits(packed.data(), width, nullptr, 0, nullptr);
  }
}

// `packed`'s bytes with every slack byte, and the unused high bits of
// the last data byte, set: what a stream viewing a file that stores
// garbage there reads.
std::vector<uint8_t> WithDirtySlack(const PackedArray& packed) {
  const size_t data = packed.SizeBytes();
  std::vector<uint8_t> bytes(packed.data(),
                             packed.data() + data + bit_util::kDecodePadBytes);
  std::fill(bytes.begin() + static_cast<long>(data), bytes.end(), 0xFF);
  const size_t used_bits =
      packed.size() * static_cast<size_t>(packed.bit_width()) % 8;
  if (used_bits != 0) {
    bytes[data - 1] |= static_cast<uint8_t>(0xFF << used_bits);
  }
  return bytes;
}

TEST_P(KernelTest, SlackContentsDoNotChangeAnyKernel) {
  // A loaded stream views the slack bytes its file stores, so every
  // kernel that reads a packed stream must return the zero-slack output
  // over 0xFF slack. The ranges and positions run to the stream's end,
  // where the loads reach into the slack.
  constexpr size_t kRows = 64 * 40 + 17;
  for (int width = 0; width <= 64; ++width) {
    SCOPED_TRACE("width=" + std::to_string(width));
    const auto values =
        RandomValues(width, kRows, 700 + static_cast<uint64_t>(width));
    const PackedArray packed = PackedArray::Pack(values, width);
    const std::vector<uint8_t> dirty = WithDirtySlack(packed);
    const uint8_t* clean = packed.data();

    for (size_t begin : {size_t{0}, size_t{1}, kRows - 200, kRows - 65,
                         kRows - 64, kRows - 1}) {
      SCOPED_TRACE("begin=" + std::to_string(begin));
      const size_t len = kRows - begin;
      std::vector<uint64_t> want(len);
      std::vector<uint64_t> got(len);
      simd::internal::UnpackRangeWith(table().unpack64, clean, width, begin,
                                      len, want.data());
      simd::internal::UnpackRangeWith(table().unpack64, dirty.data(), width,
                                      begin, len, got.data());
      ASSERT_EQ(got, want);
      std::vector<int64_t> want_sum(len);
      std::vector<int64_t> got_sum(len);
      table().delta_decode(clean, width, begin, len, 99, want_sum.data());
      table().delta_decode(dirty.data(), width, begin, len, 99,
                           got_sum.data());
      ASSERT_EQ(got_sum, want_sum);
      const uint64_t max = width >= 64 ? ~uint64_t{0}
                                       : (uint64_t{1} << width) - 1;
      for (const uint64_t lo : {uint64_t{0}, max / 3}) {
        ASSERT_EQ(RunPackedFilter(table(), dirty.data(), width, begin, len,
                                  lo, max / 2 + 1),
                  RunPackedFilter(table(), clean, width, begin, len, lo,
                                  max / 2 + 1));
      }
    }

    std::vector<uint32_t> rows;
    for (size_t row = kRows - 130; row < kRows; ++row) {
      rows.push_back(static_cast<uint32_t>(row));
    }
    rows.push_back(0);
    rows.push_back(static_cast<uint32_t>(kRows - 1));
    std::vector<uint64_t> want(rows.size());
    std::vector<uint64_t> got(rows.size());
    table().gather_bits(clean, width, rows.data(), rows.size(), want.data());
    table().gather_bits(dirty.data(), width, rows.data(), rows.size(),
                        got.data());
    ASSERT_EQ(got, want);

    for (const int shift : {4, 7}) {
      SCOPED_TRACE("interval_shift=" + std::to_string(shift));
      std::vector<int64_t> checkpoints;
      uint64_t acc = 0;
      for (size_t i = 0; i < kRows; ++i) {
        acc += static_cast<uint64_t>(bit_util::ZigZagDecode(values[i]));
        if (i % (size_t{1} << shift) == 0) {
          checkpoints.push_back(static_cast<int64_t>(acc));
        }
      }
      for (uint32_t row : rows) {
        ASSERT_EQ(table().delta_point(dirty.data(), width, checkpoints.data(),
                                      shift, kRows, row),
                  table().delta_point(clean, width, checkpoints.data(), shift,
                                      kRows, row))
            << "row=" << row;
      }
      std::vector<int64_t> want_rows(rows.size());
      std::vector<int64_t> got_rows(rows.size());
      table().delta_gather(clean, width, checkpoints.data(), shift, kRows,
                           rows.data(), rows.size(), want_rows.data());
      table().delta_gather(dirty.data(), width, checkpoints.data(), shift,
                           kRows, rows.data(), rows.size(), got_rows.data());
      ASSERT_EQ(got_rows, want_rows);
    }
  }
}

// Bitwise CRC32C (reflected polynomial 0x82F63B78, initial value and
// final xor 0xFFFFFFFF): the definition both tables must reproduce.
uint32_t Crc32cModel(const uint8_t* data, size_t size) {
  uint32_t crc = 0xFFFFFFFF;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) != 0 ? (crc >> 1) ^ 0x82F63B78 : crc >> 1;
    }
  }
  return ~crc;
}

TEST_P(KernelTest, Crc32cMatchesBitwiseModel) {
  const char* check = "123456789";
  const auto* check_bytes = reinterpret_cast<const uint8_t*>(check);
  EXPECT_EQ(Crc32cModel(check_bytes, 9), 0xE3069283u);
  EXPECT_EQ(table().crc32c(check_bytes, 9), 0xE3069283u);

  // Every length from 0 to 64 (the 8-byte steps and each byte tail) at
  // every start offset mod 8 into one buffer, then 1 MiB + 3 bytes.
  constexpr size_t kLong = (size_t{1} << 20) + 3;
  std::mt19937_64 rng(77);
  std::vector<uint8_t> buffer(kLong + 7);
  for (auto& byte : buffer) {
    byte = static_cast<uint8_t>(rng());
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    SCOPED_TRACE("offset=" + std::to_string(offset));
    const uint8_t* data = buffer.data() + offset;
    for (size_t len = 0; len <= 64; ++len) {
      ASSERT_EQ(table().crc32c(data, len), Crc32cModel(data, len))
          << "len=" << len;
    }
    ASSERT_EQ(table().crc32c(data, kLong), Crc32cModel(data, kLong));
  }
}

}  // namespace
}  // namespace corra
