#include "common/bit_stream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "common/bit_util.h"
#include "common/random.h"

namespace corra {
namespace {

std::vector<uint64_t> RandomValues(size_t count, int width, uint64_t seed) {
  Rng rng(seed);
  const uint64_t mask =
      width == 0 ? 0 : (width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1);
  std::vector<uint64_t> values(count);
  for (auto& v : values) {
    v = rng.Next() & mask;
  }
  return values;
}

TEST(BitStreamTest, EmptyStream) {
  auto bytes = PackValues({}, 13);
  EXPECT_EQ(bytes.size(), bit_util::kDecodePadBytes);
  BitReader reader(bytes.data(), 13, 0);
  EXPECT_EQ(reader.size(), 0u);
}

TEST(BitStreamTest, WidthZeroStoresNothing) {
  const std::vector<uint64_t> zeros(100, 0);
  auto bytes = PackValues(zeros, 0);
  EXPECT_EQ(bytes.size(), bit_util::kDecodePadBytes);
  BitReader reader(bytes.data(), 0, 100);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(reader.Get(i), 0u);
  }
  std::vector<uint64_t> decoded(100, 123);
  reader.DecodeRange(0, 100, decoded.data());
  for (uint64_t v : decoded) {
    EXPECT_EQ(v, 0u);
  }
}

// Round-trip sweep over every bit width including the >57-bit straddle
// cases and several sizes that exercise partial trailing bytes.
class BitStreamRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, size_t>> {};

TEST_P(BitStreamRoundTrip, GetMatches) {
  const auto [width, count] = GetParam();
  const auto values = RandomValues(count, width, 17 * width + count);
  auto bytes = PackValues(values, width);
  ASSERT_GE(bytes.size(), bit_util::PackedBytes(count, width));
  BitReader reader(bytes.data(), width, count);
  for (size_t i = 0; i < count; ++i) {
    ASSERT_EQ(reader.Get(i), values[i]) << "width " << width << " i " << i;
  }
}

TEST_P(BitStreamRoundTrip, DecodeRangeMatches) {
  const auto [width, count] = GetParam();
  const auto values = RandomValues(count, width, 31 * width + count);
  auto bytes = PackValues(values, width);
  BitReader reader(bytes.data(), width, count);
  std::vector<uint64_t> decoded(count);
  reader.DecodeRange(0, count, decoded.data());
  EXPECT_EQ(decoded, values);
}

INSTANTIATE_TEST_SUITE_P(
    AllWidths, BitStreamRoundTrip,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 7, 8, 12, 13, 16, 17,
                                         23, 31, 32, 33, 40, 47, 53, 57, 58,
                                         59, 63, 64),
                       ::testing::Values(size_t{1}, size_t{7}, size_t{64},
                                         size_t{1000})),
    [](const auto& param_info) {
      return "w" + std::to_string(std::get<0>(param_info.param)) + "_n" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST(BitStreamTest, DecodeRangeFromAnOffsetMatchesGet) {
  // An unaligned start: the unpack driver's scalar head, then whole
  // 64-value kernel blocks, then a tail.
  constexpr size_t kCount = 64 * 5 + 37;
  for (int width : {0, 1, 3, 7, 8, 13, 17, 24, 31, 32, 33, 48, 57, 58, 64}) {
    SCOPED_TRACE("width=" + std::to_string(width));
    const auto values = RandomValues(kCount, width, 77 + width);
    const auto bytes = PackValues(values, width);
    BitReader reader(bytes.data(), width, kCount);
    std::vector<uint64_t> out(kCount);
    reader.DecodeRange(5, kCount - 5, out.data());
    for (size_t i = 0; i < kCount - 5; ++i) {
      ASSERT_EQ(out[i], reader.Get(5 + i)) << "i=" << i;
    }
  }
}

TEST(BitStreamTest, MaxValuesAtEveryWidth) {
  for (int width = 1; width <= 64; ++width) {
    const uint64_t max =
        width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
    auto bytes = PackValues(std::vector<uint64_t>(9, max), width);
    BitReader reader(bytes.data(), width, 9);
    for (size_t i = 0; i < 9; ++i) {
      ASSERT_EQ(reader.Get(i), max) << "width " << width;
    }
  }
}

TEST(BitStreamTest, InterleavedPattern) {
  // Alternating all-ones / all-zeros detects cross-value bit bleed.
  constexpr int kWidth = 11;
  constexpr uint64_t kOnes = (uint64_t{1} << kWidth) - 1;
  std::vector<uint64_t> values(500);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = i % 2 == 0 ? kOnes : 0;
  }
  auto bytes = PackValues(values, kWidth);
  BitReader reader(bytes.data(), kWidth, 500);
  for (size_t i = 0; i < 500; ++i) {
    ASSERT_EQ(reader.Get(i), i % 2 == 0 ? kOnes : 0u);
  }
}

// The per-value appender the encoders used before bulk packing: one
// shift-or per value into a 64-bit pending word, flushed word by word,
// then the pending bytes and zero slack. The bulk routines must
// reproduce its bytes exactly.
std::vector<uint8_t> PackOneByOne(const std::vector<uint64_t>& values,
                                  int width) {
  std::vector<uint8_t> bytes;
  uint64_t pending = 0;
  int pending_bits = 0;
  for (uint64_t value : values) {
    if (width == 0) {
      continue;
    }
    pending |= value << pending_bits;
    pending_bits += width;
    if (pending_bits >= 64) {
      const size_t old = bytes.size();
      bytes.resize(old + 8);
      std::memcpy(bytes.data() + old, &pending, 8);
      pending_bits -= 64;
      const int consumed = width - pending_bits;
      pending = consumed >= 64 ? 0 : value >> consumed;
    }
  }
  for (; width > 0 && pending_bits > 0; pending_bits -= 8) {
    bytes.push_back(static_cast<uint8_t>(pending & 0xFF));
    pending >>= 8;
  }
  bytes.resize(bit_util::PackedBytes(values.size(), width), 0);
  return bytes;
}

TEST(BitStreamTest, BulkPackMatchesPerValueAppend) {
  for (int width = 0; width <= 64; ++width) {
    for (size_t count : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                         size_t{65}, size_t{1000}, size_t{4097}}) {
      const auto values = RandomValues(count, width, 101 * width + count);
      const std::vector<uint8_t> expected = PackOneByOne(values, width);

      EXPECT_EQ(PackValues(values, width), expected)
          << "PackValues width " << width << " count " << count;

      // Chunked on-the-fly codes: 4097 values span five chunks and a
      // one-value tail.
      size_t next = 0;
      const auto chunked = PackCodes(
          count, width, [&](size_t begin, size_t len, uint64_t* codes) {
            EXPECT_EQ(begin, next);
            EXPECT_LE(len, kPackChunk);
            std::copy_n(values.data() + begin, len, codes);
            next = begin + len;
          });
      EXPECT_EQ(next, count);
      EXPECT_EQ(chunked, expected)
          << "PackCodes width " << width << " count " << count;
    }
  }
}

}  // namespace
}  // namespace corra
