#include "common/bit_stream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/bit_util.h"
#include "common/random.h"
#include "test_util.h"

namespace corra {
namespace {

using bit_util::kDecodePadBytes;

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

// The packed bytes and slack `array` writes, without the length prefix.
std::vector<uint8_t> PayloadBytes(const PackedArray& array) {
  BufferWriter writer;
  array.WritePayload(&writer);
  std::vector<uint8_t> bytes = std::move(writer).Finish();
  bytes.erase(bytes.begin(), bytes.begin() + sizeof(uint64_t));
  return bytes;
}

// The `[width][count][length][bytes]` tail with `payload` as the bytes.
std::vector<uint8_t> Tail(uint8_t width, uint64_t count,
                          const std::vector<uint8_t>& payload) {
  BufferWriter writer;
  writer.Write<uint8_t>(width);
  writer.Write<uint64_t>(count);
  writer.WriteBytes(payload);
  return std::move(writer).Finish();
}

Result<PackedArray> ReadTail(const std::vector<uint8_t>& bytes) {
  BufferReader reader(bytes);
  return PackedArray::Read(&reader);
}

TEST(PackedArrayTest, EmptyStream) {
  const PackedArray packed = PackedArray::Pack({}, 13);
  EXPECT_EQ(packed.size(), 0u);
  EXPECT_EQ(packed.SizeBytes(), 0u);
  EXPECT_EQ(PayloadBytes(packed).size(), kDecodePadBytes);
}

TEST(PackedArrayTest, DefaultIsEmptyWithoutBytes) {
  const PackedArray packed;
  EXPECT_EQ(packed.size(), 0u);
  EXPECT_EQ(packed.bit_width(), 0);
  EXPECT_TRUE(PayloadBytes(packed).empty());
}

TEST(PackedArrayTest, WidthZeroStoresNothing) {
  const PackedArray packed =
      PackedArray::Pack(std::vector<uint64_t>(100, 0), 0);
  EXPECT_EQ(packed.SizeBytes(), 0u);
  EXPECT_EQ(PayloadBytes(packed).size(), kDecodePadBytes);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(packed.Get(i), 0u);
  }
  std::vector<uint64_t> decoded(100, 123);
  packed.DecodeRange(0, 100, decoded.data());
  for (uint64_t v : decoded) {
    EXPECT_EQ(v, 0u);
  }
}

TEST(PackedArrayTest, SizeBytesAreExactPayloadBytes) {
  // SizeBytes is the exact payload; the buffer adds kDecodePadBytes of
  // load slack (the AVX2 unpack kernels issue full 32-byte loads near
  // the payload end).
  EXPECT_GE(kDecodePadBytes, 32u);
  for (const auto& [count, width, bytes] :
       {std::tuple<size_t, int, size_t>{0, 5, 0}, {8, 8, 8}, {3, 12, 5}}) {
    const PackedArray packed =
        PackedArray::Pack(std::vector<uint64_t>(count, 1), width);
    EXPECT_EQ(packed.SizeBytes(), bytes);
    EXPECT_EQ(PayloadBytes(packed).size(), bytes + kDecodePadBytes);
  }
  // The 100,000-row, 12-bit stream of a FOR column: 150,000 + 32.
  const PackedArray packed =
      PackedArray::Pack(std::vector<uint64_t>(100000, 7), 12);
  EXPECT_EQ(PayloadBytes(packed).size(), 150032u);
}

// Pack -> Write -> Read round trip over every width 0-64 and counts
// around the 64-value word boundary and the 1,024-value pack chunks:
// the bytes re-serialize identically, and Get, DecodeRange from an
// offset and Gather all return the source values.
class PackedArrayRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, size_t>> {};

TEST_P(PackedArrayRoundTrip, WriteReadAndEveryAccessMatch) {
  const auto [width, count] = GetParam();
  const auto values = RandomValues(count, width, 17 * width + count);
  const PackedArray packed = PackedArray::Pack(values, width);
  ASSERT_EQ(packed.size(), count);
  ASSERT_EQ(packed.bit_width(), width);

  BufferWriter writer;
  packed.Write(&writer);
  const std::vector<uint8_t> wire = std::move(writer).Finish();
  auto read = ReadTail(wire);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  const PackedArray& back = read.value();
  BufferWriter rewriter;
  back.Write(&rewriter);
  EXPECT_EQ(std::move(rewriter).Finish(), wire);

  for (size_t i = 0; i < count; ++i) {
    ASSERT_EQ(back.Get(i), values[i]) << "i " << i;
  }
  for (size_t begin : {size_t{0}, size_t{1}, count / 2}) {
    if (begin > count) {
      continue;
    }
    std::vector<uint64_t> decoded(count - begin + 1, 0xDEADBEEF);
    back.DecodeRange(begin, count - begin, decoded.data());
    decoded.pop_back();
    EXPECT_TRUE(std::equal(decoded.begin(), decoded.end(),
                           values.begin() + static_cast<long>(begin)))
        << "begin " << begin;
  }
  std::vector<uint32_t> rows;
  for (size_t i = 0; i < count; i += 1 + i % 7) {
    rows.push_back(static_cast<uint32_t>(count - 1 - i));  // Descending.
  }
  std::vector<uint64_t> gathered(rows.size() + 1);  // Never null.
  back.Gather(rows, gathered.data());
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(gathered[i], values[rows[i]]) << "row " << rows[i];
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWidths, PackedArrayRoundTrip,
    ::testing::Combine(::testing::Range(0, 65),
                       ::testing::Values(size_t{0}, size_t{1}, size_t{63},
                                         size_t{64}, size_t{65},
                                         size_t{4097})),
    [](const auto& param_info) {
      return "w" + std::to_string(std::get<0>(param_info.param)) + "_n" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST(PackedArrayTest, DecodeRangeFromAnOffsetMatchesGet) {
  // An unaligned start: the unpack driver's scalar head, then whole
  // 64-value kernel blocks, then a tail.
  constexpr size_t kCount = 64 * 5 + 37;
  for (int width : {0, 1, 3, 7, 8, 13, 17, 24, 31, 32, 33, 48, 57, 58, 64}) {
    SCOPED_TRACE("width=" + std::to_string(width));
    const PackedArray packed =
        PackedArray::Pack(RandomValues(kCount, width, 77 + width), width);
    std::vector<uint64_t> out(kCount);
    packed.DecodeRange(5, kCount - 5, out.data());
    for (size_t i = 0; i < kCount - 5; ++i) {
      ASSERT_EQ(out[i], packed.Get(5 + i)) << "i=" << i;
    }
  }
}

TEST(PackedArrayTest, MaxValuesAtEveryWidth) {
  for (int width = 1; width <= 64; ++width) {
    const uint64_t max =
        width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
    const PackedArray packed =
        PackedArray::Pack(std::vector<uint64_t>(9, max), width);
    for (size_t i = 0; i < 9; ++i) {
      ASSERT_EQ(packed.Get(i), max) << "width " << width;
    }
  }
}

TEST(PackedArrayTest, InterleavedPattern) {
  // Alternating all-ones / all-zeros detects cross-value bit bleed.
  constexpr int kWidth = 11;
  constexpr uint64_t kOnes = (uint64_t{1} << kWidth) - 1;
  std::vector<uint64_t> values(500);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = i % 2 == 0 ? kOnes : 0;
  }
  const PackedArray packed = PackedArray::Pack(values, kWidth);
  for (size_t i = 0; i < 500; ++i) {
    ASSERT_EQ(packed.Get(i), i % 2 == 0 ? kOnes : 0u);
  }
}

TEST(PackedArrayTest, ReadRejectsWidthOver64) {
  const auto values = RandomValues(10, 64, 5);
  const auto payload = PayloadBytes(PackedArray::Pack(values, 64));
  EXPECT_TRUE(ReadTail(Tail(64, 10, payload)).ok());
  EXPECT_FALSE(ReadTail(Tail(65, 10, payload)).ok());
  EXPECT_FALSE(ReadTail(Tail(255, 0, payload)).ok());
}

TEST(PackedArrayTest, ReadRejectsAPayloadOneByteShort) {
  // 10 values of 12 bits: 15 data bytes.
  const auto values = RandomValues(10, 12, 6);
  auto payload = PayloadBytes(PackedArray::Pack(values, 12));
  payload.resize(15);
  EXPECT_TRUE(ReadTail(Tail(12, 10, payload)).ok());
  payload.resize(14);
  EXPECT_FALSE(ReadTail(Tail(12, 10, payload)).ok());
}

TEST(PackedArrayTest, ReadRejectsACountWhoseBitsWrap) {
  // count * width == 2^64 wraps to 0 bits, which an empty payload would
  // satisfy if the check multiplied.
  EXPECT_FALSE(ReadTail(Tail(8, uint64_t{1} << 61, {})).ok());
  EXPECT_FALSE(ReadTail(Tail(64, uint64_t{1} << 58, {})).ok());
  // 3 * count == 2^64 + 2: two bits, which 40 bytes would cover.
  EXPECT_FALSE(
      ReadTail(Tail(3, 0x5555555555555556, std::vector<uint8_t>(40))).ok());
  BufferWriter writer;
  writer.WriteBytes({});
  const auto bytes = std::move(writer).Finish();
  BufferReader reader(bytes);
  EXPECT_FALSE(PackedArray::ReadPayload(&reader, 2, uint64_t{1} << 63).ok());
}

TEST(PackedArrayTest, PayloadWithoutSlackReadsBackPadded) {
  // Older writers stored the data bytes alone; the copy gains the
  // decode slack, so it re-serializes as the current writer does.
  for (int width : {1, 7, 13, 33, 64}) {
    SCOPED_TRACE("width=" + std::to_string(width));
    const auto values = RandomValues(300, width, 40 + width);
    const PackedArray packed = PackedArray::Pack(values, width);
    const auto padded = PayloadBytes(packed);
    const std::vector<uint8_t> data_only(
        padded.begin(), padded.begin() + static_cast<long>(packed.SizeBytes()));
    auto read = ReadTail(Tail(static_cast<uint8_t>(width), 300, data_only));
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(PayloadBytes(read.value()), padded);
    std::vector<uint64_t> decoded(300);
    read.value().DecodeRange(0, 300, decoded.data());
    EXPECT_EQ(decoded, values);
  }
}

// Whether `array`'s bytes and slack lie inside `buffer`.
bool LiesInside(const PackedArray& array, const SharedBuffer& buffer) {
  const std::less_equal<const uint8_t*> le;
  return le(buffer.data(), array.data()) &&
         le(array.data() + array.SizeBytes() + kDecodePadBytes,
            buffer.data() + buffer.size());
}

TEST(PackedArrayTest, ExtraPayloadBytesAreCut) {
  // Long slack is not written back, whether the stream copied it or
  // views it in place.
  const auto values = RandomValues(20, 9, 8);
  const PackedArray packed = PackedArray::Pack(values, 9);
  auto payload = PayloadBytes(packed);
  const auto expected = payload;
  payload.resize(payload.size() + 100, 0xAB);
  const auto bytes = Tail(9, 20, payload);
  auto copy = ReadTail(bytes);
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(PayloadBytes(copy.value()), expected);
  const SharedBuffer buffer = test::SharedCopy(bytes);
  BufferReader reader(buffer);
  auto view = PackedArray::Read(&reader);
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(LiesInside(view.value(), buffer));
  EXPECT_EQ(PayloadBytes(view.value()), expected);
}

TEST(PackedArrayTest, OwningReaderViewsThePayload) {
  // Through a reader over a shared buffer (a loaded block's), Read views
  // the payload instead of copying it, shares the buffer's owner, and
  // still decodes once the reader and the buffer's last other handle are
  // gone (ASan checks the last part).
  for (int width : {0, 1, 13, 57, 64}) {
    SCOPED_TRACE("width=" + std::to_string(width));
    const auto values = RandomValues(500, width, 60 + width);
    BufferWriter writer;
    PackedArray::Pack(values, width).Write(&writer);
    SharedBuffer buffer = test::SharedCopy(std::move(writer).Finish());
    std::optional<PackedArray> stream;
    {
      BufferReader reader(buffer);
      auto read = PackedArray::Read(&reader);
      ASSERT_TRUE(read.ok()) << read.status().ToString();
      stream = std::move(read).value();
    }
    EXPECT_TRUE(LiesInside(*stream, buffer));
    EXPECT_EQ(buffer.owner().use_count(), 2);
    buffer = SharedBuffer();
    std::vector<uint64_t> decoded(values.size());
    stream->DecodeRange(0, values.size(), decoded.data());
    EXPECT_EQ(decoded, values);
    EXPECT_EQ(stream->Get(values.size() - 1), values.back());
  }
}

TEST(PackedArrayTest, OwningReaderCopiesAPayloadWithShortSlack) {
  // A payload with fewer than kDecodePadBytes of slack (an older file)
  // is copied and zero-padded even through an owning reader: a view's
  // kernel loads would run past it into the bytes that follow, here
  // 0xAB filler.
  const auto values = RandomValues(300, 13, 9);
  const PackedArray packed = PackedArray::Pack(values, 13);
  const auto padded = PayloadBytes(packed);
  for (size_t slack : {size_t{0}, size_t{1}, kDecodePadBytes - 1}) {
    SCOPED_TRACE("slack=" + std::to_string(slack));
    const std::vector<uint8_t> payload(
        padded.begin(),
        padded.begin() + static_cast<long>(packed.SizeBytes() + slack));
    auto bytes = Tail(13, 300, payload);
    bytes.resize(bytes.size() + 64, 0xAB);
    const SharedBuffer buffer = test::SharedCopy(bytes);
    BufferReader reader(buffer);
    auto read = PackedArray::Read(&reader);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_FALSE(LiesInside(read.value(), buffer));
    EXPECT_EQ(buffer.owner().use_count(), 2);  // The buffer and reader.
    EXPECT_EQ(PayloadBytes(read.value()), padded);
    std::vector<uint64_t> decoded(300);
    read.value().DecodeRange(0, 300, decoded.data());
    EXPECT_EQ(decoded, values);
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
  bytes.resize(bit_util::CeilDiv(values.size() * width, 8) + kDecodePadBytes,
               0);
  return bytes;
}

TEST(PackedArrayTest, BulkPackMatchesPerValueAppend) {
  for (int width = 0; width <= 64; ++width) {
    for (size_t count : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                         size_t{65}, size_t{1000}, size_t{4097}}) {
      const auto values = RandomValues(count, width, 101 * width + count);
      const std::vector<uint8_t> expected = PackOneByOne(values, width);

      EXPECT_EQ(PayloadBytes(PackedArray::Pack(values, width)), expected)
          << "Pack(values) width " << width << " count " << count;

      // Chunked on-the-fly codes: 4097 values span five chunks and a
      // one-value tail.
      size_t next = 0;
      const PackedArray chunked = PackedArray::Pack(
          count, width, [&](size_t begin, size_t len, uint64_t* codes) {
            EXPECT_EQ(begin, next);
            EXPECT_LE(len, kPackChunk);
            std::copy_n(values.data() + begin, len, codes);
            next = begin + len;
          });
      EXPECT_EQ(next, count);
      EXPECT_EQ(PayloadBytes(chunked), expected)
          << "Pack(codes) width " << width << " count " << count;
    }
  }
}

// The bit-by-bit model of PackBits: value i's bit b is bit
// i * width + b of the stream, little-endian, and every bit up to the
// last whole 64-bit word is zero otherwise.
std::vector<uint8_t> PackBitByBit(const std::vector<uint64_t>& values,
                                  int width) {
  std::vector<uint8_t> bytes(
      bit_util::CeilDiv(values.size() * static_cast<size_t>(width), 64) * 8,
      0);
  for (size_t i = 0; i < values.size(); ++i) {
    for (int b = 0; b < width; ++b) {
      const size_t bit = i * static_cast<size_t>(width) + b;
      bytes[bit / 8] |= static_cast<uint8_t>(((values[i] >> b) & 1) << (bit % 8));
    }
  }
  return bytes;
}

TEST(PackBitsTest, MatchesBitByBitModelInOneAndTwoCalls) {
  // Every width, counts around the 64-value blocks of the per-width
  // packers (and 4,097: 64 blocks and a one-value tail), all-ones values
  // and a pattern that sets every bit position of the width. The output
  // is compared byte for byte with the model, through the last word
  // PackBits stores, and no byte past that word is written.
  constexpr uint8_t kCanary = 0xA5;
  for (int width = 0; width <= 64; ++width) {
    const uint64_t mask = width == 0    ? 0
                          : width == 64 ? ~uint64_t{0}
                                        : (uint64_t{1} << width) - 1;
    for (size_t count : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                         size_t{65}, size_t{127}, size_t{128}, size_t{129},
                         size_t{4097}}) {
      std::vector<uint64_t> ones(count, mask);
      std::vector<uint64_t> pattern(count);
      for (size_t i = 0; i < count; ++i) {
        pattern[i] = (i * 0x9E3779B97F4A7C15ull ^ (i << 7)) & mask;
      }
      for (const auto* values : {&ones, &pattern}) {
        SCOPED_TRACE("width " + std::to_string(width) + " count " +
                     std::to_string(count) +
                     (values == &ones ? " ones" : " pattern"));
        const std::vector<uint8_t> expected = PackBitByBit(*values, width);
        std::vector<uint8_t> out(expected.size() + 16, kCanary);
        PackBits(values->data(), count, width, out.data());
        EXPECT_TRUE(std::equal(expected.begin(), expected.end(), out.begin()));
        EXPECT_TRUE(std::all_of(out.begin() + expected.size(), out.end(),
                                [](uint8_t b) { return b == kCanary; }));

        // Two calls, the first a multiple of 64 values.
        const size_t split = count / 2 / 64 * 64;
        std::vector<uint8_t> two(expected.size() + 16, kCanary);
        PackBits(values->data(), split, width, two.data());
        PackBits(values->data() + split, count - split, width,
                 two.data() + split / 8 * static_cast<size_t>(width));
        EXPECT_TRUE(std::equal(expected.begin(), expected.end(), two.begin()));
        EXPECT_TRUE(std::all_of(two.begin() + expected.size(), two.end(),
                                [](uint8_t b) { return b == kCanary; }));
      }
    }
  }
}

}  // namespace
}  // namespace corra
