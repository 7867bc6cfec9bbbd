#include "common/bit_stream.h"

#include <array>
#include <utility>

#include "common/bit_util.h"
#include "common/simd/kernel_table.h"
#include "common/simd/simd.h"

namespace corra {

namespace {

using simd::internal::kMaxKernelWidth;
using simd::internal::kUnpackBlock;

// One compile-time placement: value J of a 64-value block of width W at
// bit W * J of `words`; a value that straddles a word boundary spills its
// high bits into the next word.
template <int W, size_t J>
inline void PackAt(const uint64_t* in, uint64_t* words) {
  constexpr size_t bit = static_cast<size_t>(W) * J;
  constexpr size_t word = bit >> 6;
  constexpr int shift = static_cast<int>(bit & 63);
  words[word] |= in[J] << shift;
  if constexpr (shift + W > 64) {
    words[word + 1] |= in[J] >> (64 - shift);
  }
}

// Packs exactly 64 values of width W into the W words at `out`: the
// inverse of the scalar unpack kernels, with every word index and shift
// a compile-time constant.
template <int W>
void Pack64(const uint64_t* in, uint8_t* out) {
  if constexpr (W > 0) {
    uint64_t words[W] = {};
    [&]<size_t... J>(std::index_sequence<J...>) {
      (PackAt<W, J>(in, words), ...);
    }(std::make_index_sequence<kUnpackBlock>{});
    std::memcpy(out, words, sizeof(words));
  }
}

using Pack64Fn = void (*)(const uint64_t* in, uint8_t* out);

// Indexed by bit width; the unpack kernels' range, where every stream
// that ingest writes falls.
constexpr auto kPack64 = []<size_t... W>(std::index_sequence<W...>) {
  return std::array<Pack64Fn, kMaxKernelWidth + 1>{
      &Pack64<static_cast<int>(W)>...};
}(std::make_index_sequence<kMaxKernelWidth + 1>{});

// Exact payload bytes of `count` values of `bit_width` bits each. Callers
// must know count * bit_width does not wrap (ReadPayload checks first).
size_t PackedDataBytes(size_t count, int bit_width) {
  return bit_util::CeilDiv(count * static_cast<size_t>(bit_width), 8);
}

// Bytes a decodable buffer holds: payload plus the kernels' load slack.
size_t PackedBytes(size_t count, int bit_width) {
  return PackedDataBytes(count, bit_width) + bit_util::kDecodePadBytes;
}

}  // namespace

void PackBits(const uint64_t* values, size_t count, int bit_width,
              uint8_t* out) {
  if (bit_width == 0 || count == 0) {
    return;
  }
  if (bit_width == 64) {
    std::memcpy(out, values, count * sizeof(uint64_t));
    return;
  }
  if (bit_width <= kMaxKernelWidth) {
    // 64 values of W bits are exactly W words, so each full block starts
    // on a word boundary and the tail below starts on an empty word.
    const Pack64Fn pack = kPack64[static_cast<size_t>(bit_width)];
    for (; count >= kUnpackBlock; count -= kUnpackBlock) {
      pack(values, out);
      values += kUnpackBlock;
      out += kUnpackBlock / 8 * static_cast<size_t>(bit_width);
    }
  }
  // Word accumulator: OR each value in at the fill position; when a word
  // is full, store it and carry the value's overflow bits into the next.
  uint64_t word = 0;
  int filled = 0;
  for (size_t i = 0; i < count; ++i) {
    const uint64_t v = values[i];
    word |= v << filled;
    filled += bit_width;
    if (filled >= 64) {
      std::memcpy(out, &word, sizeof(word));
      out += sizeof(word);
      filled -= 64;
      // The bits of v that did not fit; 0 when it ended the word exactly
      // (v < 2^bit_width, and bit_width < 64 here).
      word = v >> (bit_width - filled);
    }
  }
  if (filled > 0) {
    std::memcpy(out, &word, sizeof(word));
  }
}

std::shared_ptr<const uint8_t> PaddedBytes(
    std::span<const uint8_t> payload, size_t data_bytes,
    const std::shared_ptr<const uint8_t[]>& owner) {
  const size_t padded = data_bytes + bit_util::kDecodePadBytes;
  if (owner != nullptr && payload.size() >= padded) {
    return std::shared_ptr<const uint8_t>(owner, payload.data());
  }
  std::shared_ptr<uint8_t[]> copy = std::make_shared<uint8_t[]>(padded);
  if (!payload.empty()) {
    std::memcpy(copy.get(), payload.data(), std::min(payload.size(), padded));
  }
  uint8_t* data = copy.get();
  return std::shared_ptr<const uint8_t>(std::move(copy), data);
}

uint8_t* PackedArray::Allocate(int bit_width, size_t count) {
  // make_shared puts the bytes beside their reference counts: one
  // allocation per stream, as a vector had.
  std::shared_ptr<uint8_t[]> bytes =
      std::make_shared<uint8_t[]>(PackedBytes(count, bit_width));
  uint8_t* data = bytes.get();
  bytes_ = std::shared_ptr<const uint8_t>(std::move(bytes), data);
  bit_width_ = bit_width;
  count_ = count;
  return data;
}

PackedArray PackedArray::Pack(std::span<const uint64_t> values,
                              int bit_width) {
  PackedArray array;
  PackBits(values.data(), values.size(), bit_width,
           array.Allocate(bit_width, values.size()));
  return array;
}

void PackedArray::Write(BufferWriter* writer) const {
  writer->Write<uint8_t>(static_cast<uint8_t>(bit_width_));
  writer->Write<uint64_t>(count_);
  WritePayload(writer);
}

Result<PackedArray> PackedArray::Read(BufferReader* reader) {
  uint8_t width = 0;
  uint64_t count = 0;
  CORRA_RETURN_NOT_OK(reader->Read(&width));
  CORRA_RETURN_NOT_OK(reader->Read(&count));
  return ReadPayload(reader, width, count);
}

void PackedArray::WritePayload(BufferWriter* writer) const {
  writer->WriteBytes(std::span<const uint8_t>(
      data(), bytes_ == nullptr ? 0 : PackedBytes(count_, bit_width_)));
}

Result<PackedArray> PackedArray::ReadPayload(BufferReader* reader,
                                             int bit_width, size_t count) {
  std::span<const uint8_t> payload;
  CORRA_RETURN_NOT_OK(reader->ReadBytes(&payload));
  return ReadPayload(payload, bit_width, count, reader->owner());
}

Result<PackedArray> PackedArray::ReadPayload(
    std::span<const uint8_t> payload, int bit_width, size_t count,
    const std::shared_ptr<const uint8_t[]>& owner) {
  if (bit_width < 0 || bit_width > 64) {
    return Status::Corruption("packed stream width > 64");
  }
  // Division, not payload.size() < PackedDataBytes(count, bit_width): a
  // hostile count makes count * bit_width wrap to a small value and pass,
  // leaving a stream whose row count vastly exceeds its buffer.
  if (bit_width > 0 &&
      count > payload.size() * 8 / static_cast<size_t>(bit_width)) {
    return Status::Corruption("packed stream payload truncated");
  }
  PackedArray array;
  array.bytes_ =
      PaddedBytes(payload, PackedDataBytes(count, bit_width), owner);
  array.bit_width_ = bit_width;
  array.count_ = count;
  return array;
}

void PackedArray::DecodeRange(size_t begin, size_t count,
                              uint64_t* out) const {
  simd::UnpackRange(data(), bit_width_, begin, count, out);
}

void PackedArray::Gather(std::span<const uint32_t> rows,
                         uint64_t* out) const {
  simd::GatherBits(data(), bit_width_, rows.data(), rows.size(), out);
}

size_t PackedArray::Filter(size_t begin, size_t count, uint64_t lo,
                           uint64_t hi, uint32_t* out_rows) const {
  return simd::FilterPacked(data(), bit_width_, begin, count, lo, hi,
                            out_rows);
}

size_t PackedArray::SizeBytes() const {
  return PackedDataBytes(count_, bit_width_);
}

}  // namespace corra
