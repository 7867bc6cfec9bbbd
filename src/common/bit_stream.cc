#include "common/bit_stream.h"

#include "common/bit_util.h"
#include "common/simd/simd.h"

namespace corra {

namespace {

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

PackedArray::PackedArray(int bit_width, size_t count)
    : bytes_(PackedBytes(count, bit_width), 0),
      bit_width_(bit_width),
      count_(count) {}

PackedArray PackedArray::Pack(std::span<const uint64_t> values,
                              int bit_width) {
  PackedArray array(bit_width, values.size());
  PackBits(values.data(), values.size(), bit_width, array.bytes_.data());
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
  writer->WriteBytes(bytes_);
}

Result<PackedArray> PackedArray::ReadPayload(BufferReader* reader,
                                             int bit_width, size_t count) {
  std::span<const uint8_t> payload;
  CORRA_RETURN_NOT_OK(reader->ReadBytes(&payload));
  return ReadPayload(payload, bit_width, count);
}

Result<PackedArray> PackedArray::ReadPayload(std::span<const uint8_t> payload,
                                             int bit_width, size_t count) {
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
  const size_t bytes = PackedBytes(count, bit_width);
  array.bytes_.reserve(bytes);
  array.bytes_.assign(payload.begin(),
                      payload.begin() + std::min(payload.size(), bytes));
  array.bytes_.resize(bytes, 0);
  array.bit_width_ = bit_width;
  array.count_ = count;
  return array;
}

void PackedArray::DecodeRange(size_t begin, size_t count,
                              uint64_t* out) const {
  simd::UnpackRange(bytes_.data(), bit_width_, begin, count, out);
}

void PackedArray::Gather(std::span<const uint32_t> rows,
                         uint64_t* out) const {
  simd::GatherBits(bytes_.data(), bit_width_, rows.data(), rows.size(), out);
}

size_t PackedArray::SizeBytes() const {
  return PackedDataBytes(count_, bit_width_);
}

}  // namespace corra
