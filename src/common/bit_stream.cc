#include "common/bit_stream.h"

#include "common/bit_util.h"
#include "common/simd/simd.h"

namespace corra {

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

std::vector<uint8_t> PackValues(std::span<const uint64_t> values,
                                int bit_width) {
  std::vector<uint8_t> bytes(bit_util::PackedBytes(values.size(), bit_width),
                             0);
  PackBits(values.data(), values.size(), bit_width, bytes.data());
  return bytes;
}

void BitReader::DecodeRange(size_t begin, size_t count,
                            uint64_t* out) const {
  // Thin wrapper over the SIMD kernel layer: per-bit-width specialized
  // 64-value unpackers (AVX2 under runtime dispatch, unrolled scalar
  // otherwise) for widths <= 32, sequential-cursor decode above that.
  simd::UnpackRange(data_, bit_width_, begin, count, out);
}

}  // namespace corra
