// Fixed-width bit packing primitives.
//
// PackedArray stores `n` unsigned values of a fixed bit width back to back.
// It supports O(1) random access via a single unaligned 64-bit load (the
// buffer is padded accordingly), which is the property the paper's baseline
// (FOR/Dict + bit-packing) relies on for fast selective scans.

#ifndef CORRA_COMMON_BIT_STREAM_H_
#define CORRA_COMMON_BIT_STREAM_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/bit_util.h"

namespace corra {

/// Packs `count` values of `bit_width` bits (0..64), each fitting in that
/// width, back to back from bit 0 of `out`, the layout BitReader reads:
/// the library's one packing routine. Stores whole 64-bit words, so `out`
/// needs CeilDiv(count * bit_width, 64) * 8 bytes (a PackedBytes buffer
/// has them). A stream may be packed in several calls if all but the last
/// pack a multiple of 64 values; the call starting at value `first`
/// writes to byte first / 8 * bit_width.
void PackBits(const uint64_t* values, size_t count, int bit_width,
              uint8_t* out);

inline constexpr size_t kPackChunk = 1024;

/// Packs `count` codes computed on the fly into a new decodable buffer:
/// `codes(begin, len, out)` writes the codes of [begin, begin + len) to
/// `out`, called in order on chunks of at most kPackChunk positions.
template <typename CodeFn>
std::vector<uint8_t> PackCodes(size_t count, int bit_width, CodeFn&& codes) {
  static_assert(kPackChunk % 64 == 0, "chunks must end on a word boundary");
  std::vector<uint8_t> bytes(bit_util::PackedBytes(count, bit_width), 0);
  uint64_t chunk[kPackChunk];
  for (size_t begin = 0; begin < count; begin += kPackChunk) {
    const size_t len = std::min(kPackChunk, count - begin);
    codes(begin, len, chunk);
    PackBits(chunk, len, bit_width,
             bytes.data() + begin / 8 * static_cast<size_t>(bit_width));
  }
  return bytes;
}

/// Packs `values` into a new decodable buffer.
std::vector<uint8_t> PackValues(std::span<const uint64_t> values,
                                int bit_width);

/// Random-access reader over bytes packed by PackBits (PackValues,
/// PackCodes). Does not own the bytes.
class BitReader {
 public:
  BitReader() = default;

  /// `data` must stay alive while the reader is used and must include
  /// the bit_util::kDecodePadBytes of readable slack that PackValues and
  /// PackCodes allocate (the SIMD unpack kernels behind DecodeRange
  /// issue full 32-byte loads near the payload end).
  BitReader(const uint8_t* data, int bit_width, size_t count)
      : data_(data), bit_width_(bit_width), count_(count) {}

  /// Value at position `i` (unchecked; i < size()).
  uint64_t Get(size_t i) const {
    if (bit_width_ == 0) {
      return 0;
    }
    const size_t bit_pos = i * static_cast<size_t>(bit_width_);
    const size_t byte = bit_pos >> 3;
    const int shift = static_cast<int>(bit_pos & 7);
    uint64_t word;
    std::memcpy(&word, data_ + byte, sizeof(word));
    uint64_t v = word >> shift;
    if (shift + bit_width_ > 64) {
      // Widths > 57 bits can straddle 9 bytes; splice in the tail. `shift`
      // is >= 1 here, so the left shift below is well defined.
      uint64_t next;
      std::memcpy(&next, data_ + byte + 8, sizeof(next));
      v |= next << (64 - shift);
    }
    return v & mask();
  }

  /// Decodes the `count` values starting at position `begin` into `out`
  /// (must have room for `count` values; begin + count <= size()). The
  /// ranged building block of the morsel decode pipeline: a thin wrapper
  /// over the SIMD kernel layer's per-bit-width unpackers (see
  /// common/simd/simd.h). `data` must carry bit_util::kDecodePadBytes of
  /// readable slack, as PackValues, PackCodes and every Deserialize
  /// ensure.
  void DecodeRange(size_t begin, size_t count, uint64_t* out) const;

  size_t size() const { return count_; }
  int bit_width() const { return bit_width_; }

 private:
  uint64_t mask() const { return ~uint64_t{0} >> (64 - bit_width_); }

  const uint8_t* data_ = nullptr;
  int bit_width_ = 0;
  size_t count_ = 0;
};

}  // namespace corra

#endif  // CORRA_COMMON_BIT_STREAM_H_
