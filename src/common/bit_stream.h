// Fixed-width bit packing: PackBits and the PackedArray stream.
//
// PackedArray holds `n` unsigned values of one bit width stored back to
// back. It supports O(1) random access via a single unaligned 64-bit load
// (the bytes are followed by decode slack), which is the property the
// paper's baseline (FOR/Dict + bit-packing) relies on for fast selective
// scans. Every scheme that stores a single-width stream holds one: it is
// the only code that packs, reads, sizes, writes and reads back such a
// stream, so its Read holds the one payload-length check. A stream read
// from a loaded block views the block's read buffer instead of copying
// it (see PaddedBytes).

#ifndef CORRA_COMMON_BIT_STREAM_H_
#define CORRA_COMMON_BIT_STREAM_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>

#include "common/buffer.h"
#include "common/result.h"

namespace corra {

/// Packs `count` values of `bit_width` bits (0..64), each fitting in that
/// width, back to back from bit 0 of `out`, the layout PackedArray reads:
/// the library's one packing routine. Stores whole 64-bit words, so `out`
/// needs CeilDiv(count * bit_width, 64) * 8 bytes (a PackedArray's buffer
/// has them). A stream may be packed in several calls if all but the last
/// pack a multiple of 64 values; the call starting at value `first`
/// writes to byte first / 8 * bit_width.
void PackBits(const uint64_t* values, size_t count, int bit_width,
              uint8_t* out);

inline constexpr size_t kPackChunk = 1024;

/// The first `data_bytes` bytes of `payload` followed by
/// bit_util::kDecodePadBytes of readable slack, the form the SIMD kernels
/// read in place. When `owner` keeps `payload` alive and the payload
/// carries its whole slack, as the writer stores it, this is a view that
/// shares `owner` and the slack holds whatever the payload stores there.
/// Otherwise it is a copy in one new allocation, zero-padded where the
/// payload's slack is short (older files) and cut where it is long.
/// Requires payload.size() >= data_bytes.
std::shared_ptr<const uint8_t> PaddedBytes(
    std::span<const uint8_t> payload, size_t data_bytes,
    const std::shared_ptr<const uint8_t[]>& owner);

/// A move-only stream of `size()` values of `bit_width()` bits. Its
/// bytes are followed by bit_util::kDecodePadBytes of slack, which the
/// SIMD unpack kernels' full-width loads need. It owns them (a packed
/// stream, or a copy of a borrowed payload) or views a loaded block's
/// read buffer and shares that buffer's owner; either way it is one owner
/// handle and one data pointer, and the slack is zero unless a view's
/// file stored something else there.
class PackedArray {
 public:
  /// An empty stream (no values, no bytes).
  PackedArray() = default;
  PackedArray(PackedArray&&) = default;
  PackedArray& operator=(PackedArray&&) = default;
  PackedArray(const PackedArray&) = delete;
  PackedArray& operator=(const PackedArray&) = delete;

  /// Packs `values`, each fitting in `bit_width` (0..64) bits.
  static PackedArray Pack(std::span<const uint64_t> values, int bit_width);

  /// Packs `count` codes computed on the fly: `codes(begin, len, out)`
  /// writes the codes of [begin, begin + len) to `out`, called in order
  /// on chunks of at most kPackChunk positions, so no n-sized code array
  /// is staged.
  template <typename CodeFn>
  static PackedArray Pack(size_t count, int bit_width, CodeFn&& codes) {
    static_assert(kPackChunk % 64 == 0, "chunks must end on a word boundary");
    PackedArray array;
    uint8_t* out = array.Allocate(bit_width, count);
    uint64_t chunk[kPackChunk];
    for (size_t begin = 0; begin < count; begin += kPackChunk) {
      const size_t len = std::min(kPackChunk, count - begin);
      codes(begin, len, chunk);
      PackBits(chunk, len, bit_width,
               out + begin / 8 * static_cast<size_t>(bit_width));
    }
    return array;
  }

  /// Appends `[width u8][count u64][length-prefixed packed bytes]`.
  void Write(BufferWriter* writer) const;
  /// Reads what Write appended.
  static Result<PackedArray> Read(BufferReader* reader);

  /// Appends the length-prefixed packed bytes and their slack alone, for
  /// schemes that keep the width and count elsewhere.
  void WritePayload(BufferWriter* writer) const;
  /// Reads what WritePayload appended, as a stream of `count` values of
  /// `bit_width` bits that views the reader's bytes when the reader has
  /// an owner (the span overload with reader->owner()).
  static Result<PackedArray> ReadPayload(BufferReader* reader, int bit_width,
                                         size_t count);
  /// Reads `payload` as a stream of `count` values of `bit_width` bits.
  /// Corruption if the width exceeds 64 or the payload holds fewer than
  /// count * bit_width bits. The stream views `payload` when `owner`
  /// keeps it alive and it carries its whole slack, and copies it
  /// otherwise (PaddedBytes). Either way it re-serializes exactly as Pack
  /// would write it: a copy of a payload with less slack (older files) is
  /// zero-padded, and longer slack is not written back.
  static Result<PackedArray> ReadPayload(
      std::span<const uint8_t> payload, int bit_width, size_t count,
      const std::shared_ptr<const uint8_t[]>& owner = nullptr);

  /// Value at position `i` (unchecked; i < size()).
  uint64_t Get(size_t i) const {
    if (bit_width_ == 0) {
      return 0;
    }
    const size_t bit_pos = i * static_cast<size_t>(bit_width_);
    const size_t byte = bit_pos >> 3;
    const int shift = static_cast<int>(bit_pos & 7);
    uint64_t word;
    std::memcpy(&word, data() + byte, sizeof(word));
    uint64_t v = word >> shift;
    if (shift + bit_width_ > 64) {
      // Widths > 57 bits can straddle 9 bytes; splice in the tail. `shift`
      // is >= 1 here, so the left shift below is well defined.
      uint64_t next;
      std::memcpy(&next, data() + byte + 8, sizeof(next));
      v |= next << (64 - shift);
    }
    return v & (~uint64_t{0} >> (64 - bit_width_));
  }

  /// Decodes the `count` values starting at position `begin` into `out`
  /// (room for `count` values; begin + count <= size()) with the SIMD
  /// kernel layer's per-bit-width unpackers (common/simd/simd.h).
  void DecodeRange(size_t begin, size_t count, uint64_t* out) const;

  /// Writes the values at the positions `rows` (each < size(), any
  /// order) to `out` with the positioned SIMD gather.
  void Gather(std::span<const uint32_t> rows, uint64_t* out) const;

  /// Writes the positions in [begin, begin + count) (begin + count <=
  /// size() <= 2^32) whose value lies in the unsigned range [lo, hi] to
  /// `out_rows` (room for `count`), ascending, and returns how many, with
  /// the fused unpack-and-compare SIMD kernel (simd::FilterPacked).
  size_t Filter(size_t begin, size_t count, uint64_t lo, uint64_t hi,
                uint32_t* out_rows) const;

  size_t size() const { return count_; }
  int bit_width() const { return bit_width_; }
  /// Packed bytes of the values, slack excluded: ceil(size() *
  /// bit_width() / 8), the stream's share of a column's SizeBytes.
  size_t SizeBytes() const;
  /// The packed bytes and their slack, for fused kernels that read the
  /// stream in place (Delta's decode, point and gather folds). Null for
  /// a default-constructed stream.
  const uint8_t* data() const { return bytes_.get(); }

 private:
  // Sets the width and count and gives the stream zeroed bytes for its
  // values plus slack, in one allocation; returns them for packing.
  uint8_t* Allocate(int bit_width, size_t count);

  // The packed bytes' address, sharing ownership of the allocation or
  // read buffer that holds them (an aliasing shared_ptr).
  std::shared_ptr<const uint8_t> bytes_;
  int bit_width_ = 0;
  size_t count_ = 0;
};

}  // namespace corra

#endif  // CORRA_COMMON_BIT_STREAM_H_
