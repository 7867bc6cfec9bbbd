// Bit-level helpers shared by all encoding schemes: bit-width computation,
// ZigZag transforms for signed values, and alignment arithmetic.

#ifndef CORRA_COMMON_BIT_UTIL_H_
#define CORRA_COMMON_BIT_UTIL_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

namespace corra::bit_util {

/// Number of bits needed to represent the unsigned value `v`.
/// BitWidth(0) == 0, BitWidth(1) == 1, BitWidth(255) == 8.
constexpr int BitWidth(uint64_t v) {
  return v == 0 ? 0 : 64 - std::countl_zero(v);
}

/// ZigZag-maps a signed value to an unsigned one so that values of small
/// magnitude (of either sign) map to small unsigned values:
/// 0 -> 0, -1 -> 1, 1 -> 2, -2 -> 3, ...
constexpr uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

/// Inverse of ZigZagEncode.
constexpr int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// Rounds `v` up to the next multiple of `factor` (a power of two).
constexpr size_t RoundUpPow2(size_t v, size_t factor) {
  return (v + factor - 1) & ~(factor - 1);
}

/// Ceil division for non-negative integers.
constexpr size_t CeilDiv(size_t a, size_t b) { return (a + b - 1) / b; }

/// Readable slack bytes every decodable bit-packed buffer carries past
/// its payload. 32 bytes, not 8: the AVX2 unpack kernels issue full
/// 32-byte vector loads whose tails may cross the last packed byte (the
/// scalar path only needs the 8-byte window of PackedArray::Get).
inline constexpr size_t kDecodePadBytes = 32;

/// Minimum and maximum of a span in a single pass ({0, 0} when empty).
struct MinMax {
  int64_t min;
  int64_t max;
};
MinMax ComputeMinMax(std::span<const int64_t> values);

/// Bits needed after zig-zag for every value in [range.min, range.max]:
/// ZigZag grows with |v| on either side of 0, so the extremes bound it.
constexpr int MaxZigZagBitWidth(MinMax range) {
  return BitWidth(ZigZagEncode(range.min) | ZigZagEncode(range.max));
}

/// Frame-of-reference width: bits of the largest offset from range.min,
/// taken in uint64 space so that any int64 range fits (at most 64 bits).
constexpr int MaxForBitWidth(MinMax range) {
  return BitWidth(static_cast<uint64_t>(range.max) -
                  static_cast<uint64_t>(range.min));
}

}  // namespace corra::bit_util

#endif  // CORRA_COMMON_BIT_UTIL_H_
