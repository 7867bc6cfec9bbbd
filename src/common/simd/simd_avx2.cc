// AVX2 backend of the SIMD kernel layer. Compiled with -mavx2 (per-file
// compile flag in CMakeLists.txt); no kernel here runs unless
// Avx2Table() confirmed AVX2 support, and the table is compiled out on
// non-x86 targets.
//
// Unpack kernels: a 64-value block of width W occupies exactly 8*W bytes
// starting byte-aligned, so all byte offsets, dword permutation indices,
// and lane shifts are compile-time constants per width. Each group of 4
// output values is produced by one 32-byte load, one vpermd that routes
// the two dwords covering each value into its 64-bit lane, one variable
// 64-bit shift, and one mask — ~5 instructions per 4 values, no scalar
// bit arithmetic in the loop.
//
// Predicate kernels: 8 values are compared per step, the compare
// results become an 8-bit mask via movemask, and a 256-entry
// permutation table left-packs the matching row ids into the selection
// vector with a single vpermd + store. The store always writes 8 lanes;
// since matches <= elements processed, the slack stays inside the
// caller's count-sized buffer. The value filter compares two 4 x 64-bit
// vpcmpgtq pairs. The packed filter unpacks its codes in registers
// first: 8 codes of 1..25 bits per vpshufb + vpsrlvd into 32-bit lanes
// (one subtract, vpminud and vpcmpeqd compare them); other widths
// unpack a stack chunk with the unpack kernels and compare it as 4 x
// 64-bit lanes.
//
// Aggregate kernel: two 4-lane sum accumulators, horizontally reduced
// once per call. There is no min/max kernel: AVX2 has no 64-bit min/max
// instruction, and the compare + blend folds did not pay (simd.h).
//
// Checksum kernel: CRC32C through SSE4.2's crc32 instruction, which every
// AVX2 CPU has; the CPU probe asks for both.

#if defined(__x86_64__)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#include "common/simd/kernel_table.h"

namespace corra::simd::internal {

namespace {

constexpr uint64_t WidthMask(int width) {
  return width >= 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
}

// Unpacks values 4*G .. 4*G+3 of a 64-value block of width W starting at
// byte-aligned `in`.
template <int W, size_t G>
inline void UnpackGroup4(const uint8_t* in, uint64_t* out) {
  constexpr size_t base_bit = 4 * G * static_cast<size_t>(W);
  constexpr int r0 = static_cast<int>(base_bit & 7);
  // Lane l's value occupies bits [r0 + l*W, r0 + l*W + W) of the 32-byte
  // load; with W <= 32 that is always inside dwords q_l and q_l + 1, and
  // the in-lane shift s_l stays <= 31 so s_l + W <= 63 fits the lane.
  constexpr int q0 = (r0 + 0 * W) >> 5, s0 = (r0 + 0 * W) & 31;
  constexpr int q1 = (r0 + 1 * W) >> 5, s1 = (r0 + 1 * W) & 31;
  constexpr int q2 = (r0 + 2 * W) >> 5, s2 = (r0 + 2 * W) & 31;
  constexpr int q3 = (r0 + 3 * W) >> 5, s3 = (r0 + 3 * W) & 31;
  const __m256i raw = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(in + (base_bit >> 3)));
  const __m256i idx =
      _mm256_setr_epi32(q0, q0 + 1, q1, q1 + 1, q2, q2 + 1, q3, q3 + 1);
  const __m256i shifts = _mm256_setr_epi64x(s0, s1, s2, s3);
  const __m256i lanes = _mm256_permutevar8x32_epi32(raw, idx);
  const __m256i vals =
      _mm256_and_si256(_mm256_srlv_epi64(lanes, shifts),
                       _mm256_set1_epi64x(static_cast<int64_t>(WidthMask(W))));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 4 * G), vals);
}

template <int W>
void Unpack64Avx2(const uint8_t* in, uint64_t* out) {
  if constexpr (W == 0) {
    std::memset(out, 0, kUnpackBlock * sizeof(uint64_t));
  } else {
    [&]<size_t... G>(std::index_sequence<G...>) {
      (UnpackGroup4<W, G>(in, out), ...);
    }(std::make_index_sequence<kUnpackBlock / 4>{});
  }
}

constexpr auto kAvx2Unpack =
    []<size_t... W>(std::index_sequence<W...>) {
      return std::array<Unpack64Fn, kMaxKernelWidth + 1>{
          &Unpack64Avx2<static_cast<int>(W)>...};
    }(std::make_index_sequence<kMaxKernelWidth + 1>{});

// 256-entry left-pack table: entry m lists the set bit positions of m
// first, so vpermd compacts the matching lanes' row ids to the front.
struct alignas(32) PermTable {
  int32_t perm[256][8];
};

constexpr PermTable MakePermTable() {
  PermTable t{};
  for (int m = 0; m < 256; ++m) {
    int n = 0;
    for (int bit = 0; bit < 8; ++bit) {
      if (m & (1 << bit)) {
        t.perm[m][n++] = bit;
      }
    }
    for (int rest = 0; n < 8; ++n, ++rest) {
      t.perm[m][n] = rest;  // Don't-care lanes.
    }
  }
  return t;
}

constexpr PermTable kPermTable = MakePermTable();

// Left-packs the lanes of `rows` whose bit is set in the 8-bit `good` to
// out_rows + n and returns n plus their number. All 8 lanes are stored,
// so out_rows must have 8 slots from n on.
inline size_t LeftPack(unsigned good, __m256i rows, uint32_t* out_rows,
                       size_t n) {
  const __m256i perm = _mm256_load_si256(
      reinterpret_cast<const __m256i*>(kPermTable.perm[good]));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out_rows + n),
                      _mm256_permutevar8x32_epi32(rows, perm));
  return n + static_cast<size_t>(__builtin_popcount(good));
}

// Shared core of the signed/unsigned filters: `bias` is XORed into both
// the values and the bounds before the signed compare (0 for signed,
// 1 << 63 to order unsigned inputs).
template <uint64_t Bias, typename T>
size_t FilterRangeAvx2(const T* values, size_t count, T lo, T hi,
                       uint32_t row_base, uint32_t* out_rows) {
  const __m256i bias = _mm256_set1_epi64x(static_cast<int64_t>(Bias));
  const __m256i vlo = _mm256_xor_si256(
      _mm256_set1_epi64x(static_cast<int64_t>(lo)), bias);
  const __m256i vhi = _mm256_xor_si256(
      _mm256_set1_epi64x(static_cast<int64_t>(hi)), bias);
  size_t n = 0;
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256i a = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i)),
        bias);
    const __m256i b = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i + 4)),
        bias);
    const __m256i bad_a = _mm256_or_si256(_mm256_cmpgt_epi64(vlo, a),
                                          _mm256_cmpgt_epi64(a, vhi));
    const __m256i bad_b = _mm256_or_si256(_mm256_cmpgt_epi64(vlo, b),
                                          _mm256_cmpgt_epi64(b, vhi));
    const int mask_a = _mm256_movemask_pd(_mm256_castsi256_pd(bad_a));
    const int mask_b = _mm256_movemask_pd(_mm256_castsi256_pd(bad_b));
    const unsigned good =
        static_cast<unsigned>(~(mask_a | (mask_b << 4))) & 0xFFu;
    const __m256i lane_rows = _mm256_add_epi32(
        _mm256_set1_epi32(static_cast<int32_t>(row_base + i)),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    // n <= i here, so the 8-lane store ends at most at i + 8 <= count.
    n = LeftPack(good, lane_rows, out_rows, n);
  }
  for (; i < count; ++i) {
    out_rows[n] = row_base + static_cast<uint32_t>(i);
    const uint64_t v = static_cast<uint64_t>(values[i]);
    n += static_cast<size_t>(v - static_cast<uint64_t>(lo) <=
                             static_cast<uint64_t>(hi) -
                                 static_cast<uint64_t>(lo));
  }
  return n;
}

size_t FilterI64Avx2(const int64_t* values, size_t count, int64_t lo,
                     int64_t hi, uint32_t row_base, uint32_t* out_rows) {
  if (lo > hi) {
    return 0;
  }
  return FilterRangeAvx2<0>(values, count, lo, hi, row_base, out_rows);
}

// Widths 1..25: 8 codes per step are unpacked into 32-bit lanes in
// registers and compared there. 8 codes span exactly W bytes, so every
// step starts at the same bit phase and the byte shuffle and lane shifts
// are fixed for the call. Lanes 0..3 shuffle their 4 bytes out of a
// 16-byte load at the step's first byte, lanes 4..7 out of one at code
// 4's byte; a code starts at most 7 bits into its 4 bytes, so shift +
// width <= 32. The code range is at most 25 bits, so code - lo <= range
// is one subtract, one unsigned min and one equality compare. Every step
// left-packs, matched or not: on codes in random order, a branch that
// skips the left-pack of a step without a match mispredicts, and cost
// 83 against 58 us at 1% selectivity and 127 against 57 us at 20% on a
// 262,144-code 12-bit stream (best of 300 runs, 4-vCPU Xeon VM).
size_t FilterNarrowAvx2(const uint8_t* data, int bit_width, size_t begin,
                        size_t count, uint64_t lo, uint64_t range,
                        uint32_t* out_rows) {
  const size_t bit = begin * static_cast<size_t>(bit_width);
  const int phase = static_cast<int>(bit & 7);
  const int high_bit = phase + 4 * bit_width;
  const size_t high_byte = static_cast<size_t>(high_bit >> 3);
  alignas(32) uint8_t shuffle[32];
  alignas(32) uint32_t shifts[8];
  for (int lane = 0; lane < 8; ++lane) {
    const int start =
        (lane < 4 ? phase : high_bit & 7) + (lane & 3) * bit_width;
    for (int b = 0; b < 4; ++b) {
      shuffle[4 * lane + b] = static_cast<uint8_t>((start >> 3) + b);
    }
    shifts[lane] = static_cast<uint32_t>(start & 7);
  }
  const __m256i vshuffle =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(shuffle));
  const __m256i vshifts =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(shifts));
  const __m256i vmask =
      _mm256_set1_epi32(static_cast<int32_t>(WidthMask(bit_width)));
  const __m256i vlo = _mm256_set1_epi32(static_cast<int32_t>(lo));
  const __m256i vrange = _mm256_set1_epi32(static_cast<int32_t>(range));
  const __m256i eight = _mm256_set1_epi32(8);
  __m256i rows = _mm256_add_epi32(
      _mm256_set1_epi32(static_cast<int32_t>(static_cast<uint32_t>(begin))),
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  const uint8_t* in = data + (bit >> 3);
  size_t n = 0;
  size_t i = 0;
  for (; i + 8 <= count;
       i += 8, in += bit_width, rows = _mm256_add_epi32(rows, eight)) {
    const __m256i bytes = _mm256_inserti128_si256(
        _mm256_castsi128_si256(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(in))),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + high_byte)),
        1);
    const __m256i codes = _mm256_and_si256(
        _mm256_srlv_epi32(_mm256_shuffle_epi8(bytes, vshuffle), vshifts),
        vmask);
    const __m256i offset = _mm256_sub_epi32(codes, vlo);
    const __m256i hit =
        _mm256_cmpeq_epi32(_mm256_min_epu32(offset, vrange), offset);
    const auto good = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(hit)));
    // n <= i, so the 8-lane store ends at most at i + 8 <= count.
    n = LeftPack(good, rows, out_rows, n);
  }
  // Tail: one 8-byte load per code, branchless select.
  const uint64_t mask = WidthMask(bit_width);
  for (size_t pos = (begin + i) * static_cast<size_t>(bit_width); i < count;
       ++i, pos += static_cast<size_t>(bit_width)) {
    uint64_t word;
    std::memcpy(&word, data + (pos >> 3), sizeof(word));
    out_rows[n] = static_cast<uint32_t>(begin + i);
    n += static_cast<size_t>(((word >> (pos & 7)) & mask) - lo <= range);
  }
  return n;
}

// Codes per unpack-and-compare step of the filter's other widths: a
// 2 KB stack chunk that stays in L1 between the unpack and the compare.
constexpr size_t kFilterChunk = 256;

size_t FilterPackedAvx2(const uint8_t* data, int bit_width, size_t begin,
                        size_t count, uint64_t lo, uint64_t hi,
                        uint32_t* out_rows) {
  const uint64_t max_code = WidthMask(bit_width);
  if (count == 0 || lo > hi || lo > max_code) {
    return 0;
  }
  hi = std::min(hi, max_code);
  if (bit_width != 0 && bit_width <= 25) {
    return FilterNarrowAvx2(data, bit_width, begin, count, lo, hi - lo,
                            out_rows);
  }
  // Widths 0 and 26..64: unpack a chunk with the unpack kernels, then
  // compare it as 64-bit lanes. Chunks after the first start on a
  // 64-value block, so only the first can have a head the kernels do not
  // cover.
  uint64_t codes[kFilterChunk];
  const auto row = static_cast<uint32_t>(begin);
  size_t n = 0;
  for (size_t done = 0; done < count;) {
    const size_t len = std::min(
        count - done, kFilterChunk - (begin + done) % kUnpackBlock);
    UnpackRangeWith(kAvx2Unpack.data(), data, bit_width, begin + done, len,
                    codes);
    n += FilterRangeAvx2<uint64_t{1} << 63>(
        codes, len, lo, hi, row + static_cast<uint32_t>(done), out_rows + n);
    done += len;
  }
  return n;
}

uint64_t SumU64Avx2(const uint64_t* values, size_t count) {
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    acc0 = _mm256_add_epi64(
        acc0,
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i)));
    acc1 = _mm256_add_epi64(
        acc1,
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i + 4)));
  }
  acc0 = _mm256_add_epi64(acc0, acc1);
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc0);
  uint64_t sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < count; ++i) {
    sum += values[i];
  }
  return sum;
}

void TranslateCodesAvx2(const int64_t* dict, const uint64_t* codes,
                        size_t count, int64_t* out) {
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes + i));
    const __m256i vals = _mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(dict), idx, 8);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), vals);
  }
  for (; i < count; ++i) {
    out[i] = dict[codes[i]];
  }
}

void AddConstAvx2(int64_t* values, size_t count, int64_t base) {
  const __m256i vbase = _mm256_set1_epi64x(base);
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    __m256i* p = reinterpret_cast<__m256i*>(values + i);
    _mm256_storeu_si256(p, _mm256_add_epi64(_mm256_loadu_si256(p), vbase));
  }
  for (; i < count; ++i) {
    values[i] = static_cast<int64_t>(static_cast<uint64_t>(values[i]) +
                                     static_cast<uint64_t>(base));
  }
}

void AddRefBaseAvx2(const int64_t* ref, const uint64_t* deltas, int64_t base,
                    size_t count, int64_t* out) {
  const __m256i vbase = _mm256_set1_epi64x(base);
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256i r =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ref + i));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(deltas + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_add_epi64(_mm256_add_epi64(r, vbase), d));
  }
  for (; i < count; ++i) {
    out[i] = static_cast<int64_t>(static_cast<uint64_t>(ref[i]) +
                                  static_cast<uint64_t>(base) + deltas[i]);
  }
}

void AddRefZigZagAvx2(const int64_t* ref, const uint64_t* zigzag,
                      size_t count, int64_t* out) {
  const __m256i one = _mm256_set1_epi64x(1);
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256i r =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ref + i));
    const __m256i z =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(zigzag + i));
    // ZigZagDecode(z) = (z >> 1) ^ -(z & 1).
    const __m256i half = _mm256_srli_epi64(z, 1);
    const __m256i sign = _mm256_sub_epi64(_mm256_setzero_si256(),
                                          _mm256_and_si256(z, one));
    const __m256i delta = _mm256_xor_si256(half, sign);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_add_epi64(r, delta));
  }
  for (; i < count; ++i) {
    const uint64_t z = zigzag[i];
    const uint64_t delta = (z >> 1) ^ (~(z & 1) + 1);
    out[i] = static_cast<int64_t>(static_cast<uint64_t>(ref[i]) + delta);
  }
}

// Vector zig-zag decode: (z >> 1) ^ -(z & 1) per 64-bit lane.
inline __m256i ZigZagDecode4(__m256i z) {
  const __m256i half = _mm256_srli_epi64(z, 1);
  const __m256i sign = _mm256_sub_epi64(
      _mm256_setzero_si256(), _mm256_and_si256(z, _mm256_set1_epi64x(1)));
  return _mm256_xor_si256(half, sign);
}

// In-register inclusive prefix sum of 4 qword lanes:
// [a, b, c, d] -> [a, a+b, a+b+c, a+b+c+d].
inline __m256i PrefixSum4(__m256i d) {
  // Log-step within each 128-bit lane: [a, a+b | c, c+d].
  d = _mm256_add_epi64(d, _mm256_slli_si256(d, 8));
  // Carry the low lane's total (a+b) into the high lane.
  const __m256i low_total =
      _mm256_permute4x64_epi64(d, _MM_SHUFFLE(1, 1, 1, 1));
  return _mm256_add_epi64(
      d, _mm256_blend_epi32(_mm256_setzero_si256(), low_total, 0xF0));
}

// The Delta decode's prefix sum for widths > 14: out[i] = seed +
// ZigZagDecode(zigzag[0]) + ... + ZigZagDecode(zigzag[i]) (wrap-around).
void ZigZagPrefixSumAvx2(const uint64_t* zigzag, size_t count, int64_t seed,
                         int64_t* out) {
  // Two independent 4-lane prefix sums per iteration; the loop-carried
  // dependency is one add + one lane broadcast per 8 values instead of
  // one add per value.
  __m256i carry = _mm256_set1_epi64x(seed);
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256i p0 = PrefixSum4(ZigZagDecode4(_mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(zigzag + i))));
    const __m256i p1 = PrefixSum4(ZigZagDecode4(_mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(zigzag + i + 4))));
    const __m256i o0 = _mm256_add_epi64(p0, carry);
    const __m256i o1 = _mm256_add_epi64(
        p1, _mm256_permute4x64_epi64(o0, _MM_SHUFFLE(3, 3, 3, 3)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), o0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 4), o1);
    carry = _mm256_permute4x64_epi64(o1, _MM_SHUFFLE(3, 3, 3, 3));
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), carry);
  uint64_t acc = lanes[0];
  for (; i < count; ++i) {
    const uint64_t z = zigzag[i];
    acc += (z >> 1) ^ (~(z & 1) + 1);
    out[i] = static_cast<int64_t>(acc);
  }
}

// Wrap-around sum of ZigZagDecode over `count` packed values starting at
// value index `begin` — the fold under the Delta gather (and the point
// kernel's fallback), fused with the unpack: widths <= 14 decode four
// values per 8-byte load with one variable shift, widths <= 28 two.
int64_t ZigZagSumPackedAvx2(const uint8_t* data, int bit_width, size_t begin,
                            size_t count) {
  if (bit_width == 0 || count == 0) {
    return 0;
  }
  const uint64_t mask = WidthMask(bit_width);
  const size_t w = static_cast<size_t>(bit_width);
  size_t bit = begin * w;
  size_t i = 0;
  uint64_t sum = 0;
  if (bit_width <= 14) {
    // Four consecutive values fit one 8-byte load (7 + 4*14 <= 63):
    // broadcast the word, shift each lane to its value, decode, add.
    const __m256i vmask = _mm256_set1_epi64x(static_cast<int64_t>(mask));
    const __m256i lane_shift = _mm256_setr_epi64x(
        0, bit_width, 2 * bit_width, 3 * bit_width);
    __m256i acc = _mm256_setzero_si256();
    for (; i + 4 <= count; i += 4, bit += 4 * w) {
      uint64_t word;
      std::memcpy(&word, data + (bit >> 3), sizeof(word));
      const __m256i shift = _mm256_add_epi64(
          _mm256_set1_epi64x(static_cast<int64_t>(bit & 7)), lane_shift);
      const __m256i v = _mm256_and_si256(
          _mm256_srlv_epi64(_mm256_set1_epi64x(static_cast<int64_t>(word)),
                            shift),
          vmask);
      acc = _mm256_add_epi64(acc, ZigZagDecode4(v));
    }
    alignas(32) uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
    sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  }
  if (bit_width <= 28) {
    // Widths 15..28 (and the narrow-width tail): two values per 8-byte
    // load, same shape as the scalar backend.
    uint64_t acc0 = 0;
    uint64_t acc1 = 0;
    for (; i + 2 <= count; i += 2, bit += 2 * w) {
      uint64_t word;
      std::memcpy(&word, data + (bit >> 3), sizeof(word));
      const int shift = static_cast<int>(bit & 7);
      const uint64_t z0 = (word >> shift) & mask;
      const uint64_t z1 = (word >> (shift + bit_width)) & mask;
      acc0 += (z0 >> 1) ^ (~(z0 & 1) + 1);
      acc1 += (z1 >> 1) ^ (~(z1 & 1) + 1);
    }
    sum += acc0 + acc1;
  }
  // Per-value tail, and the whole fold for widths > 28.
  for (; i < count; ++i, bit += w) {
    const size_t byte = bit >> 3;
    const int shift = static_cast<int>(bit & 7);
    uint64_t word;
    std::memcpy(&word, data + byte, sizeof(word));
    uint64_t v = word >> shift;
    if (bit_width > 57 && shift + bit_width > 64) {
      uint64_t next;
      std::memcpy(&next, data + byte + 8, sizeof(next));
      v |= next << (64 - shift);
    }
    v &= mask;
    sum += (v >> 1) ^ (~(v & 1) + 1);
  }
  return static_cast<int64_t>(sum);
}

void DeltaDecodeAvx2(const uint8_t* data, int bit_width, size_t begin,
                     size_t count, int64_t seed, int64_t* out) {
  if (bit_width == 0) {
    const __m256i v = _mm256_set1_epi64x(seed);
    size_t i = 0;
    for (; i + 4 <= count; i += 4) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), v);
    }
    for (; i < count; ++i) {
      out[i] = seed;
    }
    return;
  }
  const size_t w = static_cast<size_t>(bit_width);
  size_t i = 0;
  if (bit_width <= 14) {
    // Fully fused: 8 values per iteration come out of two 8-byte loads,
    // are zig-zag decoded and prefix-summed in registers, and stored —
    // the packed window never hits a scratch buffer. The loop-carried
    // carry is one add + one lane broadcast per 8 values.
    const __m256i vmask =
        _mm256_set1_epi64x(static_cast<int64_t>(WidthMask(bit_width)));
    const __m256i lane_shift = _mm256_setr_epi64x(
        0, bit_width, 2 * bit_width, 3 * bit_width);
    __m256i carry = _mm256_set1_epi64x(seed);
    size_t bit = begin * w;
    // The in-word phase repeats every iteration (the cursor advances by
    // 8*w bits, a whole byte count), so both shift vectors hoist out of
    // the loop.
    const __m256i sh0 = _mm256_add_epi64(
        _mm256_set1_epi64x(static_cast<int64_t>(bit & 7)), lane_shift);
    const __m256i sh1 = _mm256_add_epi64(
        _mm256_set1_epi64x(static_cast<int64_t>((bit + 4 * w) & 7)),
        lane_shift);
    for (; i + 8 <= count; i += 8, bit += 8 * w) {
      uint64_t word0;
      uint64_t word1;
      std::memcpy(&word0, data + (bit >> 3), sizeof(word0));
      std::memcpy(&word1, data + ((bit + 4 * w) >> 3), sizeof(word1));
      const __m256i z0 = _mm256_and_si256(
          _mm256_srlv_epi64(
              _mm256_set1_epi64x(static_cast<int64_t>(word0)), sh0),
          vmask);
      const __m256i z1 = _mm256_and_si256(
          _mm256_srlv_epi64(
              _mm256_set1_epi64x(static_cast<int64_t>(word1)), sh1),
          vmask);
      const __m256i p0 = PrefixSum4(ZigZagDecode4(z0));
      const __m256i p1 = PrefixSum4(ZigZagDecode4(z1));
      const __m256i o0 = _mm256_add_epi64(p0, carry);
      const __m256i o1 = _mm256_add_epi64(
          p1, _mm256_permute4x64_epi64(o0, _MM_SHUFFLE(3, 3, 3, 3)));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), o0);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 4), o1);
      carry = _mm256_permute4x64_epi64(o1, _MM_SHUFFLE(3, 3, 3, 3));
    }
    if (i > 0) {
      seed = out[i - 1];
    }
    // Scalar tail.
    uint64_t acc = static_cast<uint64_t>(seed);
    const uint64_t mask = WidthMask(bit_width);
    for (; i < count; ++i, bit += w) {
      uint64_t word;
      std::memcpy(&word, data + (bit >> 3), sizeof(word));
      const uint64_t z = (word >> (bit & 7)) & mask;
      acc += (z >> 1) ^ (~(z & 1) + 1);
      out[i] = static_cast<int64_t>(acc);
    }
    return;
  }
  // Wider deltas: chunked unpack through the specialized kernels, then
  // the in-register prefix sum.
  uint64_t deltas[512];
  while (i < count) {
    const size_t len = count - i < 512 ? count - i : 512;
    UnpackRangeWith(kAvx2Unpack.data(), data, bit_width, begin + i, len,
                    deltas);
    ZigZagPrefixSumAvx2(deltas, len, seed, out + i);
    seed = out[i + len - 1];
    i += len;
  }
}

// Fold of exactly `fixed` delta slots starting at `begin`, with only the
// first `count` contributing (lane-index mask). The trip count depends
// only on `fixed` — constant for a given column — so the loop exit is
// perfectly predicted even though `count` varies per access; replay
// windows with data-dependent lengths would otherwise cost 2-3 branch
// mispredicts per point access. Caller guarantees begin + fixed <=
// column_rows (packed-stream reads stay inside the payload + pad),
// 1 <= bit_width <= 14, and fixed % 4 == 0.
template <size_t kIters>
int64_t MaskedZigZagFoldUnrolledAvx2(const uint8_t* data, int bit_width,
                                     size_t begin, size_t count) {
  const size_t w = static_cast<size_t>(bit_width);
  const __m256i vmask =
      _mm256_set1_epi64x(static_cast<int64_t>(WidthMask(bit_width)));
  const __m256i lane_shift =
      _mm256_setr_epi64x(0, bit_width, 2 * bit_width, 3 * bit_width);
  const __m256i vcount = _mm256_set1_epi64x(static_cast<int64_t>(count));
  const size_t begin_bit = begin * w;
  // The cursor advances 4*w bits per group, so the in-word phase
  // alternates with period two; both shift vectors hoist out.
  const __m256i sh[2] = {
      _mm256_add_epi64(
          _mm256_set1_epi64x(static_cast<int64_t>(begin_bit & 7)),
          lane_shift),
      _mm256_add_epi64(
          _mm256_set1_epi64x(static_cast<int64_t>((begin_bit + 4 * w) & 7)),
          lane_shift)};
  __m256i acc = _mm256_setzero_si256();
  [&]<size_t... K>(std::index_sequence<K...>) {
    ((acc = _mm256_add_epi64(
          acc,
          [&] {
            const size_t bit = begin_bit + 4 * K * w;
            uint64_t word;
            std::memcpy(&word, data + (bit >> 3), sizeof(word));
            const __m256i z = _mm256_and_si256(
                _mm256_srlv_epi64(
                    _mm256_set1_epi64x(static_cast<int64_t>(word)),
                    sh[K & 1]),
                vmask);
            const __m256i live = _mm256_cmpgt_epi64(
                vcount, _mm256_setr_epi64x(4 * K, 4 * K + 1, 4 * K + 2,
                                           4 * K + 3));
            return _mm256_and_si256(ZigZagDecode4(z), live);
          }())),
     ...);
  }(std::make_index_sequence<kIters>{});
  const __m128i halves = _mm_add_epi64(_mm256_castsi256_si128(acc),
                                       _mm256_extracti128_si256(acc, 1));
  return _mm_cvtsi128_si64(
      _mm_add_epi64(halves, _mm_unpackhi_epi64(halves, halves)));
}

int64_t MaskedZigZagFoldAvx2(const uint8_t* data, int bit_width,
                             size_t begin, size_t count, size_t fixed) {
  // The folds of intervals 16, 32 and 64 (8, 16 and 32 slots) are
  // fully unrolled with compile-time lane indices; other fixed sizes
  // take the generic loop (still a constant trip count per column).
  if (fixed == 8) {
    return MaskedZigZagFoldUnrolledAvx2<2>(data, bit_width, begin, count);
  }
  if (fixed == 16) {
    return MaskedZigZagFoldUnrolledAvx2<4>(data, bit_width, begin, count);
  }
  if (fixed == 32) {
    return MaskedZigZagFoldUnrolledAvx2<8>(data, bit_width, begin, count);
  }
  const size_t w = static_cast<size_t>(bit_width);
  const __m256i vmask =
      _mm256_set1_epi64x(static_cast<int64_t>(WidthMask(bit_width)));
  const __m256i lane_shift =
      _mm256_setr_epi64x(0, bit_width, 2 * bit_width, 3 * bit_width);
  const __m256i vcount = _mm256_set1_epi64x(static_cast<int64_t>(count));
  __m256i idx = _mm256_setr_epi64x(0, 1, 2, 3);
  const __m256i four = _mm256_set1_epi64x(4);
  __m256i acc = _mm256_setzero_si256();
  size_t bit = begin * w;
  for (size_t k = 0; k < fixed; k += 4, bit += 4 * w) {
    uint64_t word;
    std::memcpy(&word, data + (bit >> 3), sizeof(word));
    const __m256i shift = _mm256_add_epi64(
        _mm256_set1_epi64x(static_cast<int64_t>(bit & 7)), lane_shift);
    const __m256i z = _mm256_and_si256(
        _mm256_srlv_epi64(_mm256_set1_epi64x(static_cast<int64_t>(word)),
                          shift),
        vmask);
    const __m256i live = _mm256_cmpgt_epi64(vcount, idx);
    acc = _mm256_add_epi64(acc, _mm256_and_si256(ZigZagDecode4(z), live));
    idx = _mm256_add_epi64(idx, four);
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  return static_cast<int64_t>(lanes[0] + lanes[1] + lanes[2] + lanes[3]);
}

int64_t DeltaPointAvx2(const uint8_t* data, int bit_width,
                      const int64_t* checkpoints, int interval_shift,
                      size_t column_rows, size_t row) {
  // Nearest-checkpoint seek with the fold direction picked by pure
  // arithmetic select: `backward` is 50/50 on uniform accesses, so a
  // data-dependent branch here would mispredict half the time and cost
  // more than the whole fold. The only remaining branch (the stream-end
  // fallback) is taken for a handful of rows per column.
  const size_t interval = size_t{1} << interval_shift;
  const size_t checkpoint = row >> interval_shift;
  const size_t checkpoint_row = checkpoint << interval_shift;
  const size_t next_row = checkpoint_row + interval;
  const size_t forward = row - checkpoint_row;
  const size_t backward = static_cast<size_t>(
      static_cast<size_t>(forward > interval / 2) &
      static_cast<size_t>(next_row < column_rows));
  // Arithmetic selects, not ternaries: gcc lowers these flag-multiplies
  // to branch-free code, while the equivalent ternaries compiled to a
  // 50/50-mispredicting branch and cost ~4 ns/access (measured).
  const size_t begin = checkpoint_row + 1 + backward * forward;
  const size_t count = forward + backward * (interval - 2 * forward);
  const uint64_t anchor =
      static_cast<uint64_t>(checkpoints[checkpoint + backward]);
  const size_t fixed = interval / 2;
  // The masked path needs count <= fixed; the last interval's forward
  // replay can exceed it (no next checkpoint to seek back from).
  uint64_t sum;
  if (bit_width >= 1 && bit_width <= 14 && count <= fixed &&
      begin + fixed <= column_rows) [[likely]] {
    sum = static_cast<uint64_t>(
        MaskedZigZagFoldAvx2(data, bit_width, begin, count, fixed));
  } else {
    sum = static_cast<uint64_t>(
        ZigZagSumPackedAvx2(data, bit_width, begin, count));
  }
  // Negate the fold for a backward seek: value = next_checkpoint - sum.
  const uint64_t sign = 0 - static_cast<uint64_t>(backward);
  return static_cast<int64_t>(anchor + ((sum ^ sign) - sign));
}

void DeltaGatherAvx2(const uint8_t* data, int bit_width,
                     const int64_t* checkpoints, int interval_shift,
                     size_t column_rows, const uint32_t* rows, size_t count,
                     int64_t* out) {
  // Same running-cursor walk as the scalar backend; the per-gap folds
  // land on the vectorized ZigZagSumPackedAvx2 (inlined — no dispatch
  // inside the loop).
  const size_t interval = size_t{1} << interval_shift;
  size_t pos = 0;
  uint64_t value = 0;
  bool primed = false;
  for (size_t i = 0; i < count; ++i) {
    const size_t row = rows[i];
    const size_t checkpoint = row >> interval_shift;
    const size_t checkpoint_row = checkpoint << interval_shift;
    if (!primed || row < pos || checkpoint_row > pos) {
      const size_t next_row = checkpoint_row + interval;
      const size_t forward = row - checkpoint_row;
      if (forward <= interval / 2 || next_row >= column_rows) {
        value = static_cast<uint64_t>(checkpoints[checkpoint]) +
                static_cast<uint64_t>(ZigZagSumPackedAvx2(
                    data, bit_width, checkpoint_row + 1, forward));
      } else {
        value = static_cast<uint64_t>(checkpoints[checkpoint + 1]) -
                static_cast<uint64_t>(ZigZagSumPackedAvx2(
                    data, bit_width, row + 1, next_row - row));
      }
      pos = row;
      primed = true;
    } else if (row > pos) {
      value += static_cast<uint64_t>(
          ZigZagSumPackedAvx2(data, bit_width, pos + 1, row - pos));
      pos = row;
    }
    out[i] = static_cast<int64_t>(value);
  }
}

void ExpandRunsAvx2(const int64_t* run_values, const uint32_t* run_ends,
                    size_t run_begin, size_t row_begin, size_t count,
                    int64_t* out) {
  const size_t end = row_begin + count;
  size_t run = run_begin;
  size_t row = row_begin;
  while (row < end) {
    const size_t stop = run_ends[run] < end ? run_ends[run] : end;
    const int64_t value = run_values[run];
    const __m256i v = _mm256_set1_epi64x(value);
    int64_t* dst = out + (row - row_begin);
    const size_t n = stop - row;
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + j), v);
    }
    for (; j < n; ++j) {
      dst[j] = value;
    }
    row = stop;
    ++run;
  }
}

void GatherBitsAvx2(const uint8_t* data, int bit_width, const uint32_t* rows,
                    size_t count, uint64_t* out) {
  if (count == 0) {
    return;
  }
  if (bit_width == 0) {
    std::memset(out, 0, count * sizeof(uint64_t));
    return;
  }
  const uint64_t mask = WidthMask(bit_width);
  if (bit_width > 57) {
    // shift + width can exceed the 8-byte load window; splice scalar.
    for (size_t i = 0; i < count; ++i) {
      const size_t bit_pos =
          static_cast<size_t>(rows[i]) * static_cast<size_t>(bit_width);
      const size_t byte = bit_pos >> 3;
      const int shift = static_cast<int>(bit_pos & 7);
      uint64_t word;
      std::memcpy(&word, data + byte, sizeof(word));
      uint64_t v = word >> shift;
      if (shift + bit_width > 64) {
        uint64_t next;
        std::memcpy(&next, data + byte + 8, sizeof(next));
        v |= next << (64 - shift);
      }
      out[i] = v & mask;
    }
    return;
  }
  // 4 positions per iteration: bit offsets via a 32x32->64 multiply
  // (rows < 2^32, width <= 57, so the product fits), one vpgatherqq of
  // the 8-byte windows, one variable shift, one mask. shift <= 7 and
  // width <= 57 keep every value inside its gathered qword.
  const __m256i vmask = _mm256_set1_epi64x(static_cast<int64_t>(mask));
  const __m256i vwidth = _mm256_set1_epi64x(bit_width);
  const __m256i vseven = _mm256_set1_epi64x(7);
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m128i idx32 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows + i));
    const __m256i rows64 = _mm256_cvtepu32_epi64(idx32);
    const __m256i bit_pos = _mm256_mul_epu32(rows64, vwidth);
    const __m256i byte = _mm256_srli_epi64(bit_pos, 3);
    const __m256i shift = _mm256_and_si256(bit_pos, vseven);
    const __m256i words = _mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(data), byte, 1);
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + i),
        _mm256_and_si256(_mm256_srlv_epi64(words, shift), vmask));
  }
  for (; i < count; ++i) {
    const size_t bit_pos =
        static_cast<size_t>(rows[i]) * static_cast<size_t>(bit_width);
    uint64_t word;
    std::memcpy(&word, data + (bit_pos >> 3), sizeof(word));
    out[i] = (word >> (bit_pos & 7)) & mask;
  }
}

// One crc32 stream over 8-byte words (SSE4.2, which -mavx2 enables and
// every AVX2 CPU has), then bytes for the tail. The instruction's 3-cycle
// latency bounds the stream at 8 bytes per 3 cycles. Three interleaved
// streams plus a combine step would save only ~0.13 ms per ingest op.
uint32_t Crc32cAvx2(const uint8_t* data, size_t size) {
  uint64_t crc = 0xFFFFFFFF;
  for (; size >= 8; size -= 8, data += 8) {
    uint64_t word;
    std::memcpy(&word, data, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; size > 0; --size, ++data) {
    crc32 = _mm_crc32_u8(crc32, *data);
  }
  return ~crc32;
}

constexpr KernelTable MakeAvx2Table() {
  KernelTable table{};
  for (int w = 0; w <= kMaxKernelWidth; ++w) {
    table.unpack64[w] = kAvx2Unpack[static_cast<size_t>(w)];
  }
  table.filter_i64 = &FilterI64Avx2;
  table.filter_packed = &FilterPackedAvx2;
  table.sum_u64 = &SumU64Avx2;
  table.translate_codes = &TranslateCodesAvx2;
  table.add_const = &AddConstAvx2;
  table.add_ref_base = &AddRefBaseAvx2;
  table.add_ref_zigzag = &AddRefZigZagAvx2;
  table.delta_decode = &DeltaDecodeAvx2;
  table.delta_point = &DeltaPointAvx2;
  table.delta_gather = &DeltaGatherAvx2;
  table.expand_runs = &ExpandRunsAvx2;
  table.gather_bits = &GatherBitsAvx2;
  table.crc32c = &Crc32cAvx2;
  return table;
}

constexpr KernelTable kAvx2Table = MakeAvx2Table();

}  // namespace

// The CPU probe only reads the feature bits, so it is safe to run on
// any x86-64 even though this file is compiled with -mavx2.
const KernelTable* Avx2Table() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("sse4.2")
             ? &kAvx2Table
             : nullptr;
}

}  // namespace corra::simd::internal

#else  // Non-x86 target: no AVX2 table.

#include "common/simd/kernel_table.h"

namespace corra::simd::internal {

const KernelTable* Avx2Table() { return nullptr; }

}  // namespace corra::simd::internal

#endif
