// Scalar backend of the SIMD kernel layer, plus the width-generic unpack
// driver shared by every backend.
//
// The 64-value unpack kernels are generated per bit width from one
// template: the block's 8*W payload bytes are loaded into whole words
// once, then all 64 extractions run with compile-time word indices and
// shifts (the classic fully unrolled "fastunpack" shape, which the
// compiler schedules branch-free and partially vectorizes). This is the
// fallback the AVX2 table must agree with bit-for-bit — and the floor
// the dispatcher guarantees on machines without AVX2.

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#include "common/simd/kernel_table.h"

namespace corra::simd::internal {

namespace {

constexpr uint64_t WidthMask(int width) {
  return width >= 64 ? ~uint64_t{0}
                     : (uint64_t{1} << width) - 1;
}

// One compile-time extraction: value J of a 64-value block of width W,
// given the block's payload preloaded into `words` (W whole words).
template <int W, size_t J>
inline uint64_t ExtractAt(const uint64_t* words) {
  constexpr size_t bit = static_cast<size_t>(W) * J;
  constexpr size_t word = bit >> 6;
  constexpr int shift = static_cast<int>(bit & 63);
  uint64_t v = words[word] >> shift;
  if constexpr (shift + W > 64) {
    v |= words[word + 1] << (64 - shift);
  }
  return v & WidthMask(W);
}

template <int W>
void Unpack64Scalar(const uint8_t* in, uint64_t* out) {
  if constexpr (W == 0) {
    std::memset(out, 0, kUnpackBlock * sizeof(uint64_t));
  } else {
    uint64_t words[W];
    std::memcpy(words, in, sizeof(words));  // Exactly the block's 8*W bytes.
    [&]<size_t... J>(std::index_sequence<J...>) {
      ((out[J] = ExtractAt<W, J>(words)), ...);
    }(std::make_index_sequence<kUnpackBlock>{});
  }
}

constexpr auto kScalarUnpack =
    []<size_t... W>(std::index_sequence<W...>) {
      return std::array<Unpack64Fn, kMaxKernelWidth + 1>{
          &Unpack64Scalar<static_cast<int>(W)>...};
    }(std::make_index_sequence<kMaxKernelWidth + 1>{});

// Branchless staged select: out_rows[n] = row; n += matched. A matching
// row costs a store instead of a mispredicted branch.
size_t FilterI64Scalar(const int64_t* values, size_t count, int64_t lo,
                       int64_t hi, uint32_t row_base, uint32_t* out_rows) {
  size_t n = 0;
  for (size_t i = 0; i < count; ++i) {
    out_rows[n] = row_base + static_cast<uint32_t>(i);
    n += static_cast<size_t>(values[i] >= lo && values[i] <= hi);
  }
  return n;
}

// Codes per unpack-and-compare step of the packed filter: a 2 KB stack
// chunk that stays in L1 between the unpack and the compare.
constexpr size_t kFilterChunk = 256;

size_t FilterPackedScalar(const uint8_t* data, int bit_width, size_t begin,
                          size_t count, uint64_t lo, uint64_t hi,
                          uint32_t* out_rows) {
  const uint64_t max_code = WidthMask(bit_width);
  if (count == 0 || lo > hi || lo > max_code) {
    return 0;
  }
  // One unsigned compare per code: code - lo wraps past `range` when
  // code < lo.
  const uint64_t range = std::min(hi, max_code) - lo;
  const auto row = static_cast<uint32_t>(begin);
  // Unpack a chunk with the unrolled kernels, then select branchlessly.
  // Chunks after the first start on a 64-value block, so only the first
  // can have a head the kernels do not cover.
  uint64_t codes[kFilterChunk];
  size_t n = 0;
  for (size_t done = 0; done < count;) {
    const size_t len = std::min(
        count - done, kFilterChunk - (begin + done) % kUnpackBlock);
    UnpackRangeWith(kScalarUnpack.data(), data, bit_width, begin + done, len,
                    codes);
    for (size_t j = 0; j < len; ++j) {
      out_rows[n] = row + static_cast<uint32_t>(done + j);
      n += static_cast<size_t>(codes[j] - lo <= range);
    }
    done += len;
  }
  return n;
}

uint64_t SumU64Scalar(const uint64_t* values, size_t count) {
  // Four independent accumulators break the loop-carried dependency so
  // the adds pipeline; the compiler turns this into SSE2 lanes.
  uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    s0 += values[i];
    s1 += values[i + 1];
    s2 += values[i + 2];
    s3 += values[i + 3];
  }
  for (; i < count; ++i) {
    s0 += values[i];
  }
  return s0 + s1 + s2 + s3;
}

void TranslateCodesScalar(const int64_t* dict, const uint64_t* codes,
                          size_t count, int64_t* out) {
  for (size_t i = 0; i < count; ++i) {
    out[i] = dict[codes[i]];
  }
}

void AddConstScalar(int64_t* values, size_t count, int64_t base) {
  for (size_t i = 0; i < count; ++i) {
    values[i] = static_cast<int64_t>(static_cast<uint64_t>(values[i]) +
                                     static_cast<uint64_t>(base));
  }
}

void AddRefBaseScalar(const int64_t* ref, const uint64_t* deltas,
                      int64_t base, size_t count, int64_t* out) {
  for (size_t i = 0; i < count; ++i) {
    out[i] = static_cast<int64_t>(static_cast<uint64_t>(ref[i]) +
                                  static_cast<uint64_t>(base) + deltas[i]);
  }
}

void AddRefZigZagScalar(const int64_t* ref, const uint64_t* zigzag,
                        size_t count, int64_t* out) {
  for (size_t i = 0; i < count; ++i) {
    // ZigZagDecode inlined so this file has no bit_util dependency.
    const uint64_t z = zigzag[i];
    const uint64_t delta = (z >> 1) ^ (~(z & 1) + 1);
    out[i] = static_cast<int64_t>(static_cast<uint64_t>(ref[i]) + delta);
  }
}

// ZigZagDecode inlined so this file has no bit_util dependency.
inline uint64_t ZigZagDecodeOne(uint64_t z) {
  return (z >> 1) ^ (~(z & 1) + 1);
}

// The Delta decode's prefix sum: out[i] = seed + ZigZagDecode(zigzag[0])
// + ... + ZigZagDecode(zigzag[i]) (wrap-around).
void ZigZagPrefixSumScalar(const uint64_t* zigzag, size_t count,
                           int64_t seed, int64_t* out) {
  // The sum itself is a serial dependency; unrolling by 2 lets the
  // zig-zag decodes of the next pair overlap the adds of the current one.
  uint64_t acc = static_cast<uint64_t>(seed);
  size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    const uint64_t d0 = ZigZagDecodeOne(zigzag[i]);
    const uint64_t d1 = ZigZagDecodeOne(zigzag[i + 1]);
    out[i] = static_cast<int64_t>(acc + d0);
    acc += d0 + d1;
    out[i + 1] = static_cast<int64_t>(acc);
  }
  if (i < count) {
    acc += ZigZagDecodeOne(zigzag[i]);
    out[i] = static_cast<int64_t>(acc);
  }
}

// Wrap-around sum of ZigZagDecode over `count` packed values starting at
// value index `begin` — the fold under the Delta point and gather
// kernels, fused with the unpack so the replay never materializes.
int64_t ZigZagSumPackedScalar(const uint8_t* data, int bit_width,
                              size_t begin, size_t count) {
  if (bit_width == 0 || count == 0) {
    return 0;
  }
  const uint64_t mask = WidthMask(bit_width);
  const size_t w = static_cast<size_t>(bit_width);
  size_t bit = begin * w;
  uint64_t acc0 = 0;
  uint64_t acc1 = 0;
  size_t i = 0;
  if (bit_width <= 28) {
    // Two values per 8-byte load: shift + width stays <= 63 for the
    // second value too (in-word shift <= 7 + 2*28).
    for (; i + 2 <= count; i += 2, bit += 2 * w) {
      uint64_t word;
      std::memcpy(&word, data + (bit >> 3), sizeof(word));
      const int shift = static_cast<int>(bit & 7);
      acc0 += ZigZagDecodeOne((word >> shift) & mask);
      acc1 += ZigZagDecodeOne((word >> (shift + bit_width)) & mask);
    }
  } else if (bit_width > 57) {
    // A value can straddle 9 bytes; splice the tail from the next word.
    for (; i < count; ++i, bit += w) {
      const size_t byte = bit >> 3;
      const int shift = static_cast<int>(bit & 7);
      uint64_t word;
      std::memcpy(&word, data + byte, sizeof(word));
      uint64_t v = word >> shift;
      if (shift + bit_width > 64) {
        uint64_t next;
        std::memcpy(&next, data + byte + 8, sizeof(next));
        v |= next << (64 - shift);
      }
      acc0 += ZigZagDecodeOne(v & mask);
    }
  }
  for (; i < count; ++i, bit += w) {
    uint64_t word;
    std::memcpy(&word, data + (bit >> 3), sizeof(word));
    acc0 += ZigZagDecodeOne((word >> (bit & 7)) & mask);
  }
  return static_cast<int64_t>(acc0 + acc1);
}

void DeltaDecodeScalar(const uint8_t* data, int bit_width, size_t begin,
                       size_t count, int64_t seed, int64_t* out) {
  if (bit_width == 0) {
    for (size_t i = 0; i < count; ++i) {
      out[i] = seed;
    }
    return;
  }
  // Chunked unpack + prefix sum through the existing kernels: the chunk
  // stays L1-resident and both passes are already unrolled.
  uint64_t deltas[512];
  size_t done = 0;
  while (done < count) {
    const size_t len = count - done < 512 ? count - done : 512;
    UnpackRangeWith(kScalarUnpack.data(), data, bit_width, begin + done,
                    len, deltas);
    ZigZagPrefixSumScalar(deltas, len, seed, out + done);
    seed = out[done + len - 1];
    done += len;
  }
}

int64_t DeltaPointScalar(const uint8_t* data, int bit_width,
                         const int64_t* checkpoints, int interval_shift,
                         size_t column_rows, size_t row) {
  // Nearest-checkpoint seek with the fold direction picked by
  // conditional select (no hard-to-predict branch before the fold).
  const size_t interval = size_t{1} << interval_shift;
  const size_t checkpoint = row >> interval_shift;
  const size_t checkpoint_row = checkpoint << interval_shift;
  const size_t next_row = checkpoint_row + interval;
  const size_t forward = row - checkpoint_row;
  const bool backward = forward > interval / 2 && next_row < column_rows;
  const size_t begin = backward ? row + 1 : checkpoint_row + 1;
  const size_t count = backward ? next_row - row : forward;
  const uint64_t anchor =
      static_cast<uint64_t>(checkpoints[checkpoint + (backward ? 1 : 0)]);
  const uint64_t sum = static_cast<uint64_t>(
      ZigZagSumPackedScalar(data, bit_width, begin, count));
  return static_cast<int64_t>(anchor + (backward ? ~sum + 1 : sum));
}

void DeltaGatherScalar(const uint8_t* data, int bit_width,
                       const int64_t* checkpoints, int interval_shift,
                       size_t column_rows, const uint32_t* rows,
                       size_t count, int64_t* out) {
  // Running-cursor walk over the selection; every gap is one fused
  // packed zig-zag fold, and a position that is closer to a checkpoint
  // than to the cursor (or behind the cursor) re-anchors through the
  // nearest checkpoint instead.
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
                static_cast<uint64_t>(ZigZagSumPackedScalar(
                    data, bit_width, checkpoint_row + 1, forward));
      } else {
        value = static_cast<uint64_t>(checkpoints[checkpoint + 1]) -
                static_cast<uint64_t>(ZigZagSumPackedScalar(
                    data, bit_width, row + 1, next_row - row));
      }
      pos = row;
      primed = true;
    } else if (row > pos) {
      value += static_cast<uint64_t>(
          ZigZagSumPackedScalar(data, bit_width, pos + 1, row - pos));
      pos = row;
    }
    out[i] = static_cast<int64_t>(value);
  }
}

void ExpandRunsScalar(const int64_t* run_values, const uint32_t* run_ends,
                      size_t run_begin, size_t row_begin, size_t count,
                      int64_t* out) {
  const size_t end = row_begin + count;
  size_t run = run_begin;
  size_t row = row_begin;
  while (row < end) {
    const size_t stop = run_ends[run] < end ? run_ends[run] : end;
    const int64_t v = run_values[run];
    size_t n = stop - row;
    int64_t* dst = out + (row - row_begin);
    // Word-at-a-time fill; the compiler widens this to vector stores.
    for (; n >= 4; n -= 4, dst += 4) {
      dst[0] = v;
      dst[1] = v;
      dst[2] = v;
      dst[3] = v;
    }
    for (; n > 0; --n, ++dst) {
      *dst = v;
    }
    row = stop;
    ++run;
  }
}

void GatherBitsScalar(const uint8_t* data, int bit_width,
                      const uint32_t* rows, size_t count, uint64_t* out) {
  if (count == 0) {
    return;
  }
  if (bit_width == 0) {
    std::memset(out, 0, count * sizeof(uint64_t));
    return;
  }
  const uint64_t mask = WidthMask(bit_width);
  if (bit_width > 57) {
    // A value can straddle 9 bytes; splice the tail from the next word.
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
  for (size_t i = 0; i < count; ++i) {
    const size_t bit_pos =
        static_cast<size_t>(rows[i]) * static_cast<size_t>(bit_width);
    uint64_t word;
    std::memcpy(&word, data + (bit_pos >> 3), sizeof(word));
    out[i] = (word >> (bit_pos & 7)) & mask;
  }
}

// Slicing-by-8 CRC32C: table k maps a byte to its CRC contribution k
// bytes ahead of the end of an 8-byte step, so one step folds 8 bytes
// with 8 independent lookups instead of 8 dependent ones.
constexpr uint32_t kCrc32cPoly = 0x82F63B78;  // Castagnoli, reflected.

constexpr auto kCrc32cTables = [] {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t byte = 0; byte < 256; ++byte) {
    uint32_t crc = byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (kCrc32cPoly & (0u - (crc & 1)));
    }
    tables[0][byte] = crc;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (size_t byte = 0; byte < 256; ++byte) {
      const uint32_t prev = tables[k - 1][byte];
      tables[k][byte] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}();

uint32_t Crc32cScalar(const uint8_t* data, size_t size) {
  const auto& t = kCrc32cTables;
  uint32_t crc = 0xFFFFFFFF;
  for (; size >= 8; size -= 8, data += 8) {
    uint64_t word;
    std::memcpy(&word, data, sizeof(word));  // Little-endian byte order.
    word ^= crc;
    crc = t[7][word & 0xFF] ^ t[6][(word >> 8) & 0xFF] ^
          t[5][(word >> 16) & 0xFF] ^ t[4][(word >> 24) & 0xFF] ^
          t[3][(word >> 32) & 0xFF] ^ t[2][(word >> 40) & 0xFF] ^
          t[1][(word >> 48) & 0xFF] ^ t[0][word >> 56];
  }
  for (; size > 0; --size, ++data) {
    crc = (crc >> 8) ^ t[0][(crc ^ *data) & 0xFF];
  }
  return ~crc;
}

constexpr KernelTable MakeScalarTable() {
  KernelTable table{};
  for (int w = 0; w <= kMaxKernelWidth; ++w) {
    table.unpack64[w] = kScalarUnpack[static_cast<size_t>(w)];
  }
  table.filter_i64 = &FilterI64Scalar;
  table.filter_packed = &FilterPackedScalar;
  table.sum_u64 = &SumU64Scalar;
  table.translate_codes = &TranslateCodesScalar;
  table.add_const = &AddConstScalar;
  table.add_ref_base = &AddRefBaseScalar;
  table.add_ref_zigzag = &AddRefZigZagScalar;
  table.delta_decode = &DeltaDecodeScalar;
  table.delta_point = &DeltaPointScalar;
  table.delta_gather = &DeltaGatherScalar;
  table.expand_runs = &ExpandRunsScalar;
  table.gather_bits = &GatherBitsScalar;
  table.crc32c = &Crc32cScalar;
  return table;
}

constexpr KernelTable kScalarTable = MakeScalarTable();

// Sequential-cursor decode for widths the kernel table does not cover
// (33..64) and for the sub-block head/tail of narrow widths.
void UnpackGeneric(const uint8_t* data, int bit_width, size_t begin,
                   size_t count, uint64_t* out) {
  const uint64_t mask = WidthMask(bit_width);
  size_t bit_pos = begin * static_cast<size_t>(bit_width);
  if (bit_width > 57) {
    // A value can straddle 9 bytes; splice the tail from the next word.
    for (size_t i = 0; i < count; ++i, bit_pos += bit_width) {
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
  for (size_t i = 0; i < count; ++i, bit_pos += bit_width) {
    uint64_t word;
    std::memcpy(&word, data + (bit_pos >> 3), sizeof(word));
    out[i] = (word >> (bit_pos & 7)) & mask;
  }
}

}  // namespace

const KernelTable& ScalarTable() { return kScalarTable; }

void UnpackRangeWith(const Unpack64Fn* unpack64, const uint8_t* data,
                     int bit_width, size_t begin, size_t count,
                     uint64_t* out) {
  if (count == 0) {
    return;
  }
  if (bit_width == 0) {
    std::memset(out, 0, count * sizeof(uint64_t));
    return;
  }
  if (bit_width > kMaxKernelWidth) {
    UnpackGeneric(data, bit_width, begin, count, out);
    return;
  }
  // Head: decode up to the next 64-value boundary, where the stream is
  // byte-aligned and the specialized kernels take over.
  const size_t misalign = begin % kUnpackBlock;
  if (misalign != 0) {
    const size_t head = kUnpackBlock - misalign < count
                            ? kUnpackBlock - misalign
                            : count;
    UnpackGeneric(data, bit_width, begin, head, out);
    begin += head;
    count -= head;
    out += head;
  }
  const Unpack64Fn kernel = unpack64[bit_width];
  while (count >= kUnpackBlock) {
    // begin is a multiple of 64, so begin * width is a whole byte count.
    kernel(data + ((begin * static_cast<size_t>(bit_width)) >> 3), out);
    begin += kUnpackBlock;
    count -= kUnpackBlock;
    out += kUnpackBlock;
  }
  if (count > 0) {
    UnpackGeneric(data, bit_width, begin, count, out);
  }
}

}  // namespace corra::simd::internal
