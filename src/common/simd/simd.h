// The SIMD kernel layer: the branchless building blocks every morsel of
// the batch decode pipeline bottoms out in.
//
// Five kernel families, each with an AVX2 implementation selected by
// runtime CPU dispatch and an unrolled scalar fallback:
//
//   * Unpack kernels  — per-bit-width specialized bit-unpackers (widths
//     0..32 via a generated kernel table processing 64 values per call;
//     a generic sequential-cursor path covers 33..64). PackedArray::
//     DecodeRange is a thin wrapper over UnpackRange, so BitPack, FOR,
//     Dict, Delta, DFOR, Diff and every other bit-packed scheme inherit
//     the same kernels.
//   * Predicate kernels — range compares producing selection-vector
//     positions directly (compare -> movemask -> permutation-table
//     left-pack): FilterInRange over decoded values (every scheme's
//     generic decode-and-compare path) and FilterPacked straight over a
//     bit-packed stream, which FOR, Dict and BitPack filter through with
//     the predicate rebased into their code space. FilterPacked unpacks
//     and compares 8 codes per step in registers on AVX2 for widths 1 to
//     25 and through a 256-code stack chunk otherwise, so its callers
//     never stage a morsel of codes.
//   * Aggregate kernel — a 4-lane wrap-around sum with one horizontal
//     reduce per call, used by query/aggregate.cc. Min and max are not
//     kernels: query/aggregate.cc folds morsels through the compressor's
//     scalar statistics loop. An AVX2 compare+blend fold with one chain
//     per bound lost to it; one with two chains ran twice as fast on
//     cached data but saved too little of an ingest op to keep, where
//     the loop reads each column from the last-level cache (README).
//   * Reconstruction and sparse-decode kernels — dictionary translate,
//     FOR rebase, Diff/DFOR reference adds, run expansion, positioned
//     gathers and the fused Delta decode/point/gather folds.
//   * Checksum kernel — CRC32C over a byte span, the CORF v4 block
//     payload checksum: one SSE4.2 crc32 stream 8 bytes per step in the
//     AVX2 table (every AVX2 CPU has SSE4.2), slicing-by-8 in the scalar
//     one.
//
// Dispatch: every kernel is declared once and runs on the table the
// first call picks: AVX2 if the CPU has it, unless the environment
// variable CORRA_FORCE_SCALAR (any value but "0") forces the scalar
// table. Tests reach each backend's table directly through
// internal::ScalarTable() and internal::Avx2Table() (kernel_table.h).
//
// Slack contract: packed buffers must carry bit_util::kDecodePadBytes
// (32) readable bytes past the payload — every PackedArray (common/
// bit_stream.h) and DFOR's frame payload has them — because the AVX2
// unpackers issue full 32-byte loads whose tails may cross the last
// packed byte. The slack's contents are unspecified: a stream loaded from
// a file views the slack bytes the file stores, so no kernel's output may
// depend on them (simd_kernel_test runs every kernel over 0xFF slack).

#ifndef CORRA_COMMON_SIMD_SIMD_H_
#define CORRA_COMMON_SIMD_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace corra::simd {

// --- Unpack kernels ---------------------------------------------------------

/// Unpacks `count` fixed-width values starting at value index `begin`
/// from the bit-packed stream `data` (width 0..64, values laid out back
/// to back from bit 0, as written by PackBits). `data` must include
/// bit_util::kDecodePadBytes of readable slack past the payload.
void UnpackRange(const uint8_t* data, int bit_width, size_t begin,
                 size_t count, uint64_t* out);

// --- Predicate kernels ------------------------------------------------------

/// Writes the row ids `row_base + i` of every `values[i]` in [lo, hi]
/// to `out_rows` (ascending) and returns how many matched. `out_rows`
/// must hold `count` entries; the kernel never writes past the slot of
/// the last processed element's potential match.
size_t FilterInRange(const int64_t* values, size_t count, int64_t lo,
                     int64_t hi, uint32_t row_base, uint32_t* out_rows);

/// Writes the row ids `begin + i` of every value i in [0, count) of the
/// bit-packed stream `data` (width 0..64, as UnpackRange reads it) whose
/// value `begin + i` lies in the unsigned range [lo, hi] to `out_rows`
/// (ascending) and returns how many matched; lo > hi matches nothing.
/// Row ids are 32-bit: begin + count must not exceed 2^32. `out_rows`
/// must hold `count` entries, and `data` must carry
/// bit_util::kDecodePadBytes of readable slack.
size_t FilterPacked(const uint8_t* data, int bit_width, size_t begin,
                    size_t count, uint64_t lo, uint64_t hi,
                    uint32_t* out_rows);

// --- Aggregate kernel -------------------------------------------------------

/// Sum with wrap-around (two's complement: also the correct int64 sum).
uint64_t SumU64(const uint64_t* values, size_t count);

// --- Value-reconstruction kernels -------------------------------------------

/// out[i] = dict[codes[i]] — the per-morsel dictionary gather. Codes
/// must be < the dictionary size.
void TranslateCodes(const int64_t* dict, const uint64_t* codes, size_t count,
                    int64_t* out);

/// values[i] += base in place — the FOR rebase pass.
void AddConst(int64_t* values, size_t count, int64_t base);

/// out[i] = ref[i] + base + (int64)deltas[i] — the Diff (raw/window) and
/// DFOR reconstruction: reference morsel plus unpacked diff codes.
void AddRefAndBase(const int64_t* ref, const uint64_t* deltas, int64_t base,
                   size_t count, int64_t* out);

/// out[i] = ref[i] + ZigZagDecode(zigzag[i]) — the Diff zig-zag mode.
void AddRefZigZag(const int64_t* ref, const uint64_t* zigzag, size_t count,
                  int64_t* out);

// --- Sparse-decode kernels ------------------------------------------------

/// Expands run-length runs into the dense row range [row_begin,
/// row_begin + count): run r covers rows [run_ends[r-1], run_ends[r]),
/// and `run_begin` must be the run containing row_begin. Runs are
/// emitted with full-width broadcast stores instead of a per-row loop.
void ExpandRuns(const int64_t* run_values, const uint32_t* run_ends,
                size_t run_begin, size_t row_begin, size_t count,
                int64_t* out);

/// Fused Delta range decode: out[i] = seed + ZigZagDecode(delta[begin]) +
/// ... + ZigZagDecode(delta[begin + i]) for i in [0, count), reading the
/// deltas straight from the bit-packed stream (unpack, zig-zag decode,
/// and log-step prefix sum in one pass — the packed window is never
/// materialized). `data` must carry bit_util::kDecodePadBytes of slack.
void DeltaDecodePacked(const uint8_t* data, int bit_width, size_t begin,
                       size_t count, int64_t seed, int64_t* out);

/// Single-row Delta point access: the reconstructed value at `row` of a
/// checkpointed zig-zag delta stream (same layout as DeltaGatherPacked).
/// Seeks from the *nearest* checkpoint — a forward fold from the
/// covering checkpoint or a backward fold from the next one — with the
/// direction chosen by conditional select, so the expected replay is
/// interval/4 deltas and the only hard-to-predict branch is the fold's
/// loop exit. The fold is fused with the unpack: the replay window is
/// never materialized. `data` must carry bit_util::kDecodePadBytes of
/// slack.
int64_t DeltaPointPacked(const uint8_t* data, int bit_width,
                         const int64_t* checkpoints, int interval_shift,
                         size_t column_rows, size_t row);

/// Batched Delta sparse gather: out[i] = the reconstructed value at row
/// rows[i] of a checkpointed zig-zag delta stream. `checkpoints[k]` is
/// the absolute value at row k << interval_shift; `column_rows` is the
/// stream's total row count. The whole selection walk runs inside one
/// kernel call: a running (position, value) cursor advances by fused
/// packed zig-zag folds over each gap, re-anchoring through the nearest
/// checkpoint (forward or backward) whenever that is closer — so the
/// per-row cost is bounded by interval/2 deltas and there is no
/// per-position call overhead. Tolerates out-of-order positions (they
/// re-anchor). `data` must carry bit_util::kDecodePadBytes of slack.
void DeltaGatherPacked(const uint8_t* data, int bit_width,
                       const int64_t* checkpoints, int interval_shift,
                       size_t column_rows, const uint32_t* rows, size_t count,
                       int64_t* out);

/// Positioned gather from a bit-packed stream: out[i] = the value at
/// position rows[i] (width 0..64; rows need not be sorted). This is the
/// selection-driven counterpart of UnpackRange — selected values are
/// reconstructed directly from their bit offsets (vpgatherqq + variable
/// shift on AVX2), never materializing the rows in between. `data` must
/// carry bit_util::kDecodePadBytes of readable slack.
void GatherBits(const uint8_t* data, int bit_width, const uint32_t* rows,
                size_t count, uint64_t* out);

// --- Checksum kernel --------------------------------------------------------

/// CRC32C (Castagnoli, reflected polynomial 0x82F63B78, initial value and
/// final xor 0xFFFFFFFF) of `size` bytes at `data`: the check value of
/// "123456789" is 0xE3069283. Every table returns the same value, and
/// `data` needs no alignment or slack.
uint32_t Crc32c(const uint8_t* data, size_t size);

}  // namespace corra::simd

#endif  // CORRA_COMMON_SIMD_SIMD_H_
