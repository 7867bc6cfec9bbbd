// Runtime dispatch of the SIMD kernel layer: pick the table once (the
// AVX2 table if this CPU runs it, unless CORRA_FORCE_SCALAR says
// otherwise) and expose the public kernels as thin wrappers over it.

#include "common/simd/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/simd/kernel_table.h"

namespace corra::simd {

namespace internal {

namespace {

bool ForceScalarFromEnv() {
  // Set to anything but "0" — including the empty string — to force the
  // scalar table, matching the documented contract in simd.h.
  const char* value = std::getenv("CORRA_FORCE_SCALAR");
  return value != nullptr && std::strcmp(value, "0") != 0;
}

// The table dispatch picked; null until the first kernel call. The
// tables are constants, so the pointer is the only shared state: relaxed
// order suffices, and threads that race to resolve it store one value.
std::atomic<const KernelTable*> active_table{nullptr};

// Cold and out of line, so each wrapper's fast path is a load, a test
// and a tail jump; inlined, the one-time resolve would make every wrapper
// save and restore its argument registers on every call.
[[gnu::cold, gnu::noinline]] const KernelTable& ResolveActiveTable() {
  const KernelTable* avx2 = Avx2Table();
  const KernelTable& table =
      avx2 != nullptr && !ForceScalarFromEnv() ? *avx2 : ScalarTable();
  active_table.store(&table, std::memory_order_relaxed);
  return table;
}

}  // namespace

const KernelTable& ActiveTable() {
  const KernelTable* table = active_table.load(std::memory_order_relaxed);
  return table != nullptr ? *table : ResolveActiveTable();
}

}  // namespace internal

using internal::ActiveTable;

void UnpackRange(const uint8_t* data, int bit_width, size_t begin,
                 size_t count, uint64_t* out) {
  internal::UnpackRangeWith(ActiveTable().unpack64, data, bit_width, begin,
                            count, out);
}

size_t FilterInRange(const int64_t* values, size_t count, int64_t lo,
                     int64_t hi, uint32_t row_base, uint32_t* out_rows) {
  return ActiveTable().filter_i64(values, count, lo, hi, row_base, out_rows);
}

size_t FilterPacked(const uint8_t* data, int bit_width, size_t begin,
                    size_t count, uint64_t lo, uint64_t hi,
                    uint32_t* out_rows) {
  return ActiveTable().filter_packed(data, bit_width, begin, count, lo, hi,
                                     out_rows);
}

uint64_t SumU64(const uint64_t* values, size_t count) {
  return ActiveTable().sum_u64(values, count);
}

void TranslateCodes(const int64_t* dict, const uint64_t* codes, size_t count,
                    int64_t* out) {
  ActiveTable().translate_codes(dict, codes, count, out);
}

void AddConst(int64_t* values, size_t count, int64_t base) {
  ActiveTable().add_const(values, count, base);
}

void AddRefAndBase(const int64_t* ref, const uint64_t* deltas, int64_t base,
                   size_t count, int64_t* out) {
  ActiveTable().add_ref_base(ref, deltas, base, count, out);
}

void AddRefZigZag(const int64_t* ref, const uint64_t* zigzag, size_t count,
                  int64_t* out) {
  ActiveTable().add_ref_zigzag(ref, zigzag, count, out);
}

void DeltaDecodePacked(const uint8_t* data, int bit_width, size_t begin,
                       size_t count, int64_t seed, int64_t* out) {
  ActiveTable().delta_decode(data, bit_width, begin, count, seed, out);
}

int64_t DeltaPointPacked(const uint8_t* data, int bit_width,
                         const int64_t* checkpoints, int interval_shift,
                         size_t column_rows, size_t row) {
  return ActiveTable().delta_point(data, bit_width, checkpoints,
                                   interval_shift, column_rows, row);
}

void DeltaGatherPacked(const uint8_t* data, int bit_width,
                       const int64_t* checkpoints, int interval_shift,
                       size_t column_rows, const uint32_t* rows, size_t count,
                       int64_t* out) {
  ActiveTable().delta_gather(data, bit_width, checkpoints, interval_shift,
                             column_rows, rows, count, out);
}

void ExpandRuns(const int64_t* run_values, const uint32_t* run_ends,
                size_t run_begin, size_t row_begin, size_t count,
                int64_t* out) {
  ActiveTable().expand_runs(run_values, run_ends, run_begin, row_begin,
                            count, out);
}

void GatherBits(const uint8_t* data, int bit_width, const uint32_t* rows,
                size_t count, uint64_t* out) {
  ActiveTable().gather_bits(data, bit_width, rows, count, out);
}

uint32_t Crc32c(const uint8_t* data, size_t size) {
  return ActiveTable().crc32c(data, size);
}

}  // namespace corra::simd
