#include "query/filter.h"

#include <algorithm>
#include <type_traits>

#include "common/bit_stream.h"
#include "common/simd/simd.h"
#include "core/ref_dispatch.h"
#include "encoding/bitpack.h"
#include "encoding/dictionary.h"
#include "encoding/for.h"
#include "query/kernel_counters.h"
#include "query/morsel.h"

namespace corra::query {

namespace {

// The filter kernels stage matching positions per morsel through the
// SIMD predicate kernels (compare -> movemask -> permutation-table
// left-pack; branchless select on the scalar fallback), then hand the
// staged block to `sink(rows, count)` so the sink appends in bulk.

// Generic ranged decode-and-compare: one DecodeRange per morsel (works
// for every scheme, including horizontal ones whose references are
// bound), one predicate kernel call per morsel.
template <typename Sink>
void FilterGeneric(const enc::EncodedColumn& column, int64_t lo, int64_t hi,
                   Sink&& sink) {
  uint32_t staged[kMorselRows];
  ForEachDecodedMorsel(
      column, 0, column.size(),
      [&](size_t begin, const int64_t* values, size_t len) {
        sink(staged, simd::FilterInRange(values, len, lo, hi,
                                         static_cast<uint32_t>(begin),
                                         staged));
      });
}

// Code-space path shared by FOR, Dict and BitPack: the predicate is
// rebased into the packed domain once, then each morsel is one fused
// unpack-and-compare kernel call over the packed stream, so values are
// never reconstructed and no morsel of codes is staged. The kernel clamps
// code_hi to the stream's width and matches nothing when code_lo is
// above it.
template <typename Sink>
void FilterCodes(const PackedArray& codes, uint64_t code_lo,
                 uint64_t code_hi, Sink&& sink) {
  uint32_t staged[kMorselRows];
  ForEachMorsel(0, codes.size(), [&](size_t begin, size_t len) {
    sink(staged, codes.Filter(begin, len, code_lo, code_hi, staged));
  });
}

// Dict: translate the value range into a code range via two binary
// searches over the sorted dictionary.
template <typename Sink>
void FilterDict(const enc::DictColumn& column, int64_t lo, int64_t hi,
                Sink&& sink) {
  const auto dict = column.dictionary();
  const auto begin_it = std::lower_bound(dict.begin(), dict.end(), lo);
  const auto end_it = std::upper_bound(dict.begin(), dict.end(), hi);
  if (begin_it >= end_it) {
    return;
  }
  FilterCodes(column.codes(), static_cast<uint64_t>(begin_it - dict.begin()),
              static_cast<uint64_t>(end_it - dict.begin()) - 1, sink);
}

// FOR: rebase [lo, hi] by the frame base; the offsets are compared
// unsigned, as Encode computed them. That needs base to be the minimum,
// which holds when no offset the width can hold takes base + offset past
// INT64_MAX. A frame where one can (only hand-built or corrupt bytes, or
// a column whose maximum sits near INT64_MAX) decodes and compares.
template <typename Sink>
void FilterFor(const enc::ForColumn& column, int64_t lo, int64_t hi,
               Sink&& sink) {
  const int64_t base = column.base();
  const int width = column.bit_width();
  const uint64_t max_offset =
      width == 64 ? UINT64_MAX : (uint64_t{1} << width) - 1;
  if (max_offset > static_cast<uint64_t>(INT64_MAX) -
                       static_cast<uint64_t>(base)) {
    FilterGeneric(column, lo, hi, sink);
    return;
  }
  if (hi < base) {
    return;  // The whole column is >= base.
  }
  // Wrap-around subtraction mirrors Encode's offset computation exactly,
  // so the rebase is correct for any int64 bounds.
  const uint64_t code_lo =
      lo <= base ? 0
                 : static_cast<uint64_t>(lo) - static_cast<uint64_t>(base);
  FilterCodes(column.offsets(), code_lo,
              static_cast<uint64_t>(hi) - static_cast<uint64_t>(base), sink);
}

// BitPack: a value is its code read as int64, so [lo, hi] is the code
// range with the same bounds when lo >= 0 or hi < 0 (codes >= 2^63 are
// the negative values; only a width-64 stream, which the encoder never
// writes, holds them). A range spanning 0 is the codes [0, hi] below
// width 64; at width 64 it is two code ranges, and decodes and compares.
template <typename Sink>
void FilterBitPack(const enc::BitPackColumn& column, int64_t lo, int64_t hi,
                   Sink&& sink) {
  const bool spans_zero = lo < 0 && hi >= 0;
  if (spans_zero && column.bit_width() == 64) {
    FilterGeneric(column, lo, hi, sink);
    return;
  }
  FilterCodes(column.packed(), spans_zero ? 0 : static_cast<uint64_t>(lo),
              static_cast<uint64_t>(hi), sink);
}

template <typename Sink>
void FilterDispatch(const enc::EncodedColumn& column, int64_t lo, int64_t hi,
                    Sink&& sink) {
  if (lo > hi) {
    return;
  }
  // One scheme dispatch per scan; FOR, Dict and BitPack run in the
  // packed code domain, everything else decodes values and compares.
  DispatchRef(column, [&](const auto& col) {
    using Column = std::decay_t<decltype(col)>;
    if constexpr (std::is_same_v<Column, enc::DictColumn>) {
      FilterDict(col, lo, hi, sink);
    } else if constexpr (std::is_same_v<Column, enc::ForColumn>) {
      FilterFor(col, lo, hi, sink);
    } else if constexpr (std::is_same_v<Column, enc::BitPackColumn>) {
      FilterBitPack(col, lo, hi, sink);
    } else {
      FilterGeneric(col, lo, hi, sink);
    }
  });
}

}  // namespace

std::vector<uint32_t> FilterToSelection(const enc::EncodedColumn& column,
                                        int64_t lo, int64_t hi) {
  CountFilterRows(column.scheme(), column.size());
  std::vector<uint32_t> rows;
  FilterDispatch(column, lo, hi,
                 [&rows](const uint32_t* staged, size_t count) {
                   rows.insert(rows.end(), staged, staged + count);
                 });
  return rows;
}

size_t CountInRange(const enc::EncodedColumn& column, int64_t lo,
                    int64_t hi) {
  CountFilterRows(column.scheme(), column.size());
  size_t count = 0;
  FilterDispatch(column, lo, hi,
                 [&count](const uint32_t*, size_t n) { count += n; });
  return count;
}

}  // namespace corra::query
