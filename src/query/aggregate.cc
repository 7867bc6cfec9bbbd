#include "query/aggregate.h"

#include <algorithm>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "common/simd/simd.h"
#include "core/ref_dispatch.h"
#include "encoding/dictionary.h"
#include "encoding/for.h"
#include "query/morsel.h"

namespace corra::query {

namespace {

// Ranged decode-and-sum fallback for any scheme: one SIMD sum kernel per
// morsel (see common/simd/simd.h).
uint64_t SumGeneric(const enc::EncodedColumn& column) {
  uint64_t sum = 0;
  ForEachDecodedMorsel(
      column, 0, column.size(),
      [&](size_t, const int64_t* values, size_t len) {
        sum += simd::SumU64(reinterpret_cast<const uint64_t*>(values), len);
      });
  return sum;
}

// Widens `range` by the extrema of `values` (non-empty).
void FoldMinMax(std::span<const int64_t> values, bit_util::MinMax* range) {
  const bit_util::MinMax morsel = bit_util::ComputeMinMax(values);
  range->min = std::min(range->min, morsel.min);
  range->max = std::max(range->max, morsel.max);
}

// Histogram of dictionary code usage (small dictionaries only), built
// from ranged code unpacks.
std::vector<uint64_t> CodeHistogram(const enc::DictColumn& column) {
  std::vector<uint64_t> counts(column.dictionary().size(), 0);
  uint64_t codes[kMorselRows];
  ForEachMorsel(0, column.size(), [&](size_t begin, size_t len) {
    column.codes().DecodeRange(begin, len, codes);
    for (size_t i = 0; i < len; ++i) {
      ++counts[codes[i]];
    }
  });
  return counts;
}

constexpr size_t kSmallDict = 1 << 16;

}  // namespace

int64_t SumColumn(const enc::EncodedColumn& column) {
  const size_t n = column.size();
  if (n == 0) {
    return 0;
  }
  uint64_t sum = 0;
  DispatchRef(column, [&](const auto& col) {
    using Column = std::decay_t<decltype(col)>;
    if constexpr (std::is_same_v<Column, enc::DictColumn>) {
      if (col.dictionary().size() <= kSmallDict) {
        // Small dictionary: per-code histogram, one multiply per entry.
        const auto counts = CodeHistogram(col);
        for (size_t code = 0; code < counts.size(); ++code) {
          sum += counts[code] *
                 static_cast<uint64_t>(col.dictionary()[code]);
        }
        return;
      }
      sum = SumGeneric(col);
    } else if constexpr (std::is_same_v<Column, enc::ForColumn>) {
      // sum = n * base + sum of packed offsets: fold the un-rebased
      // morsel, skip the per-row rebase entirely.
      uint64_t offsets[kMorselRows];
      ForEachMorsel(0, n, [&](size_t begin, size_t len) {
        col.offsets().DecodeRange(begin, len, offsets);
        sum += simd::SumU64(offsets, len);
      });
      sum += static_cast<uint64_t>(col.base()) * n;
    } else {
      // BitPack/Plain and every other scheme: ranged decode + fold.
      sum = SumGeneric(col);
    }
  });
  return static_cast<int64_t>(sum);
}

std::optional<bit_util::MinMax> MinMaxColumn(
    const enc::EncodedColumn& column) {
  const size_t n = column.size();
  if (n == 0) {
    return std::nullopt;
  }
  bit_util::MinMax result{std::numeric_limits<int64_t>::max(),
                          std::numeric_limits<int64_t>::min()};
  DispatchRef(column, [&](const auto& col) {
    using Column = std::decay_t<decltype(col)>;
    if constexpr (std::is_same_v<Column, enc::DictColumn>) {
      // The dictionary is sorted, so the extreme *used* codes give the
      // extrema. Every entry Encode produces is used, but after
      // deserialization that is unchecked, so fold the codes. Each code
      // is below the dictionary size (Deserialize checks), so it orders
      // the same as an int64.
      bit_util::MinMax codes_range = result;
      uint64_t codes[kMorselRows];
      ForEachMorsel(0, n, [&](size_t begin, size_t len) {
        col.codes().DecodeRange(begin, len, codes);
        FoldMinMax({reinterpret_cast<const int64_t*>(codes), len},
                   &codes_range);
      });
      result = {col.dictionary()[static_cast<size_t>(codes_range.min)],
                col.dictionary()[static_cast<size_t>(codes_range.max)]};
    } else {
      ForEachDecodedMorsel(col, 0, n,
                           [&](size_t, const int64_t* values, size_t len) {
                             FoldMinMax({values, len}, &result);
                           });
    }
  });
  return result;
}

}  // namespace corra::query
