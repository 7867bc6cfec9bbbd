// Range-predicate evaluation over encoded columns (filter pushdown).
//
// Evaluates `lo <= value <= hi` directly on the compressed
// representation, as a morsel pipeline (see query/morsel.h):
//   * FOR, Dict and BitPack: the value range becomes a code range (FOR
//     rebases it by the base, Dict binary-searches its sorted
//     dictionary, BitPack's values are their codes), and one fused
//     unpack-and-compare kernel per morsel compares the bit-packed codes
//     in place, never touching values;
//   * everything else (including horizontal schemes): ranged
//     decode-and-compare, one DecodeRange dispatch per morsel.
//
// Results are selection vectors compatible with query/scan.h.

#ifndef CORRA_QUERY_FILTER_H_
#define CORRA_QUERY_FILTER_H_

#include <cstdint>
#include <vector>

#include "encoding/encoded_column.h"

namespace corra::query {

/// Rows of `column` whose value lies in [lo, hi], ascending.
std::vector<uint32_t> FilterToSelection(const enc::EncodedColumn& column,
                                        int64_t lo, int64_t hi);

/// Number of rows of `column` whose value lies in [lo, hi].
size_t CountInRange(const enc::EncodedColumn& column, int64_t lo,
                    int64_t hi);

}  // namespace corra::query

#endif  // CORRA_QUERY_FILTER_H_
