// Aggregate pushdown over encoded columns: SUM and MIN+MAX evaluated on
// the compressed representation where the scheme allows shortcuts.
//
//   * Dict: min/max fold over the bit-packed codes; sum uses a per-code
//     histogram when the dictionary is small.
//   * FOR: sum folds the un-rebased offsets.
//   * everything else: ranged decode-and-fold over morsels (one
//     DecodeRange dispatch per 2048 rows; see query/morsel.h).
//
// Sums are computed in unsigned 64-bit arithmetic (wrap-around), which is
// exact modulo 2^64 and matches what a fold over the decoded values
// produces.

#ifndef CORRA_QUERY_AGGREGATE_H_
#define CORRA_QUERY_AGGREGATE_H_

#include <cstdint>
#include <optional>

#include "common/bit_util.h"
#include "encoding/encoded_column.h"

namespace corra::query {

/// Sum of all values (wrap-around int64). 0 for an empty column.
int64_t SumColumn(const enc::EncodedColumn& column);

/// Minimum and maximum in one pass; nullopt for an empty column. Every
/// morsel (Dict: every morsel of codes) folds through the compressor's
/// statistics loop, bit_util::ComputeMinMax.
std::optional<bit_util::MinMax> MinMaxColumn(
    const enc::EncodedColumn& column);

}  // namespace corra::query

#endif  // CORRA_QUERY_AGGREGATE_H_
