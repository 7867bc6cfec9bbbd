// Materializing scans over encoded blocks — the query kernel of the
// paper's latency experiments (Fig. 5-8).
//
// Two access patterns matter:
//  * A horizontal column on its own: ScanColumn transparently fetches
//    the reference too — the overhead the paper measures as "query on
//    diff-encoded column".
//  * A horizontal column with its reference: ScanColumns materializes
//    every requested column of a block, each requested reference once
//    and before its targets, and feeds the reference's values to the
//    targets' GatherWithReference — the paper's "query on both columns"
//    case, where Corra's overhead (mostly) vanishes. ScanColumn is its
//    one-column case and ScanPair its two-column case.

#ifndef CORRA_QUERY_SCAN_H_
#define CORRA_QUERY_SCAN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "storage/block.h"

namespace corra::query {

/// Materializes column `col` of `block` at the positions `rows` into
/// `out` (rows.size() values). Routes through the selection-driven
/// sparse path (EncodedColumn::GatherRange — positioned packed-stream
/// gathers, no densification), except for exactly-contiguous selections
/// which decode straight into the output; see the measured strategy
/// table in scan.cc. Results are identical either way.
///
/// Selection contract: `rows` must be non-decreasing (duplicates are
/// fine — each occurrence materializes the same value) and every
/// position must be < block.rows(). A strictly-unsorted selection
/// asserts in debug builds; in release builds the behavior is defined —
/// out[i] == the value at rows[i] for every i, via a per-row fallback —
/// but forfeits the batched fast paths. Empty and single-position
/// selections return early without entering any GatherRange kernel.
void ScanColumn(const Block& block, size_t col,
                std::span<const uint32_t> rows, int64_t* out);

/// Materializes columns `cols` of `block` at the positions `rows` (same
/// selection contract as ScanColumn): out[k] + out_offset receives
/// rows.size() values of column cols[k], and the outputs must not
/// overlap. The selection is classified once for every column. A
/// single-reference horizontal target (Diff, Hierarchical, C3) whose
/// reference is also in `cols` is decoded from that reference's values
/// (GatherWithReference, or DecodeRangeWithReference for a contiguous
/// selection), so a requested reference is gathered exactly once; a
/// target requested without its reference fetches it internally, as
/// ScanColumn does. `cols` may list a reference before or after its
/// targets, repeat a column (copied from its first entry) and chain
/// targets (a target's reference may itself be a target). The
/// per-scheme row counters count every entry, as one ScanColumn call
/// per entry would.
void ScanColumns(const Block& block, std::span<const size_t> cols,
                 std::span<const uint32_t> rows,
                 std::span<int64_t* const> out, size_t out_offset = 0);

/// ScanColumns for the (reference, target) pair {ref_col, target_col}:
/// when `target_col` is a single-reference horizontal column whose
/// reference is `ref_col`, the reference values gathered into `out_ref`
/// are reused to decode the target (no second reference fetch).
void ScanPair(const Block& block, size_t ref_col, size_t target_col,
              std::span<const uint32_t> rows, int64_t* out_ref,
              int64_t* out_target);

/// Dense-range counterpart of ScanColumns: materializes [row_begin,
/// row_begin + count) of every column in `cols` into out[k] +
/// out_offset through the ranged kernels, never a per-row virtual Get.
/// Fully-selected blocks go through this instead of building an iota
/// position vector. A column served on its own takes one DecodeRange; a
/// target whose reference is requested runs DecodeRangeWithReference
/// morsel by morsel over the reference's decoded values.
void ScanColumnsRange(const Block& block, std::span<const size_t> cols,
                      size_t row_begin, size_t count,
                      std::span<int64_t* const> out, size_t out_offset = 0);

/// Convenience wrappers returning vectors.
std::vector<int64_t> ScanColumn(const Block& block, size_t col,
                                std::span<const uint32_t> rows);

}  // namespace corra::query

#endif  // CORRA_QUERY_SCAN_H_
