#include "query/scan.h"

#include <algorithm>
#include <cassert>

#include "core/horizontal.h"
#include "query/kernel_counters.h"
#include "query/morsel.h"

namespace corra::query {

namespace {

// Column `col` as a single-reference horizontal target to decode from
// its reference's materialized values, when `cols` also requests that
// reference; otherwise null. scheme() pins down the class, so no RTTI.
const SingleRefColumn* StagedTarget(const Block& block,
                                    std::span<const size_t> cols,
                                    size_t col) {
  const enc::EncodedColumn& column = block.column(col);
  if (!enc::IsSingleReference(column.scheme())) {
    return nullptr;
  }
  const auto& target = static_cast<const SingleRefColumn&>(column);
  return std::find(cols.begin(), cols.end(), target.ref_index()) !=
                 cols.end()
             ? &target
             : nullptr;
}

// How many requested references lie below `col`: 0 for a column served
// on its own, 1 for a target whose requested reference is, and so on.
// Blocks reject reference cycles at load, so the walk ends.
size_t StageDepth(const Block& block, std::span<const size_t> cols,
                  size_t col) {
  size_t depth = 0;
  while (const SingleRefColumn* target = StagedTarget(block, cols, col)) {
    col = target->ref_index();
    ++depth;
  }
  return depth;
}

size_t FirstIndex(std::span<const size_t> cols, size_t col) {
  return static_cast<size_t>(std::find(cols.begin(), cols.end(), col) -
                             cols.begin());
}

// Materializes every entry of `cols` into out[k] + offset (`count`
// values each), each requested reference before the targets decoded
// from it: one pass per stage depth, so a target's reference is done
// before the pass that reads it. `plain(col, dst)` materializes a
// column on its own, and `staged(target, ref_values, dst)` a target
// from its reference's values. A repeated column is copied from its
// first entry. `count_rows(scheme)` runs once per entry, duplicates
// too, so the per-scheme row counters read as they would for one call
// per column.
template <typename Plain, typename Staged, typename CountRows>
void MaterializeInReferenceOrder(const Block& block,
                                 std::span<const size_t> cols,
                                 std::span<int64_t* const> out, size_t offset,
                                 size_t count, Plain&& plain,
                                 Staged&& staged, CountRows&& count_rows) {
  size_t done = 0;
  for (size_t depth = 0; done < cols.size(); ++depth) {
    for (size_t k = 0; k < cols.size(); ++k) {
      const size_t col = cols[k];
      if (StageDepth(block, cols, col) != depth) {
        continue;
      }
      ++done;
      count_rows(block.column(col).scheme());
      int64_t* dst = out[k] + offset;
      const size_t first = FirstIndex(cols, col);
      if (first < k) {
        // Same depth, so the first entry is already done.
        std::copy_n(out[first] + offset, count, dst);
      } else if (depth == 0) {
        plain(col, dst);
      } else {
        const SingleRefColumn* target = StagedTarget(block, cols, col);
        staged(*target, out[FirstIndex(cols, target->ref_index())] + offset,
               dst);
      }
    }
  }
}

// Strategy crossover, measured on the AVX2 dev box (1M rows, uniform
// selections, ns per selected row — gather = positioned GatherRange,
// dense = morsel DecodeRange + compact):
//
//            sel 0.05       sel 0.25      sel 0.50      sel 1.00
//   FOR    1.2 vs  8.4    1.1 vs 2.4    1.1 vs 1.9    1.2 vs 1.4
//   Dict   1.4 vs 12.9    1.0 vs 3.7    0.9 vs 2.3    0.9 vs 1.6
//   Diff   2.4 vs 17.8    1.6 vs 4.5    1.5 vs 2.7    1.5 vs 1.7
//   Delta 11.3 vs 11.8    3.3 vs 3.5    2.3 vs 2.6    1.5 vs 2.0
//
// The positioned sparse path wins at *every* selectivity for random
// selections, because the schemes that profit from dense windows below
// a density threshold (Delta's fused prefix windows, RLE's vectorized
// run expansion) already make that split internally at their own
// measured crossovers (average gap 24 for Delta, 8 for RLE). What the
// generic layer can still exploit is the exactly-contiguous selection
// (gap 1, e.g. a range predicate over sorted data): there DecodeRange
// writes straight into the output with no compact pass, ~2x cheaper
// than gathering position by position.
// One classification pass over the selection so every caller-facing
// entry point shares the same routing and the same contract checks.
// Random selections exit the contiguity run at the first gap, so the
// pass is effectively one sortedness sweep — trivial next to the decode
// it gates.
enum class SelectionShape {
  kEmpty,       // No positions.
  kSingle,      // Exactly one position.
  kContiguous,  // rows[i] == rows[0] + i for all i (a dense range).
  kSorted,      // Non-decreasing (duplicates allowed).
  kUnsorted,    // At least one position smaller than its predecessor.
};

SelectionShape ClassifySelection(std::span<const uint32_t> rows) {
  if (rows.empty()) {
    return SelectionShape::kEmpty;
  }
  if (rows.size() == 1) {
    return SelectionShape::kSingle;
  }
  // Exact element-wise contiguity, not a span == size shortcut: an
  // out-of-order selection can match the span test (e.g. {0,2,1,3})
  // and would be silently materialized in the wrong order.
  const uint32_t first = rows.front();
  bool contiguous = true;
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i] < rows[i - 1]) {
      return SelectionShape::kUnsorted;
    }
    contiguous = contiguous && rows[i] == first + i;
  }
  return contiguous ? SelectionShape::kContiguous : SelectionShape::kSorted;
}

}  // namespace

void ScanColumns(const Block& block, std::span<const size_t> cols,
                 std::span<const uint32_t> rows,
                 std::span<int64_t* const> out, size_t out_offset) {
  switch (ClassifySelection(rows)) {
    case SelectionShape::kEmpty:
      return;
    case SelectionShape::kSingle:
      // A horizontal target's point access fetches its reference itself;
      // one row is not worth staging.
      for (size_t k = 0; k < cols.size(); ++k) {
        out[k][out_offset] = block.column(cols[k]).Get(rows[0]);
      }
      return;
    case SelectionShape::kContiguous:
      ScanColumnsRange(block, cols, rows.front(), rows.size(), out,
                       out_offset);
      return;
    case SelectionShape::kSorted:
      MaterializeInReferenceOrder(
          block, cols, out, out_offset, rows.size(),
          [&](size_t col, int64_t* dst) {
            block.column(col).GatherRange(rows, dst);
          },
          [&](const SingleRefColumn& target, const int64_t* ref,
              int64_t* dst) {
            // The paper's "query on both columns" fast path: reuse the
            // already materialized reference values.
            target.GatherWithReference(rows, ref, dst);
          },
          [&](enc::Scheme scheme) { CountGatherRows(scheme, rows.size()); });
      return;
    case SelectionShape::kUnsorted:
      // Contract violation (see scan.h). Loud in debug; in release the
      // behavior stays defined — per-row point access is order-immune.
      assert(!"ScanColumns: selection positions must be non-decreasing");
      for (size_t k = 0; k < cols.size(); ++k) {
        for (size_t i = 0; i < rows.size(); ++i) {
          out[k][out_offset + i] = block.column(cols[k]).Get(rows[i]);
        }
      }
      return;
  }
}

void ScanColumnsRange(const Block& block, std::span<const size_t> cols,
                      size_t row_begin, size_t count,
                      std::span<int64_t* const> out, size_t out_offset) {
  MaterializeInReferenceOrder(
      block, cols, out, out_offset, count,
      [&](size_t col, int64_t* dst) {
        block.column(col).DecodeRange(row_begin, count, dst);
      },
      [&](const SingleRefColumn& target, const int64_t* ref, int64_t* dst) {
        // Feed each decoded reference morsel straight into the ranged
        // kernel: the reference is never decoded a second time.
        ForEachMorsel(row_begin, count, [&](size_t begin, size_t len) {
          target.DecodeRangeWithReference(begin, len,
                                          ref + (begin - row_begin),
                                          dst + (begin - row_begin));
        });
      },
      [&](enc::Scheme scheme) { CountDecodeRows(scheme, count); });
}

void ScanColumn(const Block& block, size_t col,
                std::span<const uint32_t> rows, int64_t* out) {
  ScanColumns(block, {&col, 1}, rows, {&out, 1});
}

void ScanPair(const Block& block, size_t ref_col, size_t target_col,
              std::span<const uint32_t> rows, int64_t* out_ref,
              int64_t* out_target) {
  const size_t cols[] = {ref_col, target_col};
  int64_t* const out[] = {out_ref, out_target};
  ScanColumns(block, cols, rows, out);
}

std::vector<int64_t> ScanColumn(const Block& block, size_t col,
                                std::span<const uint32_t> rows) {
  std::vector<int64_t> out(rows.size());
  ScanColumn(block, col, rows, out.data());
  return out;
}

}  // namespace corra::query
