#include "query/table_scan.h"

#include <algorithm>

#include "query/scan.h"

namespace corra::query {

namespace {

// Shared implementation over any unsigned row-index width.
template <typename RowT>
Result<std::vector<SelectionSlice>> SplitImpl(
    std::span<const uint64_t> row_offsets, std::span<const RowT> rows) {
  if (row_offsets.empty()) {
    return Status::InvalidArgument("row_offsets needs num_blocks+1 entries");
  }
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i] < rows[i - 1]) {
      return Status::InvalidArgument("selection not sorted");
    }
  }
  const size_t num_blocks = row_offsets.size() - 1;
  std::vector<SelectionSlice> slices;
  size_t block = 0;
  for (size_t i = 0; i < rows.size();) {
    const uint64_t pos = rows[i];
    while (block < num_blocks && pos >= row_offsets[block + 1]) {
      ++block;
    }
    if (block >= num_blocks) {
      return Status::OutOfRange("selection position beyond table");
    }
    // The slice ends at the first position past the block: one binary
    // search sizes its local rows once.
    const uint64_t begin = row_offsets[block];
    const size_t stop = static_cast<size_t>(
        std::lower_bound(rows.begin() + static_cast<std::ptrdiff_t>(i),
                         rows.end(), row_offsets[block + 1]) -
        rows.begin());
    SelectionSlice slice;
    slice.block = block;
    slice.out_offset = i;
    slice.local_rows.resize(stop - i);
    for (size_t k = 0; k < slice.local_rows.size(); ++k) {
      slice.local_rows[k] = static_cast<uint32_t>(rows[i + k] - begin);
    }
    i = stop;
    slices.push_back(std::move(slice));
  }
  return slices;
}

// Cumulative row offsets of an in-memory table (num_blocks + 1 entries).
std::vector<uint64_t> RowOffsets(const CompressedTable& table) {
  std::vector<uint64_t> offsets(table.num_blocks() + 1, 0);
  for (size_t b = 0; b < table.num_blocks(); ++b) {
    offsets[b + 1] = offsets[b] + table.block(b).rows();
  }
  return offsets;
}

}  // namespace

Result<std::vector<SelectionSlice>> SplitSelectionByBlocks(
    std::span<const uint64_t> row_offsets, std::span<const uint64_t> rows) {
  return SplitImpl(row_offsets, rows);
}

Result<std::vector<SelectionSlice>> SplitSelectionByBlocks(
    std::span<const uint64_t> row_offsets, std::span<const uint32_t> rows) {
  return SplitImpl(row_offsets, rows);
}

Result<std::vector<int64_t>> ScanTableColumn(const CompressedTable& table,
                                             size_t col,
                                             std::span<const uint32_t> rows) {
  if (col >= table.schema().num_fields()) {
    return Status::InvalidArgument("column index out of range");
  }
  CORRA_ASSIGN_OR_RETURN(
      auto slices, SplitSelectionByBlocks(RowOffsets(table), rows));
  std::vector<int64_t> out(rows.size());
  for (const SelectionSlice& s : slices) {
    ScanColumn(table.block(s.block), col, s.local_rows,
               out.data() + s.out_offset);
  }
  return out;
}

Result<TablePair> ScanTablePair(const CompressedTable& table,
                                size_t ref_col, size_t target_col,
                                std::span<const uint32_t> rows) {
  if (ref_col >= table.schema().num_fields() ||
      target_col >= table.schema().num_fields()) {
    return Status::InvalidArgument("column index out of range");
  }
  CORRA_ASSIGN_OR_RETURN(
      auto slices, SplitSelectionByBlocks(RowOffsets(table), rows));
  TablePair out;
  out.reference.resize(rows.size());
  out.target.resize(rows.size());
  for (const SelectionSlice& s : slices) {
    ScanPair(table.block(s.block), ref_col, target_col, s.local_rows,
             out.reference.data() + s.out_offset,
             out.target.data() + s.out_offset);
  }
  return out;
}

}  // namespace corra::query
