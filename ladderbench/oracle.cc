#include "oracle.h"

#include <algorithm>

#include "storage/file_io.h"

namespace ladder {

PointOracle::PointOracle(const corra::Table& table,
                         std::vector<size_t> columns)
    : columns_(std::move(columns)) {
  for (size_t col : columns_) {
    values_.push_back(table.column(col).values());
  }
}

bool PointOracle::Check(std::span<const uint64_t> rows,
                        const std::vector<std::vector<int64_t>>& got) const {
  if (got.size() != values_.size()) {
    return false;
  }
  for (size_t c = 0; c < values_.size(); ++c) {
    if (got[c].size() != rows.size()) {
      return false;
    }
    const std::span<const int64_t> column = values_[c];
    for (size_t i = 0; i < rows.size(); ++i) {
      if (rows[i] >= column.size() || got[c][i] != column[rows[i]]) {
        return false;
      }
    }
  }
  return true;
}

ScanOracle::ScanOracle(const corra::Table& table, size_t filter_col,
                       size_t project_col, size_t sum_col, int64_t origin,
                       int64_t width, size_t count)
    : expected_(count) {
  for (size_t w = 0; w < count; ++w) {
    const int64_t lo = origin + static_cast<int64_t>(w) * width;
    windows_.push_back(ScanWindow{lo, lo + width - 1});
  }
  const auto filter = table.column(filter_col).values();
  const auto project = table.column(project_col).values();
  const auto sum = table.column(sum_col).values();
  std::vector<uint64_t> sums(count, 0);
  for (size_t row = 0; row < filter.size(); ++row) {
    if (filter[row] < origin) {
      continue;
    }
    const auto w = static_cast<size_t>((filter[row] - origin) / width);
    if (w >= count) {
      continue;
    }
    ++expected_[w].count;
    sums[w] += static_cast<uint64_t>(sum[row]);
    expected_[w].projected.push_back(project[row]);
  }
  for (size_t w = 0; w < count; ++w) {
    expected_[w].sum = static_cast<int64_t>(sums[w]);
  }
}

bool ScanOracle::Check(size_t window,
                       const corra::serve::ScanResult& got) const {
  return got.failed_blocks.empty() && got.columns.size() == 1 &&
         Check(window, got.rows_matched, got.agg_sum, got.columns[0]);
}

bool ScanOracle::Check(size_t window, uint64_t matched, int64_t sum,
                       std::span<const int64_t> projected) const {
  const Expected& want = expected_[window];
  return matched == want.count && sum == want.sum &&
         std::equal(projected.begin(), projected.end(),
                    want.projected.begin(), want.projected.end());
}

bool TablesEqual(const corra::Table& expected, const corra::Table& got) {
  if (expected.num_columns() != got.num_columns() ||
      expected.num_rows() != got.num_rows()) {
    return false;
  }
  for (size_t c = 0; c < expected.num_columns(); ++c) {
    const corra::Column& want = expected.column(c);
    const corra::Column& have = got.column(c);
    if (want.name() != have.name() || want.type() != have.type()) {
      return false;
    }
    const auto a = want.values();
    const auto b = have.values();
    if (want.dictionary() == nullptr) {
      if (!std::equal(a.begin(), a.end(), b.begin(), b.end())) {
        return false;
      }
      continue;
    }
    // Decompress rebuilds string dictionaries, so compare the text.
    const auto* dict_a = want.dictionary().get();
    const auto* dict_b = have.dictionary().get();
    if (dict_b == nullptr) {
      return false;
    }
    for (size_t row = 0; row < a.size(); ++row) {
      const auto code_a = static_cast<size_t>(a[row]);
      const auto code_b = static_cast<size_t>(b[row]);
      if (code_a >= dict_a->size() || code_b >= dict_b->size() ||
          (*dict_a)[code_a] != (*dict_b)[code_b]) {
        return false;
      }
    }
  }
  return true;
}

corra::Status CheckRoundTrip(const corra::Table& input,
                             const std::string& path) {
  auto stored = corra::ReadCompressedTable(path, /*verify=*/true);
  if (!stored.ok()) {
    return stored.status();
  }
  auto table = corra::CorraCompressor::Decompress(stored.value());
  if (!table.ok()) {
    return table.status();
  }
  if (!TablesEqual(input, table.value())) {
    return corra::Status::Corruption("round trip differs from input: " +
                                     path);
  }
  return corra::Status::OK();
}

}  // namespace ladder
