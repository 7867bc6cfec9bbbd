// Oracles: expected op results computed from the generated inputs alone,
// never from the program under test.

#ifndef LADDERBENCH_ORACLE_H_
#define LADDERBENCH_ORACLE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/corra_compressor.h"
#include "serve/scan_service.h"
#include "storage/table.h"

namespace ladder {

/// Point gathers: every gathered value against the input column.
class PointOracle {
 public:
  PointOracle(const corra::Table& table, std::vector<size_t> columns);
  const std::vector<size_t>& columns() const { return columns_; }
  bool Check(std::span<const uint64_t> rows,
             const std::vector<std::vector<int64_t>>& got) const;

 private:
  std::vector<size_t> columns_;
  std::vector<std::span<const int64_t>> values_;
};

/// One range-filter window: filter column in [lo, hi].
struct ScanWindow {
  int64_t lo = 0;
  int64_t hi = 0;
};

/// Filtered scans over windows that partition the filter column's
/// domain into `count` ranges of `width` values from `origin`: per
/// window, rows_matched, the (wrap-around) sum of sum_col and the
/// projected values of project_col in row order, precomputed in one pass.
class ScanOracle {
 public:
  ScanOracle(const corra::Table& table, size_t filter_col,
             size_t project_col, size_t sum_col, int64_t origin,
             int64_t width, size_t count);
  const std::vector<ScanWindow>& windows() const { return windows_; }
  bool Check(size_t window, const corra::serve::ScanResult& got) const;
  /// Same check for results assembled outside the service.
  bool Check(size_t window, uint64_t matched, int64_t sum,
             std::span<const int64_t> projected) const;

 private:
  struct Expected {
    uint64_t count = 0;
    int64_t sum = 0;
    std::vector<int64_t> projected;
  };
  std::vector<ScanWindow> windows_;
  std::vector<Expected> expected_;
};

/// Equal schema, row count and values; string columns compare by the
/// text their codes resolve to.
bool TablesEqual(const corra::Table& expected, const corra::Table& got);

/// Reads `path` back with checksum and integrity verification,
/// decompresses it and compares it with `input`.
corra::Status CheckRoundTrip(const corra::Table& input,
                             const std::string& path);

}  // namespace ladder

#endif  // LADDERBENCH_ORACLE_H_
