// Shared helpers for the paper-reproduction benchmarks: flag parsing,
// size formatting/normalization, a fixed-width table printer, and a
// machine-readable JSON reporter for the perf trajectory.
//
// Every bench accepts:
//   --scale N   divide the paper's row count by N (default varies)
//   --rows N    absolute row override (wins over --scale)
//   --runs N    selection vectors per selectivity (default 10, as in
//               the paper)
//   --json      emit results as a JSON array of
//               {name, rows, ns_per_row, gb_per_s} objects instead of
//               the human-readable table (CI archives these as
//               BENCH_*.json artifacts to track perf across PRs)

#ifndef CORRA_BENCH_BENCH_UTIL_H_
#define CORRA_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace corra::bench {

struct Flags {
  size_t scale = 0;  // 0 = bench default.
  size_t rows = 0;   // 0 = derive from scale.
  size_t runs = 10;
  bool json = false;
};

inline Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    auto value = [&](const char* name) -> const char* {
      const size_t len = std::strlen(name);
      if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
        return argv[i] + len + 1;
      }
      if (std::strcmp(argv[i], name) == 0 && i + 1 < argc) {
        return argv[++i];
      }
      return nullptr;
    };
    if (const char* scale = value("--scale")) {
      flags.scale = static_cast<size_t>(std::strtoull(scale, nullptr, 10));
    } else if (const char* rows = value("--rows")) {
      flags.rows = static_cast<size_t>(std::strtoull(rows, nullptr, 10));
    } else if (const char* runs = value("--runs")) {
      flags.runs = static_cast<size_t>(std::strtoull(runs, nullptr, 10));
    } else if (std::strcmp(argv[i], "--json") == 0) {
      flags.json = true;
    }
  }
  return flags;
}

/// Rows to generate: --rows wins, then full_rows / --scale, then
/// full_rows / default_scale.
inline size_t ResolveRows(const Flags& flags, size_t full_rows,
                          size_t default_scale) {
  if (flags.rows > 0) {
    return flags.rows;
  }
  const size_t scale = flags.scale > 0 ? flags.scale : default_scale;
  return full_rows / scale;
}

inline double ToMb(size_t bytes) {
  return static_cast<double>(bytes) / 1e6;
}

/// Scales a measured size at `actual_rows` to the paper's `full_rows`
/// (per-row payloads scale exactly; metadata approximately — the caller
/// should note when metadata dominates).
inline double NormalizedMb(size_t bytes, size_t actual_rows,
                           size_t full_rows) {
  if (actual_rows == 0) {
    return 0;
  }
  return ToMb(bytes) * static_cast<double>(full_rows) /
         static_cast<double>(actual_rows);
}

/// One measured data point of a benchmark run.
struct BenchResult {
  std::string name;
  size_t rows = 0;          // Logical rows processed per repetition.
  double ns_per_row = 0;    // Mean wall-clock nanoseconds per row.
  double gb_per_s = 0;      // Throughput over rows * row bytes.
};

/// Collects results and renders them either as a fixed-width table or —
/// with --json — as a machine-readable JSON array on stdout, so the
/// perf trajectory (BENCH_*.json) can accumulate across PRs.
class Reporter {
 public:
  explicit Reporter(const Flags& flags) : json_(flags.json) {}

  /// Records one measurement: `seconds` of wall clock for `reps`
  /// repetitions over `rows` logical rows of `row_bytes` bytes each.
  void Add(const std::string& name, size_t rows, double seconds,
           size_t reps, size_t row_bytes = sizeof(int64_t)) {
    BenchResult result;
    result.name = name;
    result.rows = rows;
    const double rows_total =
        static_cast<double>(rows) * static_cast<double>(reps);
    result.ns_per_row = rows_total > 0 ? seconds / rows_total * 1e9 : 0;
    const double bytes = rows_total * static_cast<double>(row_bytes);
    result.gb_per_s = seconds > 0 ? bytes / seconds / 1e9 : 0;
    results_.push_back(std::move(result));
    if (!json_) {
      std::printf("%-36s %12zu rows %10.3f ns/row %8.2f GB/s\n",
                  results_.back().name.c_str(), rows,
                  results_.back().ns_per_row, results_.back().gb_per_s);
    }
  }

  /// Emits the JSON array (no-op without --json).
  void Finish() const {
    if (!json_) {
      return;
    }
    std::printf("[\n");
    for (size_t i = 0; i < results_.size(); ++i) {
      const BenchResult& r = results_[i];
      std::printf("  {\"name\": \"%s\", \"rows\": %zu, "
                  "\"ns_per_row\": %.4f, \"gb_per_s\": %.4f}%s\n",
                  r.name.c_str(), r.rows, r.ns_per_row, r.gb_per_s,
                  i + 1 < results_.size() ? "," : "");
    }
    std::printf("]\n");
  }

  const std::vector<BenchResult>& results() const { return results_; }

 private:
  bool json_;
  std::vector<BenchResult> results_;
};

inline void PrintRule(int width = 100) {
  for (int i = 0; i < width; ++i) {
    std::putchar('-');
  }
  std::putchar('\n');
}

inline void PrintHeader(const std::string& title) {
  PrintRule();
  std::printf("%s\n", title.c_str());
  PrintRule();
}

}  // namespace corra::bench

#endif  // CORRA_BENCH_BENCH_UTIL_H_
