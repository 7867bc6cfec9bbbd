// Ladder benchmark entry point.
//
//   ladderbench --workload <ingest|point_hot|scan_cold> --seed <n>
//               --seconds <s> --trace <0|1> --workdir <dir>
//               --trace-dir <dir> [--shrink <n>]
//   ladderbench --oracle-selftest --workdir <dir>
//
// Prints human-readable lines, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Exits non-zero without that line when set-up fails.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "ladder.h"

namespace ladder {
namespace {

void PrintMetric(bool* first, const std::string& name, double value,
                 const char* unit) {
  std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
              *first ? "" : ", ", name.c_str(), Exact(value).c_str(), unit);
  *first = false;
}

void PrintResult(const Args& args, const Report& report) {
  const bool correct = report.failed == 0 && report.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  bool first = true;
  if (!args.trace) {
    PrintMetric(&first, "setup_s", report.setup_s, "s");
    PrintMetric(&first, "latency_p50_ms", report.latency_p50_ms, "ms");
    PrintMetric(&first, "ops_per_s", report.ops_per_s, "1/s");
    PrintMetric(&first, "stored_bytes_per_value",
                report.stored_bytes_per_value, "B");
  } else {
    for (const LayerMetricSpec& spec : kLayerMetrics) {
      auto it = report.layer.find(spec.name);
      PrintMetric(&first, spec.name,
                  it == report.layer.end() ? 0.0 : it->second, spec.unit);
    }
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--oracle-selftest") {
      selftest = true;
      continue;
    }
    if (value == nullptr) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return 2;
    }
    ++i;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--shrink") {
      args.shrink = std::max<size_t>(1, std::strtoull(value, nullptr, 10));
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.workdir.empty() || !(args.seconds > 0)) {
    std::fprintf(stderr, "--workdir and a positive --seconds are required\n");
    return 2;
  }
  if (args.trace_dir.empty()) {
    args.trace_dir = args.workdir;
  }
  std::error_code error;
  std::filesystem::create_directories(args.workdir, error);
  std::filesystem::create_directories(args.trace_dir, error);
  if (selftest) {
    const int rc = RunOracleSelfTest(args);
    std::filesystem::remove_all(args.workdir, error);
    return rc;
  }

  Report report;
  bool ok = false;
  if (args.workload == "ingest") {
    ok = RunIngest(args, &report);
  } else if (args.workload == "point_hot") {
    ok = RunPointHot(args, &report);
  } else if (args.workload == "scan_cold") {
    ok = RunScanCold(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  }
  std::filesystem::remove_all(args.workdir, error);
  if (!ok) {
    return 1;
  }
  PrintNonTiming("stored_bytes_per_value",
                 Exact(report.stored_bytes_per_value));
  PrintNonTiming("verdict", report.failed == 0 ? "pass" : "FAIL");
  std::printf("ops attempted %llu failed %llu\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  if (!args.trace) {
    std::printf("setup_s %.6f (median of repeated set-ups)\n", report.setup_s);
    std::printf("ops_per_s %.3f\n", report.ops_per_s);
  }
  std::fflush(stdout);
  PrintResult(args, report);
  return 0;
}

}  // namespace
}  // namespace ladder

int main(int argc, char** argv) { return ladder::Main(argc, argv); }
