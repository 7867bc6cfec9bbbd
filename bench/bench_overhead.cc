// Overhead gates: the two hooks every default build carries on the
// serving path must cost next to nothing. One process runs two
// interleaved A/Bs over the bench_serve table (correlated dates plus a
// fare column):
//   * obs         dense scans against a cache that holds the whole
//                 table, telemetry on vs obs::SetEnabled(false); the
//                 bound is kObsBound (2%).
//   * failpoints  the same scans against a cache that holds a quarter of
//                 the table, so every scan re-crosses the CorfFile pread
//                 sites and the BlockCache loader site, with every
//                 read-path site armed "off" (parked) vs nothing armed;
//                 the bound is kFailpointBound (1%). A parked site takes
//                 the full slow path (mutex + table lookup) and never
//                 fires, so it upper-bounds an unarmed site's single
//                 relaxed load.
//
// Methodology: one warm inline ScanService, so no pool scheduling noise
// surrounds the per-block hooks. Each sample times kScansPerSample scans
// per side back to back, alternating which side goes first, and yields
// one on/off ratio; the overhead is the median ratio minus one. Two
// adjacent batches see the same machine state, so the ratios are immune
// to the slow drift (frequency scaling, background load) that makes
// whole-run medians or minima unstable.
//
// Flags (besides the shared --rows/--runs/--json):
//   --assert   exit nonzero when an overhead exceeds its bound. A reading
//              over the bound is re-measured, up to kAttempts in all:
//              noise that inflated one attempt is uncorrelated with the
//              next, while a real regression fails every attempt.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/failpoint.h"
#include "common/random.h"
#include "core/corra_compressor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/scan_service.h"
#include "serve/table_reader.h"
#include "storage/file_io.h"

namespace {

using namespace corra;

constexpr size_t kBlockRows = 250000;
constexpr size_t kScansPerSample = 3;
constexpr int kAttempts = 3;
constexpr double kObsBound = 0.02;
constexpr double kFailpointBound = 0.01;

// Every site on the serve read path.
constexpr const char* kSites[] = {
    "corf.pread.eio",       "corf.pread.eintr", "corf.pread.short",
    "corf.payload.bitflip", "cache.load_error",
};

// Parks every read-path site (evaluated each crossing, never firing), or
// disarms them all.
void SetSitesParked(bool parked) {
  if (!parked) {
    fail::ClearAll();
    return;
  }
  for (const char* site : kSites) {
    if (!fail::Configure(site, "off").ok()) {
      std::fprintf(stderr, "failed to arm %s\n", site);
      std::exit(1);
    }
  }
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Seconds for `scans` back-to-back executions: batching several scans
// per timing absorbs single-scan scheduler jitter.
double TimeScans(serve::ScanService& service,
                 const serve::TableReader& reader,
                 const serve::ScanRequest& request, size_t scans) {
  const uint64_t begin_ns = obs::MonotonicNs();
  for (size_t i = 0; i < scans; ++i) {
    auto result = service.Execute(reader, request);
    if (!result.ok()) {
      std::fprintf(stderr, "scan failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
  }
  return obs::SecondsSince(begin_ns);
}

// One A/B: select(true) turns the hook on, select(false) off; the scans
// run against `reader`'s cache. Measure() fills the results.
struct Gate {
  const char* name;       // JSON key.
  const char* title;      // Text table header.
  const char* column;     // Text table's first column.
  const char* on_label;
  const char* off_label;
  double bound;
  const serve::TableReader* reader;
  std::function<void(bool)> select;

  double on_median_s = 0;
  double off_median_s = 0;
  double overhead = 0;
  int attempts = 0;

  void MeasureOnce(serve::ScanService& service,
                   const serve::ScanRequest& request, size_t samples) {
    std::vector<double> on_s, off_s, ratios;
    for (size_t r = 0; r < samples; ++r) {
      const bool on_first = r % 2 == 0;
      double pair[2];  // [0] on, [1] off.
      for (int half = 0; half < 2; ++half) {
        const bool on = (half == 0) == on_first;
        select(on);
        pair[on ? 0 : 1] =
            TimeScans(service, *reader, request, kScansPerSample);
      }
      on_s.push_back(pair[0] / kScansPerSample);  // Per-scan time.
      off_s.push_back(pair[1] / kScansPerSample);
      ratios.push_back(pair[0] / pair[1]);
    }
    on_median_s = Median(on_s);
    off_median_s = Median(off_s);
    overhead = Median(ratios) - 1.0;
  }

  // Warms the cache and both sides, then measures; under `assert_bound`
  // re-measures a reading over the bound, up to kAttempts in all.
  void Measure(serve::ScanService& service,
               const serve::ScanRequest& request, size_t samples,
               bool assert_bound) {
    select(true);
    TimeScans(service, *reader, request, 1);
    select(false);
    TimeScans(service, *reader, request, 1);
    for (attempts = 1;; ++attempts) {
      MeasureOnce(service, request, samples);
      if (!assert_bound || overhead <= bound || attempts == kAttempts) {
        break;
      }
      std::fprintf(stderr, "%s: attempt %d read %.2f%% (> %.2f%%); "
                   "re-measuring\n",
                   name, attempts, overhead * 100.0, bound * 100.0);
    }
  }

  void Print(bool json, size_t rows, size_t samples) const {
    const double mrows_on = static_cast<double>(rows) / on_median_s / 1e6;
    const double mrows_off = static_cast<double>(rows) / off_median_s / 1e6;
    if (json) {
      std::printf("\"%s\": {\"%s_median_ms\": %.3f, \"%s_median_ms\": %.3f, "
                  "\"mrows_per_s_%s\": %.1f, \"mrows_per_s_%s\": %.1f, "
                  "\"overhead\": %.4f, \"bound\": %.4f}",
                  name, on_label, on_median_s * 1e3, off_label,
                  off_median_s * 1e3, on_label, mrows_on, off_label,
                  mrows_off, overhead, bound);
      return;
    }
    bench::PrintHeader(std::string(title) + " (" + std::to_string(rows) +
                       " rows, " + std::to_string(samples) +
                       " interleaved samples)");
    std::printf("%-10s %12s %12s\n", column, "median ms", "Mrows/s");
    bench::PrintRule();
    std::printf("%-10s %12.3f %12.1f\n", on_label, on_median_s * 1e3,
                mrows_on);
    std::printf("%-10s %12.3f %12.1f\n", off_label, off_median_s * 1e3,
                mrows_off);
    std::printf("overhead (median pair ratio): %.2f%% (bound %.2f%%)\n",
                overhead * 100.0, bound * 100.0);
  }
};

std::unique_ptr<serve::TableReader> OpenReader(const std::string& path,
                                               size_t capacity_blocks) {
  auto cache = std::make_shared<serve::BlockCache>(
      serve::BlockCacheOptions{.capacity_blocks = capacity_blocks,
                               .capacity_bytes = 0,
                               .shards = 4});
  auto reader = serve::TableReader::Open(path, cache);
  if (!reader.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 reader.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(reader).value();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags = bench::ParseFlags(argc, argv);
  bool assert_bounds = false;
  for (int i = 1; i < argc; ++i) {
    assert_bounds = assert_bounds || std::strcmp(argv[i], "--assert") == 0;
  }
  const size_t rows = bench::ResolveRows(flags, 8000000, 4);
  const size_t samples = flags.runs > 2 ? flags.runs : 10;

  // The bench_serve table: correlated dates plus a fare column.
  Rng rng(17);
  std::vector<int64_t> ship(rows), receipt(rows), fare(rows);
  for (size_t i = 0; i < rows; ++i) {
    ship[i] = rng.Uniform(8035, 10591);
    receipt[i] = ship[i] + rng.Uniform(1, 30);
    fare[i] = rng.Uniform(100, 25000);
  }
  Table table;
  if (!table.AddColumn(Column::Date("ship", std::move(ship))).ok() ||
      !table.AddColumn(Column::Date("receipt", std::move(receipt))).ok() ||
      !table.AddColumn(Column::Money("fare", std::move(fare))).ok()) {
    return 1;
  }
  CompressionPlan plan = CompressionPlan::AllAuto(3);
  plan.block_rows = kBlockRows;
  plan.num_threads = 4;
  plan.columns[1].auto_vertical = false;
  plan.columns[1].scheme = enc::Scheme::kDiff;
  plan.columns[1].reference = 0;
  auto compressed = CorraCompressor::Compress(table, plan);
  if (!compressed.ok()) {
    std::fprintf(stderr, "compress failed: %s\n",
                 compressed.status().ToString().c_str());
    return 1;
  }
  const size_t num_blocks = compressed.value().num_blocks();
  const std::string path = "/tmp/corra_bench_overhead.corf";
  if (!WriteCompressedTable(compressed.value(), path).ok()) {
    std::fprintf(stderr, "write failed\n");
    return 1;
  }
  const auto hot = OpenReader(path, num_blocks + 8);
  const auto cold = OpenReader(path, num_blocks / 4 + 1);

  serve::ScanService service(serve::ScanService::Options{.num_threads = 0});
  // Dense scan: no filter, all columns projected — the hot path the 2%
  // bound is stated for (per-block hook cost amortizes over most rows).
  serve::ScanRequest request;
  request.project_columns = {0, 1, 2};

  Gate gates[] = {
      {.name = "obs",
       .title = "Telemetry overhead on dense scans",
       .column = "obs",
       .on_label = "on",
       .off_label = "off",
       .bound = kObsBound,
       .reader = hot.get(),
       .select = [](bool on) { obs::SetEnabled(on); }},
      {.name = "failpoints",
       .title = "Failpoint overhead on miss-heavy scans",
       .column = "sites",
       .on_label = "armed",
       .off_label = "unarmed",
       .bound = kFailpointBound,
       .reader = cold.get(),
       .select = SetSitesParked},
  };
  for (Gate& gate : gates) {
    gate.Measure(service, request, samples, assert_bounds);
    // Leave telemetry on and every site disarmed, as a production
    // process runs, for the next gate.
    obs::SetEnabled(true);
    fail::ClearAll();
  }

  if (flags.json) {
    std::printf("{\"rows\": %zu, \"samples\": %zu, ", rows, samples);
    gates[0].Print(true, rows, samples);
    std::printf(", ");
    gates[1].Print(true, rows, samples);
    std::printf("}\n");
  } else {
    for (const Gate& gate : gates) {
      gate.Print(false, rows, samples);
    }
  }

  std::remove(path.c_str());
  int status = 0;
  for (const Gate& gate : gates) {
    if (assert_bounds && gate.overhead > gate.bound) {
      std::fprintf(stderr,
                   "FAIL: %s overhead %.2f%% exceeds bound %.2f%% on all "
                   "%d attempts\n",
                   gate.name, gate.overhead * 100.0, gate.bound * 100.0,
                   gate.attempts);
      status = 1;
    }
  }
  return status;
}
