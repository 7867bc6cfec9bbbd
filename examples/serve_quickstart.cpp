// Serving quickstart: query a CORF file without ever loading it whole.
//
// Compresses a correlated table to disk, then serves filtered scans and
// aggregates through the out-of-core stack — TableReader (lazy block
// loads) + BlockCache (bounded memory) + ScanService (helper pool) —
// prints the cache behaviour along the way, demonstrates degraded
// (allow_partial) serving around an injected block failure, and
// finishes with the full telemetry snapshot every serving component
// feeds (see README, "Observability").
//
// Run: ./serve_quickstart

#include <cstdio>
#include <vector>

#include "common/failpoint.h"
#include "common/random.h"
#include "core/corra_compressor.h"
#include "obs/metrics.h"
#include "serve/scan_service.h"
#include "serve/table_reader.h"
#include "storage/file_io.h"

int main() {
  using namespace corra;

  // 1. A 4-block table: order dates, correlated delivery dates, amounts.
  constexpr size_t kRows = 400000;
  Rng rng(7);
  std::vector<int64_t> ordered(kRows);
  std::vector<int64_t> delivered(kRows);
  std::vector<int64_t> amount(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    ordered[i] = 18000 + rng.Uniform(0, 1200);
    delivered[i] = ordered[i] + rng.Uniform(1, 45);
    amount[i] = rng.Uniform(100, 90000);
  }
  Table table;
  if (!table.AddColumn(Column::Date("ordered", ordered)).ok() ||
      !table.AddColumn(Column::Date("delivered", delivered)).ok() ||
      !table.AddColumn(Column::Money("amount", amount)).ok()) {
    return 1;
  }
  CompressionPlan plan = CompressionPlan::AllAuto(3);
  plan.block_rows = 100000;
  plan.columns[1].auto_vertical = false;
  plan.columns[1].scheme = enc::Scheme::kDiff;
  plan.columns[1].reference = 0;
  auto compressed = CorraCompressor::Compress(table, plan);
  if (!compressed.ok()) {
    return 1;
  }
  const std::string path = "/tmp/corra_serve_quickstart.corf";
  if (!WriteCompressedTable(compressed.value(), path).ok()) {
    return 1;
  }

  // 2. Open lazily: schema and row layout come from the directory alone.
  auto cache = std::make_shared<serve::BlockCache>(
      serve::BlockCacheOptions{.capacity_blocks = 2,  // < 4 blocks on disk
                               .capacity_bytes = 0,
                               .shards = 2});
  auto reader = serve::TableReader::Open(path, cache);
  if (!reader.ok()) {
    std::printf("open failed: %s\n", reader.status().ToString().c_str());
    return 1;
  }
  std::printf("opened %s: %zu blocks, %llu rows, schema [%s] — 0 blocks "
              "loaded so far\n",
              path.c_str(), reader.value()->num_blocks(),
              static_cast<unsigned long long>(reader.value()->num_rows()),
              reader.value()->schema().ToString().c_str());

  // 3. A filtered scan with projection + aggregate, executed block by
  //    block by this thread and the service's helper pool. collect_trace
  //    asks for a per-request breakdown of where the latency went.
  serve::ScanService service(serve::ScanService::Options{.num_threads = 2});
  serve::ScanRequest request;
  request.collect_trace = true;
  request.filter_column = 0;           // ordered
  request.filter_lo = 18400;
  request.filter_hi = 18500;
  request.project_columns = {1};       // delivered
  request.aggregate = serve::AggregateOp::kSum;
  request.aggregate_column = 2;        // amount
  auto result = service.Execute(*reader.value(), request);
  if (!result.ok()) {
    std::printf("scan failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("scan: %llu of %llu rows matched, sum(amount) = %lld cents\n",
              static_cast<unsigned long long>(result.value().rows_matched),
              static_cast<unsigned long long>(result.value().rows_scanned),
              static_cast<long long>(result.value().agg_sum));
  if (result.value().trace.has_value()) {
    std::printf("trace: %s\n", result.value().trace->ToJson().c_str());
  }

  // 4. Re-run: with capacity 2 of 4 blocks, the cache can only help
  //    partially — watch hits, misses, evictions move.
  for (int round = 0; round < 3; ++round) {
    if (!service.Execute(*reader.value(), request).ok()) {
      return 1;
    }
  }
  const serve::BlockCacheStats stats = cache->GetStats();
  std::printf("cache after 4 scans: %.0f%% hit rate, %llu misses, "
              "%llu evictions, %zu blocks resident\n",
              100.0 * stats.HitRate(),
              static_cast<unsigned long long>(stats.misses),
              static_cast<unsigned long long>(stats.evictions),
              stats.cached_blocks);

  // 5. Point lookups touch only the owning blocks.
  const std::vector<size_t> cols = {0, 1, 2};
  const std::vector<uint64_t> rows = {5, 150000, 399999};
  auto gathered = service.Gather(*reader.value(), cols, rows);
  if (!gathered.ok()) {
    return 1;
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    std::printf("row %llu: ordered=%lld delivered=%lld amount=%lld\n",
                static_cast<unsigned long long>(rows[i]),
                static_cast<long long>(gathered.value()[0][i]),
                static_cast<long long>(gathered.value()[1][i]),
                static_cast<long long>(gathered.value()[2][i]));
  }

  // 6. Degraded serving: when a block goes bad (media error, detected
  //    corruption), a strict scan fails whole — but a request that sets
  //    allow_partial gets the rows from every healthy block plus a
  //    manifest naming the blocks that failed and why. Here a failpoint
  //    stands in for the bad medium (see README, "Failure model").
  {
    fail::ScopedFailpoint storm("cache.load_error", "times:1");
    serve::ScanRequest degraded = request;
    degraded.collect_trace = false;
    degraded.allow_partial = true;
    auto partial = service.Execute(*reader.value(), degraded);
    if (!partial.ok()) {
      std::printf("degraded scan failed: %s\n",
                  partial.status().ToString().c_str());
      return 1;
    }
    std::printf("\ndegraded scan: %llu rows matched from healthy blocks, "
                "%zu block(s) failed:\n",
                static_cast<unsigned long long>(
                    partial.value().rows_matched),
                partial.value().failed_blocks.size());
    for (const serve::ScanResult::BlockError& fb :
         partial.value().failed_blocks) {
      std::printf("  block %llu: %s\n",
                  static_cast<unsigned long long>(fb.block),
                  fb.status.ToString().c_str());
    }
    // The failed block is quarantined: repeat offenders fail fast
    // instead of hammering the device. Once the operator clears the
    // quarantine (or the TTL lapses) the block serves again.
    cache->ClearQuarantine();
    auto healed = service.Execute(*reader.value(), degraded);
    if (!healed.ok()) {
      return 1;
    }
    std::printf("after quarantine clear: %llu rows matched, %zu failed "
                "blocks\n",
                static_cast<unsigned long long>(healed.value().rows_matched),
                healed.value().failed_blocks.size());
  }

  // 7. Everything above also fed the process-wide telemetry registry:
  //    cache counters/gauges, per-request latency and phase histograms,
  //    per-scheme decode row counts. One snapshot exports it all.
  std::printf("\nend-of-run metrics snapshot:\n%s\n",
              obs::Registry::Default().ToJson().c_str());

  std::remove(path.c_str());
  return 0;
}
