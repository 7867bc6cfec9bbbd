// Out-of-core serving: cache hit rate and scan throughput, hot vs cold.
//
// Writes a multi-block CORF file, then drives ScanService over a
// TableReader under two cache configurations:
//   hot   cache capacity >= file block count (steady state: all hits)
//   cold  cache capacity = 1 block (every scan thrashes the cache)
// and for each reports the block-cache hit rate, eviction count, and
// end-to-end scan throughput, single-client and with 8 concurrent
// clients sharing the reader.
//
// Flags: --rows N (default 2M), --runs N scan repetitions (default 10),
// --json for machine-readable output including a "metrics" object with
// the full telemetry registry snapshot (counters, gauges, latency
// histograms) accumulated across every configuration.
//
// --closed-loop switches to the front-door benchmark instead: N
// concurrent clients (1/4/16/64) in a closed loop of point-heavy
// gathers against a hot cache, with admission control bounding
// in-flight requests. Reports per-config p50/p99/p999 latency and the
// rejected-request rate; --json then emits a compare_bench.py-compatible
// array (closed_loop/solo/c<N>/{p50_us,p99_us,p999_us,rejected_rate}).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
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

struct RunStats {
  double seconds = 0;
  uint64_t rows_scanned = 0;
  uint64_t rows_matched = 0;
  serve::BlockCacheStats cache;
};

// Runs `runs` filtered scans (rotating predicate ranges) on `clients`
// threads sharing one reader, against a fresh cache of `capacity`.
RunStats RunConfig(const std::string& path, size_t capacity_blocks,
                   size_t runs, size_t clients) {
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
  serve::ScanService service(
      serve::ScanService::Options{.num_threads = 4});

  std::vector<uint64_t> scanned(clients, 0);
  std::vector<uint64_t> matched(clients, 0);
  const auto run_client = [&](size_t client) {
    for (size_t r = 0; r < runs; ++r) {
      serve::ScanRequest request;
      request.filter_column = 0;
      request.filter_lo = 8035 + static_cast<int64_t>(
                                     (client * runs + r) * 97 % 1500);
      request.filter_hi = request.filter_lo + 600;
      request.project_columns = {1, 2};
      auto result = service.Execute(*reader.value(), request);
      if (!result.ok()) {
        std::fprintf(stderr, "scan failed: %s\n",
                     result.status().ToString().c_str());
        std::exit(1);
      }
      scanned[client] += result.value().rows_scanned;
      matched[client] += result.value().rows_matched;
    }
  };

  const uint64_t begin_ns = obs::MonotonicNs();
  if (clients <= 1) {
    run_client(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back(run_client, c);
    }
    for (auto& thread : threads) {
      thread.join();
    }
  }
  RunStats stats;
  stats.seconds = obs::SecondsSince(begin_ns);
  for (size_t c = 0; c < clients; ++c) {
    stats.rows_scanned += scanned[c];
    stats.rows_matched += matched[c];
  }
  stats.cache = cache->GetStats();
  return stats;
}

void PrintRow(const char* config, size_t clients, const RunStats& s) {
  std::printf("%-6s %8zu %12.1f%% %10llu %10llu %12.1f %14llu\n", config,
              clients, 100.0 * s.cache.HitRate(),
              static_cast<unsigned long long>(s.cache.misses),
              static_cast<unsigned long long>(s.cache.evictions),
              static_cast<double>(s.rows_scanned) / s.seconds / 1e6,
              static_cast<unsigned long long>(s.rows_matched));
}

void PrintJsonRow(const char* config, size_t clients, const RunStats& s,
                  bool last) {
  std::printf("    {\"cache\": \"%s\", \"clients\": %zu, "
              "\"hit_rate\": %.4f, \"misses\": %llu, \"evictions\": %llu, "
              "\"mrows_per_s\": %.1f, \"rows_matched\": %llu}%s\n",
              config, clients, s.cache.HitRate(),
              static_cast<unsigned long long>(s.cache.misses),
              static_cast<unsigned long long>(s.cache.evictions),
              static_cast<double>(s.rows_scanned) / s.seconds / 1e6,
              static_cast<unsigned long long>(s.rows_matched),
              last ? "" : ",");
}

// --- Closed-loop front-door benchmark ---------------------------------------

struct ClosedLoopStats {
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double rejected_rate = 0;
  size_t ok_ops = 0;
  size_t rejected_ops = 0;
};

double PercentileUs(std::vector<uint64_t>& sorted_ns, double q) {
  if (sorted_ns.empty()) {
    return 0;
  }
  const size_t idx = std::min(
      sorted_ns.size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted_ns.size())));
  return static_cast<double>(sorted_ns[idx]) / 1000.0;
}

// `clients` threads each run `ops` point gathers against one shared
// service with a hot cache. Every op gathers two columns at 128 strided
// positions inside one of kHotWindows shared hot windows, so concurrent
// clients keep re-reading the same hot row ranges. Rejected requests
// (admission control) are counted, not retried.
constexpr size_t kHotWindows = 16;
constexpr size_t kWindowRows = 128;
constexpr size_t kWindowStride = 3;

ClosedLoopStats RunClosedLoopConfig(const std::string& path, size_t rows,
                                    size_t num_blocks, size_t clients,
                                    size_t ops) {
  obs::Registry registry;
  auto cache = std::make_shared<serve::BlockCache>(
      serve::BlockCacheOptions{.capacity_blocks = num_blocks + 8,
                               .capacity_bytes = 0,
                               .shards = 4,
                               .registry = &registry});
  auto reader = serve::TableReader::Open(path, cache);
  if (!reader.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 reader.status().ToString().c_str());
    std::exit(1);
  }
  serve::ScanService service(
      serve::ScanService::Options{.num_threads = 4,
                                  .registry = &registry,
                                  .max_inflight_requests = 48});

  // Warm the cache so the loop measures front-door contention, not disk.
  {
    std::vector<uint64_t> probe;
    for (size_t b = 0; b < num_blocks; ++b) {
      probe.push_back(reader.value()->block_row_offsets()[b]);
    }
    const std::vector<size_t> cols = {1};
    auto warm = service.Gather(*reader.value(), cols, probe);
    if (!warm.ok()) {
      std::fprintf(stderr, "warmup failed: %s\n",
                   warm.status().ToString().c_str());
      std::exit(1);
    }
  }

  std::vector<std::vector<uint64_t>> latencies(clients);
  std::vector<size_t> rejected(clients, 0);
  std::atomic<bool> failed{false};
  const auto run_client = [&](size_t client) {
    Rng rng(40 + client * 1315423911u);
    const std::vector<size_t> cols = {1, 2};
    std::vector<uint64_t> positions(kWindowRows);
    latencies[client].reserve(ops);
    for (size_t op = 0; op < ops; ++op) {
      // All clients draw from the same window pool, so concurrent ops
      // frequently request identical row sets.
      const uint64_t window = static_cast<uint64_t>(
          rng.Uniform(0, static_cast<int64_t>(kHotWindows) - 1));
      const uint64_t start = window * (rows / kHotWindows);
      for (size_t i = 0; i < kWindowRows; ++i) {
        // Clamp keeps tiny --rows runs valid (duplicates are allowed in
        // a sorted selection).
        positions[i] =
            std::min<uint64_t>(start + i * kWindowStride, rows - 1);
      }
      const uint64_t op_begin_ns = obs::MonotonicNs();
      auto result = service.Gather(*reader.value(), cols, positions);
      const uint64_t op_ns = obs::MonotonicNs() - op_begin_ns;
      if (result.ok()) {
        latencies[client].push_back(op_ns);
      } else if (result.status().IsResourceExhausted()) {
        ++rejected[client];
      } else {
        std::fprintf(stderr, "gather failed: %s\n",
                     result.status().ToString().c_str());
        failed.store(true);
        return;
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back(run_client, c);
  }
  for (auto& thread : threads) {
    thread.join();
  }
  if (failed.load()) {
    std::exit(1);
  }

  ClosedLoopStats stats;
  std::vector<uint64_t> all;
  for (size_t c = 0; c < clients; ++c) {
    all.insert(all.end(), latencies[c].begin(), latencies[c].end());
    stats.rejected_ops += rejected[c];
  }
  std::sort(all.begin(), all.end());
  stats.ok_ops = all.size();
  stats.p50_us = PercentileUs(all, 0.50);
  stats.p99_us = PercentileUs(all, 0.99);
  stats.p999_us = PercentileUs(all, 0.999);
  const size_t attempts = stats.ok_ops + stats.rejected_ops;
  stats.rejected_rate =
      attempts == 0 ? 0
                    : static_cast<double>(stats.rejected_ops) /
                          static_cast<double>(attempts);
  return stats;
}

int RunClosedLoop(const std::string& path, size_t rows, size_t num_blocks,
                  const bench::Flags& flags) {
  const size_t ops_per_client = 150 * flags.runs;
  struct Config {
    size_t clients;
    ClosedLoopStats stats;
  };
  std::vector<Config> configs;
  if (!flags.json) {
    bench::PrintHeader(
        "Closed-loop front door: point gathers, 4 workers, "
        "max_inflight=48, " +
        std::to_string(ops_per_client) + " ops/client");
    std::printf("%8s %10s %10s %10s %10s %9s\n", "clients", "p50 us",
                "p99 us", "p999 us", "ok ops", "rej rate");
    bench::PrintRule();
  }
  for (size_t clients : {size_t{1}, size_t{4}, size_t{16}, size_t{64}}) {
    const Config config{clients, RunClosedLoopConfig(path, rows, num_blocks,
                                                     clients, ops_per_client)};
    if (!flags.json) {
      std::printf("%8zu %10.1f %10.1f %10.1f %10zu %8.2f%%\n", config.clients,
                  config.stats.p50_us, config.stats.p99_us,
                  config.stats.p999_us, config.stats.ok_ops,
                  100.0 * config.stats.rejected_rate);
    }
    configs.push_back(config);
  }
  if (flags.json) {
    // compare_bench.py-compatible array: percentiles in microseconds
    // carried in ns_per_row (the field the gate diffs).
    std::printf("[\n");
    for (size_t i = 0; i < configs.size(); ++i) {
      const Config& config = configs[i];
      // "solo" keeps the row names BENCH_PR7.json and the CI gate use.
      const std::string prefix =
          "closed_loop/solo/c" + std::to_string(config.clients);
      std::printf(
          "  {\"name\": \"%s/p50_us\", \"rows\": %zu, \"ns_per_row\": %.3f},\n"
          "  {\"name\": \"%s/p99_us\", \"rows\": %zu, \"ns_per_row\": %.3f},\n"
          "  {\"name\": \"%s/p999_us\", \"rows\": %zu, \"ns_per_row\": %.3f},\n"
          "  {\"name\": \"%s/rejected_rate\", \"rows\": %zu, "
          "\"ns_per_row\": %.6f}%s\n",
          prefix.c_str(), config.stats.ok_ops, config.stats.p50_us,
          prefix.c_str(), config.stats.ok_ops, config.stats.p99_us,
          prefix.c_str(), config.stats.ok_ops, config.stats.p999_us,
          prefix.c_str(), config.stats.rejected_ops,
          config.stats.rejected_rate,
          i + 1 == configs.size() ? "" : ",");
    }
    std::printf("]\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags = bench::ParseFlags(argc, argv);
  bool closed_loop = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--closed-loop") == 0) {
      closed_loop = true;
    }
  }
  const size_t rows = bench::ResolveRows(flags, 8000000, 4);
  const size_t runs = flags.runs;

  // Correlated shipdate/receiptdate plus a fare column, diff plan.
  Rng rng(17);
  std::vector<int64_t> ship(rows);
  std::vector<int64_t> receipt(rows);
  std::vector<int64_t> fare(rows);
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
  const Block::Stats block_stats = compressed.value().block(0).GetStats();
  if (!flags.json) {
    std::printf("block profile: %zu rows x %zu columns, %.2f MB encoded\n",
                block_stats.rows, block_stats.columns,
                bench::ToMb(block_stats.encoded_bytes));
  }

  const std::string path = "/tmp/corra_bench_serve.corf";
  if (!WriteCompressedTable(compressed.value(), path).ok()) {
    std::fprintf(stderr, "write failed\n");
    return 1;
  }

  if (closed_loop) {
    const int rc = RunClosedLoop(path, rows, num_blocks, flags);
    std::remove(path.c_str());
    return rc;
  }

  // Every cache and service below shares the default registry; reset it
  // so the JSON "metrics" object covers exactly this invocation.
  obs::Registry::Default().Reset();

  if (!flags.json) {
    bench::PrintHeader("Out-of-core serving: ScanService over " +
                       std::to_string(num_blocks) + " blocks (" +
                       std::to_string(rows) + " rows, " +
                       std::to_string(runs) + " scans/client)");
    std::printf("%-6s %8s %13s %10s %10s %12s %14s\n", "cache", "clients",
                "hit rate", "misses", "evictions", "Mrows/s", "matched");
    bench::PrintRule();
  }

  struct NamedRun {
    const char* config;
    size_t clients;
    RunStats stats;
  };
  std::vector<NamedRun> results;
  for (size_t clients : {size_t{1}, size_t{8}}) {
    // Hot: every block fits; after the first pass everything hits.
    results.push_back({"hot", clients,
                       RunConfig(path, num_blocks + 8, runs, clients)});
    // Cold: one resident block; every scan reloads the whole file.
    results.push_back({"cold", clients, RunConfig(path, 1, runs, clients)});
    if (!flags.json) {
      PrintRow("hot", clients, results[results.size() - 2].stats);
      PrintRow("cold", clients, results[results.size() - 1].stats);
    }
  }

  if (flags.json) {
    std::printf("{\n  \"rows\": %zu, \"blocks\": %zu, \"runs\": %zu,\n"
                "  \"results\": [\n",
                rows, num_blocks, runs);
    for (size_t i = 0; i < results.size(); ++i) {
      PrintJsonRow(results[i].config, results[i].clients, results[i].stats,
                   i + 1 == results.size());
    }
    std::printf("  ],\n  \"metrics\": %s\n}\n",
                obs::Registry::Default().ToJson().c_str());
  }

  std::remove(path.c_str());
  return 0;
}
