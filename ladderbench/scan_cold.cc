// scan_cold: one closed-loop client runs a ~1% range filter on
// l_shipdate over lineitem, projecting l_receiptdate and summing
// l_commitdate, through a pooled ScanService (2 workers + read-ahead).
// The cache holds 2 of the 16 blocks, so every block of every op misses
// the program's cache: storage (pread + deserialize) and the filter
// kernels split the time. The file stays in the OS page cache, so reads
// measure pread from memory, not a disk.

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "common/random.h"
#include "datagen/tpch.h"
#include "ladder.h"
#include "oracle.h"
#include "query/filter.h"
#include "query/scan.h"
#include "serve/scan_service.h"
#include "storage/file_io.h"

namespace ladder {
namespace {

using corra::serve::BlockCache;
using corra::serve::ScanRequest;
using corra::serve::ScanService;
using corra::serve::TableReader;

constexpr size_t kRows = 4'194'304;      // 16 blocks ...
constexpr size_t kBlockRows = 262'144;   // ... of 262,144 rows.
constexpr size_t kCacheBlocks = 2;       // Working set is 8x the cache.
constexpr size_t kWindowsPerDomain = 100;  // ~1% of l_shipdate each.
constexpr size_t kShip = 1;
constexpr size_t kCommit = 2;
constexpr size_t kReceipt = 3;
constexpr size_t kWorkers = 2;
constexpr uint64_t kPrefixOps = 32;      // Digest prefix.
constexpr size_t kWarmupOps = 16;
constexpr int kSetupRepeats = 5;
constexpr uint64_t kSampleEvery = 4;     // Traced ops replayed.

ScanRequest MakeRequest(const ScanWindow& window) {
  ScanRequest request;
  request.filter_column = kShip;
  request.filter_lo = window.lo;
  request.filter_hi = window.hi;
  request.project_columns = {kReceipt};
  request.aggregate = corra::serve::AggregateOp::kSum;
  request.aggregate_column = kCommit;
  return request;
}

std::shared_ptr<BlockCache> MakeCache(corra::obs::Registry* registry) {
  corra::serve::BlockCacheOptions options;
  options.capacity_blocks = kCacheBlocks;
  options.registry = registry;
  return std::make_shared<BlockCache>(options);
}

// Compresses, writes, opens and warms the table; everything here is
// timed as setup_s.
bool SetUp(const corra::Table& table, size_t block_rows,
           const std::string& path, const std::vector<ScanWindow>& warmup,
           Served* out) {
  corra::CompressionPlan plan = LineitemPlan();
  plan.block_rows = block_rows;
  plan.num_threads = 1;
  plan.workload = corra::enc::WorkloadHint::kAnalytic;
  auto compressed = corra::CorraCompressor::Compress(table, plan);
  if (!compressed.ok()) {
    std::fprintf(stderr, "scan_cold: compress: %s\n",
                 compressed.status().ToString().c_str());
    return false;
  }
  const corra::Status written =
      corra::WriteCompressedTable(compressed.value(), path);
  if (!written.ok()) {
    std::fprintf(stderr, "scan_cold: write: %s\n", written.ToString().c_str());
    return false;
  }
  out->cache = MakeCache(nullptr);
  auto reader = TableReader::Open(path, out->cache);
  if (!reader.ok()) {
    std::fprintf(stderr, "scan_cold: open: %s\n",
                 reader.status().ToString().c_str());
    return false;
  }
  out->reader = std::move(reader.value());
  ScanService::Options options;
  options.num_threads = kWorkers;
  options.read_ahead = true;
  out->service = std::make_unique<ScanService>(options);
  for (const ScanWindow& window : warmup) {
    if (!out->service->Execute(*out->reader, MakeRequest(window)).ok()) {
      return false;
    }
  }
  return true;
}

struct Sample {
  uint64_t index = 0;
  uint64_t span = 0;
  uint64_t request = 0;
};

}  // namespace

bool RunScanCold(const Args& args, Report* report) {
  const size_t rows = kRows / args.shrink;
  const size_t block_rows = kBlockRows / args.shrink;
  SpanLog main_spans(0);
  SpanLog client_spans(1);

  const uint64_t gen_start = NowNs();
  auto made = corra::datagen::MakeLineitemTable(rows, Mix(args.seed, 2));
  if (!made.ok()) {
    std::fprintf(stderr, "scan_cold: datagen: %s\n",
                 made.status().ToString().c_str());
    return false;
  }
  const corra::Table table = std::move(made.value());
  const uint64_t gen_end = NowNs();
  main_spans.Record("datagen.make", 0, 0, gen_start, gen_end);
  const double gen_s = static_cast<double>(gen_end - gen_start) / 1e9;

  // Windows partition l_shipdate's domain; ops visit them in a
  // seed-shuffled rotation.
  const auto ship = table.column(kShip).values();
  const auto [lo_it, hi_it] = std::minmax_element(ship.begin(), ship.end());
  const int64_t width =
      (*hi_it - *lo_it) / static_cast<int64_t>(kWindowsPerDomain) + 1;
  const ScanOracle oracle(table, kShip, kReceipt, kCommit, *lo_it, width,
                          kWindowsPerDomain);
  std::vector<size_t> rotation(kWindowsPerDomain);
  std::iota(rotation.begin(), rotation.end(), 0);
  corra::Rng rng(Mix(args.seed, 21));
  std::shuffle(rotation.begin(), rotation.end(), rng);
  std::vector<ScanWindow> warmup;
  for (size_t i = 0; i < kWarmupOps; ++i) {
    warmup.push_back(oracle.windows()[rotation[rotation.size() - 1 - i]]);
  }

  const std::string path = args.workdir + "/scan_cold.corf";
  Served served;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    served = Served{};
    const uint64_t start = NowNs();
    if (!SetUp(table, block_rows, path, warmup, &served)) {
      return false;
    }
    const uint64_t end = NowNs();
    main_spans.Record("setup", 0, 0, start, end);
    setup_s.push_back(static_cast<double>(end - start) / 1e9);
  }
  ScanService& service = *served.service;
  const TableReader& reader = *served.reader;

  const double values = static_cast<double>(rows * table.num_columns());
  report->setup_s = Median(setup_s);
  report->stored_bytes_per_value =
      static_cast<double>(FileBytes(path)) / values;
  std::printf("input lineitem rows=%zu columns=%zu blocks=%zu "
              "cache_blocks=%zu windows=%zu width_days=%lld\n",
              rows, table.num_columns(), reader.num_blocks(), kCacheBlocks,
              kWindowsPerDomain, static_cast<long long>(width));
  PrintThreadBudget(1, kWorkers, 1);
  std::printf("datagen gen_s %.6f (not part of setup_s)\n", gen_s);

  PhaseTotals phases;
  std::vector<Sample> samples;
  const uint64_t t0 = NowNs();
  const auto window_ns = static_cast<uint64_t>(args.seconds * 1e9);
  const uint64_t t1 = t0 + (args.trace ? window_ns * 6 / 10 : window_ns);
  const ServeCounters before = ServeCounters::Take(*served.cache);

  auto op_fn = [&](size_t, uint64_t i, ClientLog* log) {
    const size_t window = rotation[i % rotation.size()];
    const bool traced = args.trace && (i % 2 == 1);
    ScanRequest request = MakeRequest(oracle.windows()[window]);
    request.collect_trace = traced;
    const uint64_t start = NowNs();
    auto got = service.Execute(reader, request);
    const uint64_t end = NowNs();
    const bool ok = got.ok() && oracle.Check(window, got.value());
    if (i < kPrefixOps) {
      if (got.ok()) {
        const corra::serve::ScanResult& result = got.value();
        log->digest = Fnv1a(log->digest, &result.rows_matched,
                            sizeof(result.rows_matched));
        log->digest =
            Fnv1a(log->digest, &result.agg_sum, sizeof(result.agg_sum));
        for (const auto& column : result.columns) {
          log->digest = Fnv1a(log->digest, column);
        }
      }
      log->digest = Fnv1a(log->digest, &ok, sizeof(ok));
      ++log->digest_ops;
    }
    ++log->attempted;
    log->failed += ok ? 0 : 1;
    if (args.trace) {
      const uint64_t request_id = (uint64_t{1} << 40) | (i + 1);
      const uint64_t id =
          client_spans.Record("op.scan_cold", 0, request_id, start, end);
      if (traced && got.ok() && got.value().trace.has_value()) {
        phases.Add(*got.value().trace);
        if (Mix(args.seed, 22, i) % kSampleEvery == 0) {
          client_spans.AddPhases(*got.value().trace, id, request_id, start,
                                 end);
          samples.push_back(Sample{i, id, request_id});
        }
      }
    }
    log->ops.push_back(OpRecord{start, end, NowNs() - end, traced});
  };
  const std::vector<ClientLog> logs = RunClosedLoop(1, t1, kPrefixOps, op_fn);
  const ServeCounters after = ServeCounters::Take(*served.cache);
  report->AddLogs(logs);

  const std::vector<double> latencies = WindowLatencies(logs, t0, t1);
  PrintNonTiming("digest.client0.first" + std::to_string(logs[0].digest_ops),
                 Hex(logs[0].digest));
  if (!args.trace) {
    report->latency_p50_ms = NsToMs(Median(latencies));
    report->ops_per_s = OpsPerSecond(logs, t0, t1);
    PrintLatencyLines("window", latencies);
    return true;
  }

  // Ladder replay of the sampled ops, alone: per block read ->
  // deserialize -> filter -> project -> aggregate, then the inline
  // service (num_threads = 0, its own 2-block cache), then the pooled one.
  auto file = corra::CorfFile::Open(path);
  corra::obs::Registry private_registry;
  auto inline_reader = TableReader::Open(path, MakeCache(&private_registry));
  if (!file.ok() || !inline_reader.ok()) {
    std::fprintf(stderr, "scan_cold: reopen for the ladder failed\n");
    return false;
  }
  ScanService::Options inline_options;
  inline_options.num_threads = 0;
  inline_options.registry = &private_registry;
  ScanService inline_service(inline_options);
  const uint64_t t_end = t0 + window_ns;
  uint64_t replays = 0;
  uint64_t replay_failed = 0;
  for (const Sample& sample : samples) {
    if (replays > 0 && NowNs() >= t_end) {
      break;
    }
    const size_t window = rotation[sample.index % rotation.size()];
    const ScanWindow& range = oracle.windows()[window];
    const uint64_t ladder = main_spans.NewId();
    const uint64_t l0 = NowNs();
    bool ok = true;
    uint64_t matched = 0;
    uint64_t sum = 0;
    std::vector<int64_t> projected;
    for (size_t b = 0; ok && b < file.value().num_blocks(); ++b) {
      const uint64_t r0 = NowNs();
      auto bytes = file.value().ReadBlockBytes(b);
      const uint64_t r1 = NowNs();
      main_spans.Record("storage.read", ladder, sample.request, r0, r1);
      if (!bytes.ok()) {
        ok = false;
        break;
      }
      auto block = corra::Block::Deserialize(bytes.value());
      const uint64_t r2 = NowNs();
      main_spans.Record("storage.deserialize", ladder, sample.request, r1, r2);
      if (!block.ok()) {
        ok = false;
        break;
      }
      const std::vector<uint32_t> selection = corra::query::FilterToSelection(
          block.value().column(kShip), range.lo, range.hi);
      const uint64_t r3 = NowNs();
      main_spans.Record("query.filter", ladder, sample.request, r2, r3);
      const std::vector<int64_t> receipts =
          corra::query::ScanColumn(block.value(), kReceipt, selection);
      const uint64_t r4 = NowNs();
      main_spans.Record("query.project", ladder, sample.request, r3, r4);
      const std::vector<int64_t> commits =
          corra::query::ScanColumn(block.value(), kCommit, selection);
      for (int64_t v : commits) {
        sum += static_cast<uint64_t>(v);
      }
      const uint64_t r5 = NowNs();
      main_spans.Record("query.aggregate", ladder, sample.request, r4, r5);
      matched += selection.size();
      projected.insert(projected.end(), receipts.begin(), receipts.end());
    }
    ok = ok && oracle.Check(window, matched, static_cast<int64_t>(sum),
                            projected);
    const ScanRequest request = MakeRequest(range);
    const uint64_t l1 = NowNs();
    auto inline_got = inline_service.Execute(*inline_reader.value(), request);
    const uint64_t l2 = NowNs();
    main_spans.Record("serve.inline_execute", ladder, sample.request, l1, l2);
    ok = ok && inline_got.ok() && oracle.Check(window, inline_got.value());
    auto pooled_got = service.Execute(reader, request);
    const uint64_t l3 = NowNs();
    main_spans.Record("serve.execute", ladder, sample.request, l2, l3);
    ok = ok && pooled_got.ok() && oracle.Check(window, pooled_got.value());
    main_spans.Add(ladder, "ladder", sample.span, sample.request, l0, l3);
    ++replays;
    replay_failed += ok ? 0 : 1;
  }
  report->attempted += replays;
  report->failed += replay_failed;

  SpanSet spans;
  spans.Merge(main_spans);
  spans.Merge(client_spans);
  auto& m = report->layer;
  m["datagen.gen_s"] = gen_s;
  m["serve.execute_ms"] = MedianMs(spans.Durations("serve.execute"));
  m["serve.inline_execute_ms"] =
      MedianMs(spans.Durations("serve.inline_execute"));
  m["storage.read_us"] = MedianUs(spans.Durations("storage.read"));
  m["storage.deserialize_us"] =
      MedianUs(spans.Durations("storage.deserialize"));
  m["query.filter_us"] = MedianUs(spans.Durations("query.filter"));
  m["query.project_us"] = MedianUs(spans.Durations("query.project"));
  m["query.aggregate_us"] = MedianUs(spans.Durations("query.aggregate"));
  phases.AddMetrics(report);
  AddCounterMetrics(before, after, logs[0].ops.size(), report);
  AddTracedLatencyMetrics(logs, t0, t1, report);
  ReportSpans(args, spans, replays, kSampleEvery);
  return true;
}

}  // namespace ladder
