// point_hot: two closed-loop clients gather pickup, dropoff and
// total_amount at 128 sorted rows inside one window of a hot taxi table
// through a pooled ScanService (2 workers). Every block is resident
// after set-up, so storage does nothing and the serving layer's hand-off
// and coalescing dominate (ROADMAP item 2's workload).

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "datagen/distributions.h"
#include "datagen/taxi.h"
#include "ladder.h"
#include "oracle.h"
#include "query/scan.h"
#include "query/table_scan.h"
#include "serve/scan_service.h"
#include "storage/file_io.h"

namespace ladder {
namespace {

using corra::serve::BlockCache;
using corra::serve::GatherOptions;
using corra::serve::ScanService;
using corra::serve::TableReader;
using C = corra::datagen::TaxiColumns;

constexpr size_t kRows = 2'097'152;       // 16 blocks ...
constexpr size_t kBlockRows = 131'072;    // ... of 131,072 rows.
constexpr size_t kWindowRows = 4'096;     // One op's rows lie in one window.
constexpr size_t kGatherRows = 128;       // Sorted rows per op.
constexpr size_t kWindows = 64;           // Fixed window pool ...
constexpr double kZipfExponent = 1.1;     // ... drawn Zipf-skewed.
constexpr size_t kClients = 2;
constexpr size_t kWorkers = 2;
constexpr size_t kOpsPerClient = 4'096;   // Pre-generated, then cycled.
constexpr uint64_t kPrefixOps = 2'048;    // Digest prefix per client.
constexpr size_t kWarmupOps = 1024;
constexpr int kSetupRepeats = 5;
constexpr uint64_t kSampleEvery = 64;     // Traced ops replayed.

struct PointOp {
  std::vector<uint64_t> rows;
};

// Windows at seed-chosen places, each inside one block; ops draw a
// window Zipf-skewed, so concurrent clients sometimes share a block.
std::vector<std::vector<PointOp>> MakeOps(uint64_t seed, size_t blocks,
                                          size_t block_rows,
                                          size_t window_rows,
                                          size_t gather_rows) {
  std::vector<uint64_t> window_start(kWindows);
  for (size_t w = 0; w < kWindows; ++w) {
    const uint64_t block = Mix(seed, 11, w) % blocks;
    const uint64_t offset = Mix(seed, 12, w) % (block_rows - window_rows + 1);
    window_start[w] = block * block_rows + offset;
  }
  const corra::datagen::ZipfDistribution zipf(kWindows, kZipfExponent);
  std::vector<std::vector<PointOp>> ops(kClients + 1);  // Last: warm-up.
  std::vector<uint32_t> slots(window_rows);
  for (size_t c = 0; c < ops.size(); ++c) {
    corra::Rng rng(Mix(seed, 13, c));
    const size_t count = c < kClients ? kOpsPerClient : kWarmupOps;
    for (size_t i = 0; i < count; ++i) {
      const uint64_t start = window_start[zipf.Sample(&rng)];
      std::iota(slots.begin(), slots.end(), 0);
      PointOp op;
      for (size_t j = 0; j < gather_rows; ++j) {
        const auto pick = static_cast<size_t>(
            rng.Uniform(static_cast<int64_t>(j),
                        static_cast<int64_t>(window_rows - 1)));
        std::swap(slots[j], slots[pick]);
        op.rows.push_back(start + slots[j]);
      }
      std::sort(op.rows.begin(), op.rows.end());
      ops[c].push_back(std::move(op));
    }
  }
  return ops;
}

// Compresses, writes, opens and warms the table; returns false on any
// failure. Everything here is timed as setup_s.
bool SetUp(const corra::Table& table, size_t block_rows,
           const std::string& path, const std::vector<size_t>& columns,
           const std::vector<PointOp>& warmup, Served* out) {
  corra::CompressionPlan plan = TaxiPlan();
  plan.block_rows = block_rows;
  plan.num_threads = 1;
  plan.workload = corra::enc::WorkloadHint::kPointServing;
  auto compressed = corra::CorraCompressor::Compress(table, plan);
  if (!compressed.ok()) {
    std::fprintf(stderr, "point_hot: compress: %s\n",
                 compressed.status().ToString().c_str());
    return false;
  }
  const corra::Status written =
      corra::WriteCompressedTable(compressed.value(), path);
  if (!written.ok()) {
    std::fprintf(stderr, "point_hot: write: %s\n", written.ToString().c_str());
    return false;
  }
  corra::serve::BlockCacheOptions cache_options;
  cache_options.capacity_blocks = compressed.value().num_blocks();
  out->cache = std::make_shared<BlockCache>(cache_options);
  auto reader = TableReader::Open(path, out->cache);
  if (!reader.ok()) {
    std::fprintf(stderr, "point_hot: open: %s\n",
                 reader.status().ToString().c_str());
    return false;
  }
  out->reader = std::move(reader.value());
  ScanService::Options options;
  options.num_threads = kWorkers;
  // Every op touches one block, and ReadAhead only runs for requests
  // spanning several; without its idle thread the run fits 4 CPUs.
  options.read_ahead = false;
  out->service = std::make_unique<ScanService>(options);
  for (size_t b = 0; b < out->reader->num_blocks(); ++b) {
    if (!out->reader->GetBlock(b).ok()) {
      return false;
    }
  }
  for (const PointOp& op : warmup) {
    if (!out->service->Gather(*out->reader, columns, op.rows, GatherOptions{})
             .ok()) {
      return false;
    }
  }
  return true;
}

struct Sample {
  size_t client = 0;
  uint64_t index = 0;
  uint64_t span = 0;
  uint64_t request = 0;
};

}  // namespace

bool RunPointHot(const Args& args, Report* report) {
  const size_t rows = kRows / args.shrink;
  const size_t block_rows = kBlockRows / args.shrink;
  const size_t window_rows = std::min(kWindowRows, block_rows / 2);
  const size_t gather_rows = std::min(kGatherRows, window_rows / 2);
  const std::vector<size_t> columns = {C::kPickup, C::kDropoff,
                                       C::kTotalAmount};
  SpanLog main_spans(0);

  const uint64_t gen_start = NowNs();
  auto made = corra::datagen::MakeTaxiTable(rows, Mix(args.seed, 1));
  if (!made.ok()) {
    std::fprintf(stderr, "point_hot: datagen: %s\n",
                 made.status().ToString().c_str());
    return false;
  }
  const corra::Table table = std::move(made.value());
  const uint64_t gen_end = NowNs();
  main_spans.Record("datagen.make", 0, 0, gen_start, gen_end);
  const double gen_s = static_cast<double>(gen_end - gen_start) / 1e9;
  const auto ops = MakeOps(args.seed, rows / block_rows, block_rows,
                           window_rows, gather_rows);
  const PointOracle oracle(table, columns);

  const std::string path = args.workdir + "/point_hot.corf";
  Served served;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    served = Served{};
    const uint64_t start = NowNs();
    if (!SetUp(table, block_rows, path, columns, ops[kClients], &served)) {
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
  std::printf("input taxi rows=%zu columns=%zu blocks=%zu cache_blocks=%zu "
              "gather_rows=%zu window_rows=%zu windows=%zu\n",
              rows, table.num_columns(), reader.num_blocks(),
              served.cache->capacity_blocks(), gather_rows, window_rows,
              kWindows);
  PrintThreadBudget(kClients, kWorkers, 0);
  std::printf("datagen gen_s %.6f (not part of setup_s)\n", gen_s);

  std::vector<SpanLog> client_spans;
  for (size_t c = 0; c < kClients; ++c) {
    client_spans.emplace_back(static_cast<uint32_t>(c + 1));
  }
  std::vector<PhaseTotals> phases(kClients);
  std::vector<std::vector<Sample>> samples(kClients);

  const uint64_t t0 = NowNs();
  const auto window_ns = static_cast<uint64_t>(args.seconds * 1e9);
  // The traced run spends 60% of the window on traced client ops and the
  // rest replaying the sampled ops down the ladder, alone.
  const uint64_t t1 = t0 + (args.trace ? window_ns * 6 / 10 : window_ns);
  const ServeCounters before = ServeCounters::Take(*served.cache);

  auto op_fn = [&](size_t c, uint64_t i, ClientLog* log) {
    const PointOp& op = ops[c][i % ops[c].size()];
    const bool traced = args.trace && (i % 2 == 1);
    corra::obs::RequestTrace trace;
    GatherOptions options;
    options.trace = traced ? &trace : nullptr;
    const uint64_t start = NowNs();
    auto got = service.Gather(reader, columns, op.rows, options);
    const uint64_t end = NowNs();
    const bool ok = got.ok() && oracle.Check(op.rows, got.value());
    if (i < kPrefixOps) {
      if (got.ok()) {
        for (const auto& column : got.value()) {
          log->digest = Fnv1a(log->digest, column);
        }
      }
      log->digest = Fnv1a(log->digest, &ok, sizeof(ok));
      ++log->digest_ops;
    }
    ++log->attempted;
    log->failed += ok ? 0 : 1;
    if (args.trace) {
      SpanLog& spans = client_spans[c];
      const uint64_t request = (uint64_t{c + 1} << 40) | (i + 1);
      const uint64_t id =
          spans.Record("op.point_hot", 0, request, start, end);
      if (traced) {
        phases[c].Add(trace);
        if (Mix(args.seed, 14 + c, i) % kSampleEvery == 0) {
          spans.AddPhases(trace, id, request, start, end);
          samples[c].push_back(Sample{c, i, id, request});
        }
      }
    }
    log->ops.push_back(OpRecord{start, end, NowNs() - end, traced});
  };
  const std::vector<ClientLog> logs =
      RunClosedLoop(kClients, t1, kPrefixOps, op_fn);
  const ServeCounters after = ServeCounters::Take(*served.cache);
  report->AddLogs(logs);

  const std::vector<double> latencies = WindowLatencies(logs, t0, t1);
  for (size_t c = 0; c < kClients; ++c) {
    PrintNonTiming("digest.client" + std::to_string(c) + ".first" +
                       std::to_string(logs[c].digest_ops),
                   Hex(logs[c].digest));
  }
  if (!args.trace) {
    report->latency_p50_ms = NsToMs(Median(latencies));
    report->ops_per_s = OpsPerSecond(logs, t0, t1);
    PrintLatencyLines("window", latencies);
    return true;
  }

  // Ladder replay of the sampled ops: split -> pin -> kernel gather ->
  // inline service (num_threads = 0, same cache) -> pooled service.
  corra::obs::Registry private_registry;
  ScanService::Options inline_options;
  inline_options.num_threads = 0;
  inline_options.registry = &private_registry;
  ScanService inline_service(inline_options);
  std::vector<Sample> queue;
  for (size_t k = 0;; ++k) {
    bool any = false;
    for (size_t c = 0; c < kClients; ++c) {
      if (k < samples[c].size()) {
        queue.push_back(samples[c][k]);
        any = true;
      }
    }
    if (!any) {
      break;
    }
  }
  const uint64_t t_end = t0 + window_ns;
  uint64_t replays = 0;
  uint64_t replay_failed = 0;
  for (const Sample& sample : queue) {
    if (replays > 0 && NowNs() >= t_end) {
      break;
    }
    const PointOp& op = ops[sample.client][sample.index % kOpsPerClient];
    const uint64_t ladder = main_spans.NewId();
    const uint64_t l0 = NowNs();
    auto slices =
        corra::query::SplitSelectionByBlocks(reader.block_row_offsets(),
                                             op.rows);
    const uint64_t l1 = NowNs();
    main_spans.Record("query.split", ladder, sample.request, l0, l1);
    bool ok = slices.ok();
    std::vector<std::vector<int64_t>> kernel(
        columns.size(), std::vector<int64_t>(op.rows.size()));
    uint64_t pin_ns = 0;
    uint64_t gather_ns = 0;
    for (size_t s = 0; ok && s < slices.value().size(); ++s) {
      const corra::query::SelectionSlice& slice = slices.value()[s];
      const uint64_t p0 = NowNs();
      auto handle = reader.GetBlock(slice.block);
      const uint64_t p1 = NowNs();
      pin_ns += p1 - p0;
      if (!handle.ok()) {
        ok = false;
        break;
      }
      for (size_t c = 0; c < columns.size(); ++c) {
        corra::query::ScanColumn(*handle.value(), columns[c],
                                 slice.local_rows,
                                 kernel[c].data() + slice.out_offset);
      }
      gather_ns += NowNs() - p1;
    }
    main_spans.Record("serve.pin", ladder, sample.request, l1, l1 + pin_ns);
    main_spans.Record("query.gather", ladder, sample.request, l1 + pin_ns,
                      l1 + pin_ns + gather_ns);
    ok = ok && oracle.Check(op.rows, kernel);
    const uint64_t l3 = NowNs();
    auto inline_got = inline_service.Gather(reader, columns, op.rows,
                                            GatherOptions{});
    const uint64_t l4 = NowNs();
    main_spans.Record("serve.inline_gather", ladder, sample.request, l3, l4);
    ok = ok && inline_got.ok() && oracle.Check(op.rows, inline_got.value());
    const uint64_t l5 = NowNs();
    auto pooled_got = service.Gather(reader, columns, op.rows,
                                     GatherOptions{});
    const uint64_t l6 = NowNs();
    main_spans.Record("serve.gather", ladder, sample.request, l5, l6);
    ok = ok && pooled_got.ok() && oracle.Check(op.rows, pooled_got.value());
    main_spans.Add(ladder, "ladder", sample.span, sample.request, l0, l6);
    ++replays;
    replay_failed += ok ? 0 : 1;
  }
  report->attempted += replays;
  report->failed += replay_failed;

  SpanSet spans;
  spans.Merge(main_spans);
  for (const SpanLog& log : client_spans) {
    spans.Merge(log);
  }
  PhaseTotals phase_totals;
  for (const PhaseTotals& p : phases) {
    phase_totals.Merge(p);
  }
  uint64_t window_ops = 0;
  for (const ClientLog& log : logs) {
    window_ops += log.ops.size();
  }
  auto& m = report->layer;
  m["datagen.gen_s"] = gen_s;
  m["serve.gather_us"] = MedianUs(spans.Durations("serve.gather"));
  m["serve.inline_gather_us"] =
      MedianUs(spans.Durations("serve.inline_gather"));
  m["query.split_us"] = MedianUs(spans.Durations("query.split"));
  m["serve.pin_us"] = MedianUs(spans.Durations("serve.pin"));
  m["query.gather_us"] = MedianUs(spans.Durations("query.gather"));
  {
    const auto pooled = spans.SumByRequest("serve.gather");
    const auto split = spans.SumByRequest("query.split");
    const auto pin = spans.SumByRequest("serve.pin");
    const auto kernel = spans.SumByRequest("query.gather");
    std::vector<double> self;
    for (const auto& [request, ns] : pooled) {
      self.push_back(ns - split.at(request) - pin.at(request) -
                     kernel.at(request));
    }
    m["serve.self_us"] = MedianUs(self);
  }
  phase_totals.AddMetrics(report);
  AddCounterMetrics(before, after, window_ops, report);
  AddTracedLatencyMetrics(logs, t0, t1, report);
  ReportSpans(args, spans, replays, kSampleEvery);
  return true;
}

}  // namespace ladder
