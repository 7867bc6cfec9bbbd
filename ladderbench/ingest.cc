// ingest: one client; one op compresses one batch of all four paper
// datasets under their Table 2 plans and writes each as a CORF file.
// The write side (selector, horizontal encoders, Block::Serialize, file
// write) does all of its work here and none in the other workloads.

#include <cstdio>

#include "datagen/dmv.h"
#include "datagen/ldbc.h"
#include "datagen/taxi.h"
#include "datagen/tpch.h"
#include "encoding/selector.h"
#include "ladder.h"
#include "oracle.h"
#include "serve/table_reader.h"
#include "storage/file_io.h"

namespace ladder {
namespace {

constexpr size_t kSlices = 3;        // Batches rotate over these.
constexpr uint64_t kPrefixOps = 4;   // Digest prefix.
constexpr int kSetupRepeats = 5;
constexpr uint64_t kSampleEvery = 2;  // Traced ops replayed.

struct Dataset {
  const char* name;
  size_t rows;  // Per slice.
  corra::CompressionPlan plan;
  const char* compress_span;
  std::vector<corra::Table> slices;
};

corra::Result<corra::Table> MakeSlice(size_t dataset, size_t rows,
                                      uint64_t seed) {
  switch (dataset) {
    case 0:
      return corra::datagen::MakeLineitemTable(rows, seed);
    case 1:
      return corra::datagen::MakeTaxiTable(rows, seed);
    case 2:
      return corra::datagen::MakeDmvTableFromCodes(rows, seed);
    default:
      return corra::datagen::MakeLdbcTable(rows, seed);
  }
}

// The seven Table 2 columns and the paper's saving for each.
struct PaperColumn {
  size_t dataset;
  size_t column;
  const char* name;
  double paper_saving_pct;
};
constexpr PaperColumn kPaperColumns[] = {
    {0, 3, "l_receiptdate", 58.3}, {0, 2, "l_commitdate", 33.3},
    {1, 1, "dropoff", 30.6},       {1, 10, "total_amount", 85.16},
    {2, 2, "zip_code", 53.7},      {2, 1, "city", 1.8},
    {3, 1, "ip", 17.1},
};

std::string FilePath(const Args& args, const Dataset& dataset,
                     const std::string& tag) {
  return args.workdir + "/ingest_" + dataset.name + tag + ".corf";
}

// Writes every slice once under its plan, opens each file and reads its
// first block back: the set-up timed as setup_s, and the fixed input set
// stored_bytes_per_value is measured over. Returns the bytes written, or
// 0 on failure.
uint64_t SetUp(const Args& args, const std::vector<Dataset>& datasets) {
  auto cache = std::make_shared<corra::serve::BlockCache>();
  uint64_t bytes = 0;
  for (const Dataset& dataset : datasets) {
    for (size_t k = 0; k < dataset.slices.size(); ++k) {
      const std::string path =
          FilePath(args, dataset, "_slice" + std::to_string(k));
      auto compressed =
          corra::CorraCompressor::Compress(dataset.slices[k], dataset.plan);
      if (!compressed.ok() ||
          !corra::WriteCompressedTable(compressed.value(), path).ok()) {
        std::fprintf(stderr, "ingest: set-up write of %s failed\n",
                     path.c_str());
        return 0;
      }
      auto reader = corra::serve::TableReader::Open(path, cache);
      if (!reader.ok() || !reader.value()->GetBlock(0).ok()) {
        std::fprintf(stderr, "ingest: set-up read of %s failed\n",
                     path.c_str());
        return 0;
      }
      bytes += FileBytes(path);
    }
  }
  return bytes;
}

// core.bits_per_value.* and core.saving.* over the fixed input set,
// against the paper's baseline (every column auto-selected vertical).
bool AddPaperSizeRows(const std::vector<Dataset>& datasets, Report* report) {
  std::printf("%-14s %14s %14s %10s %12s\n", "column", "bits/value",
              "baseline b/v", "saving", "paper saving");
  for (const PaperColumn& col : kPaperColumns) {
    const Dataset& dataset = datasets[col.dataset];
    double corra_bytes = 0;
    double baseline_bytes = 0;
    double rows = 0;
    for (const corra::Table& slice : dataset.slices) {
      corra::CompressionPlan baseline_plan =
          corra::CompressionPlan::AllAuto(slice.num_columns());
      baseline_plan.block_rows = dataset.plan.block_rows;
      auto corra_table = corra::CorraCompressor::Compress(slice, dataset.plan);
      auto baseline = corra::CorraCompressor::Compress(slice, baseline_plan);
      if (!corra_table.ok() || !baseline.ok()) {
        return false;
      }
      corra_bytes +=
          static_cast<double>(corra_table.value().ColumnSizeBytes(col.column));
      baseline_bytes +=
          static_cast<double>(baseline.value().ColumnSizeBytes(col.column));
      rows += static_cast<double>(slice.num_rows());
    }
    const double bits = corra_bytes * 8 / rows;
    const double saving = (1 - corra_bytes / baseline_bytes) * 100;
    report->layer[std::string("core.bits_per_value.") + col.name] = bits;
    report->layer[std::string("core.saving.") + col.name] = saving;
    std::printf("%-14s %14.4f %14.4f %9.2f%% %11.2f%%\n", col.name, bits,
                baseline_bytes * 8 / rows, saving, col.paper_saving_pct);
    PrintNonTiming(std::string("core.bits_per_value.") + col.name,
                   Exact(bits));
    PrintNonTiming(std::string("core.saving.") + col.name, Exact(saving));
  }
  return true;
}

}  // namespace

bool RunIngest(const Args& args, Report* report) {
  const size_t shrink = args.shrink;
  std::vector<Dataset> datasets;  // Move-only: Table cannot be copied.
  datasets.push_back({"lineitem", 131'072 / shrink, LineitemPlan(),
                      "core.compress.lineitem", {}});
  datasets.push_back(
      {"taxi", 32'768 / shrink, TaxiPlan(), "core.compress.taxi", {}});
  datasets.push_back(
      {"dmv", 65'536 / shrink, DmvPlan(), "core.compress.dmv", {}});
  datasets.push_back(
      {"ldbc", 131'072 / shrink, LdbcPlan(), "core.compress.ldbc", {}});
  SpanLog main_spans(0);
  SpanLog client_spans(1);

  const uint64_t gen_start = NowNs();
  for (size_t d = 0; d < datasets.size(); ++d) {
    datasets[d].plan.num_threads = 1;
    for (size_t k = 0; k < kSlices; ++k) {
      auto slice = MakeSlice(d, datasets[d].rows, Mix(args.seed, 30 + d, k));
      if (!slice.ok()) {
        std::fprintf(stderr, "ingest: datagen %s: %s\n", datasets[d].name,
                     slice.status().ToString().c_str());
        return false;
      }
      datasets[d].slices.push_back(std::move(slice.value()));
    }
  }
  const uint64_t gen_end = NowNs();
  main_spans.Record("datagen.make", 0, 0, gen_start, gen_end);
  const double gen_s = static_cast<double>(gen_end - gen_start) / 1e9;

  std::vector<double> setup_s;
  uint64_t stored_bytes = 0;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const uint64_t start = NowNs();
    stored_bytes = SetUp(args, datasets);
    const uint64_t end = NowNs();
    if (stored_bytes == 0) {
      return false;
    }
    main_spans.Record("setup", 0, 0, start, end);
    setup_s.push_back(static_cast<double>(end - start) / 1e9);
  }
  double values = 0;
  for (const Dataset& dataset : datasets) {
    std::printf("input %s rows_per_batch=%zu columns=%zu slices=%zu\n",
                dataset.name, dataset.rows, dataset.slices[0].num_columns(),
                dataset.slices.size());
    for (const corra::Table& slice : dataset.slices) {
      values += static_cast<double>(slice.num_rows() * slice.num_columns());
    }
  }
  report->setup_s = Median(setup_s);
  report->stored_bytes_per_value = static_cast<double>(stored_bytes) / values;
  PrintThreadBudget(1, 0, 0);
  std::printf("datagen gen_s %.6f (not part of setup_s)\n", gen_s);
  if (!AddPaperSizeRows(datasets, report)) {
    std::fprintf(stderr, "ingest: paper size rows failed\n");
    return false;
  }

  std::vector<std::string> paths;
  for (const Dataset& dataset : datasets) {
    paths.push_back(FilePath(args, dataset, ""));
  }
  std::vector<uint64_t> samples;
  std::vector<uint64_t> sample_spans;
  const uint64_t t0 = NowNs();
  const auto window_ns = static_cast<uint64_t>(args.seconds * 1e9);
  const uint64_t t1 = t0 + (args.trace ? window_ns * 6 / 10 : window_ns);

  auto op_fn = [&](size_t, uint64_t i, ClientLog* log) {
    const size_t k = i % kSlices;
    const bool traced = args.trace && (i % 2 == 1);
    const uint64_t request = (uint64_t{1} << 40) | (i + 1);
    const uint64_t id = client_spans.NewId();
    bool ok = true;
    const uint64_t start = NowNs();
    for (size_t d = 0; d < datasets.size(); ++d) {
      const uint64_t c0 = NowNs();
      auto compressed = corra::CorraCompressor::Compress(datasets[d].slices[k],
                                                         datasets[d].plan);
      const uint64_t c1 = NowNs();
      ok = ok && compressed.ok() &&
           corra::WriteCompressedTable(compressed.value(), paths[d]).ok();
      if (traced) {
        client_spans.Record(datasets[d].compress_span, id, request, c0, c1);
        client_spans.Record("storage.write", id, request, c1, NowNs());
      }
    }
    const uint64_t end = NowNs();
    for (size_t d = 0; ok && d < datasets.size(); ++d) {
      ok = CheckRoundTrip(datasets[d].slices[k], paths[d]).ok();
    }
    if (i < kPrefixOps) {
      for (const std::string& path : paths) {
        const uint64_t file = FileDigest(path);
        log->digest = Fnv1a(log->digest, &file, sizeof(file));
      }
      log->digest = Fnv1a(log->digest, &ok, sizeof(ok));
      ++log->digest_ops;
    }
    ++log->attempted;
    log->failed += ok ? 0 : 1;
    if (args.trace) {
      client_spans.Add(id, "op.ingest", 0, request, start, end);
      if (traced && Mix(args.seed, 31, i) % kSampleEvery == 0) {
        samples.push_back(i);
        sample_spans.push_back(id);
      }
    }
    log->ops.push_back(OpRecord{start, end, NowNs() - end, traced});
  };
  const std::vector<ClientLog> logs = RunClosedLoop(1, t1, kPrefixOps, op_fn);
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

  // Ladder replay of the sampled ops: the selector alone on each
  // auto-vertical column, then Block::Serialize of the compressed batch.
  const uint64_t t_end = t0 + window_ns;
  uint64_t replays = 0;
  uint64_t replay_failed = 0;
  for (size_t s = 0; s < samples.size(); ++s) {
    if (replays > 0 && NowNs() >= t_end) {
      break;
    }
    const size_t k = samples[s] % kSlices;
    const uint64_t request = (uint64_t{1} << 40) | (samples[s] + 1);
    const uint64_t ladder = main_spans.NewId();
    const uint64_t l0 = NowNs();
    bool ok = true;
    for (const Dataset& dataset : datasets) {
      const corra::Table& slice = dataset.slices[k];
      const corra::enc::SelectionOptions options{
          corra::enc::SelectionPolicy::kConstantTimeAccessOnly,
          dataset.plan.workload};
      const uint64_t s0 = NowNs();
      for (size_t c = 0; c < slice.num_columns(); ++c) {
        if (dataset.plan.columns[c].auto_vertical) {
          ok = ok &&
               corra::enc::SelectBestScheme(slice.column(c).values(), options)
                   .ok();
        }
      }
      const uint64_t s1 = NowNs();
      main_spans.Record("encoding.select", ladder, request, s0, s1);
      auto compressed = corra::CorraCompressor::Compress(slice, dataset.plan);
      if (!compressed.ok()) {
        ok = false;
        continue;
      }
      const uint64_t s2 = NowNs();
      size_t serialized = 0;
      for (size_t b = 0; b < compressed.value().num_blocks(); ++b) {
        serialized += compressed.value().block(b).Serialize().size();
      }
      main_spans.Record("storage.serialize", ladder, request, s2, NowNs());
      ok = ok && serialized > 0;
    }
    main_spans.Add(ladder, "ladder", sample_spans[s], request, l0, NowNs());
    ++replays;
    replay_failed += ok ? 0 : 1;
  }
  report->attempted += replays;
  report->failed += replay_failed;

  SpanSet spans;
  spans.Merge(main_spans);
  spans.Merge(client_spans);
  auto per_op_ms = [&](const char* name) {
    std::vector<double> sums;
    for (const auto& [request, ns] : spans.SumByRequest(name)) {
      sums.push_back(ns);
    }
    return MedianMs(sums);
  };
  auto& m = report->layer;
  m["datagen.gen_s"] = gen_s;
  m["encoding.select_ms"] = per_op_ms("encoding.select");
  for (const Dataset& dataset : datasets) {
    m[std::string("core.compress_ms.") + dataset.name] =
        MedianMs(spans.Durations(dataset.compress_span));
  }
  m["storage.serialize_ms"] = per_op_ms("storage.serialize");
  m["storage.write_ms"] = per_op_ms("storage.write");
  AddTracedLatencyMetrics(logs, t0, t1, report);
  ReportSpans(args, spans, replays, kSampleEvery);
  return true;
}

}  // namespace ladder
