// End-to-end serving telemetry: a traced ScanService request must
// explain itself — phase timings that fit in the wall clock and cover
// most of the calling thread's CPU time (inline execution), per-block
// scheme annotations matching the compression plan, pruned/hit flags
// matching the cache's behavior — and the registry histograms must agree
// with the number of requests issued.

#include <gtest/gtest.h>

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/corra_compressor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/block_cache.h"
#include "serve/scan_service.h"
#include "serve/table_reader.h"
#include "storage/file_io.h"
#include "test_util.h"

namespace corra::serve {
namespace {

// CPU time the calling thread has used, in nanoseconds.
uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000 +
         static_cast<uint64_t>(ts.tv_nsec);
}

class TraceServeTest : public ::testing::Test {
 protected:
  static constexpr size_t kRows = 4000;
  static constexpr size_t kBlockRows = 1000;

  void SetUp() override {
    obs::SetEnabled(true);
    path_ = ::testing::TempDir() + "corra_trace_serve_test.corf";
    Rng rng(97);
    ship_.resize(kRows);
    receipt_.resize(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      // Block-banded values so min/max stats can prune: block b holds
      // values in [b*10000, b*10000 + 2500).
      ship_[i] = static_cast<int64_t>((i / kBlockRows) * 10000) +
                 rng.Uniform(0, 2500);
      receipt_[i] = ship_[i] + rng.Uniform(1, 30);
    }
    Table table;
    ASSERT_TRUE(table.AddColumn(Column::Date("ship", ship_)).ok());
    ASSERT_TRUE(table.AddColumn(Column::Date("receipt", receipt_)).ok());
    // Pin the schemes so the trace annotations are deterministic:
    // column 0 FOR, column 1 Corra-Diff referencing column 0.
    CompressionPlan plan = CompressionPlan::AllAuto(2);
    plan.block_rows = kBlockRows;
    plan.columns[0].auto_vertical = false;
    plan.columns[0].scheme = enc::Scheme::kFor;
    plan.columns[1].auto_vertical = false;
    plan.columns[1].scheme = enc::Scheme::kDiff;
    plan.columns[1].reference = 0;
    auto compressed = CorraCompressor::Compress(table, plan);
    ASSERT_TRUE(compressed.ok());
    ASSERT_EQ(compressed.value().num_blocks(), 4u);
    ASSERT_TRUE(WriteCompressedTable(compressed.value(), path_).ok());
  }

  void TearDown() override {
    if (!path_.empty()) {
      std::remove(path_.c_str());
    }
  }

  std::string path_;
  std::vector<int64_t> ship_, receipt_;
};

TEST_F(TraceServeTest, TracedRequestExplainsItsLatency) {
  obs::Registry registry;
  auto cache = std::make_shared<BlockCache>(
      BlockCacheOptions{.registry = &registry});
  auto reader = TableReader::Open(path_, cache);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();

  // Inline execution (num_threads = 0): the phases are disjoint
  // sub-intervals of the request's wall clock, so they must sum to at
  // most the total and cover most of it.
  ScanService service({.num_threads = 0, .registry = &registry});

  ScanRequest request;
  request.filter_column = 0;
  request.filter_lo = 0;
  request.filter_hi = 22500;  // Matches blocks 0-2; block 3 prunes.
  request.project_columns = {0, 1};
  request.return_positions = true;
  request.collect_trace = true;

  const uint64_t cpu_begin = ThreadCpuNs();
  auto result = service.Execute(*reader.value(), request);
  const uint64_t cpu_ns = ThreadCpuNs() - cpu_begin;
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result.value().trace.has_value());
  const obs::RequestTrace& trace = *result.value().trace;

  EXPECT_EQ(trace.op, "execute");
  EXPECT_EQ(trace.rows_scanned, kRows);
  EXPECT_EQ(trace.rows_matched, result.value().rows_matched);
  EXPECT_GT(trace.total_ns, 0u);

  // Phase accounting: with inline execution the sum never exceeds the
  // wall clock, and the timed phases cover the bulk of the work the
  // calling thread did (the untimed remainder is validation + vector
  // setup). Work is CPU time, not wall time: time the thread spends
  // descheduled between phases would count against the phases.
  const uint64_t phase_sum = trace.PhaseTotalNs();
  EXPECT_LE(phase_sum, trace.total_ns);
  EXPECT_GE(phase_sum, cpu_ns / 2)
      << "timed phases explain too little of the request: " << phase_sum
      << " ns of " << cpu_ns << " ns on the CPU (" << trace.total_ns
      << " ns wall) — " << trace.ToJson();
  EXPECT_EQ(trace.phase(obs::Phase::kQueueWait), 0u);  // No pool.

  // Block annotations: 4 blocks, the last pruned via min/max stats.
  ASSERT_EQ(trace.blocks.size(), 4u);
  EXPECT_EQ(result.value().blocks_skipped, 1u);
  for (size_t b = 0; b < 3; ++b) {
    const obs::BlockSpan& span = trace.blocks[b];
    EXPECT_EQ(span.block, b);
    EXPECT_EQ(span.rows, kBlockRows);
    EXPECT_FALSE(span.pruned);
    EXPECT_FALSE(span.cache_hit);  // Cold cache: every pin filled.
    EXPECT_GT(span.fill_ns, 0u);
    EXPECT_GT(span.decode_ns, 0u);
    EXPECT_EQ(span.schemes, "0:FOR,1:Corra-Diff");
  }
  EXPECT_TRUE(trace.blocks[3].pruned);
  EXPECT_EQ(trace.blocks[3].rows, kBlockRows);
  EXPECT_TRUE(trace.blocks[3].schemes.empty());  // Never materialized.

  // Fill time is part of the request's attributed time and also feeds
  // the kMissFill phase.
  EXPECT_GT(trace.phase(obs::Phase::kMissFill), 0u);
  EXPECT_GT(trace.phase(obs::Phase::kDecodeFilter), 0u);

  // A second, identical request hits the warm cache.
  auto again = service.Execute(*reader.value(), request);
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(again.value().trace.has_value());
  for (size_t b = 0; b < 3; ++b) {
    EXPECT_TRUE(again.value().trace->blocks[b].cache_hit);
    EXPECT_EQ(again.value().trace->blocks[b].fill_ns, 0u);
  }

  // Registry agreement: two requests issued, two recorded.
  const obs::RegistrySnapshot snap = registry.Snapshot();
  const auto find_hist = [&snap](std::string_view name) {
    for (const auto& [n, h] : snap.histograms) {
      if (n == name) {
        return h;
      }
    }
    return obs::HistogramSnapshot{};
  };
  EXPECT_EQ(find_hist("serve.request_latency_us").count, 2u);
  EXPECT_EQ(find_hist("serve.phase_us{phase=\"decode_filter\"}").count, 2u);
  const auto find_counter = [&snap](std::string_view name) -> uint64_t {
    for (const auto& [n, v] : snap.counters) {
      if (n == name) {
        return v;
      }
    }
    return 0;
  };
  EXPECT_EQ(find_counter("serve.requests"), 2u);
  EXPECT_EQ(find_counter("serve.rows_scanned"), 2 * kRows);
  EXPECT_EQ(find_counter("serve.blocks_pruned"), 2u);
  // The cache saw 3 cold misses, then 3 warm hits.
  EXPECT_EQ(find_counter("cache.misses"), 3u);
  EXPECT_EQ(find_counter("cache.hits"), 3u);
}

TEST_F(TraceServeTest, SlowRingRetainsUntracedRequests) {
  obs::Registry registry;
  auto cache = std::make_shared<BlockCache>(
      BlockCacheOptions{.registry = &registry});
  auto reader = TableReader::Open(path_, cache);
  ASSERT_TRUE(reader.ok());

  // slow_trace_ns = 0 retains every request, opted in or not.
  ScanService service({.num_threads = 2,
                       .registry = &registry,
                       .slow_trace_ns = 0,
                       .slow_trace_capacity = 2});
  ScanRequest request;
  request.project_columns = {1};
  for (int i = 0; i < 3; ++i) {
    auto result = service.Execute(*reader.value(), request);
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result.value().trace.has_value());  // Not opted in.
  }
  EXPECT_EQ(service.slow_traces().pushed(), 3u);
  auto slow = service.DrainSlowTraces();
  ASSERT_EQ(slow.size(), 2u);  // Capacity 2: oldest dropped.
  for (const obs::RequestTrace& trace : slow) {
    EXPECT_EQ(trace.op, "execute");
    EXPECT_EQ(trace.rows_scanned, kRows);
    EXPECT_EQ(trace.blocks.size(), 4u);
    // ToJson renders without throwing and names the op.
    EXPECT_NE(trace.ToJson().find("\"op\": \"execute\""),
              std::string::npos);
  }
  EXPECT_TRUE(service.DrainSlowTraces().empty());
}

TEST_F(TraceServeTest, GatherProducesTraceAndCounters) {
  obs::Registry registry;
  auto cache = std::make_shared<BlockCache>(
      BlockCacheOptions{.registry = &registry});
  auto reader = TableReader::Open(path_, cache);
  ASSERT_TRUE(reader.ok());
  ScanService service({.num_threads = 0, .registry = &registry});

  // Rows from blocks 0 and 2 only: the trace must show exactly those
  // two blocks touched.
  const std::vector<uint64_t> rows = {5, 700, 2100, 2999};
  const std::vector<size_t> columns = {0, 1};
  obs::RequestTrace trace;
  auto result = service.Gather(*reader.value(), columns, rows,
                               GatherOptions{.trace = &trace});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(result.value()[0][i], ship_[rows[i]]);
    EXPECT_EQ(result.value()[1][i], receipt_[rows[i]]);
  }

  EXPECT_EQ(trace.op, "gather");
  EXPECT_EQ(trace.rows_matched, rows.size());
  ASSERT_EQ(trace.blocks.size(), 2u);
  EXPECT_EQ(trace.blocks[0].block, 0u);
  EXPECT_EQ(trace.blocks[0].rows, 2u);
  EXPECT_EQ(trace.blocks[1].block, 2u);
  EXPECT_EQ(trace.blocks[1].rows, 2u);
  for (const obs::BlockSpan& span : trace.blocks) {
    EXPECT_EQ(span.schemes, "0:FOR,1:Corra-Diff");
    EXPECT_FALSE(span.cache_hit);
  }
  EXPECT_LE(trace.PhaseTotalNs(), trace.total_ns);

  const obs::RegistrySnapshot snap = registry.Snapshot();
  uint64_t gather_requests = 0, gather_rows = 0;
  for (const auto& [n, v] : snap.counters) {
    if (n == "serve.gather_requests") {
      gather_requests = v;
    } else if (n == "serve.gather_rows") {
      gather_rows = v;
    }
  }
  EXPECT_EQ(gather_requests, 1u);
  EXPECT_EQ(gather_rows, rows.size());
}

// Queue wait is a helper's wait for a pool worker, from hand-off to its
// first claim. The caller runs its own units, so on a pooled service a
// single-block request waits for nothing and its phases still partition
// its wall clock, and a multi-block request charges queue wait to at
// most one unit per helper.
TEST_F(TraceServeTest, QueueWaitIsChargedOnlyToHelperHandOffs) {
  obs::Registry registry;
  auto cache = std::make_shared<BlockCache>(
      BlockCacheOptions{.registry = &registry});
  auto reader = TableReader::Open(path_, cache);
  ASSERT_TRUE(reader.ok());
  ScanService service({.num_threads = 2, .registry = &registry});

  const std::vector<uint64_t> rows = {1000, 1500, 1999};  // Block 1 only.
  const std::vector<size_t> columns = {0, 1};
  obs::RequestTrace gather;
  auto gathered = service.Gather(*reader.value(), columns, rows,
                                 GatherOptions{.trace = &gather});
  ASSERT_TRUE(gathered.ok()) << gathered.status().ToString();
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(gathered.value()[0][i], ship_[rows[i]]);
    EXPECT_EQ(gathered.value()[1][i], receipt_[rows[i]]);
  }
  ASSERT_EQ(gather.blocks.size(), 1u);
  EXPECT_EQ(gather.phase(obs::Phase::kQueueWait), 0u) << gather.ToJson();
  EXPECT_LE(gather.PhaseTotalNs(), gather.total_ns) << gather.ToJson();

  // A cold 4-block scan: min(2 workers, 4 - 1) = 2 helpers join the
  // caller, so at most 2 spans carry queue wait.
  auto cold_cache = std::make_shared<BlockCache>(
      BlockCacheOptions{.registry = &registry});
  auto cold_reader = TableReader::Open(path_, cold_cache);
  ASSERT_TRUE(cold_reader.ok());
  ScanRequest request;
  request.project_columns = {0, 1};
  request.collect_trace = true;
  auto result = service.Execute(*cold_reader.value(), request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().columns[0], ship_);
  EXPECT_EQ(result.value().columns[1], receipt_);
  ASSERT_TRUE(result.value().trace.has_value());
  const obs::RequestTrace& trace = *result.value().trace;
  ASSERT_EQ(trace.blocks.size(), 4u);
  size_t queued = 0;
  for (const obs::BlockSpan& span : trace.blocks) {
    queued += span.queue_ns > 0 ? 1 : 0;
  }
  EXPECT_LE(queued, 2u) << trace.ToJson();
}

TEST_F(TraceServeTest, DisabledObservabilityYieldsNoTrace) {
  obs::Registry registry;
  auto cache = std::make_shared<BlockCache>(
      BlockCacheOptions{.registry = &registry});
  auto reader = TableReader::Open(path_, cache);
  ASSERT_TRUE(reader.ok());
  ScanService service({.num_threads = 0,
                       .registry = &registry,
                       .slow_trace_ns = 0});

  obs::SetEnabled(false);
  ScanRequest request;
  request.project_columns = {0};
  request.collect_trace = true;  // Ignored while disabled.
  auto result = service.Execute(*reader.value(), request);
  obs::SetEnabled(true);

  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().trace.has_value());
  EXPECT_EQ(service.slow_traces().pushed(), 0u);
  // Nothing was recorded anywhere.
  const obs::RegistrySnapshot snap = registry.Snapshot();
  for (const auto& [name, value] : snap.counters) {
    EXPECT_EQ(value, 0u) << name;
  }
  for (const auto& [name, hist] : snap.histograms) {
    EXPECT_EQ(hist.count, 0u) << name;
  }
}

// The per-scheme kernel counters fire in the process-default registry;
// a scan through the service must leave decode/filter rows attributed
// to the schemes the plan forced.
TEST_F(TraceServeTest, KernelCountersAttributeRowsToSchemes) {
  obs::Registry& reg = obs::Registry::Default();
  const uint64_t for_filter_before =
      reg.counter("query.filter_rows{scheme=\"FOR\"}").Value();
  const uint64_t diff_decode_before =
      reg.counter("query.decode_rows{scheme=\"Corra-Diff\"}").Value();

  auto cache = std::make_shared<BlockCache>();
  auto reader = TableReader::Open(path_, cache);
  ASSERT_TRUE(reader.ok());
  ScanService service({.num_threads = 0});
  ScanRequest request;
  request.filter_column = 0;
  request.filter_lo = INT64_MIN;  // No pruning: every block scans.
  request.filter_hi = INT64_MAX;
  request.project_columns = {1};
  auto result = service.Execute(*reader.value(), request);
  ASSERT_TRUE(result.ok());

  EXPECT_EQ(reg.counter("query.filter_rows{scheme=\"FOR\"}").Value() -
                for_filter_before,
            kRows);
  // The all-matching selection is contiguous, so projection goes down
  // the dense ranged-decode path.
  EXPECT_EQ(reg.counter("query.decode_rows{scheme=\"Corra-Diff\"}").Value() -
                diff_decode_before,
            kRows);
}

}  // namespace
}  // namespace corra::serve
