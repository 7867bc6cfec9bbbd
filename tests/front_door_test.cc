// Serving front door: concurrent pooled requests stay byte-identical to
// the raw data across every encoding scheme, admission control
// fast-rejects over-limit and expired requests, and a cold pooled scan
// reads each block once, even through a cache smaller than the table.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/corra_compressor.h"
#include "serve/block_cache.h"
#include "serve/scan_service.h"
#include "serve/table_reader.h"
#include "storage/file_io.h"

namespace corra::serve {
namespace {

// A 12-column table where every column is pinned (auto_vertical off) to
// a distinct scheme, covering all 12: concurrent pooled gathers must
// reproduce each scheme's decode exactly.
class FrontDoorTest : public ::testing::Test {
 protected:
  static constexpr size_t kRows = 8000;
  static constexpr size_t kBlockRows = 1000;
  static constexpr size_t kColumns = 12;

  void SetUp() override {
    // The counter assertions below (rejected, deadline_missed,
    // inflight_requests, storage.block_reads) need live telemetry.
    obs::SetEnabled(true);
    path_ = ::testing::TempDir() + "corra_front_door_test.corf";
    Rng rng(77);
    raw_.assign(kColumns, std::vector<int64_t>(kRows));
    for (size_t i = 0; i < kRows; ++i) {
      const int64_t ship = rng.Uniform(8035, 10591);
      const int64_t city = rng.Uniform(0, 49);
      const int64_t a = rng.Uniform(100, 999);
      raw_[0][i] = ship;                             // kFor
      raw_[1][i] = ship + rng.Uniform(1, 30);        // kDiff (ref 0)
      raw_[2][i] = city;                             // kDict
      raw_[3][i] = 10000 + city * 37 + rng.Uniform(0, 10);  // kHierarchical
      raw_[4][i] = a;                                // kPlain
      raw_[5][i] = 250;                              // kRle
      raw_[6][i] = rng.Bernoulli(0.5) ? a : a + 250;  // kMultiRef
      raw_[7][i] = static_cast<int64_t>(i) * 3 + rng.Uniform(0, 2);  // kDelta
      raw_[8][i] = rng.Uniform(100, 25000);          // kBitPack
      raw_[9][i] = city * 1000 + 17;                 // kC3OneToOne (ref 2)
      raw_[10][i] = ship + rng.Uniform(1, 30);       // kC3Dfor (ref 0)
      raw_[11][i] = ship + rng.Uniform(1, 30);       // kC3Numerical (ref 0)
    }

    Table table;
    const char* names[kColumns] = {"ship", "receipt", "city",  "zip",
                                   "a",    "b",       "total", "seq",
                                   "fare", "cityref", "recv2", "recv3"};
    for (size_t c = 0; c < kColumns; ++c) {
      ASSERT_TRUE(table.AddColumn(Column::Int64(names[c], raw_[c])).ok());
    }

    CompressionPlan plan = CompressionPlan::AllAuto(kColumns);
    plan.block_rows = kBlockRows;
    const enc::Scheme schemes[kColumns] = {
        enc::Scheme::kFor,          enc::Scheme::kDiff,
        enc::Scheme::kDict,         enc::Scheme::kHierarchical,
        enc::Scheme::kPlain,        enc::Scheme::kRle,
        enc::Scheme::kMultiRef,     enc::Scheme::kDelta,
        enc::Scheme::kBitPack,      enc::Scheme::kC3OneToOne,
        enc::Scheme::kC3Dfor,       enc::Scheme::kC3Numerical};
    for (size_t c = 0; c < kColumns; ++c) {
      plan.columns[c].auto_vertical = false;
      plan.columns[c].scheme = schemes[c];
    }
    plan.columns[1].reference = 0;
    plan.columns[3].reference = 2;
    plan.columns[6].formulas.groups = {{4}, {5}};
    plan.columns[6].formulas.formulas = {0b01, 0b11};
    plan.columns[6].formulas.code_bits = 1;
    plan.columns[9].reference = 2;
    plan.columns[10].reference = 0;
    plan.columns[11].reference = 0;

    auto compressed = CorraCompressor::Compress(table, plan);
    ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
    ASSERT_EQ(compressed.value().num_blocks(), kRows / kBlockRows);
    for (size_t c = 0; c < kColumns; ++c) {
      ASSERT_EQ(compressed.value().block(0).column(c).scheme(), schemes[c])
          << "column " << c;
    }
    ASSERT_TRUE(WriteCompressedTable(compressed.value(), path_).ok());
  }

  void TearDown() override { std::remove(path_.c_str()); }

  // Random sorted-unique global positions; roughly `per_block` rows per
  // covered block so selections overlap across concurrent callers.
  std::vector<uint64_t> RandomPositions(Rng& rng, size_t count) const {
    std::vector<uint64_t> rows(count);
    for (auto& row : rows) {
      row = static_cast<uint64_t>(rng.Uniform(0, kRows - 1));
    }
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    return rows;
  }

  std::string path_;
  std::vector<std::vector<int64_t>> raw_;
};

// Many concurrent gathers with overlapping row sets and mixed column
// subsets: every result must be byte-identical to the raw vectors.
TEST_F(FrontDoorTest, ConcurrentGathersAreByteIdenticalAcrossAllSchemes) {
  auto cache = std::make_shared<BlockCache>();
  auto reader = TableReader::Open(path_, cache);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ScanService service({.num_threads = 4});

  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 3;
  std::atomic<size_t> failures{0};

  for (size_t round = 0; round < kRounds; ++round) {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t, round] {
        Rng rng(1000 + round * kThreads + t);
        for (size_t iter = 0; iter < 10; ++iter) {
          const std::vector<uint64_t> rows = RandomPositions(rng, 600);
          // A different column subset per caller, always non-empty, so
          // concurrent requests touch heterogeneous column sets.
          std::vector<size_t> cols;
          for (size_t c = 0; c < kColumns; ++c) {
            if (rng.Bernoulli(0.4)) {
              cols.push_back(c);
            }
          }
          if (cols.empty()) {
            cols.push_back((t + iter) % kColumns);
          }
          auto result = service.Gather(*reader.value(), cols, rows);
          if (!result.ok()) {
            failures.fetch_add(1);
            return;
          }
          for (size_t c = 0; c < cols.size(); ++c) {
            for (size_t i = 0; i < rows.size(); ++i) {
              if (result.value()[c][i] != raw_[cols[c]][rows[i]]) {
                failures.fetch_add(1);
                return;
              }
            }
          }
        }
      });
    }
    for (auto& thread : threads) {
      thread.join();
    }
    ASSERT_EQ(failures.load(), 0u) << "mismatch or error in round " << round;
  }
}

// Concurrent Execute requests (filter + projections) through the pool:
// units of different requests share blocks in the cache; results must
// match the single-threaded inline service exactly.
TEST_F(FrontDoorTest, ConcurrentExecutesMatchInlineService) {
  auto cache = std::make_shared<BlockCache>();
  auto reader = TableReader::Open(path_, cache);
  ASSERT_TRUE(reader.ok());
  ScanService pooled({.num_threads = 4});
  ScanService inline_service({.num_threads = 0});

  auto request_for = [](size_t t) {
    ScanRequest request;
    request.filter_column = 0;
    request.filter_lo = 8035 + static_cast<int64_t>(t) * 100;
    request.filter_hi = 9500 + static_cast<int64_t>(t) * 50;
    request.project_columns = {1, 6, 9};
    request.return_positions = true;
    return request;
  };

  std::vector<ScanResult> expected(8);
  for (size_t t = 0; t < 8; ++t) {
    auto result = inline_service.Execute(*reader.value(), request_for(t));
    ASSERT_TRUE(result.ok());
    expected[t] = std::move(result).value();
  }

  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (size_t iter = 0; iter < 5; ++iter) {
        auto result = pooled.Execute(*reader.value(), request_for(t));
        if (!result.ok() ||
            result.value().positions != expected[t].positions ||
            result.value().columns != expected[t].columns ||
            result.value().rows_matched != expected[t].rows_matched) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0u);
}

// Admission control: with max_inflight_requests = 1 and many concurrent
// clients, over-limit arrivals are rejected fast with ResourceExhausted
// (never a wrong result), admitted ones still succeed, and the rejected
// counter proves the path fired.
TEST_F(FrontDoorTest, OverLimitRequestsAreFastRejected) {
  obs::Registry registry;
  auto cache = std::make_shared<BlockCache>(
      BlockCacheOptions{.registry = &registry});
  auto reader = TableReader::Open(path_, cache);
  ASSERT_TRUE(reader.ok());
  ScanService service({.num_threads = 2,
                       .registry = &registry,
                       .max_inflight_requests = 1});

  std::atomic<size_t> ok_count{0};
  std::atomic<size_t> rejected_count{0};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  // Each client sends at least 20 requests and keeps sending, up to
  // 2,000, until some request has been rejected: whether two clients
  // overlap depends on scheduling, and on an idle machine a fixed 20
  // each can all run one after another.
  for (size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(900 + t);
      for (size_t iter = 0;
           iter < 2000 && (iter < 20 || rejected_count.load() == 0);
           ++iter) {
        const std::vector<uint64_t> rows = RandomPositions(rng, 200);
        const std::vector<size_t> cols = {2, 3};
        auto result = service.Gather(*reader.value(), cols, rows);
        if (result.ok()) {
          ok_count.fetch_add(1);
          for (size_t c = 0; c < cols.size(); ++c) {
            for (size_t i = 0; i < rows.size(); ++i) {
              if (result.value()[c][i] != raw_[cols[c]][rows[i]]) {
                failures.fetch_add(1);
                return;
              }
            }
          }
        } else if (result.status().IsResourceExhausted()) {
          rejected_count.fetch_add(1);
        } else {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(ok_count.load(), 0u);   // The admitted path still serves.
  EXPECT_GT(rejected_count.load(), 0u);  // 8 clients vs 1 slot must clash.
  EXPECT_EQ(registry.counter("serve.rejected").Value(),
            rejected_count.load());
  // Rejections released their slots: nothing left in flight.
  EXPECT_EQ(registry.gauge("serve.inflight_requests").Value(), 0);
}

// An already-expired deadline is rejected before any block is touched:
// no cache traffic, DeadlineExceeded out, deadline_missed counted.
TEST_F(FrontDoorTest, ExpiredDeadlineNeverReachesDecode) {
  obs::Registry registry;
  auto cache = std::make_shared<BlockCache>(
      BlockCacheOptions{.registry = &registry});
  auto reader = TableReader::Open(path_, cache);
  ASSERT_TRUE(reader.ok());
  ScanService service({.num_threads = 2, .registry = &registry});

  GatherOptions options;
  options.deadline_ns = obs::MonotonicNs() - 1;  // Already in the past.
  const std::vector<uint64_t> rows = {0, 1, kRows - 1};
  const std::vector<size_t> cols = {0, 7};
  auto gathered = service.Gather(*reader.value(), cols, rows, options);
  ASSERT_FALSE(gathered.ok());
  EXPECT_TRUE(gathered.status().IsDeadlineExceeded())
      << gathered.status().ToString();

  ScanRequest request;
  request.project_columns = {4};
  request.deadline_ns = obs::MonotonicNs() - 1;
  auto executed = service.Execute(*reader.value(), request);
  ASSERT_FALSE(executed.ok());
  EXPECT_TRUE(executed.status().IsDeadlineExceeded());

  EXPECT_EQ(registry.counter("serve.deadline_missed").Value(), 2u);
  // Neither request may have pinned, loaded, or decoded anything.
  const BlockCacheStats stats = cache->GetStats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(registry.gauge("serve.inflight_requests").Value(), 0);
}

// A generous deadline must not reject or alter results.
TEST_F(FrontDoorTest, FutureDeadlineIsHarmless) {
  auto cache = std::make_shared<BlockCache>();
  auto reader = TableReader::Open(path_, cache);
  ASSERT_TRUE(reader.ok());
  ScanService service({.num_threads = 2});

  GatherOptions options;
  options.deadline_ns = obs::MonotonicNs() + 60'000'000'000ull;  // +60 s.
  const std::vector<uint64_t> rows = {5, 1234, 4567, 7999};
  const std::vector<size_t> cols = {1, 6, 11};
  auto gathered = service.Gather(*reader.value(), cols, rows, options);
  ASSERT_TRUE(gathered.ok()) << gathered.status().ToString();
  for (size_t c = 0; c < cols.size(); ++c) {
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(gathered.value()[c][i], raw_[cols[c]][rows[i]]);
    }
  }
}

// Runs one cold pooled scan of `columns` over the table at `path` (a
// service with 2 helpers, a fresh cache built from `cache_options`) and
// checks that every value matches `raw` and that each of the file's
// `num_blocks` blocks was read from storage exactly once.
void ExpectColdScanReadsEachBlockOnce(
    const std::string& path, const std::vector<std::vector<int64_t>>& raw,
    const std::vector<size_t>& columns, size_t num_blocks,
    BlockCacheOptions cache_options) {
  obs::Registry registry;
  cache_options.registry = &registry;
  auto cache = std::make_shared<BlockCache>(cache_options);
  auto reader = TableReader::Open(path, cache);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ScanService service({.num_threads = 2, .registry = &registry});

  ScanRequest request;
  request.project_columns = columns;
  obs::Counter& block_reads =
      obs::Registry::Default().counter("storage.block_reads");
  const uint64_t reads_before = block_reads.Value();
  auto result = service.Execute(*reader.value(), request);
  const uint64_t reads = block_reads.Value() - reads_before;
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const size_t rows = raw[columns[0]].size();
  EXPECT_EQ(result.value().rows_scanned, rows);
  for (size_t c = 0; c < columns.size(); ++c) {
    ASSERT_EQ(result.value().columns[c].size(), rows);
    for (size_t i = 0; i < rows; ++i) {
      ASSERT_EQ(result.value().columns[c][i], raw[columns[c]][i])
          << "column " << columns[c] << " row " << i;
    }
  }

  const BlockCacheStats stats = cache->GetStats();
  EXPECT_EQ(stats.misses, num_blocks);
  EXPECT_EQ(reads, num_blocks);
  EXPECT_EQ(stats.failed_loads, 0u);
  EXPECT_EQ(stats.misses,
            stats.cached_blocks + stats.loading_blocks + stats.evictions +
                stats.failed_loads + stats.erased_blocks);
}

// A cold pooled scan reads each block once and stays exact: on the
// fixture's table through a cache that holds it all, and on 16 blocks
// of 50,000 rows through a 2-block cache, where a block fetched ahead of
// the unit that pins it would be evicted first and read twice.
TEST_F(FrontDoorTest, ColdPooledScanReadsEachBlockOnce) {
  ExpectColdScanReadsEachBlockOnce(path_, raw_, {0, 3, 7},
                                   kRows / kBlockRows, BlockCacheOptions{});

  constexpr size_t kBigBlocks = 16;
  constexpr size_t kBigBlockRows = 50'000;
  constexpr size_t kBigRows = kBigBlocks * kBigBlockRows;
  Rng rng(78);
  std::vector<std::vector<int64_t>> raw(2, std::vector<int64_t>(kBigRows));
  for (size_t i = 0; i < kBigRows; ++i) {
    raw[0][i] = rng.Uniform(8035, 10591);
    raw[1][i] = raw[0][i] + rng.Uniform(1, 30);
  }
  Table table;
  ASSERT_TRUE(table.AddColumn(Column::Date("ship", raw[0])).ok());
  ASSERT_TRUE(table.AddColumn(Column::Date("receipt", raw[1])).ok());
  CompressionPlan plan = CompressionPlan::AllAuto(2);
  plan.block_rows = kBigBlockRows;
  plan.columns[1].auto_vertical = false;
  plan.columns[1].scheme = enc::Scheme::kDiff;
  plan.columns[1].reference = 0;
  auto compressed = CorraCompressor::Compress(table, plan);
  ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
  ASSERT_EQ(compressed.value().num_blocks(), kBigBlocks);
  const std::string path =
      ::testing::TempDir() + "corra_front_door_cold_test.corf";
  ASSERT_TRUE(WriteCompressedTable(compressed.value(), path).ok());
  ExpectColdScanReadsEachBlockOnce(path, raw, {0, 1}, kBigBlocks,
                                   BlockCacheOptions{.capacity_blocks = 2});
  std::remove(path.c_str());
}

}  // namespace
}  // namespace corra::serve
