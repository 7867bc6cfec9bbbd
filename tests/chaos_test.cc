// Chaos soak for the serve stack: concurrent clients against a table
// whose reads misbehave on randomized (but seeded, reproducible)
// schedules — injected EIO, EINTR, short preads, payload bit flips,
// and loader failures, all at once.
//
// Invariants the soak holds the stack to:
//   * no request hangs (the suite finishing is the assertion);
//   * every successful result is byte-identical to the fault-free
//     oracle (verify_blocks keeps damaged bytes out of the cache, so
//     a fault can delay or fail a request but never skew it);
//   * every failed request carries an actionable status — a
//     Corruption/IOError with the file, block, and offset in the
//     message, never an empty or internal error;
//   * the BlockCache ledger invariant holds exactly at every sampled
//     point and at the end;
//   * once the faults stop (and the quarantine is cleared), the very
//     same requests all succeed byte-identically — no poisoned state
//     survives the storm.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/random.h"
#include "core/corra_compressor.h"
#include "serve/scan_service.h"

namespace corra::serve {
namespace {

constexpr size_t kRows = 6000;
constexpr size_t kBlockRows = 1000;
constexpr size_t kNumBlocks = kRows / kBlockRows;
constexpr int kClients = 4;
constexpr int kRoundsPerClient = 30;

// One scan shape of the deterministic request mix.
struct Shape {
  int64_t lo;
  int64_t hi;
};
constexpr Shape kShapes[] = {
    {0, 1 << 20},      // Everything.
    {8035, 9000},      // Low half of the ship range.
    {9500, 10591},     // High tail.
    {10000, 10002},    // Narrow point-ish band.
};

class ChaosTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    fail::ClearAll();
    path_ = ::testing::TempDir() + "corra_chaos_test.corf";
    Rng rng(21);
    ship_.resize(kRows);
    receipt_.resize(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      ship_[i] = rng.Uniform(8035, 10591);
      receipt_[i] = ship_[i] + rng.Uniform(1, 30);
    }
    Table table;
    ASSERT_TRUE(table.AddColumn(Column::Date("ship", ship_)).ok());
    ASSERT_TRUE(table.AddColumn(Column::Date("receipt", receipt_)).ok());
    CompressionPlan plan = CompressionPlan::AllAuto(2);
    plan.block_rows = kBlockRows;
    auto compressed = CorraCompressor::Compress(table, plan);
    ASSERT_TRUE(compressed.ok());
    ASSERT_EQ(compressed.value().num_blocks(), kNumBlocks);
    ASSERT_TRUE(WriteCompressedTable(compressed.value(), path_).ok());

    for (const Shape& shape : kShapes) {
      oracles_.push_back(Oracle(shape));
    }
  }

  void TearDown() override {
    fail::ClearAll();
    std::remove(path_.c_str());
  }

  struct Expected {
    std::vector<uint64_t> positions;
    std::vector<int64_t> ship, receipt;
  };

  Expected Oracle(const Shape& shape) const {
    Expected e;
    for (size_t i = 0; i < kRows; ++i) {
      if (ship_[i] >= shape.lo && ship_[i] <= shape.hi) {
        e.positions.push_back(i);
        e.ship.push_back(ship_[i]);
        e.receipt.push_back(receipt_[i]);
      }
    }
    return e;
  }

  static ScanRequest MakeRequest(const Shape& shape, bool allow_partial) {
    ScanRequest request;
    request.filter_column = 0;
    request.filter_lo = shape.lo;
    request.filter_hi = shape.hi;
    request.project_columns = {0, 1};
    request.return_positions = true;
    request.allow_partial = allow_partial;
    return request;
  }

  // True when `result` matches the oracle restricted to blocks outside
  // its failed_blocks manifest (a strict result has an empty manifest,
  // making this a full byte-identity check).
  static bool MatchesOracleOutsideFailures(const ScanResult& result,
                                           const Expected& oracle,
                                           std::string* why) {
    bool failed[kNumBlocks] = {};
    for (const ScanResult::BlockError& fb : result.failed_blocks) {
      if (fb.block >= kNumBlocks) {
        *why = "failed block index out of range";
        return false;
      }
      failed[fb.block] = true;
    }
    std::vector<uint64_t> positions;
    std::vector<int64_t> ship, receipt;
    for (size_t i = 0; i < oracle.positions.size(); ++i) {
      if (failed[oracle.positions[i] / kBlockRows]) {
        continue;
      }
      positions.push_back(oracle.positions[i]);
      ship.push_back(oracle.ship[i]);
      receipt.push_back(oracle.receipt[i]);
    }
    if (result.positions != positions) {
      *why = "positions diverged from oracle";
      return false;
    }
    if (result.columns.size() != 2 || result.columns[0] != ship ||
        result.columns[1] != receipt) {
      *why = "projected values diverged from oracle";
      return false;
    }
    return true;
  }

  // A failure the soak accepts: a read-path class, with locality in the
  // message (never empty, never an internal catch-all).
  static bool IsActionable(const Status& status) {
    if (!status.IsCorruption() && !status.IsIOError()) {
      return false;
    }
    return status.message().find(".corf") != std::string::npos &&
           status.message().find("block") != std::string::npos;
  }

  std::string path_;
  std::vector<int64_t> ship_, receipt_;
  std::vector<Expected> oracles_;
};

TEST_P(ChaosTest, SoakHoldsInvariantsUnderRandomFaults) {
  const uint64_t seed = GetParam();
  const auto spec = [seed](double p, uint64_t salt) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "prob:%g:%llu", p,
                  static_cast<unsigned long long>(seed + salt));
    return std::string(buf);
  };
  ASSERT_TRUE(fail::Configure("corf.pread.eio", spec(0.05, 1)).ok());
  ASSERT_TRUE(fail::Configure("corf.pread.eintr", spec(0.05, 2)).ok());
  ASSERT_TRUE(fail::Configure("corf.pread.short", spec(0.10, 3)).ok());
  ASSERT_TRUE(fail::Configure("corf.payload.bitflip", spec(0.03, 4)).ok());
  ASSERT_TRUE(fail::Configure("cache.load_error", spec(0.04, 5)).ok());

  auto cache = std::make_shared<BlockCache>(BlockCacheOptions{
      .capacity_blocks = 4,  // Smaller than the table: constant churn.
      .shards = 2,
      .quarantine_ttl_ms = 25,  // Short: quarantined blocks come back
                                // mid-soak and fail (or load) again.
  });
  TableReaderOptions reader_options;
  reader_options.verify_blocks = true;
  reader_options.io.max_read_retries = 2;
  reader_options.io.backoff_base_us = 1;  // Fast soak; policy unchanged.
  auto reader = TableReader::Open(path_, cache, reader_options);
  ASSERT_TRUE(reader.ok());
  ScanService service({.num_threads = 4});

  std::atomic<uint64_t> ok_full{0};
  std::atomic<uint64_t> ok_partial{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> violations{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(seed * 977 + static_cast<uint64_t>(c));
      for (int round = 0; round < kRoundsPerClient; ++round) {
        const size_t shape = static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(std::size(kShapes)) - 1));
        const bool allow_partial = rng.Bernoulli(0.5);
        auto result = service.Execute(
            *reader.value(), MakeRequest(kShapes[shape], allow_partial));
        if (!result.ok()) {
          failed.fetch_add(1);
          if (!IsActionable(result.status())) {
            violations.fetch_add(1);
            ADD_FAILURE() << "unactionable failure: "
                          << result.status().ToString();
          }
          continue;
        }
        std::string why;
        if (!MatchesOracleOutsideFailures(result.value(), oracles_[shape],
                                          &why)) {
          violations.fetch_add(1);
          ADD_FAILURE() << "divergent result (" << why << "), shape "
                        << shape << ", client " << c << ", round " << round;
          continue;
        }
        for (const ScanResult::BlockError& fb :
             result.value().failed_blocks) {
          if (!IsActionable(fb.status)) {
            violations.fetch_add(1);
            ADD_FAILURE() << "unactionable block failure: "
                          << fb.status.ToString();
          }
        }
        if (result.value().failed_blocks.empty()) {
          ok_full.fetch_add(1);
        } else {
          ok_partial.fetch_add(1);
        }
        // Ledger invariant sampled mid-storm from client threads.
        const BlockCacheStats stats = cache->GetStats();
        if (stats.misses != stats.cached_blocks + stats.loading_blocks +
                                stats.evictions + stats.failed_loads +
                                stats.erased_blocks) {
          violations.fetch_add(1);
          ADD_FAILURE() << "ledger broke mid-soak";
        }
      }
    });
  }
  for (std::thread& thread : clients) {
    thread.join();
  }

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(ok_full.load() + ok_partial.load() + failed.load(),
            static_cast<uint64_t>(kClients) * kRoundsPerClient);
  // The storm must not have been vacuous: faults actually fired, and
  // some requests felt them.
  const uint64_t fires =
      fail::Fires("corf.pread.eio") + fail::Fires("corf.pread.eintr") +
      fail::Fires("corf.pread.short") + fail::Fires("corf.payload.bitflip") +
      fail::Fires("cache.load_error");
  EXPECT_GT(fires, 0u);
  // The stack also made real progress: requests that returned data
  // (full or degraded) — not just errors. A clean full result for
  // every shape is separately proven by the recovery phase below.
  EXPECT_GT(ok_full.load() + ok_partial.load(), 0u);

  // Recovery: faults off, quarantine cleared — every shape serves its
  // full fault-free answer. Nothing poisonous survived the storm.
  fail::ClearAll();
  cache->ClearQuarantine();
  for (size_t shape = 0; shape < std::size(kShapes); ++shape) {
    auto result = service.Execute(*reader.value(),
                                  MakeRequest(kShapes[shape], false));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result.value().failed_blocks.empty());
    std::string why;
    EXPECT_TRUE(MatchesOracleOutsideFailures(result.value(),
                                             oracles_[shape], &why))
        << why;
  }

  const BlockCacheStats stats = cache->GetStats();
  EXPECT_EQ(stats.misses, stats.cached_blocks + stats.loading_blocks +
                              stats.evictions + stats.failed_loads +
                              stats.erased_blocks);
  EXPECT_EQ(stats.loading_blocks, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest,
                         ::testing::Values(11u, 29u, 83u),
                         [](const auto& param_info) {
                           return "seed" + std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace corra::serve
