// Differential oracle for ScanService: seeded random Execute and Gather
// requests over a table that covers all 12 schemes must come back
// field-for-field identical from
//   * an inline service (num_threads = 0),
//   * a pooled service driven by 4 concurrent client threads over a
//     small cache (evictions and shared blocks under load),
//   * naive row-by-row evaluation over CorraCompressor::Decompress.
// The Diff, MultiRef and C3 1-to-1 columns carry about 1% outlier rows
// in every block, so gathers that repeat a row reach the outlier patch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/c3/one_to_one.h"
#include "core/corra_compressor.h"
#include "core/diff_encoding.h"
#include "core/multi_ref_encoding.h"
#include "serve/block_cache.h"
#include "serve/scan_service.h"
#include "serve/table_reader.h"
#include "storage/file_io.h"
#include "test_util.h"

namespace corra::serve {
namespace {

constexpr size_t kRows = 7500;  // 8 blocks; the last one is short.
constexpr size_t kBlockRows = 1000;
constexpr size_t kColumns = 12;
constexpr size_t kClients = 4;
constexpr size_t kExecutes = 200;
constexpr size_t kGathers = 200;
constexpr double kOutlierRate = 0.01;  // Per outlier-capable column.

struct GatherCase {
  std::vector<size_t> columns;
  std::vector<uint64_t> rows;
};

using Gathered = std::vector<std::vector<int64_t>>;

class ServeOracleTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    const uint64_t seed = GetParam();
    rng_ = Rng(seed);
    path_ = ::testing::TempDir() + "corra_serve_oracle_" +
            std::to_string(seed) + ".corf";

    const std::vector<std::vector<int64_t>> raw =
        test::AllSchemesColumns(kRows, kOutlierRate, rng_);
    const Table table = test::TableOf(raw);
    const CompressionPlan plan = test::AllSchemesPlan(kBlockRows);

    auto compressed = CorraCompressor::Compress(table, plan);
    ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
    ASSERT_EQ(compressed.value().num_blocks(), 8u);
    for (size_t b = 0; b < compressed.value().num_blocks(); ++b) {
      const Block& block = compressed.value().block(b);
      for (size_t c = 0; c < kColumns; ++c) {
        ASSERT_EQ(block.column(c).scheme(), test::kAllSchemes[c])
            << "block " << b << " column " << c;
      }
      ASSERT_GT(static_cast<const DiffEncodedColumn&>(block.column(1))
                    .outliers()
                    .size(),
                0u)
          << "block " << b;
      ASSERT_GT(static_cast<const MultiRefColumn&>(block.column(6))
                    .outliers()
                    .size(),
                0u)
          << "block " << b;
      ASSERT_GT(static_cast<const c3::OneToOneColumn&>(block.column(9))
                    .outliers()
                    .size(),
                0u)
          << "block " << b;
    }
    ASSERT_TRUE(WriteCompressedTable(compressed.value(), path_).ok());

    // The oracle reads the decompressed table, not the generator's
    // vectors; the two must agree or the oracle itself is wrong.
    auto decompressed = CorraCompressor::Decompress(compressed.value());
    ASSERT_TRUE(decompressed.ok()) << decompressed.status().ToString();
    for (size_t c = 0; c < kColumns; ++c) {
      const auto values = decompressed.value().column(c).values();
      values_.emplace_back(values.begin(), values.end());
      ASSERT_EQ(values_[c], raw[c]) << "column " << c;
    }
    for (size_t b = 0; b * kBlockRows < kRows; ++b) {
      block_begin_.push_back(b * kBlockRows);
    }
    block_begin_.push_back(kRows);
  }

  void TearDown() override {
    if (!path_.empty()) {
      std::remove(path_.c_str());
    }
  }

  size_t num_blocks() const { return block_begin_.size() - 1; }

  uint64_t RandomRow() {
    return static_cast<uint64_t>(rng_.Uniform(0, kRows - 1));
  }

  int64_t RandomValue(size_t col) { return values_[col][RandomRow()]; }

  // 0..max_count columns, duplicates allowed.
  std::vector<size_t> RandomColumns(size_t max_count) {
    std::vector<size_t> cols(static_cast<size_t>(
        rng_.Uniform(0, static_cast<int64_t>(max_count))));
    for (size_t& col : cols) {
      col = static_cast<size_t>(rng_.Uniform(0, kColumns - 1));
    }
    return cols;
  }

  ScanRequest RandomExecute() {
    ScanRequest request;
    if (rng_.Bernoulli(0.75)) {
      const size_t col = static_cast<size_t>(rng_.Uniform(0, kColumns - 1));
      request.filter_column = col;
      switch (rng_.Uniform(0, 5)) {
        case 0:  // Full range.
          request.filter_lo = INT64_MIN;
          request.filter_hi = INT64_MAX;
          break;
        case 1: {  // Empty: inverted bounds.
          const int64_t v = RandomValue(col);
          request.filter_lo = v + 1;
          request.filter_hi = v;
          break;
        }
        case 2: {  // Empty: above every value, so every block prunes.
          const int64_t max =
              *std::max_element(values_[col].begin(), values_[col].end());
          request.filter_lo = max + 1;
          request.filter_hi = max + 1000;
          break;
        }
        case 3:  // One value.
          request.filter_lo = request.filter_hi = RandomValue(col);
          break;
        default: {  // Between two sampled values.
          const int64_t x = RandomValue(col);
          const int64_t y = RandomValue(col);
          request.filter_lo = std::min(x, y);
          request.filter_hi = std::max(x, y);
          break;
        }
      }
    }
    request.project_columns = RandomColumns(4);
    request.return_positions = rng_.Bernoulli(0.5);
    const int64_t op = rng_.Uniform(0, 3);
    if (op < 3) {
      request.aggregate = static_cast<AggregateOp>(op);
      // Half the time aggregate a projected column (the decode-reuse
      // path), otherwise any column.
      const std::vector<size_t>& projected = request.project_columns;
      request.aggregate_column =
          !projected.empty() && rng_.Bernoulli(0.5)
              ? projected[static_cast<size_t>(rng_.Uniform(
                    0, static_cast<int64_t>(projected.size()) - 1))]
              : static_cast<size_t>(rng_.Uniform(0, kColumns - 1));
    }
    request.collect_trace = rng_.Bernoulli(0.3);
    request.allow_partial = rng_.Bernoulli(0.3);
    return request;
  }

  GatherCase RandomGather() {
    GatherCase gather;
    gather.columns = RandomColumns(4);
    if (gather.columns.empty()) {
      gather.columns.push_back(
          static_cast<size_t>(rng_.Uniform(0, kColumns - 1)));
    }
    std::vector<uint64_t>& rows = gather.rows;
    switch (rng_.Uniform(0, 5)) {
      case 0:  // Empty selection.
        break;
      case 1:  // One row.
        rows.push_back(RandomRow());
        break;
      case 2: {  // A whole block.
        const size_t b = static_cast<size_t>(
            rng_.Uniform(0, static_cast<int64_t>(num_blocks()) - 1));
        for (uint64_t r = block_begin_[b]; r < block_begin_[b + 1]; ++r) {
          rows.push_back(r);
        }
        break;
      }
      case 3: {  // Duplicate rows.
        const size_t distinct = static_cast<size_t>(rng_.Uniform(1, 20));
        for (size_t i = 0; i < distinct; ++i) {
          const uint64_t row = RandomRow();
          const int64_t copies = rng_.Uniform(1, 4);
          for (int64_t k = 0; k < copies; ++k) {
            rows.push_back(row);
          }
        }
        break;
      }
      case 4: {  // A strided window straddling a block boundary.
        const size_t b = static_cast<size_t>(
            rng_.Uniform(1, static_cast<int64_t>(num_blocks()) - 1));
        const uint64_t half = static_cast<uint64_t>(rng_.Uniform(1, 400));
        const uint64_t stride = static_cast<uint64_t>(rng_.Uniform(1, 7));
        for (uint64_t r = block_begin_[b] - half;
             r < std::min<uint64_t>(block_begin_[b] + half, kRows);
             r += stride) {
          rows.push_back(r);
        }
        break;
      }
      default: {  // Scattered over the whole table.
        const size_t count = static_cast<size_t>(rng_.Uniform(1, 600));
        for (size_t i = 0; i < count; ++i) {
          rows.push_back(RandomRow());
        }
        break;
      }
    }
    std::sort(rows.begin(), rows.end());
    return gather;
  }

  // Naive evaluation over the decompressed columns.
  ScanResult NaiveExecute(const ScanRequest& request) const {
    ScanResult out;
    out.rows_scanned = kRows;
    out.columns.resize(request.project_columns.size());
    uint64_t sum = 0;
    for (size_t i = 0; i < kRows; ++i) {
      if (request.filter_column) {
        const int64_t v = values_[*request.filter_column][i];
        if (v < request.filter_lo || v > request.filter_hi) {
          continue;
        }
      }
      ++out.rows_matched;
      if (request.return_positions) {
        out.positions.push_back(i);
      }
      for (size_t c = 0; c < request.project_columns.size(); ++c) {
        out.columns[c].push_back(values_[request.project_columns[c]][i]);
      }
      if (request.aggregate) {
        const int64_t v = values_[request.aggregate_column][i];
        switch (*request.aggregate) {
          case AggregateOp::kSum:
            sum += static_cast<uint64_t>(v);
            break;
          case AggregateOp::kMin:
            out.agg_min = out.agg_min ? std::min(*out.agg_min, v) : v;
            break;
          case AggregateOp::kMax:
            out.agg_max = out.agg_max ? std::max(*out.agg_max, v) : v;
            break;
        }
      }
    }
    out.agg_sum = static_cast<int64_t>(sum);
    // The file persists exact per-block min/max, so a block is skipped
    // exactly when its range misses the predicate.
    if (request.filter_column) {
      const std::vector<int64_t>& col = values_[*request.filter_column];
      for (size_t b = 0; b < num_blocks(); ++b) {
        const auto [lo, hi] =
            std::minmax_element(col.begin() + block_begin_[b],
                                col.begin() + block_begin_[b + 1]);
        if (request.filter_lo > *hi || request.filter_hi < *lo) {
          ++out.blocks_skipped;
        }
      }
    }
    return out;
  }

  Gathered NaiveGather(const GatherCase& gather) const {
    Gathered out(gather.columns.size());
    for (size_t c = 0; c < gather.columns.size(); ++c) {
      for (uint64_t row : gather.rows) {
        out[c].push_back(values_[gather.columns[c]][row]);
      }
    }
    return out;
  }

  Rng rng_;
  std::string path_;
  std::vector<std::vector<int64_t>> values_;  // Decompressed, per column.
  std::vector<uint64_t> block_begin_;         // num_blocks + 1 offsets.
};

void ExpectSameScan(const Result<ScanResult>& got, const ScanResult& want,
                    size_t num_blocks, const char* path) {
  ASSERT_TRUE(got.ok()) << path << ": " << got.status().ToString();
  const ScanResult& r = got.value();
  EXPECT_EQ(r.rows_scanned, want.rows_scanned) << path;
  EXPECT_EQ(r.rows_matched, want.rows_matched) << path;
  EXPECT_EQ(r.blocks_skipped, want.blocks_skipped) << path;
  EXPECT_TRUE(r.positions == want.positions) << path << ": positions differ";
  ASSERT_EQ(r.columns.size(), want.columns.size()) << path;
  for (size_t c = 0; c < r.columns.size(); ++c) {
    EXPECT_TRUE(r.columns[c] == want.columns[c])
        << path << ": projection " << c << " differs";
  }
  EXPECT_EQ(r.agg_sum, want.agg_sum) << path;
  EXPECT_EQ(r.agg_min, want.agg_min) << path;
  EXPECT_EQ(r.agg_max, want.agg_max) << path;
  EXPECT_TRUE(r.failed_blocks.empty()) << path;
  if (r.trace) {
    EXPECT_EQ(r.trace->rows_scanned, r.rows_scanned) << path;
    EXPECT_EQ(r.trace->rows_matched, r.rows_matched) << path;
    EXPECT_EQ(r.trace->blocks.size(), num_blocks) << path;
  }
}

void ExpectSameGather(const Result<Gathered>& got, const Gathered& want,
                      const char* path) {
  ASSERT_TRUE(got.ok()) << path << ": " << got.status().ToString();
  ASSERT_EQ(got.value().size(), want.size()) << path;
  for (size_t c = 0; c < want.size(); ++c) {
    EXPECT_TRUE(got.value()[c] == want[c])
        << path << ": gathered column " << c << " differs";
  }
}

TEST_P(ServeOracleTest, InlinePooledAndNaiveAgree) {
  std::vector<ScanRequest> executes;
  std::vector<GatherCase> gathers;
  for (size_t i = 0; i < kExecutes; ++i) {
    executes.push_back(RandomExecute());
  }
  for (size_t i = 0; i < kGathers; ++i) {
    gathers.push_back(RandomGather());
  }

  obs::Registry registry;
  auto inline_cache = std::make_shared<BlockCache>(
      BlockCacheOptions{.registry = &registry});
  auto inline_reader = TableReader::Open(path_, inline_cache);
  ASSERT_TRUE(inline_reader.ok()) << inline_reader.status().ToString();
  ASSERT_TRUE(inline_reader.value()->info().has_column_stats);
  ScanService inline_service({.num_threads = 0, .registry = &registry});

  // A 3-block cache under 4 clients keeps blocks moving in and out
  // while other requests hold pins on them.
  auto pooled_cache = std::make_shared<BlockCache>(
      BlockCacheOptions{.capacity_blocks = 3, .registry = &registry});
  auto pooled_reader = TableReader::Open(path_, pooled_cache);
  ASSERT_TRUE(pooled_reader.ok()) << pooled_reader.status().ToString();
  ScanService pooled_service({.num_threads = 4, .registry = &registry});

  std::vector<std::optional<Result<ScanResult>>> pooled_executes(
      executes.size());
  std::vector<std::optional<Result<Gathered>>> pooled_gathers(
      gathers.size());
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      // Each client interleaves scans and gathers, so scans and gathers
      // from different clients share blocks at the same time.
      for (size_t i = t; i < std::max(executes.size(), gathers.size());
           i += kClients) {
        if (i < executes.size()) {
          pooled_executes[i].emplace(
              pooled_service.Execute(*pooled_reader.value(), executes[i]));
        }
        if (i < gathers.size()) {
          pooled_gathers[i].emplace(pooled_service.Gather(
              *pooled_reader.value(), gathers[i].columns, gathers[i].rows));
        }
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }

  for (size_t i = 0; i < executes.size(); ++i) {
    SCOPED_TRACE("execute #" + std::to_string(i));
    const ScanResult want = NaiveExecute(executes[i]);
    ExpectSameScan(
        inline_service.Execute(*inline_reader.value(), executes[i]), want,
        num_blocks(), "inline");
    ASSERT_TRUE(pooled_executes[i].has_value());
    ExpectSameScan(*pooled_executes[i], want, num_blocks(), "pooled");
  }
  for (size_t i = 0; i < gathers.size(); ++i) {
    SCOPED_TRACE("gather #" + std::to_string(i) + " (" +
                 std::to_string(gathers[i].rows.size()) + " rows)");
    const Gathered want = NaiveGather(gathers[i]);
    ExpectSameGather(inline_service.Gather(*inline_reader.value(),
                                           gathers[i].columns,
                                           gathers[i].rows),
                     want, "inline");
    ASSERT_TRUE(pooled_gathers[i].has_value());
    ExpectSameGather(*pooled_gathers[i], want, "pooled");
  }

  // Every pin was released and every admission slot returned.
  EXPECT_EQ(pooled_cache->GetStats().pinned_blocks, 0u);
  EXPECT_EQ(inline_cache->GetStats().pinned_blocks, 0u);
  EXPECT_EQ(registry.gauge("serve.inflight_requests").Value(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ServeOracleTest,
    ::testing::Values(uint64_t{7}, uint64_t{1234}, uint64_t{987654321}),
    [](const ::testing::TestParamInfo<uint64_t>& param_info) {
      return "seed" + std::to_string(param_info.param);
    });

}  // namespace
}  // namespace corra::serve
