// Golden bytes for the write side: compresses fixed-seed tables under
// fixed plans, writes each as a CORF file in 8,192-row blocks (several
// blocks and a short tail), and checks every file's FNV-1a digest
// against a constant. Any change to a chosen scheme, a code, a layout
// or a stats entry changes a digest, so the write path's optimizations
// must reproduce the files byte for byte.
//
// Each table is written twice. The legacy fixture writer
// (test::WriteCompressedTableLegacy) writes the v3 file, whose directory
// holds FNV-1a checksums; its digests are the constants recorded before
// v4, so they prove the block payloads and stats bytes unchanged.
// WriteCompressedTable writes the v4 file, which differs only in the
// version byte and the CRC32C checksums; its digests are the second set
// of constants. Under CORRA_FORCE_SCALAR=1 the v4 constants also prove
// the scalar CRC32C equal to the hardware one.
//
// Covered: lineitem, taxi, DMV and LDBC at ~20k rows, each under its
// Table 2 plan (bench/bench_table2_compression.cc), under AllAuto and
// under AllAuto with WorkloadHint::kPointServing; plus one table whose
// plan names every scheme (Delta, every Diff mode including the outlier
// window, RLE, MultiRef with outliers and the three C3 schemes). The
// workload hint has no effect, so each kPointServing file must equal
// its kAnalytic twin.
//
// The v3 constants were recorded with the encoders that preceded the
// single-pass write path. If a deliberate format change moves them,
// the failure message prints the new digest.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/corra_compressor.h"
#include "datagen/dmv.h"
#include "datagen/ldbc.h"
#include "datagen/taxi.h"
#include "datagen/tpch.h"
#include "storage/file_io.h"
#include "test_util.h"

namespace corra {
namespace {

constexpr size_t kBlockRows = 8192;

uint64_t FileDigest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  return test::Fnv1a64(bytes);
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

// Digests of one compressed table written as a v3 and as a v4 file.
struct Digests {
  uint64_t v3 = 0;
  uint64_t v4 = 0;
};

// Compresses `table` under `plan` (block size forced to kBlockRows),
// writes it as a legacy v3 file and through WriteCompressedTable, and
// returns both files' digests.
Digests WriteAndDigest(const Table& table, CompressionPlan plan,
                       const std::string& name) {
  plan.block_rows = kBlockRows;
  auto compressed = CorraCompressor::Compress(table, plan);
  EXPECT_TRUE(compressed.ok()) << name << ": "
                               << compressed.status().ToString();
  if (!compressed.ok()) {
    return {};
  }
  EXPECT_GE(compressed.value().num_blocks(), 3u) << name;
  const std::string path =
      ::testing::TempDir() + "corra_write_golden_" + name + ".corf";
  Digests digests;
  test::WriteCompressedTableLegacy(compressed.value(), path, 3);
  digests.v3 = FileDigest(path);
  EXPECT_TRUE(WriteCompressedTable(compressed.value(), path).ok()) << name;
  digests.v4 = FileDigest(path);
  std::remove(path.c_str());
  return digests;
}

// Checks `digests` against the recorded v3 and v4 constants.
void ExpectDigests(const Digests& digests, uint64_t v3, uint64_t v4,
                   const std::string& what) {
  EXPECT_EQ(Hex(digests.v3), Hex(v3)) << what << ", v3";
  EXPECT_EQ(Hex(digests.v4), Hex(v4)) << what << ", v4";
}

// Checks the three plans of one dataset: its Table 2 plan, AllAuto, and
// AllAuto under the point-serving hint, whose files equal AllAuto's.
void CheckDataset(const Table& table, const CompressionPlan& table2_plan,
                  const std::string& name, uint64_t table2_v3,
                  uint64_t auto_v3, uint64_t auto_point_v3,
                  uint64_t table2_v4, uint64_t auto_v4) {
  ExpectDigests(WriteAndDigest(table, table2_plan, name + "_table2"),
                table2_v3, table2_v4, name + " Table 2 plan");

  CompressionPlan all_auto = CompressionPlan::AllAuto(table.num_columns());
  ExpectDigests(WriteAndDigest(table, all_auto, name + "_auto"), auto_v3,
                auto_v4, name + " AllAuto");

  all_auto.workload = enc::WorkloadHint::kPointServing;
  ExpectDigests(WriteAndDigest(table, all_auto, name + "_point"),
                auto_point_v3, auto_v4, name + " AllAuto + kPointServing");
}

TEST(WriteGoldenTest, Lineitem) {
  auto table = datagen::MakeLineitemTable(20'000, 11);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  CompressionPlan plan = CompressionPlan::AllAuto(4);
  for (size_t target : {size_t{2}, size_t{3}}) {  // commit, receipt
    plan.columns[target].auto_vertical = false;
    plan.columns[target].scheme = enc::Scheme::kDiff;
    plan.columns[target].reference = 1;  // l_shipdate
  }
  CheckDataset(table.value(), plan, "lineitem", 0xb7cbcb9428e33bed,
               0xcde4b2134f15ca0a, 0xcde4b2134f15ca0a, 0xd95a1d7e989aca4f,
               0x0007d53105fcd260);
}

TEST(WriteGoldenTest, Taxi) {
  auto table = datagen::MakeTaxiTable(20'000, 12);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  using C = datagen::TaxiColumns;
  CompressionPlan plan = CompressionPlan::AllAuto(11);
  plan.columns[C::kDropoff].auto_vertical = false;
  plan.columns[C::kDropoff].scheme = enc::Scheme::kDiff;
  plan.columns[C::kDropoff].reference = C::kPickup;
  auto& total = plan.columns[C::kTotalAmount];
  total.auto_vertical = false;
  total.scheme = enc::Scheme::kMultiRef;
  total.formulas.groups = {
      {C::kMtaTax, C::kFareAmount, C::kImprovementSurcharge, C::kExtra,
       C::kTipAmount, C::kTollsAmount},
      {C::kCongestionSurcharge},
      {C::kAirportFee}};
  total.formulas.formulas = {0b001, 0b011, 0b101, 0b111};
  total.formulas.code_bits = 2;
  total.max_outlier_fraction = 0.02;
  CheckDataset(table.value(), plan, "taxi", 0xcd08b56f5cb585f8,
               0x7db78402699f1c50, 0x7db78402699f1c50, 0x7d4b199839a732b7,
               0x206221adf4f429e9);
}

TEST(WriteGoldenTest, Dmv) {
  auto table = datagen::MakeDmvTableFromCodes(20'000, 13);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  CompressionPlan plan = CompressionPlan::AllAuto(3);
  plan.columns[1].auto_vertical = false;  // city w.r.t. state
  plan.columns[1].scheme = enc::Scheme::kHierarchical;
  plan.columns[1].reference = 0;
  plan.columns[2].auto_vertical = false;  // zip w.r.t. city
  plan.columns[2].scheme = enc::Scheme::kHierarchical;
  plan.columns[2].reference = 1;
  CheckDataset(table.value(), plan, "dmv", 0x2e7515a65703e273,
               0xe5e2772bb61eb29f, 0xe5e2772bb61eb29f, 0x516558502133c400,
               0xedf32d46f4de480a);
}

TEST(WriteGoldenTest, Ldbc) {
  auto table = datagen::MakeLdbcTable(20'000, 14);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  CompressionPlan plan = CompressionPlan::AllAuto(2);
  plan.columns[1].auto_vertical = false;  // ip w.r.t. countryid
  plan.columns[1].scheme = enc::Scheme::kHierarchical;
  plan.columns[1].reference = 0;
  CheckDataset(table.value(), plan, "ldbc", 0x5db63f5350c00968,
               0x29c61c089ccce0e9, 0x29c61c089ccce0e9, 0xa4143233e0b6c10d,
               0x91f247e0db68e636);
}

// One column per scheme, shaped so the pinned scheme encodes it, as in
// serve_oracle_test; the three Diff columns cover the raw, zig-zag and
// outlier-window modes.
TEST(WriteGoldenTest, EveryScheme) {
  constexpr size_t kRows = 20'000;
  constexpr size_t kColumns = 14;
  Rng rng(15);
  std::vector<std::vector<int64_t>> raw(kColumns,
                                        std::vector<int64_t>(kRows));
  for (size_t i = 0; i < kRows; ++i) {
    const int64_t ship = rng.Uniform(8035, 10591);
    const int64_t city = rng.Uniform(0, 49);
    const int64_t a = rng.Uniform(100, 999);
    raw[0][i] = ship;                                     // kFor
    raw[1][i] = ship + rng.Uniform(1, 30);                // kDiff raw
    raw[2][i] = city;                                     // kDict
    raw[3][i] = 10000 + city * 37 + rng.Uniform(0, 10);   // kHierarchical
    raw[4][i] = a;                                        // kPlain
    raw[5][i] = i % 3000 < 2000 ? 250 : 7;                // kRle
    // kMultiRef: a, a + rle, or (rarely) neither.
    raw[6][i] = rng.Bernoulli(0.01) ? -a
                                    : (rng.Bernoulli(0.5) ? a : a + raw[5][i]);
    raw[7][i] = static_cast<int64_t>(i) * 3 + rng.Uniform(0, 2);  // kDelta
    raw[8][i] = rng.Uniform(100, 25000);                  // kBitPack
    raw[9][i] = rng.Bernoulli(0.02) ? 5 : city * 1000 + 17;  // kC3OneToOne
    raw[10][i] = ship + rng.Uniform(1, 30);               // kC3Dfor
    raw[11][i] = ship * 2 + rng.Uniform(-40, 40);         // kC3Numerical
    raw[12][i] = ship + rng.Uniform(-15, 15);             // kDiff zig-zag
    raw[13][i] = ship + (rng.Bernoulli(0.004) ? rng.Uniform(100000, 200000)
                                              : rng.Uniform(1, 30));
  }
  Table table;
  for (size_t c = 0; c < kColumns; ++c) {
    ASSERT_TRUE(
        table.AddColumn(Column::Int64("c" + std::to_string(c), raw[c])).ok());
  }
  const enc::Scheme schemes[kColumns] = {
      enc::Scheme::kFor,      enc::Scheme::kDiff,
      enc::Scheme::kDict,     enc::Scheme::kHierarchical,
      enc::Scheme::kPlain,    enc::Scheme::kRle,
      enc::Scheme::kMultiRef, enc::Scheme::kDelta,
      enc::Scheme::kBitPack,  enc::Scheme::kC3OneToOne,
      enc::Scheme::kC3Dfor,   enc::Scheme::kC3Numerical,
      enc::Scheme::kDiff,     enc::Scheme::kDiff};
  CompressionPlan plan = CompressionPlan::AllAuto(kColumns);
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
  plan.columns[12].reference = 0;
  plan.columns[13].reference = 0;
  plan.columns[13].diff_options.use_outliers = true;

  // The fixture reaches every Diff mode and stores MultiRef outliers.
  plan.block_rows = kBlockRows;
  auto compressed = CorraCompressor::Compress(table, plan);
  ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
  const Block& block = compressed.value().block(0);
  const auto diff_mode = [&block](size_t c) {
    return static_cast<const DiffEncodedColumn&>(block.column(c)).mode();
  };
  EXPECT_EQ(diff_mode(1), DiffMode::kRaw);
  EXPECT_EQ(diff_mode(12), DiffMode::kZigZag);
  EXPECT_EQ(diff_mode(13), DiffMode::kWindow);
  EXPECT_FALSE(
      static_cast<const MultiRefColumn&>(block.column(6)).outliers().empty());

  ExpectDigests(WriteAndDigest(table, plan, "every_analytic"),
                0x206935e404e4515d, 0xb71fff38042d748d,
                "every scheme, kAnalytic");
  plan.workload = enc::WorkloadHint::kPointServing;
  ExpectDigests(WriteAndDigest(table, plan, "every_point"),
                0x206935e404e4515d, 0xb71fff38042d748d,
                "every scheme, kPointServing");
}

}  // namespace
}  // namespace corra
