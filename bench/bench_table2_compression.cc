// Reproduces the paper's Table 2: compressed size of each evaluated column
// with and without Corra's horizontal encodings, plus the saving rate.
//
// Row counts default to paper-scale divided by a per-dataset factor
// (override with --scale/--rows); sizes are normalized back to the paper's
// full row counts. Payload bits per row are scale-exact. Per-block
// metadata (headers, bases, dictionaries) is a fixed cost per block, so
// at reduced scale it is scaled up with the rows of a partly filled
// block and the normalized size slightly overstates the full-scale one;
// run with --scale 1 for exact sizes.

#include <cstdio>

#include "bench_util.h"
#include "core/corra_compressor.h"
#include "datagen/dmv.h"
#include "datagen/ldbc.h"
#include "datagen/taxi.h"
#include "datagen/tpch.h"

namespace corra::bench {
namespace {

struct Table2Row {
  const char* dataset;
  const char* column;
  double without_mb;
  const char* encoding;
  const char* reference;
  double with_mb;
  double paper_without_mb;
  double paper_with_mb;
  double paper_saving;
};

void PrintRow(const Table2Row& row) {
  const double saving = 1.0 - row.with_mb / row.without_mb;
  std::printf(
      "%-16s %-14s %9.2f MB  %-16s %-18s %9.2f MB  %5.1f%%  |  paper: "
      "%7.2f -> %7.2f MB (%4.1f%%)\n",
      row.dataset, row.column, row.without_mb, row.encoding, row.reference,
      row.with_mb, saving * 100.0, row.paper_without_mb, row.paper_with_mb,
      row.paper_saving * 100.0);
}

int Run(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);
  std::vector<Table2Row> rows;

  // ---- TPC-H lineitem (SF 10) -------------------------------------------
  {
    const size_t n = ResolveRows(flags, datagen::kLineitemRowsSf10, 12);
    std::fprintf(stderr, "[table2] lineitem: %zu rows\n", n);
    auto table = datagen::MakeLineitemTable(n).value();
    auto baseline =
        CorraCompressor::Compress(table, CompressionPlan::AllAuto(4))
            .value();
    CompressionPlan plan = CompressionPlan::AllAuto(4);
    for (size_t target : {size_t{2}, size_t{3}}) {
      plan.columns[target].auto_vertical = false;
      plan.columns[target].scheme = enc::Scheme::kDiff;
      plan.columns[target].reference = 1;  // l_shipdate
    }
    auto corra = CorraCompressor::Compress(table, plan).value();
    rows.push_back({"lineitem (SF10)", "l_receiptdate",
                    NormalizedMb(baseline.ColumnSizeBytes(3), n,
                                 datagen::kLineitemRowsSf10),
                    "Non-hierarchical", "l_shipdate",
                    NormalizedMb(corra.ColumnSizeBytes(3), n,
                                 datagen::kLineitemRowsSf10),
                    89.99, 37.49, 0.583});
    rows.push_back({"lineitem (SF10)", "l_commitdate",
                    NormalizedMb(baseline.ColumnSizeBytes(2), n,
                                 datagen::kLineitemRowsSf10),
                    "Non-hierarchical", "l_shipdate",
                    NormalizedMb(corra.ColumnSizeBytes(2), n,
                                 datagen::kLineitemRowsSf10),
                    89.99, 59.99, 0.333});
  }

  // ---- Taxi ---------------------------------------------------------------
  {
    const size_t n = ResolveRows(flags, datagen::kTaxiRows, 8);
    std::fprintf(stderr, "[table2] taxi: %zu rows\n", n);
    auto table = datagen::MakeTaxiTable(n).value();
    using C = datagen::TaxiColumns;
    auto baseline =
        CorraCompressor::Compress(table, CompressionPlan::AllAuto(11))
            .value();
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
    auto corra = CorraCompressor::Compress(table, plan).value();
    rows.push_back({"Taxi", "dropoff",
                    NormalizedMb(baseline.ColumnSizeBytes(C::kDropoff), n,
                                 datagen::kTaxiRows),
                    "Non-hierarchical", "pickup",
                    NormalizedMb(corra.ColumnSizeBytes(C::kDropoff), n,
                                 datagen::kTaxiRows),
                    136.64, 94.7, 0.306});
    rows.push_back(
        {"Taxi", "total_amount",
         NormalizedMb(baseline.ColumnSizeBytes(C::kTotalAmount), n,
                      datagen::kTaxiRows),
         "Non-hierarchical", "multiple (8 refs)",
         NormalizedMb(corra.ColumnSizeBytes(C::kTotalAmount), n,
                      datagen::kTaxiRows),
         66.32, 9.84, 0.8516});
  }

  // ---- DMV (full scale by default: metadata amortization matters) --------
  {
    const size_t n = ResolveRows(flags, datagen::kDmvRows, 1);
    std::fprintf(stderr, "[table2] dmv: %zu rows\n", n);
    auto table = datagen::MakeDmvTableFromCodes(n).value();
    auto baseline =
        CorraCompressor::Compress(table, CompressionPlan::AllAuto(3))
            .value();
    CompressionPlan plan = CompressionPlan::AllAuto(3);
    plan.columns[1].auto_vertical = false;  // city w.r.t. state
    plan.columns[1].scheme = enc::Scheme::kHierarchical;
    plan.columns[1].reference = 0;
    plan.columns[2].auto_vertical = false;  // zip w.r.t. city
    plan.columns[2].scheme = enc::Scheme::kHierarchical;
    plan.columns[2].reference = 1;
    auto corra = CorraCompressor::Compress(table, plan).value();
    rows.push_back({"DMV", "zip_code",
                    NormalizedMb(baseline.ColumnSizeBytes(2), n,
                                 datagen::kDmvRows),
                    "Hierarchical", "city",
                    NormalizedMb(corra.ColumnSizeBytes(2), n,
                                 datagen::kDmvRows),
                    25.88, 11.96, 0.537});
    rows.push_back({"DMV", "city",
                    NormalizedMb(baseline.ColumnSizeBytes(1), n,
                                 datagen::kDmvRows),
                    "Hierarchical", "state",
                    NormalizedMb(corra.ColumnSizeBytes(1), n,
                                 datagen::kDmvRows),
                    21.45, 21.05, 0.018});
  }

  // ---- LDBC message (SF 30) -----------------------------------------------
  {
    const size_t n = ResolveRows(flags, datagen::kMessageRowsSf30, 8);
    std::fprintf(stderr, "[table2] ldbc: %zu rows\n", n);
    auto table = datagen::MakeLdbcTable(n).value();
    auto baseline =
        CorraCompressor::Compress(table, CompressionPlan::AllAuto(2))
            .value();
    CompressionPlan plan = CompressionPlan::AllAuto(2);
    plan.columns[1].auto_vertical = false;
    plan.columns[1].scheme = enc::Scheme::kHierarchical;
    plan.columns[1].reference = 0;
    auto corra = CorraCompressor::Compress(table, plan).value();
    rows.push_back({"message (SF30)", "ip",
                    NormalizedMb(baseline.ColumnSizeBytes(1), n,
                                 datagen::kMessageRowsSf30),
                    "Hierarchical", "countryid",
                    NormalizedMb(corra.ColumnSizeBytes(1), n,
                                 datagen::kMessageRowsSf30),
                    195.14, 161.76, 0.171});
  }

  PrintHeader(
      "Table 2: space saving over single-column encoding schemes "
      "(sizes normalized to paper row counts)");
  std::printf(
      "%-16s %-14s %12s  %-16s %-18s %12s  %6s  |  %s\n", "Dataset",
      "Column", "w/o diff-enc", "Encoding", "Ref. column", "w/ diff-enc",
      "Saving", "Paper reference");
  PrintRule();
  for (const auto& row : rows) {
    PrintRow(row);
  }
  PrintRule();
  return 0;
}

}  // namespace
}  // namespace corra::bench

int main(int argc, char** argv) { return corra::bench::Run(argc, argv); }
