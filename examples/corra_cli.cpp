// corra_cli: a small operational tool over the library's public API.
//
//   corra_cli gen <dataset> <rows> <file>   generate + compress + save
//   corra_cli info <file>                   format, schema, blocks, column
//                                           sizes; verifies checksums
//   corra_cli query <file> <col> <sel>      timed materializing scan
//   corra_cli filter <file> <col> <lo> <hi> range-predicate count
//
// Datasets: lineitem, dmv, ldbc, taxi (each saved with its paper
// compression plan: diff / hierarchical / multi-ref as in Table 2).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/corra_compressor.h"
#include "datagen/dmv.h"
#include "datagen/ldbc.h"
#include "datagen/taxi.h"
#include "datagen/tpch.h"
#include "obs/trace.h"
#include "query/filter.h"
#include "query/selection_vector.h"
#include "query/table_scan.h"
#include "storage/file_io.h"

namespace {

using namespace corra;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  corra_cli gen <lineitem|dmv|ldbc|taxi> <rows> <file>\n"
               "  corra_cli info <file>\n"
               "  corra_cli query <file> <column> <selectivity>\n"
               "  corra_cli filter <file> <column> <lo> <hi>\n");
  return 2;
}

Result<CompressedTable> BuildDataset(const std::string& name, size_t rows) {
  if (name == "lineitem") {
    CORRA_ASSIGN_OR_RETURN(Table table, datagen::MakeLineitemTable(rows));
    CompressionPlan plan = CompressionPlan::AllAuto(4);
    for (size_t target : {size_t{2}, size_t{3}}) {
      plan.columns[target].auto_vertical = false;
      plan.columns[target].scheme = enc::Scheme::kDiff;
      plan.columns[target].reference = 1;
    }
    return CorraCompressor::Compress(table, plan);
  }
  if (name == "dmv") {
    CORRA_ASSIGN_OR_RETURN(Table table,
                           datagen::MakeDmvTableFromCodes(rows));
    CompressionPlan plan = CompressionPlan::AllAuto(3);
    plan.columns[1].auto_vertical = false;
    plan.columns[1].scheme = enc::Scheme::kHierarchical;
    plan.columns[1].reference = 0;
    plan.columns[2].auto_vertical = false;
    plan.columns[2].scheme = enc::Scheme::kHierarchical;
    plan.columns[2].reference = 1;
    return CorraCompressor::Compress(table, plan);
  }
  if (name == "ldbc") {
    CORRA_ASSIGN_OR_RETURN(Table table, datagen::MakeLdbcTable(rows));
    CompressionPlan plan = CompressionPlan::AllAuto(2);
    plan.columns[1].auto_vertical = false;
    plan.columns[1].scheme = enc::Scheme::kHierarchical;
    plan.columns[1].reference = 0;
    return CorraCompressor::Compress(table, plan);
  }
  if (name == "taxi") {
    CORRA_ASSIGN_OR_RETURN(Table table, datagen::MakeTaxiTable(rows));
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
    return CorraCompressor::Compress(table, plan);
  }
  return Status::InvalidArgument("unknown dataset: " + name);
}

int CmdGen(const std::string& dataset, size_t rows,
           const std::string& path) {
  const uint64_t gen_begin_ns = obs::MonotonicNs();
  auto compressed = BuildDataset(dataset, rows);
  if (!compressed.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 compressed.status().ToString().c_str());
    return 1;
  }
  const double gen_seconds = obs::SecondsSince(gen_begin_ns);
  const uint64_t write_begin_ns = obs::MonotonicNs();
  const Status written = WriteCompressedTable(compressed.value(), path);
  if (!written.ok()) {
    std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("%s: %zu rows, %zu blocks, %.2f MB compressed "
              "(generate+compress %.2fs, write %.2fs)\n",
              path.c_str(), compressed.value().num_rows(),
              compressed.value().num_blocks(),
              static_cast<double>(compressed.value().TotalSizeBytes()) / 1e6,
              gen_seconds, obs::SecondsSince(write_begin_ns));
  return 0;
}

int CmdInfo(const std::string& path) {
  // info doubles as an integrity check: verify payload checksums.
  auto info = ReadFileInfo(path);
  if (!info.ok()) {
    std::fprintf(stderr, "error: %s\n", info.status().ToString().c_str());
    return 1;
  }
  auto table = ReadCompressedTable(path, /*verify=*/true);
  if (!table.ok()) {
    std::fprintf(stderr, "error: %s\n", table.status().ToString().c_str());
    return 1;
  }
  std::printf("format : CORF v%d, %s (every block verified)\n",
              info.value().version, info.value().ChecksumName());
  std::printf("schema : %s\n", table.value().schema().ToString().c_str());
  std::printf("rows   : %zu in %zu blocks\n", table.value().num_rows(),
              table.value().num_blocks());
  std::printf("%-24s %14s %10s %s\n", "column", "bytes", "bits/row",
              "scheme (block 0)");
  for (size_t c = 0; c < table.value().schema().num_fields(); ++c) {
    const size_t bytes = table.value().ColumnSizeBytes(c);
    std::printf("%-24s %14zu %10.2f %s\n",
                table.value().schema().field(c).name.c_str(), bytes,
                8.0 * static_cast<double>(bytes) /
                    static_cast<double>(table.value().num_rows()),
                std::string(enc::SchemeToString(
                                table.value().block(0).column(c).scheme()))
                    .c_str());
  }
  std::printf("%-24s %14zu\n", "total",
              table.value().TotalSizeBytes());
  return 0;
}

int CmdQuery(const std::string& path, const std::string& column,
             double selectivity) {
  auto table = ReadCompressedTable(path);
  if (!table.ok()) {
    std::fprintf(stderr, "error: %s\n", table.status().ToString().c_str());
    return 1;
  }
  auto col = table.value().schema().FieldIndex(column);
  if (!col.ok()) {
    std::fprintf(stderr, "error: %s\n", col.status().ToString().c_str());
    return 1;
  }
  Rng rng(42);
  const auto rows = query::GenerateSelectionVector(
      table.value().num_rows(), selectivity, &rng);
  const uint64_t begin_ns = obs::MonotonicNs();
  auto out = query::ScanTableColumn(table.value(), col.value(), rows);
  const double seconds = obs::SecondsSince(begin_ns);
  if (!out.ok()) {
    std::fprintf(stderr, "error: %s\n", out.status().ToString().c_str());
    return 1;
  }
  int64_t checksum = 0;
  for (int64_t v : out.value()) {
    checksum ^= v;
  }
  std::printf("materialized %zu rows in %.3f ms (%.1f Mrows/s), "
              "checksum %lld\n",
              out.value().size(), seconds * 1e3,
              static_cast<double>(out.value().size()) / seconds / 1e6,
              static_cast<long long>(checksum));
  return 0;
}

int CmdFilter(const std::string& path, const std::string& column,
              int64_t lo, int64_t hi) {
  auto table = ReadCompressedTable(path);
  if (!table.ok()) {
    std::fprintf(stderr, "error: %s\n", table.status().ToString().c_str());
    return 1;
  }
  auto col = table.value().schema().FieldIndex(column);
  if (!col.ok()) {
    std::fprintf(stderr, "error: %s\n", col.status().ToString().c_str());
    return 1;
  }
  const uint64_t begin_ns = obs::MonotonicNs();
  size_t count = 0;
  for (size_t b = 0; b < table.value().num_blocks(); ++b) {
    count += query::CountInRange(table.value().block(b).column(col.value()),
                                 lo, hi);
  }
  std::printf("%zu of %zu rows in [%lld, %lld] (%.3f ms)\n", count,
              table.value().num_rows(), static_cast<long long>(lo),
              static_cast<long long>(hi), obs::SecondsSince(begin_ns) * 1e3);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    return Usage();
  }
  const std::string command = argv[1];
  if (command == "gen" && argc == 5) {
    return CmdGen(argv[2], std::strtoull(argv[3], nullptr, 10), argv[4]);
  }
  if (command == "info" && argc == 3) {
    return CmdInfo(argv[2]);
  }
  if (command == "query" && argc == 5) {
    return CmdQuery(argv[2], argv[3], std::strtod(argv[4], nullptr));
  }
  if (command == "filter" && argc == 6) {
    return CmdFilter(argv[2], argv[3],
                     std::strtoll(argv[4], nullptr, 10),
                     std::strtoll(argv[5], nullptr, 10));
  }
  return Usage();
}
