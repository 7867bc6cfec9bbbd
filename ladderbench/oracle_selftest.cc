// Oracle self-test: each oracle accepts the program's real result and
// rejects a deliberately corrupted one (a gathered value, an aggregate,
// a projected value, an ingest round trip), so a passing benchmark run
// cannot come from a check that accepts everything.

#include <cstdio>
#include <fstream>

#include "datagen/dmv.h"
#include "datagen/taxi.h"
#include "datagen/tpch.h"
#include "ladder.h"
#include "oracle.h"
#include "serve/scan_service.h"
#include "storage/file_io.h"

namespace ladder {
namespace {

struct Tally {
  int failures = 0;
  void Expect(bool condition, const char* what) {
    std::printf("oracle-selftest %-44s %s\n", what,
                condition ? "ok" : "FAILED");
    failures += condition ? 0 : 1;
  }
};

corra::Result<std::unique_ptr<corra::serve::TableReader>> WriteAndOpen(
    const corra::Table& table, corra::CompressionPlan plan, size_t block_rows,
    const std::string& path) {
  plan.block_rows = block_rows;
  auto compressed = corra::CorraCompressor::Compress(table, plan);
  if (!compressed.ok()) {
    return compressed.status();
  }
  const corra::Status written =
      corra::WriteCompressedTable(compressed.value(), path);
  if (!written.ok()) {
    return written;
  }
  return corra::serve::TableReader::Open(
      path, std::make_shared<corra::serve::BlockCache>());
}

void PointChecks(const std::string& dir, Tally* tally) {
  using C = corra::datagen::TaxiColumns;
  auto table = corra::datagen::MakeTaxiTable(8192, 5);
  auto plan = TaxiPlan();
  plan.workload = corra::enc::WorkloadHint::kPointServing;
  auto reader = WriteAndOpen(table.value(), plan, 2048, dir + "/taxi.corf");
  tally->Expect(reader.ok(), "point: table written and opened");
  if (!reader.ok()) {
    return;
  }
  corra::serve::ScanService::Options options;
  options.num_threads = 1;
  corra::serve::ScanService service(options);
  const PointOracle oracle(table.value(),
                           {C::kPickup, C::kDropoff, C::kTotalAmount});
  std::vector<uint64_t> rows;
  for (uint64_t r = 2100; r < 2400; r += 5) {
    rows.push_back(r);
  }
  auto got = service.Gather(*reader.value(), oracle.columns(), rows,
                            corra::serve::GatherOptions{});
  tally->Expect(got.ok() && oracle.Check(rows, got.value()),
                "point: real gather accepted");
  if (!got.ok()) {
    return;
  }
  auto corrupted = got.value();
  corrupted[2][5] += 1;
  tally->Expect(!oracle.Check(rows, corrupted),
                "point: corrupted gathered value rejected");
  corrupted = got.value();
  corrupted[0].pop_back();
  tally->Expect(!oracle.Check(rows, corrupted),
                "point: short gather rejected");
}

void ScanChecks(const std::string& dir, Tally* tally) {
  auto table = corra::datagen::MakeLineitemTable(16384, 6);
  auto reader = WriteAndOpen(table.value(), LineitemPlan(), 4096,
                             dir + "/lineitem.corf");
  tally->Expect(reader.ok(), "scan: table written and opened");
  if (!reader.ok()) {
    return;
  }
  const auto ship = table.value().column(1).values();
  const auto [lo, hi] = std::minmax_element(ship.begin(), ship.end());
  const int64_t width = (*hi - *lo) / 20 + 1;
  const ScanOracle oracle(table.value(), 1, 3, 2, *lo, width, 20);
  corra::serve::ScanService::Options options;
  options.num_threads = 1;
  corra::serve::ScanService service(options);
  corra::serve::ScanRequest request;
  request.filter_column = 1;
  request.filter_lo = oracle.windows()[10].lo;
  request.filter_hi = oracle.windows()[10].hi;
  request.project_columns = {3};
  request.aggregate = corra::serve::AggregateOp::kSum;
  request.aggregate_column = 2;
  auto got = service.Execute(*reader.value(), request);
  tally->Expect(got.ok() && oracle.Check(10, got.value()),
                "scan: real scan accepted");
  if (!got.ok() || got.value().columns[0].size() < 2) {
    tally->Expect(false, "scan: window matched at least two rows");
    return;
  }
  auto corrupted = got.value();
  corrupted.agg_sum += 1;
  tally->Expect(!oracle.Check(10, corrupted),
                "scan: wrong aggregate rejected");
  corrupted = got.value();
  corrupted.rows_matched += 1;
  tally->Expect(!oracle.Check(10, corrupted),
                "scan: wrong match count rejected");
  corrupted = got.value();
  auto& projected = corrupted.columns[0];
  projected.back() += 1;
  tally->Expect(!oracle.Check(10, corrupted),
                "scan: wrong projected value rejected");
  tally->Expect(!oracle.Check(11, got.value()),
                "scan: another window's result rejected");
}

// A copy of `table` built column by column from its values, names,
// types and dictionaries, with the value at (`row`, `col`) changed when
// `col` names a column: +1, or the next dictionary entry for strings.
corra::Table CopyWithChange(const corra::Table& table, size_t col,
                            size_t row) {
  corra::Table out;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const corra::Column& column = table.column(c);
    std::vector<int64_t> values(column.values().begin(),
                                column.values().end());
    const auto& dict = column.dictionary();
    if (c == col) {
      values[row] += 1;
      if (dict != nullptr) {
        values[row] %= static_cast<int64_t>(dict->size());
      }
    }
    corra::Status added;
    switch (column.type()) {
      case corra::LogicalType::kString: {
        auto strings =
            corra::Column::StringFromCodes(column.name(), values, dict);
        added = strings.ok() ? out.AddColumn(std::move(strings.value()))
                             : strings.status();
        break;
      }
      case corra::LogicalType::kDate:
        added = out.AddColumn(corra::Column::Date(column.name(), values));
        break;
      case corra::LogicalType::kTimestamp:
        added =
            out.AddColumn(corra::Column::Timestamp(column.name(), values));
        break;
      case corra::LogicalType::kMoney:
        added = out.AddColumn(corra::Column::Money(column.name(), values));
        break;
      case corra::LogicalType::kInt64:
        added = out.AddColumn(corra::Column::Int64(column.name(), values));
        break;
    }
    if (!added.ok()) {
      return corra::Table();
    }
  }
  return out;
}

constexpr size_t kNoChange = SIZE_MAX;

void IngestChecks(const std::string& dir, Tally* tally) {
  auto lineitem = corra::datagen::MakeLineitemTable(4096, 7);
  const std::string path = dir + "/ingest_lineitem.corf";
  auto compressed = corra::CorraCompressor::Compress(lineitem.value(),
                                                     LineitemPlan());
  tally->Expect(compressed.ok() &&
                    corra::WriteCompressedTable(compressed.value(), path).ok(),
                "ingest: lineitem written");
  tally->Expect(CheckRoundTrip(lineitem.value(), path).ok(),
                "ingest: real round trip accepted");
  // The same file against a faithful copy of the input, then against a
  // copy that differs in one value.
  tally->Expect(
      CheckRoundTrip(CopyWithChange(lineitem.value(), kNoChange, 0), path)
          .ok(),
      "ingest: copied input accepted");
  tally->Expect(
      !CheckRoundTrip(CopyWithChange(lineitem.value(), 3, 7), path).ok(),
      "ingest: wrong round trip rejected");

  // String columns compare by text: a faithful copy is equal, a copy
  // with one city changed is not.
  auto dmv = corra::datagen::MakeDmvTableFromCodes(4096, 8);
  tally->Expect(
      TablesEqual(dmv.value(), CopyWithChange(dmv.value(), kNoChange, 0)),
      "ingest: copied string table accepted");
  tally->Expect(!TablesEqual(dmv.value(), CopyWithChange(dmv.value(), 1, 9)),
                "ingest: changed string value rejected");

  // A flipped payload byte fails the verified read.
  auto info = corra::ReadFileInfo(path);
  if (info.ok()) {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    const auto offset =
        static_cast<std::streamoff>(info.value().block_offsets[0] + 16);
    char byte = 0;
    file.seekg(offset);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    file.seekp(offset);
    file.write(&byte, 1);
  }
  tally->Expect(info.ok() && !CheckRoundTrip(lineitem.value(), path).ok(),
                "ingest: corrupted file rejected");
}

}  // namespace

int RunOracleSelfTest(const Args& args) {
  Tally tally;
  PointChecks(args.workdir, &tally);
  ScanChecks(args.workdir, &tally);
  IngestChecks(args.workdir, &tally);
  std::printf("oracle-selftest %s (%d failed)\n",
              tally.failures == 0 ? "passed" : "FAILED", tally.failures);
  return tally.failures == 0 ? 0 : 1;
}

}  // namespace ladder
