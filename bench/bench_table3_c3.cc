// Reproduces the paper's Table 3: saving rates of Corra versus the
// reimplemented C3 schemes (Glas et al.) on the four column pairs. As in
// the paper, C3 is allowed to choose its best applicable scheme per pair.

#include <cstdio>

#include "bench_util.h"
#include "core/c3/dfor.h"
#include "core/c3/numerical.h"
#include "core/c3/one_to_one.h"
#include "core/diff_encoding.h"
#include "core/hierarchical_encoding.h"
#include "datagen/dmv.h"
#include "datagen/taxi.h"
#include "datagen/tpch.h"
#include "encoding/selector.h"

namespace corra::bench {
namespace {

size_t BaselineBytes(std::span<const int64_t> values) {
  size_t best = SIZE_MAX;
  for (const auto& e : enc::EstimateSchemes(
           values, enc::SelectionPolicy::kConstantTimeAccessOnly)) {
    best = std::min(best, e.size_bytes);
  }
  return best;
}

struct C3Choice {
  const char* scheme;
  size_t bytes;
};

C3Choice BestC3(std::span<const int64_t> target,
                std::span<const int64_t> reference) {
  C3Choice choice{"DFOR", c3::DforColumn::EstimateSizeBytes(target,
                                                            reference)};
  const size_t numerical =
      c3::NumericalColumn::EstimateSizeBytes(target, reference);
  if (numerical < choice.bytes) {
    choice = {"Numerical", numerical};
  }
  const size_t one_to_one =
      c3::OneToOneColumn::EstimateSizeBytes(target, reference, 0.05);
  if (one_to_one < choice.bytes) {
    choice = {"1-to-1", one_to_one};
  }
  return choice;
}

void PrintPair(const char* pair, size_t baseline, size_t corra_bytes,
               const char* corra_scheme, const C3Choice& c3_choice,
               double paper_corra, double paper_c3,
               const char* paper_c3_scheme) {
  const double corra_saving =
      1.0 - static_cast<double>(corra_bytes) / static_cast<double>(baseline);
  const double c3_saving =
      1.0 -
      static_cast<double>(c3_choice.bytes) / static_cast<double>(baseline);
  std::printf(
      "%-26s %6.1f%% (%-16s) %6.1f%% (%-10s) | paper: %5.1f%% vs %5.1f%% "
      "(%s)\n",
      pair, corra_saving * 100, corra_scheme, c3_saving * 100,
      c3_choice.scheme, paper_corra * 100, paper_c3 * 100, paper_c3_scheme);
}

int Run(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);

  PrintHeader("Table 3: saving rates, Corra (ours) vs C3 (reimplemented)");
  std::printf("%-26s %-27s %-20s | %s\n", "Column pair", "Corra",
              "C3 (best scheme)", "Paper (Corra vs C3)");
  PrintRule();

  // TPC-H pairs.
  {
    const size_t n = ResolveRows(flags, datagen::kLineitemRowsSf10, 30);
    std::fprintf(stderr, "[table3] lineitem: %zu rows\n", n);
    const auto dates = datagen::GenerateLineitemDates(n);
    {
      const size_t base = BaselineBytes(dates.commitdate);
      const size_t ours = DiffEncodedColumn::EstimateSizeBytes(
          dates.commitdate, dates.shipdate);
      const C3Choice c3_choice = BestC3(dates.commitdate, dates.shipdate);
      PrintPair("(shipdate, commitdate)", base, ours, "Non-hierarchical",
                c3_choice, 0.333, 0.315, "DFOR");
    }
    {
      const size_t base = BaselineBytes(dates.receiptdate);
      const size_t ours = DiffEncodedColumn::EstimateSizeBytes(
          dates.receiptdate, dates.shipdate);
      const C3Choice c3_choice = BestC3(dates.receiptdate, dates.shipdate);
      PrintPair("(shipdate, receiptdate)", base, ours, "Non-hierarchical",
                c3_choice, 0.583, 0.561, "DFOR");
    }
  }

  // Taxi (pickup, dropoff).
  {
    const size_t n = ResolveRows(flags, datagen::kTaxiRows, 30);
    std::fprintf(stderr, "[table3] taxi: %zu rows\n", n);
    const auto trips = datagen::GenerateTaxiTrips(n);
    const size_t base = BaselineBytes(trips.dropoff);
    const size_t ours =
        DiffEncodedColumn::EstimateSizeBytes(trips.dropoff, trips.pickup);
    const C3Choice c3_choice = BestC3(trips.dropoff, trips.pickup);
    PrintPair("(pickup, dropoff)", base, ours, "Non-hierarchical",
              c3_choice, 0.306, 0.529, "Numerical");
  }

  // DMV (city, zip).
  {
    const size_t n = ResolveRows(flags, datagen::kDmvRows, 4);
    std::fprintf(stderr, "[table3] dmv: %zu rows\n", n);
    const auto data = datagen::GenerateDmvCodes(n);
    const size_t base = BaselineBytes(data.zip);
    const size_t ours =
        HierarchicalColumn::EstimateSizeBytes(data.zip, data.city);
    const C3Choice c3_choice = BestC3(data.zip, data.city);
    PrintPair("(city, zip-code)", base, ours, "Hierarchical", c3_choice,
              0.537, 0.591, "1-to-1");
  }

  PrintRule();
  std::printf(
      "Note: C3's published 1-to-1 result on (city, zip-code) and its\n"
      "Numerical result on (pickup, dropoff) rely on implementation\n"
      "details beyond the paper's description; our reimplementation\n"
      "follows the description only, so its sizes for these two pairs\n"
      "are not expected to match the published ones.\n");
  return 0;
}

}  // namespace
}  // namespace corra::bench

int main(int argc, char** argv) { return corra::bench::Run(argc, argv); }
