// Micro-benchmarks for the encoding substrate, the Corra schemes, and
// the morsel-based query kernels: full decode, ranged decode, point
// access, selective gather, filter, and aggregate throughput. Not a
// paper figure — used to sanity-check the O(1) random-access claims
// behind the baseline choice and to track the decode pipeline's
// throughput across PRs (run with --json; CI archives the output).
//
// Flags: --rows N (default 1M), --runs N (min repetitions), --json.
// CORRA_FORCE_SCALAR=1 measures the scalar kernel table.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/bit_util.h"
#include "common/random.h"
#include "common/simd/simd.h"
#include "core/diff_encoding.h"
#include "core/hierarchical_encoding.h"
#include "core/multi_ref_encoding.h"
#include "encoding/bitpack.h"
#include "encoding/delta.h"
#include "encoding/dictionary.h"
#include "encoding/for.h"
#include "encoding/rle.h"
#include "encoding/selector.h"
#include "obs/trace.h"
#include "query/aggregate.h"
#include "query/filter.h"
#include "query/morsel.h"
#include "query/selection_vector.h"

namespace corra {
namespace {

// Repeats `fn` until at least 0.25s of wall clock and `min_reps`
// repetitions have elapsed; returns the seconds and the repetitions.
template <typename Fn>
std::pair<double, size_t> TimeReps(size_t min_reps, Fn&& fn) {
  fn();  // Warm-up (first-touch pages, caches).
  const uint64_t begin_ns = obs::MonotonicNs();
  size_t reps = 0;
  double elapsed = 0;
  do {
    fn();
    ++reps;
    elapsed = obs::SecondsSince(begin_ns);
  } while (elapsed < 0.25 || reps < min_reps);
  return {elapsed, reps};
}

// TimeReps, then reports the mean over `rows` 8-byte values.
template <typename Fn>
void RunBench(bench::Reporter* reporter, const std::string& name,
              size_t rows, size_t min_reps, Fn&& fn) {
  const auto [seconds, reps] = TimeReps(min_reps, fn);
  reporter->Add(name, rows, seconds, reps);
}

std::vector<int64_t> DateLikeValues(size_t n) {
  Rng rng(42);
  std::vector<int64_t> values(n);
  for (auto& v : values) {
    v = rng.Uniform(8035, 10591);
  }
  return values;
}

std::vector<int64_t> OffsetValues(const std::vector<int64_t>& base,
                                  int64_t lo, int64_t hi) {
  Rng rng(43);
  std::vector<int64_t> values(base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    values[i] = base[i] + rng.Uniform(lo, hi);
  }
  return values;
}

std::vector<int64_t> RunLengthValues(size_t n) {
  Rng rng(11);
  std::vector<int64_t> values(n);
  int64_t current = 0;
  size_t remaining = 0;
  for (auto& v : values) {
    if (remaining == 0) {
      current = rng.Uniform(0, 100);
      remaining = static_cast<size_t>(rng.Uniform(10, 200));
    }
    v = current;
    --remaining;
  }
  return values;
}

// Taxi's total_amount shape (paper Sec. 2.3, Table 1): group A is six
// FOR/Dict columns, groups B and C one Dict column each, and 2-bit codes
// select A, A+B, A+C or A+B+C at the paper's shares, with 0.32% outliers.
struct MultiRefFixture {
  std::vector<std::unique_ptr<enc::EncodedColumn>> references;
  std::unique_ptr<MultiRefColumn> column;
};

MultiRefFixture MakeMultiRef(size_t n) {
  Rng rng(13);
  std::vector<std::vector<int64_t>> columns(8, std::vector<int64_t>(n));
  std::vector<int64_t> target(n);
  for (size_t i = 0; i < n; ++i) {
    columns[0][i] = 50;                             // mta_tax
    columns[1][i] = rng.Uniform(250, 9000);         // fare_amount
    columns[2][i] = rng.Bernoulli(0.9) ? 30 : 0;    // improvement_surcharge
    columns[3][i] = rng.Uniform(0, 2) * 50;         // extra
    columns[4][i] = rng.Uniform(0, 2500);           // tip_amount
    columns[5][i] = rng.Bernoulli(0.05) ? 655 : 0;  // tolls_amount
    columns[6][i] = 250;                            // congestion_surcharge
    columns[7][i] = rng.Bernoulli(0.5) ? 175 : 125;  // airport_fee
    int64_t a = 0;
    for (size_t c = 0; c < 6; ++c) {
      a += columns[c][i];
    }
    const double u = rng.NextDouble();
    target[i] = u < 0.3119   ? a
                : u < 0.9363 ? a + columns[6][i]
                : u < 0.9632 ? a + columns[7][i]
                : u < 0.9968 ? a + columns[6][i] + columns[7][i]
                             : a + 100000;
  }
  FormulaTable table;
  table.groups = {{0, 1, 2, 3, 4, 5}, {6}, {7}};
  table.formulas = {0b001, 0b011, 0b101, 0b111};
  MultiRefFixture fixture;
  fixture.column = MultiRefColumn::Encode(
                       target,
                       [&](uint32_t col) -> std::span<const int64_t> {
                         return columns[col];
                       },
                       table)
                       .value();
  std::vector<const enc::EncodedColumn*> refs;
  for (size_t c = 0; c < columns.size(); ++c) {
    if (c == 1 || c == 4) {
      fixture.references.push_back(enc::ForColumn::Encode(columns[c]).value());
    } else {
      fixture.references.push_back(
          enc::DictColumn::Encode(columns[c]).value());
    }
    refs.push_back(fixture.references.back().get());
  }
  (void)fixture.column->BindReferences(refs);
  return fixture;
}

// Sweeps the whole column through DecodeRange in morsel-sized windows —
// the access pattern of every generic query kernel.
void DecodeRangeSweep(const enc::EncodedColumn& column, int64_t* sink) {
  int64_t buffer[query::kMorselRows];
  int64_t acc = 0;
  query::ForEachMorsel(0, column.size(), [&](size_t begin, size_t len) {
    column.DecodeRange(begin, len, buffer);
    acc += buffer[0] + buffer[len - 1];
  });
  *sink = acc;
}

void RunAll(const bench::Flags& flags) {
  const size_t rows = flags.rows > 0 ? flags.rows : (size_t{1} << 20);
  const size_t reps = flags.runs;
  bench::Reporter reporter(flags);

  const auto reference = DateLikeValues(rows);
  const auto target = OffsetValues(reference, 1, 30);
  const auto runs_data = RunLengthValues(rows);

  auto for_column = enc::ForColumn::Encode(reference).value();
  auto bitpack_column = enc::BitPackColumn::Encode(reference).value();
  auto dict_column = enc::DictColumn::Encode(reference).value();
  auto delta_column = enc::DeltaColumn::Encode(reference).value();
  auto rle_column = enc::RleColumn::Encode(runs_data).value();
  auto diff_column = DiffEncodedColumn::Encode(target, reference, 0).value();
  const enc::EncodedColumn* diff_refs[] = {for_column.get()};
  (void)diff_column->BindReferences(diff_refs);

  Rng hier_rng(9);
  std::vector<int64_t> city(rows);
  std::vector<int64_t> zip(rows);
  for (size_t i = 0; i < rows; ++i) {
    city[i] = hier_rng.Uniform(0, 2499);
    zip[i] = 10000 + city[i] * 30 + hier_rng.Uniform(0, 29);
  }
  auto city_column = enc::ForColumn::Encode(city).value();
  auto hier_column = HierarchicalColumn::Encode(zip, city, 0).value();
  const enc::EncodedColumn* hier_refs[] = {city_column.get()};
  (void)hier_column->BindReferences(hier_refs);
  const MultiRefFixture multiref = MakeMultiRef(rows);

  std::vector<int64_t> out(rows);
  int64_t sink = 0;

  // Encode: the write side, per scheme and through the auto selector.
  // Wide domains, whose distinct values Dict and Hierarchical number in a
  // hash: a high-cardinality column (FOR wins; Dict's distinct count
  // stops early), a low-cardinality one with a wide range (Dict wins) and
  // 30 values per city scattered over a ~29M span under each of the
  // 2,500 cities above (hierarchical_wide: the per-reference spans pass
  // 2 * rows, so Hierarchical's per-reference pass gives up). Narrow
  // domains, numbered in a table indexed by value: 300 distinct values in
  // a 4,096 span (Dict wins; max - min < 2 * rows), the date-like
  // reference (FOR wins after Dict's early stop), ~60 references over
  // 900 dense codes (DMV's zip under city; cardinality * span <= 2 *
  // rows) and the zip codes above (a ~75k span over 2,500 cities, but 30
  // per city: per-reference slices of 30 slots).
  Rng card_rng(12);
  std::vector<int64_t> high_card(rows);
  std::vector<int64_t> low_card(rows);
  for (size_t i = 0; i < rows; ++i) {
    high_card[i] = card_rng.Uniform(0, (int64_t{1} << 30) - 1);
    low_card[i] = card_rng.Uniform(0, 15) * (int64_t{1} << 40);
  }
  std::vector<int64_t> narrow_pool(300);
  for (auto& v : narrow_pool) {
    v = card_rng.Uniform(0, 4095);
  }
  std::vector<int64_t> narrow(rows);
  std::vector<int64_t> code_refs(rows);
  std::vector<int64_t> codes(rows);
  std::vector<int64_t> zip_wide(rows);
  for (size_t i = 0; i < rows; ++i) {
    narrow[i] = narrow_pool[static_cast<size_t>(card_rng.Uniform(0, 299))];
    code_refs[i] = card_rng.Uniform(0, 59);
    codes[i] = code_refs[i] * 15 + card_rng.Uniform(0, 14);
    zip_wide[i] = (city[i] << 32) + card_rng.Uniform(0, 29) * 999983;
  }
  RunBench(&reporter, "encode/for", rows, reps, [&] {
    sink += static_cast<int64_t>(enc::ForColumn::Encode(reference)
                                     .value()
                                     ->SizeBytes());
  });
  RunBench(&reporter, "encode/bitpack", rows, reps, [&] {
    sink += static_cast<int64_t>(
        enc::BitPackColumn::Encode(reference).value()->SizeBytes());
  });
  RunBench(&reporter, "encode/dict", rows, reps, [&] {
    sink += static_cast<int64_t>(
        enc::DictColumn::Encode(low_card).value()->SizeBytes());
  });
  RunBench(&reporter, "encode/diff", rows, reps, [&] {
    sink += static_cast<int64_t>(DiffEncodedColumn::Encode(target, reference, 0)
                                     .value()
                                     ->SizeBytes());
  });
  RunBench(&reporter, "encode/hierarchical", rows, reps, [&] {
    sink += static_cast<int64_t>(
        HierarchicalColumn::Encode(zip, city, 0).value()->SizeBytes());
  });
  RunBench(&reporter, "encode/hierarchical_codes", rows, reps, [&] {
    sink += static_cast<int64_t>(
        HierarchicalColumn::Encode(codes, code_refs, 0).value()->SizeBytes());
  });
  RunBench(&reporter, "encode/hierarchical_wide", rows, reps, [&] {
    sink += static_cast<int64_t>(
        HierarchicalColumn::Encode(zip_wide, city, 0).value()->SizeBytes());
  });
  RunBench(&reporter, "select/auto_high_card", rows, reps, [&] {
    sink += static_cast<int64_t>(
        enc::SelectBestScheme(high_card).value()->SizeBytes());
  });
  RunBench(&reporter, "select/auto_low_card", rows, reps, [&] {
    sink += static_cast<int64_t>(
        enc::SelectBestScheme(low_card).value()->SizeBytes());
  });
  RunBench(&reporter, "select/auto_narrow", rows, reps, [&] {
    sink += static_cast<int64_t>(
        enc::SelectBestScheme(narrow).value()->SizeBytes());
  });
  RunBench(&reporter, "select/auto_dates", rows, reps, [&] {
    sink += static_cast<int64_t>(
        enc::SelectBestScheme(reference).value()->SizeBytes());
  });

  // Full decode (DecodeAll == one DecodeRange over the column).
  RunBench(&reporter, "decode_all/for", rows, reps,
           [&] { for_column->DecodeAll(out.data()); });
  RunBench(&reporter, "decode_all/dict", rows, reps,
           [&] { dict_column->DecodeAll(out.data()); });
  RunBench(&reporter, "decode_all/delta", rows, reps,
           [&] { delta_column->DecodeAll(out.data()); });
  RunBench(&reporter, "decode_all/rle", rows, reps,
           [&] { rle_column->DecodeAll(out.data()); });
  RunBench(&reporter, "decode_all/diff", rows, reps,
           [&] { diff_column->DecodeAll(out.data()); });
  RunBench(&reporter, "decode_all/hierarchical", rows, reps,
           [&] { hier_column->DecodeAll(out.data()); });

  // Morsel-wise ranged decode (the generic kernel access pattern).
  RunBench(&reporter, "decode_range/for", rows, reps,
           [&] { DecodeRangeSweep(*for_column, &sink); });
  RunBench(&reporter, "decode_range/dict", rows, reps,
           [&] { DecodeRangeSweep(*dict_column, &sink); });
  RunBench(&reporter, "decode_range/delta", rows, reps,
           [&] { DecodeRangeSweep(*delta_column, &sink); });
  RunBench(&reporter, "decode_range/rle", rows, reps,
           [&] { DecodeRangeSweep(*rle_column, &sink); });
  RunBench(&reporter, "decode_range/diff", rows, reps,
           [&] { DecodeRangeSweep(*diff_column, &sink); });
  RunBench(&reporter, "decode_range/hierarchical", rows, reps,
           [&] { DecodeRangeSweep(*hier_column, &sink); });
  RunBench(&reporter, "decode_range/multiref", rows, reps,
           [&] { DecodeRangeSweep(*multiref.column, &sink); });

  // Point access: FOR is O(1); Delta pays its checkpoint scan — the
  // paper's argument for restricting the baseline to FOR/Dict.
  {
    Rng rng(7);
    std::vector<uint32_t> points(1 << 16);
    for (auto& p : points) {
      p = static_cast<uint32_t>(rng.Uniform(0, static_cast<int64_t>(rows) - 1));
    }
    RunBench(&reporter, "point_access/for", points.size(), reps, [&] {
      int64_t acc = 0;
      for (uint32_t p : points) {
        acc += for_column->Get(p);
      }
      sink += acc;
    });
    RunBench(&reporter, "point_access/delta", points.size(), reps, [&] {
      int64_t acc = 0;
      for (uint32_t p : points) {
        acc += delta_column->Get(p);
      }
      sink += acc;
    });
    RunBench(&reporter, "point_access/rle", points.size(), reps, [&] {
      int64_t acc = 0;
      for (uint32_t p : points) {
        acc += rle_column->Get(p);
      }
      sink += acc;
    });
  }

  // Selective gather at 10% selectivity — the sparse-decode fast path
  // (EncodedColumn::GatherRange) of every scheme family.
  {
    Rng rng(8);
    const auto selection =
        query::GenerateSelectionVector(rows, 0.1, &rng);
    std::vector<int64_t> gathered(selection.size());
    std::vector<int64_t> ref_values(selection.size());
    for_column->GatherRange(selection, ref_values.data());
    RunBench(&reporter, "gather_0.1/for", selection.size(), reps,
             [&] { for_column->GatherRange(selection, gathered.data()); });
    RunBench(&reporter, "gather_0.1/dict", selection.size(), reps,
             [&] { dict_column->GatherRange(selection, gathered.data()); });
    RunBench(&reporter, "gather_0.1/rle", selection.size(), reps,
             [&] { rle_column->GatherRange(selection, gathered.data()); });
    RunBench(&reporter, "gather_0.1/diff", selection.size(), reps,
             [&] { diff_column->GatherRange(selection, gathered.data()); });
    RunBench(&reporter, "gather_0.1/diff_with_ref", selection.size(), reps,
             [&] {
               diff_column->GatherWithReference(selection, ref_values.data(),
                                                gathered.data());
             });
    RunBench(&reporter, "gather_0.1/hierarchical", selection.size(), reps,
             [&] { hier_column->GatherRange(selection, gathered.data()); });
    RunBench(&reporter, "gather_0.1/multiref", selection.size(), reps,
             [&] { multiref.column->GatherRange(selection, gathered.data()); });
    RunBench(&reporter, "gather_0.1/delta", selection.size(), reps,
             [&] { delta_column->GatherRange(selection, gathered.data()); });
  }

  // Sparse gather at 1% — positioned kernels with long gaps (Delta takes
  // its cursor path here, bit-packed schemes the vpgatherqq path).
  {
    Rng rng(12);
    const auto selection =
        query::GenerateSelectionVector(rows, 0.01, &rng);
    std::vector<int64_t> gathered(selection.size());
    RunBench(&reporter, "gather_0.01/for", selection.size(), reps,
             [&] { for_column->GatherRange(selection, gathered.data()); });
    RunBench(&reporter, "gather_0.01/diff", selection.size(), reps,
             [&] { diff_column->GatherRange(selection, gathered.data()); });
    RunBench(&reporter, "gather_0.01/delta", selection.size(), reps,
             [&] { delta_column->GatherRange(selection, gathered.data()); });
  }

  // Point gathers the way serving issues them: 128 sorted distinct rows
  // inside a 4,096-row window, 64 windows per repetition.
  constexpr size_t kWindowRows = 4096;
  if (rows >= kWindowRows) {
    constexpr size_t kPointRows = 128;
    Rng rng(14);
    std::vector<std::vector<uint32_t>> ops(64);
    std::vector<uint32_t> slots(kWindowRows);
    for (auto& op : ops) {
      const auto start = static_cast<uint32_t>(
          rng.Uniform(0, static_cast<int64_t>(rows - kWindowRows)));
      for (size_t j = 0; j < kWindowRows; ++j) {
        slots[j] = static_cast<uint32_t>(j);
      }
      for (size_t j = 0; j < kPointRows; ++j) {
        std::swap(slots[j],
                  slots[static_cast<size_t>(rng.Uniform(
                      static_cast<int64_t>(j),
                      static_cast<int64_t>(kWindowRows) - 1))]);
        op.push_back(start + slots[j]);
      }
      std::sort(op.begin(), op.end());
    }
    std::vector<int64_t> gathered(kPointRows);
    RunBench(&reporter, "gather_128/multiref", ops.size() * kPointRows, reps,
             [&] {
               for (const auto& op : ops) {
                 multiref.column->GatherRange(op, gathered.data());
               }
             });
  }

  // Query kernels: range filter (~20% selectivity, and ~1% on a cold-scan
  // block) and aggregates, all morsel-pipelined.
  RunBench(&reporter, "filter/for", rows, reps, [&] {
    sink += static_cast<int64_t>(
        query::FilterToSelection(*for_column, 9000, 9500).size());
  });
  RunBench(&reporter, "filter/dict", rows, reps, [&] {
    sink += static_cast<int64_t>(
        query::FilterToSelection(*dict_column, 9000, 9500).size());
  });
  RunBench(&reporter, "filter/bitpack", rows, reps, [&] {
    sink += static_cast<int64_t>(
        query::FilterToSelection(*bitpack_column, 9000, 9500).size());
  });
  RunBench(&reporter, "filter/diff", rows, reps, [&] {
    sink += static_cast<int64_t>(
        query::FilterToSelection(*diff_column, 9040, 9560).size());
  });
  {
    // The cold scan's filter: one 262,144-row block of a 12-bit FOR date
    // column at ~1% selectivity.
    const size_t block_rows = std::min<size_t>(rows, 262144);
    auto block_column =
        enc::ForColumn::Encode(std::span(reference).first(block_rows))
            .value();
    RunBench(&reporter, "filter_0.01/for", block_rows, reps, [&] {
      sink += static_cast<int64_t>(
          query::FilterToSelection(*block_column, 9000, 9025).size());
    });
  }
  RunBench(&reporter, "sum/for", rows, reps,
           [&] { sink += query::SumColumn(*for_column); });
  RunBench(&reporter, "sum/dict", rows, reps,
           [&] { sink += query::SumColumn(*dict_column); });
  RunBench(&reporter, "sum/diff", rows, reps,
           [&] { sink += query::SumColumn(*diff_column); });
  RunBench(&reporter, "min/diff", rows, reps, [&] {
    sink += query::MinMaxColumn(*diff_column).value_or(bit_util::MinMax{}).min;
  });
  // The statistics pass every encoded column starts with, over the
  // date-like reference.
  RunBench(&reporter, "stats/minmax", rows, reps,
           [&] { sink += bit_util::ComputeMinMax(reference).max; });

  // The CORF v4 block checksum: CRC32C over the date column's raw bytes.
  // A row is one byte here, so ns/row reads ns per byte.
  const auto* raw = reinterpret_cast<const uint8_t*>(reference.data());
  const size_t raw_bytes = rows * sizeof(int64_t);
  const auto [crc_seconds, crc_reps] =
      TimeReps(reps, [&] { sink += simd::Crc32c(raw, raw_bytes); });
  reporter.Add("checksum/crc32c", raw_bytes, crc_seconds, crc_reps,
               /*row_bytes=*/1);

  reporter.Finish();
  if (sink == 42) {  // Defeat dead-code elimination; never true in practice.
    std::fprintf(stderr, "sink %lld\n", static_cast<long long>(sink));
  }
}

}  // namespace
}  // namespace corra

int main(int argc, char** argv) {
  const corra::bench::Flags flags = corra::bench::ParseFlags(argc, argv);
  if (!flags.json) {
    corra::bench::PrintHeader("bench_encodings: encode/decode/scan kernels");
  }
  corra::RunAll(flags);
  return 0;
}
