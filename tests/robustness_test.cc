// Failure-injection: deserializers must reject arbitrarily mutated block
// bytes with an error Status — never crash, hang, or read out of bounds.
// This is a deterministic mini-fuzzer (seeded mutations), exercising every
// scheme's validation paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/corra_compressor.h"
#include "datagen/taxi.h"
#include "encoding/bitpack.h"
#include "encoding/delta.h"
#include "encoding/for.h"
#include "query/scan.h"
#include "storage/block.h"
#include "storage/serde.h"
#include "test_util.h"

namespace corra {
namespace {

// A block containing every family of scheme: vertical (auto), diff,
// hierarchical, multi-ref — maximal validation surface.
std::vector<uint8_t> MakeRichBlockBytes() {
  Rng rng(11);
  const size_t n = 2000;
  std::vector<int64_t> a(n);
  std::vector<int64_t> b(n);
  std::vector<int64_t> city(n);
  std::vector<int64_t> zip(n);
  std::vector<int64_t> total(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = rng.Uniform(100, 1000);
    b[i] = a[i] + rng.Uniform(1, 30);
    city[i] = rng.Uniform(0, 19);
    zip[i] = city[i] * 10 + rng.Uniform(0, 5);
    total[i] = rng.Bernoulli(0.5) ? a[i] : a[i] + city[i];
  }
  Table table;
  EXPECT_TRUE(table.AddColumn(Column::Int64("a", a)).ok());
  EXPECT_TRUE(table.AddColumn(Column::Int64("b", b)).ok());
  EXPECT_TRUE(table.AddColumn(Column::Int64("city", city)).ok());
  EXPECT_TRUE(table.AddColumn(Column::Int64("zip", zip)).ok());
  EXPECT_TRUE(table.AddColumn(Column::Int64("total", total)).ok());

  CompressionPlan plan = CompressionPlan::AllAuto(5);
  plan.columns[1].auto_vertical = false;
  plan.columns[1].scheme = enc::Scheme::kDiff;
  plan.columns[1].reference = 0;
  plan.columns[3].auto_vertical = false;
  plan.columns[3].scheme = enc::Scheme::kHierarchical;
  plan.columns[3].reference = 2;
  plan.columns[4].auto_vertical = false;
  plan.columns[4].scheme = enc::Scheme::kMultiRef;
  plan.columns[4].formulas.groups = {{0}, {2}};
  plan.columns[4].formulas.formulas = {0b01, 0b11};
  plan.columns[4].formulas.code_bits = 1;
  auto compressed = CorraCompressor::Compress(table, plan);
  EXPECT_TRUE(compressed.ok()) << compressed.status().ToString();
  return compressed.value().block(0).Serialize();
}

TEST(RobustnessTest, PristineBytesDeserialize) {
  const auto bytes = MakeRichBlockBytes();
  auto block = Block::Deserialize(bytes, /*verify=*/true);
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  EXPECT_EQ(block.value().num_columns(), 5u);
}

TEST(RobustnessTest, SingleByteMutationsNeverCrash) {
  const auto bytes = MakeRichBlockBytes();
  Rng rng(1);
  size_t rejected = 0;
  size_t accepted = 0;
  constexpr int kMutations = 3000;
  for (int trial = 0; trial < kMutations; ++trial) {
    std::vector<uint8_t> mutated = bytes;
    const size_t pos = static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(mutated.size()) - 1));
    const uint8_t flip =
        static_cast<uint8_t>(rng.Uniform(1, 255));
    mutated[pos] ^= flip;
    auto block = Block::Deserialize(mutated, /*verify=*/true);
    if (block.ok()) {
      // A mutation inside a packed payload can produce a structurally
      // valid block; reading it must still be safe.
      ++accepted;
      std::vector<int64_t> out(block.value().rows());
      block.value().column(1).DecodeAll(out.data());
    } else {
      ++rejected;
    }
  }
  EXPECT_EQ(rejected + accepted, static_cast<size_t>(kMutations));
  // Structural damage must dominate payload-only damage.
  EXPECT_GT(rejected, static_cast<size_t>(kMutations) / 10);
}

TEST(RobustnessTest, MultiByteMutationsNeverCrash) {
  const auto bytes = MakeRichBlockBytes();
  Rng rng(2);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> mutated = bytes;
    const int edits = static_cast<int>(rng.Uniform(2, 32));
    for (int e = 0; e < edits; ++e) {
      const size_t pos = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(mutated.size()) - 1));
      mutated[pos] = static_cast<uint8_t>(rng.Uniform(0, 255));
    }
    auto block = Block::Deserialize(mutated, /*verify=*/true);
    if (block.ok()) {
      std::vector<int64_t> out(block.value().rows());
      for (size_t c = 0; c < block.value().num_columns(); ++c) {
        block.value().column(c).DecodeAll(out.data());
      }
    }
  }
  SUCCEED();  // Reaching here without crashing is the assertion.
}

TEST(RobustnessTest, EveryTruncationRejected) {
  const auto bytes = MakeRichBlockBytes();
  for (size_t cut = 0; cut < bytes.size(); cut += 13) {
    const std::vector<uint8_t> truncated(
        bytes.begin(), bytes.begin() + static_cast<long>(cut));
    EXPECT_FALSE(Block::Deserialize(truncated).ok()) << "cut " << cut;
  }
}

TEST(RobustnessTest, RandomGarbageRejected) {
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> garbage(
        static_cast<size_t>(rng.Uniform(0, 4096)));
    for (auto& byte : garbage) {
      byte = static_cast<uint8_t>(rng.Uniform(0, 255));
    }
    EXPECT_FALSE(Block::Deserialize(garbage).ok());
  }
}

TEST(RobustnessTest, TaxiBlockSurvivesOutlierRegionMutations) {
  // Mutations specifically aimed at the serialized outlier store of a
  // realistic multi-ref column.
  auto table = datagen::MakeTaxiTable(20000, 5).value();
  using C = datagen::TaxiColumns;
  CompressionPlan plan = CompressionPlan::AllAuto(11);
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
  auto compressed = CorraCompressor::Compress(table, plan).value();
  const auto bytes = compressed.block(0).Serialize();

  Rng rng(6);
  // The outlier store serializes near the end of the stream; hammer the
  // last kilobyte.
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> mutated = bytes;
    const size_t lo = mutated.size() > 1024 ? mutated.size() - 1024 : 0;
    const size_t pos = static_cast<size_t>(rng.Uniform(
        static_cast<int64_t>(lo),
        static_cast<int64_t>(mutated.size()) - 1));
    mutated[pos] ^= static_cast<uint8_t>(rng.Uniform(1, 255));
    auto block = Block::Deserialize(mutated, /*verify=*/true);
    if (block.ok()) {
      std::vector<int64_t> out(block.value().rows());
      block.value().column(C::kTotalAmount).DecodeAll(out.data());
    }
  }
  SUCCEED();
}

// One Delta column in each wire form Deserialize accepts: legacy (no
// marker, implied interval 128), interval marker, and inline checkpoints
// (which Deserialize re-packs).
std::vector<std::pair<std::string, std::vector<uint8_t>>> DeltaWireForms() {
  const auto values = test::MakeValues(test::Dist::kSorted, 1000, 17);
  return {{"legacy", test::SerializedBytes(
                         *enc::DeltaColumn::Encode(values, 128).value())},
          {"interval_marker",
           test::SerializedBytes(*enc::DeltaColumn::Encode(values).value())},
          {"inline", test::SerializeDeltaInline(values, 16)}};
}

// Deserializes `bytes` as one column; a column that comes back is read
// through every path (its values may be wrong, its reads must be safe).
// Returns whether the column was accepted.
bool DeserializeAndReadColumn(const std::vector<uint8_t>& bytes) {
  BufferReader reader(bytes);
  auto column = DeserializeEncodedColumn(&reader);
  if (!column.ok()) {
    return false;
  }
  const enc::EncodedColumn& c = *column.value();
  std::vector<int64_t> out(c.size());
  c.DecodeAll(out.data());
  // A dense and a sparse selection reach both gather strategies.
  for (const size_t step : {size_t{3}, size_t{97}}) {
    std::vector<uint32_t> rows;
    for (size_t row = 0; row < c.size(); row += step) {
      rows.push_back(static_cast<uint32_t>(row));
    }
    c.GatherRange(rows, out.data());
  }
  for (size_t row = 0; row < c.size(); row += 13) {
    out[row] = c.Get(row);
  }
  return true;
}

TEST(RobustnessTest, DeltaWireFormsSurviveByteMutations) {
  for (const auto& [form, bytes] : DeltaWireForms()) {
    SCOPED_TRACE(form);
    BufferReader pristine(bytes);
    ASSERT_TRUE(DeserializeEncodedColumn(&pristine).ok());
    Rng rng(19);
    size_t accepted = 0;
    for (int trial = 0; trial < 2000; ++trial) {
      std::vector<uint8_t> mutated = bytes;
      // Half the trials flip one byte, half rewrite up to 8 bytes.
      const int edits =
          trial % 2 == 0 ? 1 : static_cast<int>(rng.Uniform(2, 8));
      for (int e = 0; e < edits; ++e) {
        const size_t pos = static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(mutated.size()) - 1));
        mutated[pos] ^= static_cast<uint8_t>(rng.Uniform(1, 255));
      }
      accepted += DeserializeAndReadColumn(mutated) ? 1 : 0;
    }
    // Payload-only damage keeps the structure valid, so some mutated
    // columns reach the read paths.
    EXPECT_GT(accepted, 0u);
  }
}

TEST(RobustnessTest, DeltaWireFormsRejectEveryTruncation) {
  for (const auto& [form, bytes] : DeltaWireForms()) {
    SCOPED_TRACE(form);
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      const std::vector<uint8_t> truncated(
          bytes.begin(), bytes.begin() + static_cast<long>(cut));
      BufferReader reader(truncated);
      ASSERT_FALSE(DeserializeEncodedColumn(&reader).ok()) << "cut " << cut;
    }
  }
}

// Row count 2^61 at 8 bits: count * width is 2^64, which wraps to a
// zero-bit payload that any length check that multiplies accepts.
constexpr uint64_t kWrappingCount = uint64_t{1} << 61;

// One column per scheme whose stream carries kWrappingCount values of
// 8 bits over an empty payload, and the cases whose other arrays bound
// the count (Delta's checkpoints, the outlier store's row indices).
std::vector<std::pair<std::string, std::vector<uint8_t>>>
WrappingCountColumns() {
  const auto column = [](enc::Scheme scheme, const auto& body) {
    BufferWriter writer;
    writer.Write<uint8_t>(static_cast<uint8_t>(scheme));
    body(writer);
    return std::move(writer).Finish();
  };
  // The [width][count][length-prefixed bytes] tail of a packed stream.
  const auto stream = [](BufferWriter& w) {
    w.Write<uint8_t>(8);
    w.Write<uint64_t>(kWrappingCount);
    w.WriteBytes({});
  };
  const auto no_outliers = [](BufferWriter& w) {
    w.WriteUint32Array({});
    w.Write<int64_t>(0);
    w.Write<uint8_t>(0);
    w.WriteBytes({});
  };
  std::vector<int64_t> dictionary(256);
  for (size_t i = 0; i < dictionary.size(); ++i) {
    dictionary[i] = static_cast<int64_t>(i);
  }
  double one = 1.0;
  uint64_t slope_bits = 0;
  std::memcpy(&slope_bits, &one, sizeof(slope_bits));
  return {
      {"bitpack", column(enc::Scheme::kBitPack, stream)},
      {"for", column(enc::Scheme::kFor,
                     [&](BufferWriter& w) {
                       w.Write<int64_t>(0);
                       stream(w);
                     })},
      {"dict", column(enc::Scheme::kDict,
                      [&](BufferWriter& w) {
                        w.WriteInt64Array(dictionary);
                        stream(w);
                      })},
      {"diff", column(enc::Scheme::kDiff,
                      [&](BufferWriter& w) {
                        w.Write<uint32_t>(0);  // Reference.
                        w.Write<uint8_t>(0);   // Raw mode.
                        w.Write<int64_t>(0);
                        stream(w);
                        no_outliers(w);
                      })},
      {"c3_numerical", column(enc::Scheme::kC3Numerical,
                              [&](BufferWriter& w) {
                                w.Write<uint32_t>(0);
                                w.Write<uint64_t>(slope_bits);
                                w.Write<int64_t>(0);
                                stream(w);
                              })},
      {"hierarchical", column(enc::Scheme::kHierarchical,
                              [&](BufferWriter& w) {
                                w.Write<uint32_t>(0);
                                w.WriteInt64Array(std::vector<int64_t>{5, 6});
                                w.WriteUint32Array(
                                    std::vector<uint32_t>{0, 2});
                                stream(w);
                              })},
      {"multi_ref", column(enc::Scheme::kMultiRef,
                           [&](BufferWriter& w) {
                             w.Write<uint8_t>(8);  // Code bits.
                             w.Write<uint8_t>(1);  // Groups.
                             w.WriteUint32Array(std::vector<uint32_t>{0});
                             w.WriteBytes(std::vector<uint8_t>{1});
                             w.Write<uint64_t>(kWrappingCount);
                             w.WriteBytes({});
                             no_outliers(w);
                           })},
      {"delta", column(enc::Scheme::kDelta,
                       [&](BufferWriter& w) {
                         w.Write<uint64_t>(~uint64_t{0});  // Interval marker.
                         w.Write<uint64_t>(32);
                         w.WriteInt64Array({});
                         stream(w);
                       })},
      {"delta_inline", column(enc::Scheme::kDelta,
                              [&](BufferWriter& w) {
                                w.Write<uint64_t>(~uint64_t{0} - 1);
                                w.Write<uint64_t>(32);
                                stream(w);
                              })},
      // A four-row Diff column whose outlier store claims 2^61 rows.
      {"outlier_store", column(enc::Scheme::kDiff,
                               [&](BufferWriter& w) {
                                 w.Write<uint32_t>(0);
                                 w.Write<uint8_t>(2);  // Window mode.
                                 w.Write<int64_t>(0);
                                 w.Write<uint8_t>(8);
                                 w.Write<uint64_t>(4);
                                 w.WriteBytes(std::vector<uint8_t>{1, 2, 3, 4});
                                 w.Write<uint64_t>(kWrappingCount);
                                 w.Write<int64_t>(0);
                                 w.Write<uint8_t>(8);
                                 w.WriteBytes({});
                               })},
  };
}

TEST(RobustnessTest, WrappingRowCountsRejected) {
  for (const auto& [name, bytes] : WrappingCountColumns()) {
    SCOPED_TRACE(name);
    BufferReader reader(bytes);
    auto column = DeserializeEncodedColumn(&reader);
    ASSERT_FALSE(column.ok()) << "accepted " << column.value()->size()
                              << " rows";
    EXPECT_TRUE(column.status().IsCorruption()) << column.status().ToString();
  }
  // The BitPack column as the one column of a block whose header agrees
  // with its row count. The header's 32-bit row bound rejects it first;
  // the columns above show the stream's own check.
  const auto pristine = MakeRichBlockBytes();
  BufferWriter block;
  block.Write<uint32_t>(0);  // Magic and version, copied below.
  block.Write<uint8_t>(0);
  block.Write<uint32_t>(1);  // Columns.
  block.Write<uint64_t>(kWrappingCount);
  block.Write<uint8_t>(0);  // No string dictionary.
  std::vector<uint8_t> bytes = std::move(block).Finish();
  std::copy_n(pristine.begin(), 5, bytes.begin());
  const auto bitpack = WrappingCountColumns().front().second;
  bytes.insert(bytes.end(), bitpack.begin(), bitpack.end());
  auto result = Block::Deserialize(bytes, /*verify=*/true);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption()) << result.status().ToString();
}

// The 36-byte block of one BitPack column of width 0 and `rows` rows. A
// width-0 stream stores no bits, so nothing but the header bounds its
// row count.
std::vector<uint8_t> WidthZeroBlockBytes(uint64_t rows) {
  BufferWriter w;
  w.Write<uint32_t>(0);  // Magic and version, copied below.
  w.Write<uint8_t>(0);
  w.Write<uint32_t>(1);  // Columns.
  w.Write<uint64_t>(rows);
  w.Write<uint8_t>(0);  // No string dictionary.
  w.Write<uint8_t>(static_cast<uint8_t>(enc::Scheme::kBitPack));
  w.Write<uint8_t>(0);  // Width.
  w.Write<uint64_t>(rows);
  w.WriteBytes({});
  std::vector<uint8_t> bytes = std::move(w).Finish();
  const auto pristine = MakeRichBlockBytes();
  std::copy_n(pristine.begin(), 5, bytes.begin());
  return bytes;
}

TEST(RobustnessTest, RowCountsBeyond32BitRowIdsRejected) {
  // Selection vectors and the filter kernels carry 32-bit row ids, so a
  // block holds at most 2^32 - 1 rows: the width-0 block of 2^40 rows
  // and one of 2^32 rows are Corruption, while 2^32 - 1 rows still load.
  const auto huge = WidthZeroBlockBytes(uint64_t{1} << 40);
  ASSERT_EQ(huge.size(), 36u);
  for (const bool verify : {false, true}) {
    auto block = Block::Deserialize(huge, verify);
    ASSERT_FALSE(block.ok()) << "accepted " << block.value().rows()
                             << " rows";
    EXPECT_TRUE(block.status().IsCorruption()) << block.status().ToString();
  }
  EXPECT_TRUE(Block::Deserialize(WidthZeroBlockBytes(uint64_t{1} << 32))
                  .status()
                  .IsCorruption());
  auto largest = Block::Deserialize(WidthZeroBlockBytes(kMaxBlockRows));
  ASSERT_TRUE(largest.ok()) << largest.status().ToString();
  EXPECT_EQ(largest.value().rows(), kMaxBlockRows);

  // Build rejects the same column, read on its own (past the 18-byte
  // block header and dictionary flag).
  const std::vector<uint8_t> column_bytes(huge.begin() + 18, huge.end());
  BufferReader reader(column_bytes);
  auto column = DeserializeEncodedColumn(&reader);
  ASSERT_TRUE(column.ok()) << column.status().ToString();
  std::vector<BlockColumn> columns(1);
  columns[0].encoded = std::move(column).value();
  auto built = Block::Build(std::move(columns));
  ASSERT_FALSE(built.ok());
  EXPECT_TRUE(built.status().IsInvalidArgument())
      << built.status().ToString();
}

// A block of `rows` rows: column 0 a BitPack column of row % 64, column
// 1 a C3 1-to-1 column over it whose map holds only `keys` (to
// `mapped`), with no outliers. A column the encoder wrote maps every
// reference value; only hand-built bytes can miss one.
std::vector<uint8_t> OneToOneBlockBytes(size_t rows,
                                        const std::vector<int64_t>& keys,
                                        const std::vector<int64_t>& mapped) {
  std::vector<int64_t> reference(rows);
  for (size_t i = 0; i < rows; ++i) {
    reference[i] = static_cast<int64_t>(i % 64);
  }
  BufferWriter w;
  w.Write<uint32_t>(0);  // Magic and version, copied below.
  w.Write<uint8_t>(0);
  w.Write<uint32_t>(2);  // Columns.
  w.Write<uint64_t>(rows);
  w.Write<uint8_t>(0);  // No string dictionary.
  enc::BitPackColumn::Encode(reference).value()->Serialize(&w);
  w.Write<uint8_t>(0);
  w.Write<uint8_t>(static_cast<uint8_t>(enc::Scheme::kC3OneToOne));
  w.Write<uint32_t>(0);  // Reference column.
  w.Write<uint64_t>(rows);
  w.WriteInt64Array(keys);
  w.WriteInt64Array(mapped);
  w.WriteUint32Array({});  // Outlier rows.
  w.Write<int64_t>(0);     // Outlier base and width.
  w.Write<uint8_t>(0);
  w.WriteBytes(std::vector<uint8_t>(bit_util::kDecodePadBytes));
  std::vector<uint8_t> bytes = std::move(w).Finish();
  const auto pristine = MakeRichBlockBytes();
  std::copy_n(pristine.begin(), 5, bytes.begin());
  return bytes;
}

TEST(RobustnessTest, OneToOneReferenceValueWithoutKeyReadsZero) {
  // The map misses reference values: entirely (no keys over 200 rows),
  // below, between and above its keys. A missing value reads 0 through
  // every read path, without reading past the map (ASan).
  constexpr size_t kRows = 200;
  const std::vector<std::pair<std::vector<int64_t>, std::vector<int64_t>>>
      maps = {{{}, {}}, {{5, 50}, {500, 5000}}, {{-3}, {7}}, {{100}, {9}}};
  for (const auto& [keys, mapped] : maps) {
    SCOPED_TRACE("keys=" + std::to_string(keys.size()));
    const auto bytes = OneToOneBlockBytes(kRows, keys, mapped);
    auto block = Block::Deserialize(bytes, /*verify=*/true);
    ASSERT_TRUE(block.ok()) << block.status().ToString();
    const enc::EncodedColumn& column = block.value().column(1);
    std::vector<int64_t> expected(kRows, 0);
    for (size_t i = 0; i < kRows; ++i) {
      for (size_t k = 0; k < keys.size(); ++k) {
        if (keys[k] == static_cast<int64_t>(i % 64)) {
          expected[i] = mapped[k];
        }
      }
    }
    test::ExpectColumnMatches(column, expected);
    std::vector<int64_t> range(kRows - 10);
    column.DecodeRange(10, range.size(), range.data());
    EXPECT_TRUE(std::equal(range.begin(), range.end(), expected.begin() + 10));
  }
}

// A block of two columns over `refs.size()` rows: column 0 a FOR column
// of `refs`, column 1 a Hierarchical column over it with the metadata
// `values` and `offsets` and the per-row local indices `locals`. The
// encoder never writes a pair outside its metadata; hand-built bytes can.
std::vector<uint8_t> HierarchicalBlockBytes(
    const std::vector<int64_t>& refs, const std::vector<uint64_t>& locals,
    const std::vector<int64_t>& values, const std::vector<uint32_t>& offsets) {
  BufferWriter w;
  w.Write<uint32_t>(0);  // Magic and version, copied below.
  w.Write<uint8_t>(0);
  w.Write<uint32_t>(2);  // Columns.
  w.Write<uint64_t>(refs.size());
  w.Write<uint8_t>(0);  // No string dictionary.
  enc::ForColumn::Encode(refs).value()->Serialize(&w);
  w.Write<uint8_t>(0);
  w.Write<uint8_t>(static_cast<uint8_t>(enc::Scheme::kHierarchical));
  w.Write<uint32_t>(0);  // Reference column.
  w.WriteInt64Array(values);
  w.WriteUint32Array(offsets);
  uint64_t max_local = 0;
  for (uint64_t local : locals) {
    max_local = std::max(max_local, local);
  }
  PackedArray::Pack(locals, bit_util::BitWidth(max_local)).Write(&w);
  std::vector<uint8_t> bytes = std::move(w).Finish();
  const auto pristine = MakeRichBlockBytes();
  std::copy_n(pristine.begin(), 5, bytes.begin());
  return bytes;
}

TEST(RobustnessTest, HierarchicalPairsOutsideTheMetadataReadZero) {
  // Serving loads blocks without verification, so Hierarchical's reads
  // meet whatever reference codes and local indices the bytes hold. A
  // pair outside the metadata reads 0 through every read path without
  // reading past values_ or offsets_ (ASan, _GLIBCXX_ASSERTIONS); under
  // verification each block is Corruption.
  constexpr size_t kRows = 300;
  const std::vector<int64_t> values = {10, 11, 20, 21, 22, 30};
  const std::vector<uint32_t> offsets = {0, 2, 5, 6};  // Cardinality 3.
  const auto rows_of = [&](auto fn) {
    std::vector<int64_t> refs(kRows);
    std::vector<uint64_t> locals(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      std::tie(refs[i], locals[i]) = fn(i);
    }
    return std::make_pair(refs, locals);
  };
  const struct {
    std::string name;
    std::pair<std::vector<int64_t>, std::vector<uint64_t>> rows;
    std::vector<int64_t> values;
    std::vector<uint32_t> offsets;
  } cases[] = {
      {"reference code past the cardinality",
       rows_of([](size_t i) {
         const int64_t refs[] = {0, 3, 1, 1000000, 2, INT64_MAX};
         return std::make_pair(refs[i % 6], uint64_t{0});
       }),
       values, offsets},
      {"negative reference value",
       rows_of([](size_t i) {
         const int64_t refs[] = {0, -1, 1, INT64_MIN, 2, -3};
         return std::make_pair(refs[i % 6], uint64_t{0});
       }),
       values, offsets},
      {"local index past its slice",
       rows_of([](size_t i) {
         return std::make_pair(static_cast<int64_t>(i % 3),
                               static_cast<uint64_t>(i % 7));
       }),
       values, offsets},
      {"empty values over nonzero rows",
       rows_of([](size_t i) {
         return std::make_pair(static_cast<int64_t>(i % 2),
                               static_cast<uint64_t>(i % 4));
       }),
       {}, {0, 0, 0}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const auto& [refs, locals] = c.rows;
    const auto bytes =
        HierarchicalBlockBytes(refs, locals, c.values, c.offsets);
    auto verified = Block::Deserialize(bytes, /*verify=*/true);
    ASSERT_FALSE(verified.ok());
    EXPECT_TRUE(verified.status().IsCorruption())
        << verified.status().ToString();

    auto block = Block::Deserialize(bytes, /*verify=*/false);
    ASSERT_TRUE(block.ok()) << block.status().ToString();
    std::vector<int64_t> expected(kRows, 0);
    const int64_t cardinality = static_cast<int64_t>(c.offsets.size()) - 1;
    for (size_t i = 0; i < kRows; ++i) {
      if (refs[i] >= 0 && refs[i] < cardinality) {
        const size_t ref = static_cast<size_t>(refs[i]);
        if (c.offsets[ref] + locals[i] < c.offsets[ref + 1]) {
          expected[i] = c.values[c.offsets[ref] + locals[i]];
        }
      }
    }
    ASSERT_TRUE(std::count(expected.begin(), expected.end(), 0) > 0);
    test::ExpectColumnMatches(block.value().column(1), expected);
    // A sorted gather, a dense scan, and both through the reference the
    // pair scans decode first.
    std::vector<uint32_t> rows;
    for (uint32_t i = 1; i < kRows; i += 2) {
      rows.push_back(i);
    }
    std::vector<int64_t> gathered(rows.size());
    query::ScanColumn(block.value(), 1, rows, gathered.data());
    std::vector<int64_t> ref_out(kRows);
    std::vector<int64_t> paired(rows.size());
    query::ScanPair(block.value(), 0, 1, rows, ref_out.data(), paired.data());
    for (size_t k = 0; k < rows.size(); ++k) {
      EXPECT_EQ(gathered[k], expected[rows[k]]) << "row " << rows[k];
      EXPECT_EQ(paired[k], expected[rows[k]]) << "row " << rows[k];
    }
    std::vector<int64_t> dense(kRows);
    const size_t target_only[] = {1};
    int64_t* const dense_out[] = {dense.data()};
    query::ScanColumnsRange(block.value(), target_only, 0, kRows, dense_out);
    EXPECT_EQ(dense, expected);
    std::vector<int64_t> dense_pair(kRows);
    const size_t pair[] = {0, 1};
    int64_t* const pair_out[] = {ref_out.data(), dense_pair.data()};
    query::ScanColumnsRange(block.value(), pair, 0, kRows, pair_out);
    EXPECT_EQ(dense_pair, expected);
  }
}

}  // namespace
}  // namespace corra
