// Hierarchical encoding — Sec. 2.2 (Fig. 3, Alg. 1).

#include "core/hierarchical_encoding.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/bit_stream.h"
#include "common/bit_util.h"
#include "common/random.h"
#include "encoding/dictionary.h"
#include "encoding/for.h"
#include "test_util.h"

namespace corra {
namespace {

// The paper's Fig. 3 example: (city, zip-code) rows of the DMV dataset.
struct Fig3Data {
  // city codes: 0=Cortland, 1=Naples, 2=NYC
  std::vector<int64_t> city = {0, 1, 1, 1, 2, 2};
  std::vector<int64_t> zip = {13045, 34102, 34112, 34102, 10016, 10001};
};

struct Bound {
  std::unique_ptr<enc::ForColumn> ref;
  std::unique_ptr<HierarchicalColumn> hier;
};

Bound MakeBound(const std::vector<int64_t>& target,
                const std::vector<int64_t>& ref_codes) {
  Bound b;
  auto ref = enc::ForColumn::Encode(ref_codes);
  EXPECT_TRUE(ref.ok());
  b.ref = std::move(ref).value();
  auto hier = HierarchicalColumn::Encode(target, ref_codes, 0);
  EXPECT_TRUE(hier.ok()) << hier.status().ToString();
  b.hier = std::move(hier).value();
  const enc::EncodedColumn* refs[] = {b.ref.get()};
  EXPECT_TRUE(b.hier->BindReferences(refs).ok());
  return b;
}

TEST(HierarchicalTest, PaperFig3Example) {
  Fig3Data data;
  auto b = MakeBound(data.zip, data.city);
  test::ExpectColumnMatches(*b.hier, data.zip);
  // Metadata: 5 distinct (city, zip) pairs; 3 cities.
  EXPECT_EQ(b.hier->value_count(), 5u);
  EXPECT_EQ(b.hier->ref_cardinality(), 3u);
  // Max local dictionary holds 2 zips -> 1 bit per row.
  EXPECT_EQ(b.hier->bit_width(), 1);
  EXPECT_TRUE(b.hier->VerifyWithReference().ok());
}

TEST(HierarchicalTest, RepeatedPairSharesLocalCode) {
  // (Naples, 34102) appears twice; both rows must carry the same local
  // index (the paper's "key insight" on repetition).
  Fig3Data data;
  auto b = MakeBound(data.zip, data.city);
  EXPECT_EQ(b.hier->Get(1), 34102);
  EXPECT_EQ(b.hier->Get(3), 34102);
}

TEST(HierarchicalTest, SingleCityDegenerate) {
  const std::vector<int64_t> city(100, 0);
  std::vector<int64_t> zip(100);
  Rng rng(1);
  for (auto& z : zip) {
    z = 10000 + rng.Uniform(0, 15);
  }
  auto b = MakeBound(zip, city);
  test::ExpectColumnMatches(*b.hier, zip);
  EXPECT_EQ(b.hier->ref_cardinality(), 1u);
}

TEST(HierarchicalTest, FunctionalDependencyNeedsZeroBits) {
  // One zip per city: local index always 0.
  std::vector<int64_t> city(1000);
  std::vector<int64_t> zip(1000);
  Rng rng(2);
  for (size_t i = 0; i < city.size(); ++i) {
    city[i] = rng.Uniform(0, 49);
    zip[i] = 90000 + city[i];
  }
  auto b = MakeBound(zip, city);
  EXPECT_EQ(b.hier->bit_width(), 0);
  test::ExpectColumnMatches(*b.hier, zip);
}

TEST(HierarchicalTest, RejectsNegativeRefCodes) {
  const std::vector<int64_t> city = {0, -1};
  const std::vector<int64_t> zip = {1, 2};
  EXPECT_FALSE(HierarchicalColumn::Encode(zip, city, 0).ok());
  EXPECT_EQ(HierarchicalColumn::EstimateSizeBytes(zip, city), SIZE_MAX);
}

TEST(HierarchicalTest, RejectsLengthMismatch) {
  const std::vector<int64_t> city = {0, 1};
  const std::vector<int64_t> zip = {1};
  EXPECT_FALSE(HierarchicalColumn::Encode(zip, city, 0).ok());
}

TEST(HierarchicalTest, GapsInRefCodesGetEmptySlices) {
  // Codes {0, 5}: cities 1-4 never occur but still need offsets slots.
  const std::vector<int64_t> city = {0, 5, 0, 5};
  const std::vector<int64_t> zip = {11, 22, 11, 33};
  auto b = MakeBound(zip, city);
  EXPECT_EQ(b.hier->ref_cardinality(), 6u);
  test::ExpectColumnMatches(*b.hier, zip);
}

TEST(HierarchicalTest, SizeBytesAccountsMetadata) {
  Fig3Data data;
  auto b = MakeBound(data.zip, data.city);
  // payload: 6 rows * 1 bit = 1 byte; values: 5 * 8; offsets: 4 * 4.
  EXPECT_EQ(b.hier->SizeBytes(), 1u + 40u + 16u);
}

TEST(HierarchicalTest, EstimateMatchesActual) {
  Rng rng(3);
  std::vector<int64_t> city(5000);
  std::vector<int64_t> zip(5000);
  for (size_t i = 0; i < city.size(); ++i) {
    city[i] = rng.Uniform(0, 199);
    zip[i] = city[i] * 100 + rng.Uniform(0, 30);
  }
  auto col = HierarchicalColumn::Encode(zip, city, 0);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(HierarchicalColumn::EstimateSizeBytes(zip, city),
            col.value()->SizeBytes());
}

TEST(HierarchicalTest, BeatsDictWhenLocallySmall) {
  // 200 cities x up to 32 zips = ~6400 distinct zips (13 dict bits), but
  // only 5 bits of local index.
  Rng rng(4);
  std::vector<int64_t> city(20000);
  std::vector<int64_t> zip(20000);
  for (size_t i = 0; i < city.size(); ++i) {
    city[i] = rng.Uniform(0, 199);
    zip[i] = city[i] * 1000 + rng.Uniform(0, 31);
  }
  auto hier = HierarchicalColumn::Encode(zip, city, 0);
  ASSERT_TRUE(hier.ok());
  auto dict = enc::DictColumn::Encode(zip);
  ASSERT_TRUE(dict.ok());
  EXPECT_LT(hier.value()->SizeBytes(), dict.value()->SizeBytes());
}

TEST(HierarchicalTest, SerializeRoundTrip) {
  Rng rng(5);
  std::vector<int64_t> city(3000);
  std::vector<int64_t> zip(3000);
  for (size_t i = 0; i < city.size(); ++i) {
    city[i] = rng.Uniform(0, 99);
    zip[i] = 10000 + city[i] * 50 + rng.Uniform(0, 20);
  }
  auto b = MakeBound(zip, city);
  auto reloaded = test::SerializeRoundTrip(*b.hier);
  ASSERT_NE(reloaded, nullptr);
  EXPECT_EQ(reloaded->scheme(), enc::Scheme::kHierarchical);
  const enc::EncodedColumn* refs[] = {b.ref.get()};
  ASSERT_TRUE(reloaded->BindReferences(refs).ok());
  test::ExpectColumnMatches(*reloaded, zip);
  EXPECT_EQ(reloaded->SizeBytes(), b.hier->SizeBytes());
}

TEST(HierarchicalTest, GatherWithReferenceMatchesGather) {
  Rng rng(6);
  std::vector<int64_t> city(4000);
  std::vector<int64_t> zip(4000);
  for (size_t i = 0; i < city.size(); ++i) {
    city[i] = rng.Uniform(0, 30);
    zip[i] = city[i] * 10 + rng.Uniform(0, 9);
  }
  auto b = MakeBound(zip, city);
  std::vector<uint32_t> rows;
  for (uint32_t i = 1; i < 4000; i += 11) {
    rows.push_back(i);
  }
  std::vector<int64_t> ref_values(rows.size());
  b.ref->GatherRange(rows, ref_values.data());
  std::vector<int64_t> via_ref(rows.size());
  b.hier->GatherWithReference(rows, ref_values.data(), via_ref.data());
  std::vector<int64_t> direct(rows.size());
  b.hier->GatherRange(rows, direct.data());
  EXPECT_EQ(via_ref, direct);
}

TEST(HierarchicalTest, OffsetsMonotoneInvariant) {
  // Deserializer must reject non-monotone offsets.
  Fig3Data data;
  auto b = MakeBound(data.zip, data.city);
  BufferWriter writer;
  b.hier->Serialize(&writer);
  auto bytes = std::move(writer).Finish();
  // Offsets follow the values array: scheme(1) + ref(4) + len(8) + 5*8
  // values + len(8), then 4 uint32 offsets {0,1,3,5}. Corrupt the second.
  const size_t offsets_data = 1 + 4 + 8 + 40 + 8;
  bytes[offsets_data + 4] = 0xEE;
  BufferReader reader(bytes);
  auto result = DeserializeEncodedColumn(&reader);
  EXPECT_FALSE(result.ok());
}

TEST(HierarchicalTest, VerifyCatchesOutOfRangeRefCode) {
  // Bind a reference whose codes exceed the metadata's cardinality.
  Fig3Data data;
  auto hier = HierarchicalColumn::Encode(data.zip, data.city, 0);
  ASSERT_TRUE(hier.ok());
  const std::vector<int64_t> bad_codes = {0, 1, 1, 9, 2, 2};  // 9 >= 3.
  auto bad_ref = enc::ForColumn::Encode(bad_codes);
  ASSERT_TRUE(bad_ref.ok());
  const enc::EncodedColumn* refs[] = {bad_ref.value().get()};
  ASSERT_TRUE(hier.value()->BindReferences(refs).ok());
  EXPECT_FALSE(hier.value()->VerifyWithReference().ok());
}

// The first-seen model of Hierarchical, built with std::unordered_map:
// each reference code's local dictionary in first-seen order. The
// serialized column must carry exactly its values, offsets and packed
// local codes, and its estimate must be its size.
void ExpectFirstSeenModel(const std::vector<int64_t>& target,
                          const std::vector<int64_t>& city) {
  const int64_t refs =
      city.empty() ? 0 : *std::max_element(city.begin(), city.end()) + 1;
  std::vector<std::unordered_map<int64_t, uint32_t>> index(refs);
  std::vector<std::vector<int64_t>> local_values(refs);
  std::vector<uint64_t> local_codes(target.size());
  uint64_t max_local = 0;
  for (size_t i = 0; i < target.size(); ++i) {
    auto& map = index[city[i]];
    const auto [it, inserted] =
        map.emplace(target[i], static_cast<uint32_t>(map.size()));
    if (inserted) {
      local_values[city[i]].push_back(target[i]);
    }
    local_codes[i] = it->second;
    max_local = std::max<uint64_t>(max_local, it->second);
  }
  std::vector<int64_t> values;
  std::vector<uint32_t> offsets = {0};
  for (const auto& lv : local_values) {
    values.insert(values.end(), lv.begin(), lv.end());
    offsets.push_back(static_cast<uint32_t>(values.size()));
  }
  const int width = bit_util::BitWidth(max_local);
  BufferWriter expected;
  expected.Write<uint8_t>(static_cast<uint8_t>(enc::Scheme::kHierarchical));
  expected.Write<uint32_t>(7);
  expected.WriteInt64Array(values);
  expected.WriteUint32Array(offsets);
  expected.Write<uint8_t>(static_cast<uint8_t>(width));
  expected.Write<uint64_t>(target.size());
  PackedArray::Pack(local_codes, width).WritePayload(&expected);

  auto hier = HierarchicalColumn::Encode(target, city, 7);
  ASSERT_TRUE(hier.ok()) << hier.status().ToString();
  BufferWriter actual;
  hier.value()->Serialize(&actual);
  EXPECT_EQ(std::move(actual).Finish(), std::move(expected).Finish());
  EXPECT_EQ(HierarchicalColumn::EstimateSizeBytes(target, city),
            hier.value()->SizeBytes());
  if (!target.empty()) {
    auto b = MakeBound(target, city);
    test::ExpectColumnMatches(*b.hier, target);
  }
}

TEST(HierarchicalTest, LocalCodesMatchFirstSeenReference) {
  // Targets include the int64 extremes and keys differing only in high
  // bits, so the pairs are numbered in the hash.
  Rng rng(33);
  constexpr size_t kRows = 20000;
  constexpr int64_t kRefs = 40;
  std::vector<int64_t> city(kRows);
  std::vector<int64_t> target(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    city[i] = rng.Uniform(0, kRefs - 1);
    switch (rng.Uniform(0, 3)) {
      case 0:
        target[i] = rng.Bernoulli(0.5) ? INT64_MIN : INT64_MAX;
        break;
      case 1:
        target[i] = rng.Uniform(-20, 20) * (int64_t{1} << 40);
        break;
      default:
        target[i] = city[i] * 100 + rng.Uniform(0, 30);
    }
  }
  ExpectFirstSeenModel(target, city);
}

TEST(HierarchicalTest, BothSidesOfTheDirectTableRuleMatchFirstSeenReference) {
  // With span = max - min + 1, the pairs are numbered in a table indexed
  // by ref * span + (value - min) when cardinality * span <= 2 * rows:
  // 40 * 50 is at the bound over 1,000 rows, 41 * 49 one over it over
  // 1,004 (which then fits the per-reference table; the int64 extremes
  // take the hash). Reference codes skip every third code below the
  // largest, whose slices stay empty.
  Rng rng(34);
  // `rows` rows under `cardinality` reference codes whose targets lie in
  // [lo, lo + max_offset], both ends present; each reference draws from
  // its own window of `fanout` values when fanout is nonzero.
  const auto make = [&](size_t rows, int64_t cardinality, int64_t lo,
                        uint64_t max_offset, int64_t fanout) {
    std::pair<std::vector<int64_t>, std::vector<int64_t>> tc;
    auto& [target, city] = tc;
    for (size_t i = 0; i < rows; ++i) {
      int64_t ref = rng.Uniform(0, cardinality - 1);
      if (ref % 3 == 1) {
        ref = cardinality - 1;
      }
      uint64_t offset = rng.Next();
      if (fanout != 0) {
        offset = static_cast<uint64_t>(ref * fanout +
                                       rng.Uniform(0, fanout - 1));
      }
      if (max_offset != UINT64_MAX) {
        offset %= max_offset + 1;
      }
      city.push_back(ref);
      target.push_back(static_cast<int64_t>(static_cast<uint64_t>(lo) +
                                            offset));
    }
    city.front() = cardinality - 1;
    target.front() = lo;
    target.back() =
        static_cast<int64_t>(static_cast<uint64_t>(lo) + max_offset);
    return tc;
  };
  const struct {
    std::string name;
    std::pair<std::vector<int64_t>, std::vector<int64_t>> tc;
  } cases[] = {
      {"at the bound", make(1000, 40, -300, 49, 0)},
      {"one over", make(1004, 41, -300, 48, 0)},
      {"dmv zip under city", make(27000, 60, 0, 899, 15)},
      {"constant target", make(500, 7, 123, 0, 0)},
      {"narrow at INT64_MAX", make(3000, 20, INT64_MAX - 99, 99, 0)},
      {"narrow at INT64_MIN", make(3000, 20, INT64_MIN, 99, 0)},
      {"int64 extremes", make(3000, 20, INT64_MIN, UINT64_MAX, 0)},
      {"one reference", make(300, 1, 5, 599, 0)},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    ExpectFirstSeenModel(c.tc.first, c.tc.second);
  }
  ExpectFirstSeenModel({}, {});
}

TEST(HierarchicalTest, PerReferenceTablesMatchFirstSeenReference) {
  // When the global span rule fails, each reference code's own span is
  // taken: if they sum to at most 2 * rows, the pairs are numbered in a
  // table of per-reference slices, and in the hash otherwise. The model
  // cannot tell the paths apart, so every case must give the same bytes.
  Rng rng(35);
  // `rows` rows spread over the references of `pools`, each row drawing
  // its target from its reference's [base, base + span - 1] skewed
  // toward the base; each pool's first two rows hold both ends.
  struct Pool {
    int64_t ref;
    int64_t base;
    uint64_t span;
  };
  const auto make = [&](size_t rows, const std::vector<Pool>& pools) {
    std::pair<std::vector<int64_t>, std::vector<int64_t>> tc;
    auto& [target, city] = tc;
    for (size_t i = 0; i < rows; ++i) {
      const Pool& pool =
          i < 2 * pools.size()
              ? pools[i / 2]
              : pools[static_cast<size_t>(rng.Uniform(
                    0, static_cast<int64_t>(pools.size()) - 1))];
      uint64_t offset = pool.span - 1;
      if (i >= 2 * pools.size()) {
        const double u = rng.NextDouble();
        offset = static_cast<uint64_t>(u * u * static_cast<double>(offset));
      } else if (i % 2 == 0) {
        offset = 0;
      }
      city.push_back(pool.ref);
      target.push_back(
          static_cast<int64_t>(static_cast<uint64_t>(pool.base) + offset));
    }
    return tc;
  };
  // LDBC's ip: 111 countries whose dense pools sit 38M apart, a global
  // span near 2^32; the pools sum to 8,833 slots over 20,000 rows.
  std::vector<Pool> ldbc;
  for (int64_t c = 0; c < 111; ++c) {
    ldbc.push_back({c, c * 38'000'000 + 16'777'216,
                    static_cast<uint64_t>(30 + (c * 37) % 101)});
  }
  // Four references 1e9 apart whose spans sum to exactly 2 * 1,000 rows
  // (table), or to one more (hash).
  const std::vector<Pool> at_bound = {{0, 0, 500},
                                      {1, 1'000'000'000, 500},
                                      {2, 2'000'000'000, 500},
                                      {3, 3'000'000'000, 500}};
  std::vector<Pool> one_over = at_bound;
  one_over[2].span = 501;
  const struct {
    std::string name;
    std::pair<std::vector<int64_t>, std::vector<int64_t>> tc;
  } cases[] = {
      {"ldbc ip", make(20000, ldbc)},
      {"spans sum to 2 * rows", make(1000, at_bound)},
      {"spans sum to 2 * rows + 1", make(1000, one_over)},
      {"codes with gaps", make(2000, {{0, -5'000'000'000, 40},
                                      {3, 7, 25},
                                      {9, 1'000'000'000'000, 60}})},
      {"one reference spans int64",
       make(3000, {{0, 100, 20}, {1, INT64_MIN, UINT64_MAX}, {2, -50, 30}})},
      {"pools at both int64 extremes",
       make(3000, {{0, INT64_MIN, 50}, {1, 0, 10}, {2, INT64_MAX - 49, 50}})},
      // One row takes the global rule under codes 0 and 1, and the hash
      // under code 5 (more codes than 2 * rows).
      {"single row, code 0", make(1, {{0, INT64_MAX, 1}})},
      {"single row, code 1", make(1, {{1, INT64_MIN, 1}})},
      {"single row, code 5", make(1, {{5, 42, 1}})},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    ExpectFirstSeenModel(c.tc.first, c.tc.second);
  }
}

// Property sweep: hierarchical reconstruction is exact for random
// hierarchies of varying fan-out.
class HierarchicalPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(HierarchicalPropertyTest, ExactReconstruction) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Rng rng(seed);
  const size_t n = 1000 + static_cast<size_t>(rng.Uniform(0, 3000));
  const int64_t cities = rng.Uniform(1, 300);
  const int64_t fanout = rng.Uniform(1, 60);
  std::vector<int64_t> city(n);
  std::vector<int64_t> zip(n);
  for (size_t i = 0; i < n; ++i) {
    city[i] = rng.Uniform(0, cities - 1);
    zip[i] = city[i] * 1000 + rng.Uniform(0, fanout - 1);
  }
  auto b = MakeBound(zip, city);
  test::ExpectColumnMatches(*b.hier, zip);
  EXPECT_TRUE(b.hier->VerifyWithReference().ok());
  // The local width is bounded by the fan-out.
  EXPECT_LE(b.hier->bit_width(),
            bit_util::BitWidth(static_cast<uint64_t>(fanout)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, HierarchicalPropertyTest,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace corra
