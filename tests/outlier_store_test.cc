#include "core/outlier_store.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace corra {
namespace {

TEST(OutlierStoreTest, EmptyStore) {
  OutlierStore store;
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.SizeBytes(), 0u);
  EXPECT_FALSE(store.Find(0).has_value());
}

TEST(OutlierStoreTest, BuildAndFind) {
  const std::vector<uint32_t> rows = {1, 5, 100};
  const std::vector<int64_t> values = {-7, 9000, 42};
  auto result = OutlierStore::Build(rows, values);
  ASSERT_TRUE(result.ok());
  auto& store = result.value();
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.Find(1), -7);
  EXPECT_EQ(store.Find(5), 9000);
  EXPECT_EQ(store.Find(100), 42);
  EXPECT_FALSE(store.Find(0).has_value());
  EXPECT_FALSE(store.Find(6).has_value());
  EXPECT_FALSE(store.Find(101).has_value());
  EXPECT_TRUE(store.Contains(5));
  EXPECT_FALSE(store.Contains(4));
}

TEST(OutlierStoreTest, RejectsUnsortedRows) {
  const std::vector<uint32_t> rows = {5, 1};
  const std::vector<int64_t> values = {1, 2};
  EXPECT_FALSE(OutlierStore::Build(rows, values).ok());
}

TEST(OutlierStoreTest, RejectsDuplicateRows) {
  const std::vector<uint32_t> rows = {5, 5};
  const std::vector<int64_t> values = {1, 2};
  EXPECT_FALSE(OutlierStore::Build(rows, values).ok());
}

TEST(OutlierStoreTest, RejectsLengthMismatch) {
  const std::vector<uint32_t> rows = {1, 2};
  const std::vector<int64_t> values = {1};
  EXPECT_FALSE(OutlierStore::Build(rows, values).ok());
}

TEST(OutlierStoreTest, PatchOverwritesOnlyOutlierPositions) {
  auto result = OutlierStore::Build(std::vector<uint32_t>{2, 6, 9},
                                    std::vector<int64_t>{-1, -2, -3});
  ASSERT_TRUE(result.ok());
  auto& store = result.value();

  // Repeated positions are patched at every copy.
  const std::vector<uint32_t> selection = {0, 2, 2, 3, 6, 6, 6, 8};
  std::vector<int64_t> out = {10, 20, 21, 30, 40, 41, 42, 50};
  store.Patch(selection, out.data());
  EXPECT_EQ(out, (std::vector<int64_t>{10, -1, -1, 30, -2, -2, -2, 50}));
}

TEST(OutlierStoreTest, PatchWithEmptySelectionOrStore) {
  OutlierStore empty;
  std::vector<int64_t> out = {1, 2};
  const std::vector<uint32_t> sel = {0, 1};
  empty.Patch(sel, out.data());
  EXPECT_EQ(out, (std::vector<int64_t>{1, 2}));

  auto store = OutlierStore::Build(std::vector<uint32_t>{3},
                                   std::vector<int64_t>{9});
  ASSERT_TRUE(store.ok());
  store.value().Patch({}, nullptr);  // Must not crash.
}

TEST(OutlierStoreTest, PatchSelectionDisjointFromOutliers) {
  auto store = OutlierStore::Build(std::vector<uint32_t>{100, 200},
                                   std::vector<int64_t>{1, 2});
  ASSERT_TRUE(store.ok());
  const std::vector<uint32_t> sel = {0, 50, 150, 300};
  std::vector<int64_t> out = {7, 7, 7, 7};
  store.value().Patch(sel, out.data());
  EXPECT_EQ(out, (std::vector<int64_t>{7, 7, 7, 7}));
}

TEST(OutlierStoreTest, ValuesArePackedNotRaw) {
  // 1000 outliers with values in a 256-wide window: 8 bits each, far less
  // than 8 bytes each.
  std::vector<uint32_t> rows(1000);
  std::vector<int64_t> values(1000);
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i] = static_cast<uint32_t>(i * 3);
    values[i] = 100000 + static_cast<int64_t>(i % 256);
  }
  auto result = OutlierStore::Build(rows, values);
  ASSERT_TRUE(result.ok());
  // 4 bytes index + 1 byte packed value + base.
  EXPECT_LE(result.value().SizeBytes(), 1000 * 5 + 8 + 16);
}

TEST(OutlierStoreTest, SerializeRoundTrip) {
  Rng rng(7);
  std::vector<uint32_t> rows;
  std::vector<int64_t> values;
  uint32_t row = 0;
  for (int i = 0; i < 500; ++i) {
    row += static_cast<uint32_t>(rng.Uniform(1, 100));
    rows.push_back(row);
    values.push_back(rng.Uniform(-100000, 100000));
  }
  auto built = OutlierStore::Build(rows, values);
  ASSERT_TRUE(built.ok());

  BufferWriter writer;
  built.value().Serialize(&writer);
  auto bytes = std::move(writer).Finish();
  BufferReader reader(bytes);
  auto reloaded = OutlierStore::Deserialize(&reader);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ASSERT_EQ(reloaded.value().size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(reloaded.value().row(i), rows[i]);
    EXPECT_EQ(reloaded.value().value(i), values[i]);
  }
}

TEST(OutlierStoreTest, DeserializeRejectsUnsortedRows) {
  auto built = OutlierStore::Build(std::vector<uint32_t>{1, 2},
                                   std::vector<int64_t>{10, 20});
  ASSERT_TRUE(built.ok());
  BufferWriter writer;
  built.value().Serialize(&writer);
  auto bytes = std::move(writer).Finish();
  // Row array entries start right after the 8-byte length prefix; swap
  // them to break ordering.
  std::swap(bytes[8], bytes[12]);
  std::swap(bytes[9], bytes[13]);
  std::swap(bytes[10], bytes[14]);
  std::swap(bytes[11], bytes[15]);
  BufferReader reader(bytes);
  EXPECT_FALSE(OutlierStore::Deserialize(&reader).ok());
}

TEST(OutlierStoreTest, NegativeAndExtremeValues) {
  const std::vector<uint32_t> rows = {0, 1, 2};
  const std::vector<int64_t> values = {INT64_MIN / 2, 0, INT64_MAX / 2};
  auto result = OutlierStore::Build(rows, values);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().Find(0), INT64_MIN / 2);
  EXPECT_EQ(result.value().Find(1), 0);
  EXPECT_EQ(result.value().Find(2), INT64_MAX / 2);
}

}  // namespace
}  // namespace corra
