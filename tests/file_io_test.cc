// File persistence: write/read round-trips, partial block loads,
// corruption rejection, legacy (v2/v3) files, write failures.

#include "storage/file_io.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "common/buffer.h"
#include "common/failpoint.h"
#include "common/random.h"
#include "common/simd/simd.h"
#include "core/corra_compressor.h"
#include "query/aggregate.h"
#include "test_util.h"

namespace corra {
namespace {

class FileIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "corra_file_io_test.corf";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  // A 3-block compressed table with a diff-encoded column.
  CompressedTable MakeTable(size_t rows = 2500) {
    Rng rng(7);
    std::vector<int64_t> ship(rows);
    std::vector<int64_t> receipt(rows);
    for (size_t i = 0; i < rows; ++i) {
      ship[i] = rng.Uniform(8035, 10591);
      receipt[i] = ship[i] + rng.Uniform(1, 30);
    }
    ship_ = ship;
    receipt_ = receipt;
    Table table;
    EXPECT_TRUE(table.AddColumn(Column::Date("ship", ship)).ok());
    EXPECT_TRUE(table.AddColumn(Column::Date("receipt", receipt)).ok());
    CompressionPlan plan = CompressionPlan::AllAuto(2);
    plan.block_rows = 1000;
    plan.columns[1].auto_vertical = false;
    plan.columns[1].scheme = enc::Scheme::kDiff;
    plan.columns[1].reference = 0;
    return CorraCompressor::Compress(table, plan).value();
  }

  // Writes MakeTable()'s table as CORF `version`: 4 through
  // WriteCompressedTable, 2 or 3 through the legacy fixture writer.
  void WriteVersion(uint8_t version) {
    const CompressedTable table = MakeTable();
    if (version == 4) {
      ASSERT_TRUE(WriteCompressedTable(table, path_).ok());
    } else {
      test::WriteCompressedTableLegacy(table, path_, version);
    }
  }

  // Overwrites the bytes at `offset` of the file.
  void Patch(uint64_t offset, const void* bytes, size_t size) {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<long>(offset));
    f.write(static_cast<const char*>(bytes), static_cast<long>(size));
  }

  // XORs the byte at `offset` of the file with 0x40.
  void FlipByte(uint64_t offset) {
    char byte = 0;
    {
      std::ifstream in(path_, std::ios::binary);
      in.seekg(static_cast<long>(offset));
      in.read(&byte, 1);
    }
    byte = static_cast<char>(byte ^ 0x40);
    Patch(offset, &byte, 1);
  }

  std::string path_;
  std::vector<int64_t> ship_;
  std::vector<int64_t> receipt_;
};

std::string Hex64(uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, value);
  return buf;
}

// File offset of block `b`'s directory checksum slot. The directory's
// 32-byte entries (offset, length, rows, checksum) are followed by the
// stats section (16 bytes per block and column, v3+), and the first
// payload starts right after that.
uint64_t ChecksumSlotOffset(const FileInfo& info, size_t b) {
  const uint64_t stats_bytes =
      info.has_column_stats ? info.num_blocks * info.schema.num_fields() * 16
                            : 0;
  const uint64_t directory =
      info.block_offsets[0] - stats_bytes - info.num_blocks * 32;
  return directory + b * 32 + 24;
}

TEST_F(FileIoTest, WriteReadRoundTrip) {
  const CompressedTable table = MakeTable();
  ASSERT_TRUE(WriteCompressedTable(table, path_).ok());
  auto reloaded = ReadCompressedTable(path_, /*verify=*/true);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded.value().num_blocks(), 3u);
  EXPECT_EQ(reloaded.value().num_rows(), 2500u);
  EXPECT_EQ(reloaded.value().schema(), table.schema());
  EXPECT_EQ(reloaded.value().DecodeColumn(1), receipt_);
}

TEST_F(FileIoTest, FileInfoWithoutPayload) {
  const CompressedTable table = MakeTable();
  ASSERT_TRUE(WriteCompressedTable(table, path_).ok());
  auto info = ReadFileInfo(path_);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().num_blocks, 3u);
  EXPECT_EQ(info.value().schema.num_fields(), 2u);
  EXPECT_EQ(info.value().schema.field(1).name, "receipt");
  // Directory entries are contiguous and ordered.
  for (size_t b = 1; b < info.value().num_blocks; ++b) {
    EXPECT_EQ(info.value().block_offsets[b],
              info.value().block_offsets[b - 1] +
                  info.value().block_lengths[b - 1]);
  }
}

TEST_F(FileIoTest, SingleBlockLoad) {
  const CompressedTable table = MakeTable();
  ASSERT_TRUE(WriteCompressedTable(table, path_).ok());
  auto block = ReadBlock(path_, 1, /*verify=*/true);
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  EXPECT_EQ(block.value().rows(), 1000u);
  // Block 1 covers global rows 1000..1999.
  for (size_t i = 0; i < 1000; i += 97) {
    EXPECT_EQ(block.value().column(1).Get(i), receipt_[1000 + i]);
  }
}

TEST_F(FileIoTest, BlockIndexOutOfRange) {
  ASSERT_TRUE(WriteCompressedTable(MakeTable(), path_).ok());
  auto block = ReadBlock(path_, 3);
  EXPECT_FALSE(block.ok());
  EXPECT_TRUE(block.status().IsOutOfRange());
}

TEST_F(FileIoTest, MissingFileIsNotFound) {
  auto result = ReadCompressedTable(path_ + ".does-not-exist");
  EXPECT_TRUE(result.status().IsNotFound());
  EXPECT_TRUE(ReadFileInfo(path_ + ".nope").status().IsNotFound());
}

TEST_F(FileIoTest, BadMagicRejected) {
  ASSERT_TRUE(WriteCompressedTable(MakeTable(), path_).ok());
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.write("XXXX", 4);
  }
  EXPECT_TRUE(ReadCompressedTable(path_).status().IsCorruption());
}

TEST_F(FileIoTest, TruncatedFileRejected) {
  ASSERT_TRUE(WriteCompressedTable(MakeTable(), path_).ok());
  std::ifstream in(path_, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  // Cut the last block's payload short.
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(contents.data(),
            static_cast<long>(contents.size() - 100));
  out.close();
  auto result = ReadCompressedTable(path_);
  EXPECT_FALSE(result.ok());
}

TEST_F(FileIoTest, CorruptedBlockPayloadRejected) {
  const CompressedTable table = MakeTable();
  ASSERT_TRUE(WriteCompressedTable(table, path_).ok());
  auto info = ReadFileInfo(path_);
  ASSERT_TRUE(info.ok());
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<long>(info.value().block_offsets[1]));
    f.write("\xFF\xFF\xFF\xFF", 4);  // Smash block 1's magic.
  }
  EXPECT_FALSE(ReadBlock(path_, 1).ok());
  EXPECT_TRUE(ReadBlock(path_, 0).ok());  // Other blocks unaffected.
}

TEST_F(FileIoTest, OverwriteReplacesContents) {
  ASSERT_TRUE(WriteCompressedTable(MakeTable(2500), path_).ok());
  // Rebuild with different data; the file must reflect the second write.
  Rng rng(99);
  std::vector<int64_t> values(100);
  for (auto& v : values) {
    v = rng.Uniform(0, 9);
  }
  Table small;
  ASSERT_TRUE(small.AddColumn(Column::Int64("only", values)).ok());
  auto compressed =
      CorraCompressor::Compress(small, CompressionPlan::AllAuto(1));
  ASSERT_TRUE(compressed.ok());
  ASSERT_TRUE(WriteCompressedTable(compressed.value(), path_).ok());
  auto reloaded = ReadCompressedTable(path_);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded.value().num_rows(), 100u);
  EXPECT_EQ(reloaded.value().schema().field(0).name, "only");
}

TEST_F(FileIoTest, DirectoryCarriesRowCountsAndChecksums) {
  ASSERT_TRUE(WriteCompressedTable(MakeTable(), path_).ok());
  auto info = ReadFileInfo(path_);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().block_rows,
            (std::vector<uint64_t>{1000, 1000, 500}));
  EXPECT_EQ(info.value().TotalRows(), 2500u);
  ASSERT_EQ(info.value().block_checksums.size(), 3u);
  // Distinct payloads hash to distinct checksums.
  EXPECT_NE(info.value().block_checksums[0],
            info.value().block_checksums[2]);
  // A v4 slot holds the payload's CRC32C, zero-extended.
  EXPECT_EQ(info.value().version, 4);
  EXPECT_STREQ(info.value().ChecksumName(), "CRC32C");
  auto file = CorfFile::Open(path_);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  for (size_t b = 0; b < 3; ++b) {
    auto bytes = file.value().ReadBlockBytes(b);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    EXPECT_EQ(info.value().block_checksums[b],
              uint64_t{simd::Crc32c(bytes.value().data(),
                                    bytes.value().size())})
        << "block " << b;
  }
}

TEST_F(FileIoTest, V3StatsMatchAggregatePushdown) {
  const CompressedTable table = MakeTable();
  ASSERT_TRUE(WriteCompressedTable(table, path_).ok());
  auto info = ReadFileInfo(path_);
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE(info.value().has_column_stats);
  ASSERT_EQ(info.value().column_stats.size(),
            table.num_blocks() * table.schema().num_fields());
  for (size_t b = 0; b < table.num_blocks(); ++b) {
    for (size_t c = 0; c < table.schema().num_fields(); ++c) {
      const ColumnStats& stats = info.value().Stats(b, c);
      const auto mm = query::MinMaxColumn(table.block(b).column(c));
      ASSERT_TRUE(mm.has_value());
      EXPECT_EQ(stats.min, mm->min) << "block " << b << " col " << c;
      EXPECT_EQ(stats.max, mm->max) << "block " << b << " col " << c;
      EXPECT_LE(stats.min, stats.max);
    }
  }
}

TEST_F(FileIoTest, V2FilesRemainReadableWithoutStats) {
  WriteVersion(2);
  auto info = ReadFileInfo(path_);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_FALSE(info.value().has_column_stats);
  EXPECT_TRUE(info.value().column_stats.empty());
  EXPECT_EQ(info.value().TotalRows(), 2500u);

  // Payloads are identical across versions; v2 checksums them with
  // FNV-1a, which the reader still verifies.
  auto reloaded = ReadCompressedTable(path_, /*verify=*/true);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded.value().DecodeColumn(0), ship_);
  EXPECT_EQ(reloaded.value().DecodeColumn(1), receipt_);
}

TEST_F(FileIoTest, LegacyFilesOpenAndVerifyWithFnv1a) {
  for (const uint8_t version : {uint8_t{2}, uint8_t{3}}) {
    SCOPED_TRACE("v" + std::to_string(version));
    WriteVersion(version);
    auto file = CorfFile::Open(path_);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    const FileInfo& info = file.value().info();
    EXPECT_EQ(info.version, version);
    EXPECT_STREQ(info.ChecksumName(), "FNV-1a");
    EXPECT_EQ(info.has_column_stats, version >= 3);
    for (size_t b = 0; b < file.value().num_blocks(); ++b) {
      auto bytes = file.value().ReadBlockBytes(b);
      ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
      EXPECT_EQ(info.block_checksums[b], test::Fnv1a64(bytes.value().span()));
      BlockReadStats stats;
      auto block = file.value().ReadBlock(b, /*verify=*/true, &stats);
      ASSERT_TRUE(block.ok()) << block.status().ToString();
      EXPECT_EQ(stats.checksum_rereads, 0u);
    }
    auto reloaded = ReadCompressedTable(path_, /*verify=*/true);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
    EXPECT_EQ(reloaded.value().DecodeColumn(1), receipt_);
  }
}

TEST_F(FileIoTest, V4ChecksumSlotWithHighBitsSetIsCorruption) {
  // The slot is 8 bytes wide and a CRC32C fills the low 4: a nonzero
  // high half can match no payload.
  WriteVersion(4);
  auto info = ReadFileInfo(path_);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  const uint64_t slot = ChecksumSlotOffset(info.value(), 1);
  const uint64_t crc = info.value().block_checksums[1];
  ASSERT_LT(crc, uint64_t{1} << 32);
  const uint64_t damaged = crc | (uint64_t{1} << 40);
  Patch(slot, &damaged, sizeof(damaged));

  auto file = CorfFile::Open(path_);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_EQ(file.value().info().block_checksums[1], damaged);
  EXPECT_TRUE(file.value().ReadBlock(1).ok());  // Unverified: not checked.
  BlockReadStats stats;
  auto block = file.value().ReadBlock(1, /*verify=*/true, &stats);
  ASSERT_FALSE(block.ok());
  EXPECT_TRUE(block.status().IsCorruption());
  EXPECT_EQ(stats.checksum_rereads, 1u);
  const std::string& message = block.status().message();
  EXPECT_NE(message.find("expected " + Hex64(damaged)), std::string::npos)
      << message;
  EXPECT_NE(message.find("actual " + Hex64(crc)), std::string::npos)
      << message;
  EXPECT_TRUE(file.value().ReadBlock(0, /*verify=*/true).ok());
}

TEST_F(FileIoTest, NewerVersionIsRejected) {
  WriteVersion(4);
  const uint8_t version = 5;
  Patch(4, &version, 1);  // The byte after the magic.
  auto info = ReadFileInfo(path_);
  ASSERT_TRUE(info.status().IsCorruption()) << info.status().ToString();
  EXPECT_NE(info.status().message().find("version 5"), std::string::npos)
      << info.status().message();
  EXPECT_TRUE(ReadCompressedTable(path_).status().IsCorruption());
}

TEST_F(FileIoTest, TruncatedHeaderRejected) {
  ASSERT_TRUE(WriteCompressedTable(MakeTable(), path_).ok());
  std::ifstream in(path_, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  // Keep only the first 8 bytes — magic survives, the directory is gone.
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), 8);
  out.close();
  EXPECT_TRUE(ReadFileInfo(path_).status().IsCorruption());
  EXPECT_TRUE(ReadCompressedTable(path_).status().IsCorruption());
}

TEST_F(FileIoTest, CorruptedDirectoryEntryRejected) {
  // Handcraft a header whose only directory entry points far beyond the
  // end of the file.
  BufferWriter writer;
  writer.Write<uint32_t>(0x46524F43);  // "CORF"
  writer.Write<uint8_t>(2);            // Version.
  writer.Write<uint32_t>(0);           // No fields.
  writer.Write<uint32_t>(1);           // One block...
  writer.Write<uint64_t>(uint64_t{1} << 40);  // ...at a bogus offset.
  writer.Write<uint64_t>(16);                 // Length.
  writer.Write<uint64_t>(100);                // Rows.
  writer.Write<uint64_t>(0);                  // Checksum.
  const std::vector<uint8_t> bytes = std::move(writer).Finish();
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<long>(bytes.size()));
  out.close();

  auto info = ReadFileInfo(path_);
  EXPECT_TRUE(info.status().IsCorruption());
  EXPECT_NE(info.status().message().find("out of bounds"),
            std::string::npos);
}

TEST_F(FileIoTest, VerifyCatchesFlippedPayloadByte) {
  // One flipped byte in the middle of block 1's payload fails its
  // checksum (FNV-1a in v3, CRC32C in v4) and, after exactly one
  // re-read, is Corruption naming the stored and the computed value.
  for (const uint8_t version : {uint8_t{3}, uint8_t{4}}) {
    SCOPED_TRACE("v" + std::to_string(version));
    WriteVersion(version);
    auto info = ReadFileInfo(path_);
    ASSERT_TRUE(info.ok());
    FlipByte(info.value().block_offsets[1] +
             info.value().block_lengths[1] / 2);

    auto file = CorfFile::Open(path_);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    auto damaged = file.value().ReadBlockBytes(1);
    ASSERT_TRUE(damaged.ok()) << damaged.status().ToString();
    const SharedBuffer& bytes = damaged.value();
    const uint64_t actual =
        version == 4 ? uint64_t{simd::Crc32c(bytes.data(), bytes.size())}
                     : test::Fnv1a64(bytes.span());
    const uint64_t expected = info.value().block_checksums[1];
    ASSERT_NE(actual, expected);

    BlockReadStats stats;
    auto block = file.value().ReadBlock(1, /*verify=*/true, &stats);
    ASSERT_FALSE(block.ok());
    EXPECT_TRUE(block.status().IsCorruption());
    EXPECT_EQ(stats.checksum_rereads, 1u);
    const std::string& message = block.status().message();
    EXPECT_NE(message.find(version == 4 ? "(CRC32C)" : "(FNV-1a)"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("expected " + Hex64(expected)), std::string::npos)
        << message;
    EXPECT_NE(message.find("actual " + Hex64(actual)), std::string::npos)
        << message;
    EXPECT_FALSE(ReadCompressedTable(path_, /*verify=*/true).ok());
    // Untouched blocks still verify.
    EXPECT_TRUE(ReadBlock(path_, 0, /*verify=*/true).ok());
  }
}

TEST_F(FileIoTest, WriteToAFullDeviceIsIOErrorNamingIt) {
  // A 10-row table fits stdio's buffer, so the error arrives at close;
  // MakeTable's 2,500 rows overflow it and fail inside fwrite.
  for (const size_t rows : {size_t{10}, size_t{2500}}) {
    SCOPED_TRACE(std::to_string(rows) + " rows");
    const Status written = WriteCompressedTable(MakeTable(rows), "/dev/full");
    ASSERT_TRUE(written.IsIOError()) << written.ToString();
    EXPECT_NE(written.message().find("'/dev/full'"), std::string::npos)
        << written.message();
    EXPECT_NE(written.message().find(std::strerror(ENOSPC)),
              std::string::npos)
        << written.message();
  }
}

TEST_F(FileIoTest, WriteUnderAMissingDirectoryIsIOError) {
  const std::string path =
      ::testing::TempDir() + "corra_no_such_dir/table.corf";
  const Status written = WriteCompressedTable(MakeTable(), path);
  ASSERT_TRUE(written.IsIOError()) << written.ToString();
  EXPECT_NE(written.message().find(path), std::string::npos)
      << written.message();
}

TEST_F(FileIoTest, CorfFileServesConcurrentBlockReads) {
  ASSERT_TRUE(WriteCompressedTable(MakeTable(), path_).ok());
  auto file = CorfFile::Open(path_);
  ASSERT_TRUE(file.ok());
  ASSERT_EQ(file.value().num_blocks(), 3u);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 8; ++round) {
        for (size_t b = 0; b < file.value().num_blocks(); ++b) {
          auto block = file.value().ReadBlock(b, /*verify=*/true);
          if (!block.ok() ||
              block.value().rows() != file.value().info().block_rows[b]) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(FileIoTest, DirectoryLargerThanProbeIsReadExactly) {
  // 3000 one-row blocks put the directory (~96 KB) past the 64 KB
  // header probe, exercising the exact-size re-read path.
  Rng rng(3);
  std::vector<int64_t> values(3000);
  for (auto& v : values) {
    v = rng.Uniform(0, 1 << 16);
  }
  Table table;
  ASSERT_TRUE(table.AddColumn(Column::Int64("v", values)).ok());
  CompressionPlan plan = CompressionPlan::AllAuto(1);
  plan.block_rows = 1;
  auto compressed = CorraCompressor::Compress(table, plan);
  ASSERT_TRUE(compressed.ok());
  ASSERT_TRUE(WriteCompressedTable(compressed.value(), path_).ok());

  auto info = ReadFileInfo(path_);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().num_blocks, 3000u);
  EXPECT_EQ(info.value().TotalRows(), 3000u);
  auto block = ReadBlock(path_, 2999, /*verify=*/true);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(block.value().column(0).Get(0), values[2999]);
}

TEST_F(FileIoTest, CorfFileRejectsOutOfRangeBlock) {
  ASSERT_TRUE(WriteCompressedTable(MakeTable(), path_).ok());
  auto file = CorfFile::Open(path_);
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE(file.value().ReadBlock(3).status().IsOutOfRange());
  EXPECT_TRUE(file.value().ReadBlockBytes(99).status().IsOutOfRange());
}

TEST(RetryBackoffTest, MonotoneThenCappedWithBoundedJitter) {
  const CorfFileOptions options;  // base 20 us, cap 2000 us.
  uint64_t prev = 0;
  for (uint32_t attempt = 0; attempt < 12; ++attempt) {
    const uint64_t us = RetryBackoffUs(options, attempt, /*salt=*/7);
    const uint64_t step =
        std::min<uint64_t>(options.backoff_cap_us,
                           uint64_t{options.backoff_base_us} << attempt);
    EXPECT_GE(us, step) << "attempt " << attempt;
    EXPECT_LT(us, step + std::max<uint64_t>(step / 4, 1))
        << "attempt " << attempt;
    // Strictly increasing until the cap: the next step doubles, which
    // outruns the at-most-quarter-step jitter.
    if (attempt > 0 &&
        (uint64_t{options.backoff_base_us} << attempt) <=
            options.backoff_cap_us) {
      EXPECT_GT(us, prev) << "attempt " << attempt;
    }
    prev = us;
  }
  // Deterministic for a given (options, attempt, salt).
  EXPECT_EQ(RetryBackoffUs(options, 3, 7), RetryBackoffUs(options, 3, 7));
}

class FileIoFaultTest : public FileIoTest {
 protected:
  void SetUp() override {
    FileIoTest::SetUp();
    fail::ClearAll();
    ASSERT_TRUE(WriteCompressedTable(MakeTable(), path_).ok());
  }
  void TearDown() override {
    fail::ClearAll();
    FileIoTest::TearDown();
  }

  // Block 1 decoded fault-free — the byte-identity baseline. Opens
  // (and reads) before any failpoint is armed.
  std::vector<int64_t> Baseline() {
    return std::vector<int64_t>(receipt_.begin() + 1000,
                                receipt_.begin() + 2000);
  }

  static std::vector<int64_t> DecodeCol1(const Block& block) {
    std::vector<int64_t> values(block.rows());
    block.column(1).DecodeAll(values.data());
    return values;
  }
};

TEST_F(FileIoFaultTest, EintrIsRetriedTransparently) {
  auto file = CorfFile::Open(path_);
  ASSERT_TRUE(file.ok());
  fail::ScopedFailpoint fp("corf.pread.eintr", "times:3");
  BlockReadStats stats;
  auto block = file.value().ReadBlock(1, /*verify=*/true, &stats);
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  EXPECT_EQ(stats.retries, 3u);
  EXPECT_EQ(DecodeCol1(block.value()), Baseline());
}

TEST_F(FileIoFaultTest, EintrStormIsBoundedNotInfinite) {
  auto file = CorfFile::Open(path_);
  ASSERT_TRUE(file.ok());
  fail::ScopedFailpoint fp("corf.pread.eintr", "every:1");
  auto block = file.value().ReadBlock(1);
  ASSERT_FALSE(block.ok());
  EXPECT_TRUE(block.status().IsIOError());
  EXPECT_NE(block.status().message().find("EINTR"), std::string::npos);
}

TEST_F(FileIoFaultTest, ShortReadsMakeProgressAndStayByteIdentical) {
  auto file = CorfFile::Open(path_);
  ASSERT_TRUE(file.ok());
  fail::ScopedFailpoint fp("corf.pread.short", "every:1");
  BlockReadStats stats;
  auto block = file.value().ReadBlock(1, /*verify=*/true, &stats);
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  EXPECT_GT(stats.retries, 0u);  // Halved preads forced extra calls.
  EXPECT_EQ(DecodeCol1(block.value()), Baseline());
}

TEST_F(FileIoFaultTest, EioWithinBudgetSucceedsAfterRetries) {
  CorfFileOptions options;
  options.max_read_retries = 2;
  options.backoff_base_us = 1;  // Keep the test fast.
  auto file = CorfFile::Open(path_, options);
  ASSERT_TRUE(file.ok());
  fail::ScopedFailpoint fp("corf.pread.eio", "times:2");
  BlockReadStats stats;
  auto block = file.value().ReadBlock(1, /*verify=*/true, &stats);
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(DecodeCol1(block.value()), Baseline());
}

TEST_F(FileIoFaultTest, PersistentEioExhaustsBudgetWithContext) {
  CorfFileOptions options;
  options.max_read_retries = 2;
  options.backoff_base_us = 1;
  auto file = CorfFile::Open(path_, options);
  ASSERT_TRUE(file.ok());
  fail::ScopedFailpoint fp("corf.pread.eio", "every:1");
  auto block = file.value().ReadBlock(1);
  ASSERT_FALSE(block.ok());
  EXPECT_TRUE(block.status().IsIOError());
  EXPECT_FALSE(block.status().IsCorruption());
  const std::string& message = block.status().message();
  EXPECT_NE(message.find("after 3 attempt(s)"), std::string::npos)
      << message;
  EXPECT_NE(message.find(path_), std::string::npos) << message;
  EXPECT_NE(message.find("block 1"), std::string::npos) << message;
  EXPECT_NE(message.find("offset"), std::string::npos) << message;
}

TEST_F(FileIoFaultTest, RetriesAreDisabledWithZeroBudget) {
  CorfFileOptions options;
  options.max_read_retries = 0;
  auto file = CorfFile::Open(path_, options);
  ASSERT_TRUE(file.ok());
  fail::ScopedFailpoint fp("corf.pread.eio", "times:1");
  EXPECT_TRUE(file.value().ReadBlock(1).status().IsIOError());
  // The single injected error was consumed; the next read is clean.
  EXPECT_TRUE(file.value().ReadBlock(1).ok());
}

TEST_F(FileIoFaultTest, TransientBitFlipIsCuredByChecksumReread) {
  auto file = CorfFile::Open(path_);
  ASSERT_TRUE(file.ok());
  fail::ScopedFailpoint fp("corf.payload.bitflip", "times:1");
  BlockReadStats stats;
  auto block = file.value().ReadBlock(1, /*verify=*/true, &stats);
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  EXPECT_EQ(stats.checksum_rereads, 1u);
  EXPECT_EQ(DecodeCol1(block.value()), Baseline());
}

TEST_F(FileIoFaultTest, PersistentBitFlipFailsAfterOneReread) {
  auto file = CorfFile::Open(path_);
  ASSERT_TRUE(file.ok());
  fail::ScopedFailpoint fp("corf.payload.bitflip", "every:1");
  BlockReadStats stats;
  auto block = file.value().ReadBlock(1, /*verify=*/true, &stats);
  ASSERT_FALSE(block.ok());
  EXPECT_TRUE(block.status().IsCorruption());
  EXPECT_EQ(stats.checksum_rereads, 1u);  // Exactly one re-read, not a loop.
  const std::string& message = block.status().message();
  EXPECT_NE(message.find("after re-read"), std::string::npos) << message;
  EXPECT_NE(message.find("expected 0x"), std::string::npos) << message;
  EXPECT_NE(message.find("block 1"), std::string::npos) << message;
}

TEST_F(FileIoFaultTest, TruncationIsCorruptionNotIOError) {
  // Distinct failure taxonomies: a truncated extent is damaged data
  // (Corruption, never retried), a failing medium is kIOError.
  auto file = CorfFile::Open(path_);
  ASSERT_TRUE(file.ok());
  const FileInfo& info = file.value().info();
  const uint64_t cut = info.block_offsets[2] + info.block_lengths[2] / 2;
  ASSERT_EQ(::truncate(path_.c_str(), static_cast<off_t>(cut)), 0);
  auto block = file.value().ReadBlock(2);
  ASSERT_FALSE(block.ok());
  EXPECT_TRUE(block.status().IsCorruption());
  EXPECT_FALSE(block.status().IsIOError());
  const std::string& message = block.status().message();
  EXPECT_NE(message.find("truncated"), std::string::npos) << message;
  EXPECT_NE(message.find("block 2"), std::string::npos) << message;
}

TEST_F(FileIoFaultTest, HeaderReadsRetryToo) {
  // Arm before Open: the header/directory preads share the retry path.
  fail::ScopedFailpoint fp("corf.pread.eintr", "times:2");
  auto file = CorfFile::Open(path_);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(file.value().num_blocks(), 3u);
}

TEST_F(FileIoTest, StringDictionariesSurviveFile) {
  const std::vector<std::string> strings = {"NY", "CA", "NY", "TX"};
  Table table;
  ASSERT_TRUE(table.AddColumn(Column::String("state", strings)).ok());
  auto compressed =
      CorraCompressor::Compress(table, CompressionPlan::AllAuto(1));
  ASSERT_TRUE(compressed.ok());
  ASSERT_TRUE(WriteCompressedTable(compressed.value(), path_).ok());
  auto reloaded = ReadCompressedTable(path_);
  ASSERT_TRUE(reloaded.ok());
  const auto* dict = reloaded.value().block(0).dictionary(0);
  ASSERT_NE(dict, nullptr);
  EXPECT_EQ((*dict)[0], "NY");
  EXPECT_EQ((*dict)[1], "CA");
  EXPECT_EQ((*dict)[2], "TX");
}

// A 3-block table over several schemes and a string column: ship (FOR),
// receipt (Diff), a wide low-cardinality column (Dict), a negative one
// (FOR below zero) and dictionary-coded states.
CompressedTable MakeMixedTable() {
  Rng rng(9);
  constexpr size_t kRows = 2500;
  std::vector<int64_t> ship(kRows);
  std::vector<int64_t> receipt(kRows);
  std::vector<int64_t> wide(kRows);
  std::vector<int64_t> negative(kRows);
  std::vector<std::string> state(kRows);
  const std::string states[] = {"NY", "CA", "TX", "WA"};
  for (size_t i = 0; i < kRows; ++i) {
    ship[i] = rng.Uniform(8035, 10591);
    receipt[i] = ship[i] + rng.Uniform(1, 30);
    wide[i] = rng.Uniform(0, 9) * (int64_t{1} << 40) - 7;
    negative[i] = rng.Uniform(-5000, -4000);
    state[i] = states[rng.Uniform(0, 3)];
  }
  Table table;
  EXPECT_TRUE(table.AddColumn(Column::Date("ship", ship)).ok());
  EXPECT_TRUE(table.AddColumn(Column::Date("receipt", receipt)).ok());
  EXPECT_TRUE(table.AddColumn(Column::Int64("wide", wide)).ok());
  EXPECT_TRUE(table.AddColumn(Column::Int64("negative", negative)).ok());
  EXPECT_TRUE(table.AddColumn(Column::String("state", state)).ok());
  CompressionPlan plan = CompressionPlan::AllAuto(5);
  plan.block_rows = 1000;
  plan.columns[1].auto_vertical = false;
  plan.columns[1].scheme = enc::Scheme::kDiff;
  plan.columns[1].reference = 0;
  return CorraCompressor::Compress(table, plan).value();
}

std::vector<char> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

TEST_F(FileIoTest, RewritingAReadTableIsByteIdentical) {
  // The compressor records every column's min/max, so the first write
  // decodes nothing for the stats section; a table read back from the
  // file has no recorded ranges, so the second write computes them from
  // the encoded columns. Both must produce the same file.
  const CompressedTable table = MakeMixedTable();
  for (size_t b = 0; b < table.num_blocks(); ++b) {
    for (size_t c = 0; c < table.schema().num_fields(); ++c) {
      ASSERT_TRUE(table.block(b).range(c).has_value());
    }
  }
  ASSERT_TRUE(WriteCompressedTable(table, path_).ok());
  auto reloaded = ReadCompressedTable(path_, /*verify=*/true);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  for (size_t b = 0; b < reloaded.value().num_blocks(); ++b) {
    for (size_t c = 0; c < reloaded.value().schema().num_fields(); ++c) {
      ASSERT_FALSE(reloaded.value().block(b).range(c).has_value());
    }
  }
  const std::string second = path_ + ".rewritten";
  ASSERT_TRUE(WriteCompressedTable(reloaded.value(), second).ok());
  EXPECT_EQ(FileBytes(second), FileBytes(path_));
  std::remove(second.c_str());
}

TEST_F(FileIoTest, CorfFileStatsEqualMinMaxColumn) {
  const CompressedTable table = MakeMixedTable();
  ASSERT_TRUE(WriteCompressedTable(table, path_).ok());
  auto file = CorfFile::Open(path_);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  const FileInfo& info = file.value().info();
  ASSERT_TRUE(info.has_column_stats);
  for (size_t b = 0; b < table.num_blocks(); ++b) {
    for (size_t c = 0; c < table.schema().num_fields(); ++c) {
      const auto mm = query::MinMaxColumn(table.block(b).column(c));
      ASSERT_TRUE(mm.has_value());
      EXPECT_EQ(info.Stats(b, c).min, mm->min) << "block " << b << " col " << c;
      EXPECT_EQ(info.Stats(b, c).max, mm->max) << "block " << b << " col " << c;
    }
  }
}

// Zero-copy loads: a block deserialized from its read buffer views every
// bit-packed payload there. The table covers all 12 schemes, with
// outliers in every outlier-capable column.
class ZeroCopyLoadTest : public ::testing::Test {
 protected:
  static constexpr size_t kRows = 2000;
  static constexpr size_t kBlockRows = 1000;
  // Packed streams one block of the table holds: FOR, Dict,
  // Hierarchical, Delta, BitPack, DFOR and C3 Numerical one each, Diff
  // and MultiRef a stream plus their outliers', C3 1-to-1 its outliers';
  // Plain and RLE none.
  static constexpr long kStreamsPerBlock = 12;

  void SetUp() override {
    path_ = ::testing::TempDir() + "corra_zero_copy_load_test.corf";
    Rng rng(31);
    raw_ = test::AllSchemesColumns(kRows, 0.01, rng);
    auto compressed = CorraCompressor::Compress(
        test::TableOf(raw_), test::AllSchemesPlan(kBlockRows));
    ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
    ASSERT_TRUE(WriteCompressedTable(compressed.value(), path_).ok());
  }

  void TearDown() override { std::remove(path_.c_str()); }

  // Asserts every column of `block` (block `b` of the table) has its
  // pinned scheme and decodes.
  void ExpectBlockDecodes(const Block& block, size_t b) {
    for (size_t c = 0; c < test::kAllSchemes.size(); ++c) {
      SCOPED_TRACE("column " + std::to_string(c));
      ASSERT_EQ(block.column(c).scheme(), test::kAllSchemes[c]);
      const auto begin = raw_[c].begin() + static_cast<long>(b * kBlockRows);
      test::ExpectColumnMatches(
          block.column(c), std::vector<int64_t>(begin, begin + kBlockRows));
    }
  }

  std::string path_;
  std::vector<std::vector<int64_t>> raw_;
};

TEST_F(ZeroCopyLoadTest, EveryPackedStreamViewsTheReadBuffer) {
  // CorfFile::ReadBlock is ReadBlockBytes plus this Deserialize. Each
  // view shares the buffer's owner, so the count of handles is one (the
  // caller's) plus one per packed stream: no payload was copied.
  auto file = CorfFile::Open(path_);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  for (size_t b = 0; b < file.value().num_blocks(); ++b) {
    auto bytes = file.value().ReadBlockBytes(b);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    EXPECT_EQ(bytes.value().size(), file.value().info().block_lengths[b]);
    EXPECT_EQ(bytes.value().owner().use_count(), 1);
    auto block = Block::Deserialize(bytes.value(), /*verify=*/true);
    ASSERT_TRUE(block.ok()) << block.status().ToString();
    EXPECT_EQ(bytes.value().owner().use_count(), 1 + kStreamsPerBlock);
    ExpectBlockDecodes(block.value(), b);
    // Over the borrowed span every payload is copied.
    auto copied = Block::Deserialize(bytes.value().span());
    ASSERT_TRUE(copied.ok()) << copied.status().ToString();
    EXPECT_EQ(bytes.value().owner().use_count(), 1 + kStreamsPerBlock);
    ExpectBlockDecodes(copied.value(), b);
  }
}

TEST_F(ZeroCopyLoadTest, LoadedBlocksAndColumnsOutliveTheirBuffer) {
  // A block, and a column read alone, still decode once the file, the
  // reader and every handle to the read buffer but theirs are gone: the
  // views keep the buffer alive (ASan flags a use after free).
  std::optional<Block> from_read_block;
  std::optional<Block> from_bytes;
  std::unique_ptr<enc::EncodedColumn> lone_column;
  {
    auto file = CorfFile::Open(path_);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    auto block = file.value().ReadBlock(0, /*verify=*/true);
    ASSERT_TRUE(block.ok()) << block.status().ToString();
    from_read_block.emplace(std::move(block).value());
    auto bytes = file.value().ReadBlockBytes(1);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    auto deserialized = Block::Deserialize(bytes.value());
    ASSERT_TRUE(deserialized.ok()) << deserialized.status().ToString();
    from_bytes.emplace(std::move(deserialized).value());
    // The BitPack column alone, from a buffer of its own.
    const SharedBuffer column_bytes =
        test::SharedCopy(test::SerializedBytes(from_bytes->column(8)));
    BufferReader reader(column_bytes);
    auto column = DeserializeEncodedColumn(&reader);
    ASSERT_TRUE(column.ok()) << column.status().ToString();
    lone_column = std::move(column).value();
  }
  ExpectBlockDecodes(*from_read_block, 0);
  const Block moved = std::move(*from_bytes);
  from_bytes.reset();
  ExpectBlockDecodes(moved, 1);
  test::ExpectColumnMatches(
      *lone_column,
      std::vector<int64_t>(raw_[8].begin() + kBlockRows, raw_[8].end()));
}

}  // namespace
}  // namespace corra
