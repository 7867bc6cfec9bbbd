#include "storage/file_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>

#include "common/buffer.h"
#include "common/failpoint.h"
#include "common/simd/simd.h"
#include "obs/metrics.h"
#include "query/aggregate.h"

namespace corra {

namespace {

constexpr uint32_t kFileMagic = 0x46524F43;  // "CORF" little-endian.
// Version 2 added per-block row counts and payload checksums to the
// directory (required by the lazy serving layer). Version 3 added the
// per-block per-column min/max stats section (block skipping). Version 4
// changed only what the checksum slots hold: the payload's CRC32C, not
// its FNV-1a 64. v2 and v3 files remain readable and verifiable; v2
// files simply carry no stats.
constexpr uint8_t kFileVersion = 4;
constexpr uint8_t kMinFileVersion = 2;
constexpr uint8_t kFirstCrc32cVersion = 4;

// First read size when parsing a header; retried with kMaxHeader when a
// directory does not fit (many thousands of blocks).
constexpr uint64_t kHeaderProbe = 64 << 10;
constexpr uint64_t kMaxHeader = 16 << 20;

// FNV-1a 64-bit over a byte span: the payload checksum of v2/v3 files,
// kept only to verify them. It folds one byte per multiply, ~10x slower
// than the CRC32C kernel.
uint64_t Fnv1a64(std::span<const uint8_t> bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// The payload checksum a directory of file version `version` stores.
uint64_t PayloadChecksum(uint8_t version, std::span<const uint8_t> bytes) {
  return version >= kFirstCrc32cVersion
             ? simd::Crc32c(bytes.data(), bytes.size())
             : Fnv1a64(bytes);
}

// RAII stdio handle for the write path's early returns, which already
// carry an error; the success path closes explicitly and checks the
// result. Reads go through CorfFile's fd.
struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) {
      std::fclose(f);
    }
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

// Every write-path failure is an IOError naming the file and errno.
Status WriteError(const std::string& what, const std::string& path) {
  return Status::IOError(what + " '" + path + "': " + std::strerror(errno));
}

Status WriteAll(std::FILE* file, const std::vector<uint8_t>& bytes,
                const std::string& path) {
  if (!bytes.empty() &&
      std::fwrite(bytes.data(), 1, bytes.size(), file) != bytes.size()) {
    return WriteError("short write to", path);
  }
  return Status::OK();
}

// Which file (and block, when payload-level) a read serves — every
// error a read path produces carries this locality.
struct ReadSite {
  const std::string* path;  // Never null.
  int64_t block = -1;       // -1: header/directory read.
};

std::string SiteSuffix(const ReadSite& site, uint64_t offset,
                       size_t length) {
  std::string out = " (file '" + *site.path + "'";
  if (site.block >= 0) {
    out += ", block " + std::to_string(site.block);
  }
  out += ", offset " + std::to_string(offset) + ", length " +
         std::to_string(length) + ")";
  return out;
}

// Safety valve against an injected (or pathological) EINTR storm: real
// signal interruptions are retried unconditionally, but not forever.
constexpr uint32_t kMaxEintrRetries = 1024;

// Positional read of exactly [offset, offset + length), immune to the
// process-wide file position — safe under concurrency.
//
// Fault policy (see CorfFileOptions): EINTR and partial progress are
// retried unconditionally; syscall errors are retried up to
// options.max_read_retries times with RetryBackoffUs sleeps; reading 0
// bytes inside the requested extent is truncation (Corruption, final).
// `retries` (optional) accumulates every pread call beyond the single
// one a clean read needs.
//
// Failpoint sites (tests only; inert otherwise):
//   corf.pread.eio    the next pread call reports EIO without running
//   corf.pread.eintr  the next pread call reports EINTR without running
//   corf.pread.short  the next pread call asks for at most half the
//                     remainder, forcing partial-progress handling
Status PReadRetrying(int fd, uint64_t offset, uint8_t* dst, size_t length,
                     const ReadSite& site, const CorfFileOptions& options,
                     uint32_t* retries) {
  size_t done = 0;
  uint32_t io_errors = 0;
  uint32_t eintrs = 0;
  bool first = true;
  while (done < length) {
    if (!first && retries != nullptr) {
      ++*retries;
    }
    first = false;
    ssize_t n;
    int err = 0;
    if (CORRA_FAILPOINT("corf.pread.eio")) {
      n = -1;
      err = EIO;
    } else if (CORRA_FAILPOINT("corf.pread.eintr")) {
      n = -1;
      err = EINTR;
    } else {
      size_t want = length - done;
      if (want > 1 && CORRA_FAILPOINT("corf.pread.short")) {
        want /= 2;
      }
      n = ::pread(fd, dst + done, want, static_cast<off_t>(offset + done));
      err = errno;
    }
    if (n < 0) {
      if (err == EINTR) {
        if (++eintrs > kMaxEintrRetries) {
          return Status::IOError(
              "pread interrupted (EINTR) " +
              std::to_string(kMaxEintrRetries) + " times" +
              SiteSuffix(site, offset, length));
        }
        continue;  // Interrupted by a signal; always retryable.
      }
      if (io_errors++ >= options.max_read_retries) {
        return Status::IOError(
            "pread failed: " + std::string(std::strerror(err)) + " after " +
            std::to_string(io_errors) + " attempt(s)" +
            SiteSuffix(site, offset, length));
      }
      const uint64_t backoff_us =
          RetryBackoffUs(options, io_errors - 1, offset);
      if (backoff_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
      }
      continue;
    }
    if (n == 0) {
      return Status::Corruption(
          "file truncated: no data at offset " +
          std::to_string(offset + done) + SiteSuffix(site, offset, length));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

// Header + directory + stats bytes for a table about to be written.
std::vector<uint8_t> BuildHeader(const Schema& schema,
                                 const std::vector<uint64_t>& offsets,
                                 const std::vector<uint64_t>& lengths,
                                 const std::vector<uint64_t>& rows,
                                 const std::vector<uint64_t>& checksums,
                                 const std::vector<ColumnStats>& stats) {
  BufferWriter writer;
  writer.Write<uint32_t>(kFileMagic);
  writer.Write<uint8_t>(kFileVersion);
  writer.Write<uint32_t>(static_cast<uint32_t>(schema.num_fields()));
  for (const Field& field : schema.fields()) {
    writer.WriteString(field.name);
    writer.Write<uint8_t>(static_cast<uint8_t>(field.type));
  }
  writer.Write<uint32_t>(static_cast<uint32_t>(offsets.size()));
  for (size_t b = 0; b < offsets.size(); ++b) {
    writer.Write<uint64_t>(offsets[b]);
    writer.Write<uint64_t>(lengths[b]);
    writer.Write<uint64_t>(rows[b]);
    writer.Write<uint64_t>(checksums[b]);
  }
  for (const ColumnStats& s : stats) {
    writer.Write<int64_t>(s.min);
    writer.Write<int64_t>(s.max);
  }
  return std::move(writer).Finish();
}

// Bytes per directory entry: offset, length, rows, checksum.
constexpr uint64_t kDirectoryEntryBytes = 4 * sizeof(uint64_t);
// Bytes per stats entry (v3+): min, max.
constexpr uint64_t kStatsEntryBytes = 2 * sizeof(int64_t);

// Parses magic, version, schema, and block count, leaving `reader`
// positioned at the first directory entry. Fills info.version,
// info.schema and info.num_blocks. On failure, `*retryable` tells
// whether a larger prefix could change the outcome (semantic failures —
// wrong magic, version, type — cannot be cured by more bytes).
Status ParsePreamble(BufferReader* reader, FileInfo* info, bool* retryable) {
  *retryable = true;
  uint32_t magic = 0;
  CORRA_RETURN_NOT_OK(reader->Read(&magic));
  if (magic != kFileMagic) {
    *retryable = false;
    return Status::Corruption("not a Corra file (bad magic)");
  }
  CORRA_RETURN_NOT_OK(reader->Read(&info->version));
  if (info->version < kMinFileVersion || info->version > kFileVersion) {
    *retryable = false;
    return Status::Corruption(
        "unsupported Corra file version " + std::to_string(info->version) +
        " (reads " + std::to_string(kMinFileVersion) + " to " +
        std::to_string(kFileVersion) + ")");
  }
  uint32_t field_count = 0;
  CORRA_RETURN_NOT_OK(reader->Read(&field_count));
  for (uint32_t i = 0; i < field_count; ++i) {
    std::string name;
    uint8_t type = 0;
    CORRA_RETURN_NOT_OK(reader->ReadString(&name));
    CORRA_RETURN_NOT_OK(reader->Read(&type));
    if (type > static_cast<uint8_t>(LogicalType::kString)) {
      *retryable = false;
      return Status::Corruption("unknown logical type in schema");
    }
    CORRA_RETURN_NOT_OK(info->schema.AddField(
        Field{std::move(name), static_cast<LogicalType>(type)}));
  }
  uint32_t block_count = 0;
  CORRA_RETURN_NOT_OK(reader->Read(&block_count));
  info->num_blocks = block_count;
  return Status::OK();
}

Status ParseDirectory(BufferReader* reader, uint64_t file_size,
                      FileInfo* info) {
  for (size_t b = 0; b < info->num_blocks; ++b) {
    uint64_t offset = 0;
    uint64_t length = 0;
    uint64_t rows = 0;
    uint64_t checksum = 0;
    CORRA_RETURN_NOT_OK(reader->Read(&offset));
    CORRA_RETURN_NOT_OK(reader->Read(&length));
    CORRA_RETURN_NOT_OK(reader->Read(&rows));
    CORRA_RETURN_NOT_OK(reader->Read(&checksum));
    if (offset > file_size || length > file_size - offset) {
      return Status::Corruption("block directory entry out of bounds");
    }
    info->block_offsets.push_back(offset);
    info->block_lengths.push_back(length);
    info->block_rows.push_back(rows);
    info->block_checksums.push_back(checksum);
  }
  return Status::OK();
}

// Parses the v3+ per-block per-column min/max section.
Status ParseStats(BufferReader* reader, FileInfo* info) {
  const size_t entries = info->num_blocks * info->schema.num_fields();
  info->column_stats.reserve(entries);
  for (size_t i = 0; i < entries; ++i) {
    ColumnStats stats;
    CORRA_RETURN_NOT_OK(reader->Read(&stats.min));
    CORRA_RETURN_NOT_OK(reader->Read(&stats.max));
    info->column_stats.push_back(stats);
  }
  info->has_column_stats = true;
  return Status::OK();
}

Result<FileInfo> ParseHeader(int fd, uint64_t file_size,
                             const std::string& path,
                             const CorfFileOptions& options) {
  const ReadSite site{&path, -1};
  // Probe a small prefix: enough for the preamble (magic, version,
  // schema, block count) of any sane file, and usually for the whole
  // directory too. Magic/version/schema corruption fails here without
  // any further read.
  const uint64_t probe = std::min<uint64_t>(file_size, kHeaderProbe);
  std::vector<uint8_t> prefix(probe);
  CORRA_RETURN_NOT_OK(PReadRetrying(fd, 0, prefix.data(), prefix.size(),
                                    site, options, nullptr));
  FileInfo info;
  BufferReader reader(prefix);
  bool retryable = false;
  Status preamble = ParsePreamble(&reader, &info, &retryable);
  if (!preamble.ok()) {
    // A schema larger than the probe is the only curable failure:
    // retry once with the full header budget. Semantic corruption
    // stops here without another read.
    const uint64_t budget = std::min(file_size, kMaxHeader);
    if (!retryable || prefix.size() >= budget) {
      return preamble;
    }
    prefix.resize(budget);
    CORRA_RETURN_NOT_OK(PReadRetrying(fd, 0, prefix.data(), prefix.size(),
                                      site, options, nullptr));
    info = FileInfo{};
    reader = BufferReader(prefix);
    CORRA_RETURN_NOT_OK(ParsePreamble(&reader, &info, &retryable));
  }

  // The preamble pins down the exact header size; re-read precisely
  // that when the directory (or stats section) spills past the probe.
  const uint64_t stats_bytes =
      info.version >= 3
          ? info.num_blocks * info.schema.num_fields() * kStatsEntryBytes
          : 0;
  const uint64_t header_bytes = reader.position() +
                                info.num_blocks * kDirectoryEntryBytes +
                                stats_bytes;
  if (header_bytes > kMaxHeader) {
    return Status::Corruption("header implausibly large");
  }
  if (header_bytes > prefix.size()) {
    if (header_bytes > file_size) {
      return Status::Corruption("file truncated inside block directory");
    }
    prefix.resize(header_bytes);
    CORRA_RETURN_NOT_OK(PReadRetrying(fd, 0, prefix.data(), prefix.size(),
                                      site, options, nullptr));
    info = FileInfo{};
    reader = BufferReader(prefix);
    CORRA_RETURN_NOT_OK(ParsePreamble(&reader, &info, &retryable));
  }
  CORRA_RETURN_NOT_OK(ParseDirectory(&reader, file_size, &info));
  if (info.version >= 3) {
    CORRA_RETURN_NOT_OK(ParseStats(&reader, &info));
  }
  return info;
}

}  // namespace

uint64_t RetryBackoffUs(const CorfFileOptions& options, uint32_t attempt,
                        uint64_t salt) {
  if (options.backoff_base_us == 0) {
    return 0;
  }
  const uint64_t base = options.backoff_base_us;
  uint64_t step = attempt < 32 ? base << attempt : UINT64_MAX;
  if (options.backoff_cap_us > 0 && step > options.backoff_cap_us) {
    step = options.backoff_cap_us;
  }
  // Deterministic jitter in [0, step/4): decorrelates concurrent
  // retriers without breaking monotonicity — step + step/4 is still
  // below the next step's 2x until the cap flattens the curve.
  uint64_t x = salt * 0x9E3779B97F4A7C15ull + attempt + 1;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  const uint64_t jitter = step >= 4 ? x % (step / 4) : 0;
  return step + jitter;
}

uint64_t FileInfo::TotalRows() const {
  uint64_t total = 0;
  for (uint64_t rows : block_rows) {
    total += rows;
  }
  return total;
}

const char* FileInfo::ChecksumName() const {
  return version >= kFirstCrc32cVersion ? "CRC32C" : "FNV-1a";
}

Status WriteCompressedTable(const CompressedTable& table,
                            const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "wb"));
  if (file == nullptr) {
    return WriteError("cannot create", path);
  }
  // Serialize blocks first to learn their lengths and checksums, and
  // collect the per-block per-column min/max the v3 stats section
  // persists: the compressor's, or, for a block read back from a file,
  // aggregate pushdown's over the compressed column.
  std::vector<std::vector<uint8_t>> payloads;
  payloads.reserve(table.num_blocks());
  std::vector<uint64_t> rows(table.num_blocks());
  std::vector<uint64_t> checksums(table.num_blocks());
  std::vector<ColumnStats> stats;
  stats.reserve(table.num_blocks() * table.schema().num_fields());
  for (size_t b = 0; b < table.num_blocks(); ++b) {
    payloads.push_back(table.block(b).Serialize());
    rows[b] = table.block(b).rows();
    checksums[b] = PayloadChecksum(kFileVersion, payloads.back());
    const Block& block = table.block(b);
    for (size_t c = 0; c < block.num_columns(); ++c) {
      // An empty block stores the empty range; every filter prunes it.
      ColumnStats column_stats{INT64_MAX, INT64_MIN};
      if (const auto& range = block.range(c)) {
        column_stats = {range->min, range->max};
      } else if (const auto mm = query::MinMaxColumn(block.column(c))) {
        column_stats = {mm->min, mm->max};
      }
      stats.push_back(column_stats);
    }
  }
  std::vector<uint64_t> offsets(payloads.size());
  std::vector<uint64_t> lengths(payloads.size());
  // Two-pass: header size depends only on counts and name lengths, so
  // build it with dummy offsets to learn its size, then fill in.
  std::vector<uint8_t> header =
      BuildHeader(table.schema(), offsets, lengths, rows, checksums, stats);
  uint64_t cursor = header.size();
  for (size_t b = 0; b < payloads.size(); ++b) {
    offsets[b] = cursor;
    lengths[b] = payloads[b].size();
    cursor += payloads[b].size();
  }
  header =
      BuildHeader(table.schema(), offsets, lengths, rows, checksums, stats);

  CORRA_RETURN_NOT_OK(WriteAll(file.get(), header, path));
  for (const auto& payload : payloads) {
    CORRA_RETURN_NOT_OK(WriteAll(file.get(), payload, path));
  }
  // fclose flushes what stdio still buffers, so its result is the last
  // write's: a failure here leaves a torn file, never an OK.
  if (std::fclose(file.release()) != 0) {
    return WriteError("cannot flush and close", path);
  }
  return Status::OK();
}

Result<CorfFile> CorfFile::Open(const std::string& path,
                                CorfFileOptions options) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::NotFound("cannot open file: " + path);
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::Corruption("cannot determine file size: " + path);
  }
  auto info = ParseHeader(fd, static_cast<uint64_t>(st.st_size), path,
                          options);
  if (!info.ok()) {
    ::close(fd);
    return info.status();
  }
  return CorfFile(fd, path, std::move(info).value(), options);
}

CorfFile::CorfFile(CorfFile&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)),
      info_(std::move(other.info_)),
      options_(other.options_) {}

CorfFile& CorfFile::operator=(CorfFile&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) {
      ::close(fd_);
    }
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    info_ = std::move(other.info_);
    options_ = other.options_;
  }
  return *this;
}

CorfFile::~CorfFile() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

namespace {

std::string ChecksumHex(uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, value);
  return buf;
}

}  // namespace

Result<SharedBuffer> CorfFile::ReadBlockBytes(
    size_t block_index, BlockReadStats* stats) const {
  if (block_index >= info_.num_blocks) {
    return Status::OutOfRange(
        "block index " + std::to_string(block_index) +
        " out of range (file '" + path_ + "' has " +
        std::to_string(info_.num_blocks) + " blocks)");
  }
  const ReadSite site{&path_, static_cast<int64_t>(block_index)};
  // Uninitialized: pread fills every byte, or the read fails and the
  // buffer is dropped.
  const size_t length = info_.block_lengths[block_index];
  std::shared_ptr<uint8_t[]> bytes =
      std::make_shared_for_overwrite<uint8_t[]>(length);
  uint32_t retries = 0;
  Status read = PReadRetrying(fd_, info_.block_offsets[block_index],
                              bytes.get(), length, site, options_, &retries);
  if (stats != nullptr) {
    stats->retries += retries;
  }
  // Cold-read accounting: every payload fetched from disk, process
  // wide. The serving layer's cache.misses counts pin-level misses;
  // these count the I/O they actually caused (one read per miss) plus
  // any non-cached one-shot readers. read_retries counts re-issued
  // pread calls (EINTR, short reads, syscall-error retries) and
  // read_errors the reads that failed for good.
  if (obs::Enabled()) {
    static obs::Counter& reads =
        obs::Registry::Default().counter("storage.block_reads");
    static obs::Counter& read_bytes =
        obs::Registry::Default().counter("storage.block_read_bytes");
    static obs::Counter& read_retries =
        obs::Registry::Default().counter("storage.read_retries");
    static obs::Counter& read_errors =
        obs::Registry::Default().counter("storage.read_errors");
    if (retries > 0) {
      read_retries.Add(retries);
    }
    if (!read.ok()) {
      read_errors.Increment();
    } else {
      reads.Increment();
      read_bytes.Add(length);
    }
  }
  CORRA_RETURN_NOT_OK(read);
  // Fault injection for the verify/quarantine paths: damage the payload
  // *after* a successful read, the way a bad cable or DMA error would.
  if (length > 0 && CORRA_FAILPOINT("corf.payload.bitflip")) {
    bytes[length / 2] ^= 0x40;
  }
  return SharedBuffer(std::move(bytes), length);
}

Result<Block> CorfFile::ReadBlock(size_t block_index, bool verify,
                                  BlockReadStats* stats) const {
  CORRA_ASSIGN_OR_RETURN(auto bytes, ReadBlockBytes(block_index, stats));
  if (verify && PayloadChecksum(info_.version, bytes.span()) !=
                    info_.block_checksums[block_index]) {
    // One re-read distinguishes transient from persistent corruption: a
    // bit flipped in transfer heals, damage on the medium does not.
    if (stats != nullptr) {
      stats->checksum_rereads += 1;
    }
    if (obs::Enabled()) {
      static obs::Counter& read_retries =
          obs::Registry::Default().counter("storage.read_retries");
      read_retries.Increment();
    }
    CORRA_ASSIGN_OR_RETURN(bytes, ReadBlockBytes(block_index, stats));
    const uint64_t actual = PayloadChecksum(info_.version, bytes.span());
    const uint64_t expected = info_.block_checksums[block_index];
    if (actual != expected) {
      if (obs::Enabled()) {
        static obs::Counter& read_errors =
            obs::Registry::Default().counter("storage.read_errors");
        read_errors.Increment();
      }
      return Status::Corruption(
          std::string("block payload checksum (") + info_.ChecksumName() +
          ") mismatch after re-read: expected " +
          ChecksumHex(expected) + ", actual " + ChecksumHex(actual) +
          SiteSuffix(ReadSite{&path_, static_cast<int64_t>(block_index)},
                     info_.block_offsets[block_index],
                     info_.block_lengths[block_index]));
    }
  }
  auto deserialized = Block::Deserialize(bytes, verify);
  if (!deserialized.ok()) {
    const Status& st = deserialized.status();
    return Status(st.code(),
                  st.message() +
                      SiteSuffix(ReadSite{&path_,
                                          static_cast<int64_t>(block_index)},
                                 info_.block_offsets[block_index],
                                 info_.block_lengths[block_index]));
  }
  Block block = std::move(deserialized).value();
  if (block.rows() != info_.block_rows[block_index]) {
    return Status::Corruption(
        "block row count disagrees with directory: decoded " +
        std::to_string(block.rows()) + ", directory says " +
        std::to_string(info_.block_rows[block_index]) +
        SiteSuffix(ReadSite{&path_, static_cast<int64_t>(block_index)},
                   info_.block_offsets[block_index],
                   info_.block_lengths[block_index]));
  }
  return block;
}

Result<FileInfo> ReadFileInfo(const std::string& path) {
  CORRA_ASSIGN_OR_RETURN(CorfFile file, CorfFile::Open(path));
  return file.info();
}

Result<Block> ReadBlock(const std::string& path, size_t block_index,
                        bool verify) {
  CORRA_ASSIGN_OR_RETURN(CorfFile file, CorfFile::Open(path));
  return file.ReadBlock(block_index, verify);
}

Result<CompressedTable> ReadCompressedTable(const std::string& path,
                                            bool verify) {
  CORRA_ASSIGN_OR_RETURN(CorfFile file, CorfFile::Open(path));
  std::vector<Block> blocks;
  blocks.reserve(file.num_blocks());
  for (size_t b = 0; b < file.num_blocks(); ++b) {
    CORRA_ASSIGN_OR_RETURN(Block block, file.ReadBlock(b, verify));
    blocks.push_back(std::move(block));
  }
  Schema schema = file.info().schema;
  return CompressedTable(std::move(schema), std::move(blocks));
}

}  // namespace corra
