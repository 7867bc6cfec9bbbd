// File persistence for compressed tables.
//
// Layout ("CORF" format, version 4; versions 2 and 3 remain readable
// and verifiable):
//   header   : magic, version, schema (names + types), block count
//   directory: per block, the byte offset, length, row count, and an
//              8-byte checksum of its payload: the CRC32C (Castagnoli,
//              simd::Crc32c) zero-extended to 64 bits in v4, the FNV-1a
//              64 in v2 and v3 — the one difference between v3 and v4
//   stats    : per block, per column, the logical min and max value
//              (v3+; lets a scan skip blocks whose range cannot satisfy
//              a filter without touching the payload)
//   payloads : the self-contained block byte streams (Block::Serialize)
//
// Blocks remain individually loadable: the directory pins down every
// block's position *and* row span, so a reader can route global row
// positions to blocks and fetch exactly one payload — the on-disk
// analogue of the paper's self-contained 1M-tuple blocks.
//
// Two access paths:
//   * The free functions open/parse the file per call (one-shot tools).
//   * CorfFile opens the file once, parses the directory once, and then
//     serves positional per-block reads. Reads use pread(2), so one
//     CorfFile may be shared by many threads without locking — the
//     serving layer (src/serve/) keeps one per open table.
//
// A block load is one pread into an uninitialized buffer that the
// block's packed streams then view (Block::Deserialize on a
// SharedBuffer): the payloads are neither zero-filled nor copied, and the
// buffer lives as long as any column viewing it.

#ifndef CORRA_STORAGE_FILE_IO_H_
#define CORRA_STORAGE_FILE_IO_H_

#include <cstdint>
#include <string>

#include "common/buffer.h"
#include "common/result.h"
#include "storage/table.h"

namespace corra {

/// Read-path fault policy of one CorfFile.
///
/// Retry semantics (see failpoint sites corf.pread.* for how they are
/// tested):
///   * EINTR and short reads that made progress are always retried —
///     they are artifacts of signals and readahead, not of the medium.
///   * A read returning 0 bytes inside a block's extent means the file
///     is truncated; that is Corruption and never retried.
///   * Syscall errors (EIO et al.) are retried up to max_read_retries
///     times with exponential backoff + jitter, then surface as
///     StatusCode::kIOError with full locality context.
///   * A checksum mismatch under verify triggers exactly one re-read
///     (a bit flipped in transfer heals; damage on the medium does
///     not), then surfaces as Corruption with expected/actual.
struct CorfFileOptions {
  /// Extra pread attempts after a syscall error (0 = fail immediately).
  uint32_t max_read_retries = 2;
  /// Backoff before syscall-error retry k (0-based) is
  /// min(backoff_base_us << k, backoff_cap_us) plus a deterministic
  /// jitter of at most a quarter step — strictly monotone until capped.
  uint32_t backoff_base_us = 20;
  uint32_t backoff_cap_us = 2000;
};

/// Backoff before syscall-error retry `attempt` (0-based), in
/// microseconds. `salt` decorrelates concurrent retriers (jitter), and
/// makes the schedule deterministic for tests: same salt, same delays.
uint64_t RetryBackoffUs(const CorfFileOptions& options, uint32_t attempt,
                        uint64_t salt);

/// What one block read cost beyond the happy path (optional out-param
/// of ReadBlockBytes/ReadBlock; the serving layer surfaces it as the
/// trace's `retried` annotation).
struct BlockReadStats {
  /// pread calls beyond the one a clean read needs (EINTR, short reads,
  /// syscall-error retries — all paths that re-issued the syscall).
  uint32_t retries = 0;
  /// 1 when a checksum mismatch forced the single re-read.
  uint32_t checksum_rereads = 0;
};

/// Writes `table` to `path` (overwriting) as a CORF v4 file. Fails with
/// IOError naming the path and the system error if the file cannot be
/// created, written, flushed or closed.
Status WriteCompressedTable(const CompressedTable& table,
                            const std::string& path);

/// Logical value range of one column within one block. An empty block
/// stores the empty range (min > max), which every filter prunes.
struct ColumnStats {
  int64_t min = 0;
  int64_t max = 0;
};

/// Metadata obtained without loading any block payload.
struct FileInfo {
  /// Format version: 4 as written, 2 or 3 for older files.
  uint8_t version = 0;
  Schema schema;
  size_t num_blocks = 0;
  std::vector<uint64_t> block_offsets;
  std::vector<uint64_t> block_lengths;
  /// Rows per block, straight from the directory (no payload touched).
  std::vector<uint64_t> block_rows;
  /// Checksum of each payload, verified on read when asked: its CRC32C
  /// zero-extended to 64 bits in v4, its FNV-1a 64 in v2 and v3.
  std::vector<uint64_t> block_checksums;
  /// Per-block per-column min/max, block-major (num_blocks * num_fields
  /// entries). Present in v3+ files; empty when reading a v2 file.
  bool has_column_stats = false;
  std::vector<ColumnStats> column_stats;

  /// Stats of column `col` in block `block` (requires has_column_stats).
  const ColumnStats& Stats(size_t block, size_t col) const {
    return column_stats[block * schema.num_fields() + col];
  }

  /// Total rows across all blocks.
  uint64_t TotalRows() const;

  /// The checksum block_checksums hold: "CRC32C" (v4) or "FNV-1a" (v2, v3).
  const char* ChecksumName() const;
};

/// A CORF file opened once: the directory is parsed at Open and every
/// ReadBlock is a single positional read. All methods are const and
/// thread-safe; concurrent ReadBlock calls do not serialize on a seek
/// position.
class CorfFile {
 public:
  static Result<CorfFile> Open(const std::string& path,
                               CorfFileOptions options = {});

  CorfFile(CorfFile&& other) noexcept;
  CorfFile& operator=(CorfFile&& other) noexcept;
  CorfFile(const CorfFile&) = delete;
  CorfFile& operator=(const CorfFile&) = delete;
  ~CorfFile();

  const std::string& path() const { return path_; }
  const FileInfo& info() const { return info_; }
  size_t num_blocks() const { return info_.num_blocks; }

  /// Raw payload bytes of block `block_index`, in a new buffer that
  /// pread fills and the caller shares: Block::Deserialize on it views
  /// the packed payloads instead of copying them. Transient read
  /// failures are retried per CorfFileOptions; `stats` (optional)
  /// reports what the read cost beyond the happy path.
  Result<SharedBuffer> ReadBlockBytes(size_t block_index,
                                      BlockReadStats* stats = nullptr) const;

  /// Deserializes block `block_index` from ReadBlockBytes' buffer, which
  /// the returned block's columns keep alive. With `verify`, the payload
  /// checksum is compared against the directory (catching any flipped
  /// byte) and Block::Deserialize runs its O(n) integrity checks; a
  /// mismatch is re-read once before it is ruled Corruption. The
  /// block's row count is always validated against the directory.
  Result<Block> ReadBlock(size_t block_index, bool verify = false,
                          BlockReadStats* stats = nullptr) const;

 private:
  CorfFile(int fd, std::string path, FileInfo info, CorfFileOptions options)
      : fd_(fd), path_(std::move(path)), info_(std::move(info)),
        options_(options) {}

  int fd_ = -1;
  std::string path_;
  FileInfo info_;
  CorfFileOptions options_;
};

/// Reads only the header and directory of `path`.
Result<FileInfo> ReadFileInfo(const std::string& path);

/// Loads a single block (0-based index) from `path`.
Result<Block> ReadBlock(const std::string& path, size_t block_index,
                        bool verify = false);

/// Reads a whole compressed table back. With `verify`, payload checksums
/// are validated and blocks get the O(n) integrity checks of
/// Block::Deserialize.
Result<CompressedTable> ReadCompressedTable(const std::string& path,
                                            bool verify = false);

}  // namespace corra

#endif  // CORRA_STORAGE_FILE_IO_H_
