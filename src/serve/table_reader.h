// TableReader — a lazily loading view of one CORF file.
//
// Open parses the header and directory exactly once (CorfFile keeps the
// file descriptor for positional reads); block payloads stay on disk
// until a scan asks for them. GetBlock routes through the shared
// BlockCache, so concurrent scans over the same reader — or over many
// readers sharing a cache — each deserialize a block at most once while
// it stays resident.
//
// The directory's per-block row counts give the reader its global row
// coordinate system (block_row_offsets) without touching any payload,
// which is what lets ScanService route global positions to blocks.
//
// A TableReader is immutable after Open; all methods are const and
// thread-safe.

#ifndef CORRA_SERVE_TABLE_READER_H_
#define CORRA_SERVE_TABLE_READER_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "serve/block_cache.h"
#include "storage/file_io.h"

namespace corra::serve {

struct TableReaderOptions {
  /// Validate payload checksums and run block integrity checks on every
  /// load (the cost is paid once per cache miss, not per scan).
  bool verify_blocks = false;
  /// Retry/backoff policy for the underlying CorfFile's reads.
  CorfFileOptions io = {};
};

/// What one GetBlock call actually did — filled only when the caller
/// asks for it (the serving layer's trace spans split pin wait from
/// miss fill with this).
struct BlockFetchStats {
  /// True when this call ran the loader (a cold read + deserialize);
  /// false for a cache hit or for waiting out another caller's load.
  bool miss = false;
  /// Wall time spent inside the loader when miss is true.
  uint64_t fill_ns = 0;
  /// Read retries (re-issued preads + checksum re-reads) the loader
  /// absorbed — nonzero means the block was served despite faults.
  uint32_t retries = 0;
};

class TableReader {
 public:
  /// Opens `path`, registering it with `cache` (which must outlive the
  /// reader and must not be null).
  static Result<std::unique_ptr<TableReader>> Open(
      const std::string& path, std::shared_ptr<BlockCache> cache,
      TableReaderOptions options = {});

  /// Releases the reader's unpinned cache entries.
  ~TableReader();

  TableReader(const TableReader&) = delete;
  TableReader& operator=(const TableReader&) = delete;

  const std::string& path() const { return file_.path(); }
  const Schema& schema() const { return file_.info().schema; }
  const FileInfo& info() const { return file_.info(); }
  size_t num_blocks() const { return file_.num_blocks(); }
  uint64_t num_rows() const { return row_offsets_.back(); }
  uint64_t file_id() const { return file_id_; }

  /// Cumulative row offsets: offsets[b] is the global position of block
  /// b's first row; offsets.back() == num_rows() (num_blocks + 1
  /// entries). Suitable for query::SplitSelectionByBlocks.
  std::span<const uint64_t> block_row_offsets() const {
    return row_offsets_;
  }
  uint64_t block_rows(size_t b) const {
    return row_offsets_[b + 1] - row_offsets_[b];
  }

  /// Returns block `index`, pinned; loads (and caches) it on a miss.
  /// With a non-null `fetch` (and observability enabled), reports
  /// whether this call loaded the block and how long the load took.
  Result<BlockCache::Handle> GetBlock(
      size_t index, BlockFetchStats* fetch = nullptr) const;

 private:
  TableReader(CorfFile file, std::shared_ptr<BlockCache> cache,
              uint64_t file_id, TableReaderOptions options);

  CorfFile file_;
  std::shared_ptr<BlockCache> cache_;
  uint64_t file_id_ = 0;
  TableReaderOptions options_;
  std::vector<uint64_t> row_offsets_;
};

}  // namespace corra::serve

#endif  // CORRA_SERVE_TABLE_READER_H_
