// Self-contained data block — the unit of the paper's experimental setup:
// "We split all datasets into data blocks of 1M tuples. Each data block is
//  completely self-contained: all information required to decompress it is
//  contained within the block itself." (Sec. 3)
//
// A block owns one encoded column per schema field plus, for string
// columns, the dictionary needed to render codes back to text. Horizontal
// columns reference sibling columns *within the same block*; Build/
// Deserialize resolve those references (topologically, so reference chains
// from the optimizer's future-work mode also bind).

#ifndef CORRA_STORAGE_BLOCK_H_
#define CORRA_STORAGE_BLOCK_H_

#include <memory>
#include <optional>
#include <vector>

#include "common/bit_util.h"
#include "common/buffer.h"
#include "encoding/encoded_column.h"
#include "encoding/string_dict.h"

namespace corra {

/// Default block granularity (rows), as in the paper.
inline constexpr size_t kDefaultBlockRows = 1'000'000;

/// Most rows a block may hold: selection vectors and the filter kernels
/// carry 32-bit row ids.
inline constexpr size_t kMaxBlockRows = UINT32_MAX;

/// One encoded column plus its optional string dictionary.
struct BlockColumn {
  std::unique_ptr<enc::EncodedColumn> encoded;
  std::shared_ptr<const enc::StringDictionary> dict;  // Null if not string.
  /// Min and max of the column's values, recorded by the compressor from
  /// the raw slice; unset for a block that came from Deserialize.
  std::optional<bit_util::MinMax> range;
};

class Block {
 public:
  Block(Block&&) = default;
  Block& operator=(Block&&) = default;
  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;

  /// Assembles a block: validates equal row counts of at most
  /// kMaxBlockRows and resolves the reference indices of horizontal
  /// columns (rejecting cycles and out-of-range references).
  static Result<Block> Build(std::vector<BlockColumn> columns);

  size_t num_columns() const { return columns_.size(); }
  size_t rows() const {
    return columns_.empty() ? 0 : columns_[0].encoded->size();
  }

  const enc::EncodedColumn& column(size_t i) const {
    return *columns_[i].encoded;
  }
  const enc::StringDictionary* dictionary(size_t i) const {
    return columns_[i].dict.get();
  }
  /// Min and max of column `i`'s values when the compressor recorded
  /// them (see BlockColumn::range).
  const std::optional<bit_util::MinMax>& range(size_t i) const {
    return columns_[i].range;
  }

  /// Compressed footprint of column `i` (encoding + its string
  /// dictionary, matching the paper's Table 2 accounting).
  size_t ColumnSizeBytes(size_t i) const;

  /// Total compressed footprint of the block.
  size_t SizeBytes() const;

  /// Cheap per-block accounting for cache admission and eviction: a
  /// block cache charges Stats().encoded_bytes against its byte budget.
  struct Stats {
    size_t rows = 0;
    size_t columns = 0;
    size_t encoded_bytes = 0;
  };
  Stats GetStats() const {
    return Stats{rows(), num_columns(), SizeBytes()};
  }

  /// Serializes the whole block into one self-contained byte buffer.
  std::vector<uint8_t> Serialize() const;

  /// Rebuilds a block from bytes produced by Serialize, viewing its
  /// packed payloads in `bytes` (see the ownership note above).
  /// Corruption for a header of more than kMaxBlockRows rows. With
  /// `verify` set, runs O(n) integrity checks on horizontal columns.
  static Result<Block> Deserialize(const SharedBuffer& bytes,
                                   bool verify = false);
  /// As above over borrowed bytes, which the block may not outlive: every
  /// payload is copied.
  static Result<Block> Deserialize(std::span<const uint8_t> bytes,
                                   bool verify = false);

 private:
  explicit Block(std::vector<BlockColumn> columns)
      : columns_(std::move(columns)) {}

  static Result<Block> Deserialize(BufferReader* reader, bool verify);

  // Resolves ReferenceIndices of all columns; fails on cycles.
  static Status BindAll(std::vector<BlockColumn>* columns);

  std::vector<BlockColumn> columns_;
};

}  // namespace corra

#endif  // CORRA_STORAGE_BLOCK_H_
