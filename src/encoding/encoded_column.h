// EncodedColumn: the common interface of every compressed column.
//
// An encoded column answers point lookups (Get), batched selective
// materialization (GatherRange), and ranged decompression (DecodeRange),
// reports its compressed footprint (SizeBytes — the quantity in the
// paper's Table 2), and serializes itself into the self-contained block
// format.
//
// Horizontal (correlation-aware) columns additionally declare which sibling
// columns they reference; the owning Block resolves those references after
// deserialization via BindReferences.

#ifndef CORRA_ENCODING_ENCODED_COLUMN_H_
#define CORRA_ENCODING_ENCODED_COLUMN_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/buffer.h"
#include "common/result.h"
#include "common/status.h"
#include "encoding/scheme.h"

namespace corra::enc {

/// Rows per morsel of the batch decode pipeline. Query kernels walk
/// columns in fixed-size morsels so every scheme pays one (devirtualized)
/// dispatch per morsel instead of one per row, and the decoded vector
/// stays L1/L2-resident while the kernel consumes it.
inline constexpr size_t kMorselRows = 2048;

class EncodedColumn {
 public:
  virtual ~EncodedColumn() = default;

  EncodedColumn(const EncodedColumn&) = delete;
  EncodedColumn& operator=(const EncodedColumn&) = delete;

  /// Which encoding this column uses.
  virtual Scheme scheme() const = 0;

  /// Number of rows.
  virtual size_t size() const = 0;

  /// Compressed footprint in bytes: packed payload plus scheme metadata
  /// (dictionaries, offsets arrays, outlier stores). Excludes alignment
  /// padding so the number is directly comparable to the paper's Table 2.
  virtual size_t SizeBytes() const = 0;

  /// The logical value at `row` (precondition: row < size()).
  virtual int64_t Get(size_t row) const = 0;

  /// The selection-driven sparse-decode kernel: materializes the values
  /// at the sorted row positions `rows` into `out` (rows.size() values)
  /// *without* densifying the rows in between. Every scheme implements
  /// this with a positioned fast path — vpgatherqq-style packed-stream
  /// gathers for the bit-packed schemes, checkpoint-indexed seeks for
  /// Delta/RLE, and a reference-morsel gather loop for the horizontal
  /// schemes — so selective scans never bottom out in a per-row virtual
  /// Get. Positions are expected ascending; out-of-order positions are
  /// tolerated (the seeking schemes re-anchor) but forfeit the fast path.
  virtual void GatherRange(std::span<const uint32_t> rows,
                           int64_t* out) const = 0;

  /// Decompresses the whole column into `out` (size() values).
  void DecodeAll(int64_t* out) const { DecodeRange(0, size(), out); }

  /// Decompresses the dense row range [row_begin, row_begin + count) into
  /// `out` (count values; row_begin + count <= size()). This is the
  /// ranged kernel the morsel pipeline is built on: every scheme
  /// implements it with a sequential fast path (word-at-a-time unpack,
  /// rebase loop, code-range translate, checkpoint-seek-then-run), so
  /// generic query paths never fall back to a per-row virtual Get.
  virtual void DecodeRange(size_t row_begin, size_t count,
                           int64_t* out) const = 0;

  /// Appends the full wire representation (scheme byte first).
  virtual void Serialize(BufferWriter* writer) const = 0;

  /// Block-local indices of the columns this one references (empty for
  /// vertical schemes). Order matches BindReferences.
  virtual std::vector<uint32_t> ReferenceIndices() const { return {}; }

  /// Wires the resolved reference columns (same order as
  /// ReferenceIndices). Vertical schemes accept only an empty span.
  virtual Status BindReferences(
      std::span<const EncodedColumn* const> references);

 protected:
  EncodedColumn() = default;
};

}  // namespace corra::enc

#endif  // CORRA_ENCODING_ENCODED_COLUMN_H_
