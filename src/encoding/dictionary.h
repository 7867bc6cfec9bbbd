// Dictionary encoding: the sorted distinct values are stored once, each row
// stores a bit-packed code. The second member of the paper's baseline pool;
// wins over FOR when the distinct count is far below the value range (e.g.
// zip codes, dict-coded strings, IPs).

#ifndef CORRA_ENCODING_DICTIONARY_H_
#define CORRA_ENCODING_DICTIONARY_H_

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/bit_stream.h"
#include "common/bit_util.h"
#include "common/flat_hash.h"
#include "encoding/encoded_column.h"

namespace corra::enc {

/// Dict's size for `rows` codes over `distinct` dictionary entries:
/// CeilDiv(rows * BitWidth(distinct - 1), 8) + 8 * distinct. It never
/// decreases as `distinct` grows.
size_t DictSizeBytes(size_t rows, size_t distinct);

/// The distinct values of a column slice: the one pass that both sizes a
/// dictionary and builds it. A narrow domain (max - min < 2 * rows) is
/// counted in a table indexed by value - min; a wider one in a flat hash
/// that numbers the values in first-seen order.
class DistinctValues {
 public:
  /// Counts the distinct values of `values`, which must outlive this
  /// object and lie in `range` (their min and max). Stops as soon as the
  /// Dict size of the values counted so far reaches `stop_bytes` (Dict can
  /// then no longer come in under it). The hash is sized for
  /// min(rows, stop_bytes / 8 + 1) keys, the most an early stop lets in.
  DistinctValues(std::span<const int64_t> values, bit_util::MinMax range,
                 size_t stop_bytes = SIZE_MAX);

  /// DictSizeBytes of the values counted: exact when every value was
  /// counted; after an early stop, a lower bound that is >= stop_bytes.
  size_t DictSizeBytes() const {
    return enc::DictSizeBytes(values_.size(), count_);
  }

 private:
  friend class DictColumn;

  std::span<const int64_t> values_;
  bit_util::MinMax range_;
  size_t count_ = 0;
  // Narrow domain: slot value - min is nonzero once the value was seen.
  std::vector<uint32_t> slots_;
  // Wide domain (slots_ unused): ids in first-seen order.
  std::optional<FlatIdMap<int64_t>> ids_;
  bool complete_ = true;
};

class DictColumn final : public EncodedColumn {
 public:
  /// Builds the dictionary and packs one code per row.
  static Result<std::unique_ptr<DictColumn>> Encode(
      std::span<const int64_t> values);

  /// Encodes the values `distinct` counted (the selector's pass) and
  /// codes every row through the same table: a narrow domain's table,
  /// read in value order, gives the ranks; a wide domain's hash ids are
  /// ranked by sorting only the distinct values. A count that stopped
  /// early is first redone in full.
  static std::unique_ptr<DictColumn> Encode(DistinctValues distinct);

  /// Compressed size `values` would have (codes + dictionary), without
  /// encoding them: an exact, unbounded distinct count.
  static size_t EstimateSizeBytes(std::span<const int64_t> values);

  static Result<std::unique_ptr<DictColumn>> Deserialize(
      BufferReader* reader);

  Scheme scheme() const override { return Scheme::kDict; }
  size_t size() const override { return codes_.size(); }
  size_t SizeBytes() const override;
  int64_t Get(size_t row) const override {
    return dict_[codes_.Get(row)];
  }
  void GatherRange(std::span<const uint32_t> rows,
                   int64_t* out) const override;
  void DecodeRange(size_t row_begin, size_t count,
                   int64_t* out) const override;
  void Serialize(BufferWriter* writer) const override;

  /// The code stored at `row` (an index into dictionary()).
  uint64_t GetCode(size_t row) const { return codes_.Get(row); }
  /// The packed per-row codes, which filter and aggregate pushdown read
  /// in place (compare or fold codes, never touch values).
  const PackedArray& codes() const { return codes_; }
  std::span<const int64_t> dictionary() const { return dict_; }
  int bit_width() const { return codes_.bit_width(); }

 private:
  DictColumn(std::vector<int64_t> dict, PackedArray codes)
      : dict_(std::move(dict)), codes_(std::move(codes)) {}

  std::vector<int64_t> dict_;  // Sorted distinct values.
  PackedArray codes_;          // Per-row indices into dict_.
};

}  // namespace corra::enc

#endif  // CORRA_ENCODING_DICTIONARY_H_
