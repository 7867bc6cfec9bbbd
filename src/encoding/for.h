// Frame-of-Reference encoding: store min(values) once and bit-pack the
// non-negative offsets to it. Together with Dict this forms the paper's
// single-column baseline ("FOR- or Dict-encoding schemes, followed by a
// bit-packing"), chosen for its O(1) random access.

#ifndef CORRA_ENCODING_FOR_H_
#define CORRA_ENCODING_FOR_H_

#include <memory>
#include <span>

#include "common/bit_stream.h"
#include "common/bit_util.h"
#include "encoding/encoded_column.h"

namespace corra::enc {

class ForColumn final : public EncodedColumn {
 public:
  /// Encodes `values` relative to their minimum. Never fails: offsets are
  /// taken in uint64 space, so any int64 range fits (at most 64 bits). The
  /// Result matches the other encoders' factories.
  static Result<std::unique_ptr<ForColumn>> Encode(
      std::span<const int64_t> values);
  /// Same, given the values' min and max (a statistics pass already made).
  static Result<std::unique_ptr<ForColumn>> Encode(
      std::span<const int64_t> values, bit_util::MinMax range);

  /// Compressed size `values` would have (payload + base), without
  /// encoding.
  static size_t EstimateSizeBytes(std::span<const int64_t> values);
  /// Same, from the row count and the values' min and max.
  static size_t EstimateSizeBytes(size_t count, bit_util::MinMax range);

  static Result<std::unique_ptr<ForColumn>> Deserialize(BufferReader* reader);

  Scheme scheme() const override { return Scheme::kFor; }
  size_t size() const override { return packed_.size(); }
  size_t SizeBytes() const override;
  int64_t Get(size_t row) const override {
    // Wrap-around add in uint64 space, as Encode subtracted.
    return static_cast<int64_t>(static_cast<uint64_t>(base_) +
                                packed_.Get(row));
  }
  void GatherRange(std::span<const uint32_t> rows,
                   int64_t* out) const override;
  void DecodeRange(size_t row_begin, size_t count,
                   int64_t* out) const override;
  void Serialize(BufferWriter* writer) const override;

  int64_t base() const { return base_; }
  int bit_width() const { return packed_.bit_width(); }

  /// The packed offsets from base(), which filter and aggregate pushdown
  /// read in place: a filter compares them against the rebased range and
  /// a sum folds them (sum = n * base + sum of offsets, no per-row
  /// rebase).
  const PackedArray& offsets() const { return packed_; }

 private:
  ForColumn(int64_t base, PackedArray packed)
      : base_(base), packed_(std::move(packed)) {}

  int64_t base_ = 0;
  PackedArray packed_;  // Offsets from base_.
};

}  // namespace corra::enc

#endif  // CORRA_ENCODING_FOR_H_
