// Fixed-width bit-packing of non-negative values.
//
// The simplest member of the baseline pool: width = bits of the maximum
// value. FOR (for.h) generalizes this by subtracting a base first; BitPack
// is kept separate because the paper's Fig. 2 uses "just bit-packing the
// individual columns" as its reference point.

#ifndef CORRA_ENCODING_BITPACK_H_
#define CORRA_ENCODING_BITPACK_H_

#include <memory>
#include <span>

#include "common/bit_stream.h"
#include "common/bit_util.h"
#include "encoding/encoded_column.h"

namespace corra::enc {

class BitPackColumn final : public EncodedColumn {
 public:
  /// Packs `values`; fails with InvalidArgument if any value is negative.
  static Result<std::unique_ptr<BitPackColumn>> Encode(
      std::span<const int64_t> values);
  /// Same, given the values' min and max (a statistics pass already made).
  static Result<std::unique_ptr<BitPackColumn>> Encode(
      std::span<const int64_t> values, bit_util::MinMax range);

  /// Compressed size `values` would have, without encoding them.
  /// Returns SIZE_MAX when the scheme is inapplicable (negative values).
  static size_t EstimateSizeBytes(std::span<const int64_t> values);
  /// Same, from the row count and the values' min and max.
  static size_t EstimateSizeBytes(size_t count, bit_util::MinMax range);

  static Result<std::unique_ptr<BitPackColumn>> Deserialize(
      BufferReader* reader);

  Scheme scheme() const override { return Scheme::kBitPack; }
  size_t size() const override { return packed_.size(); }
  size_t SizeBytes() const override;
  int64_t Get(size_t row) const override {
    return static_cast<int64_t>(packed_.Get(row));
  }
  void GatherRange(std::span<const uint32_t> rows,
                   int64_t* out) const override;
  void DecodeRange(size_t row_begin, size_t count,
                   int64_t* out) const override;
  void Serialize(BufferWriter* writer) const override;

  int bit_width() const { return packed_.bit_width(); }
  /// The packed values, which are their own codes: a filter compares
  /// them in place.
  const PackedArray& packed() const { return packed_; }

 private:
  explicit BitPackColumn(PackedArray packed) : packed_(std::move(packed)) {}

  PackedArray packed_;
};

}  // namespace corra::enc

#endif  // CORRA_ENCODING_BITPACK_H_
