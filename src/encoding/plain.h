// Plain (uncompressed) column: raw 64-bit values.
//
// Used for the "uncompressed" bars in the paper's Figures 6 and 7 and as
// the selector's fallback when no scheme compresses.

#ifndef CORRA_ENCODING_PLAIN_H_
#define CORRA_ENCODING_PLAIN_H_

#include <memory>
#include <span>
#include <vector>

#include "encoding/encoded_column.h"

namespace corra::enc {

class PlainColumn final : public EncodedColumn {
 public:
  /// Stores a copy of `values` verbatim.
  static std::unique_ptr<PlainColumn> Encode(std::span<const int64_t> values);

  /// Reads back a column written by Serialize (scheme byte consumed).
  static Result<std::unique_ptr<PlainColumn>> Deserialize(
      BufferReader* reader);

  Scheme scheme() const override { return Scheme::kPlain; }
  size_t size() const override { return values_.size(); }
  size_t SizeBytes() const override {
    return values_.size() * sizeof(int64_t);
  }
  int64_t Get(size_t row) const override { return values_[row]; }
  void GatherRange(std::span<const uint32_t> rows,
                   int64_t* out) const override;
  void DecodeRange(size_t row_begin, size_t count,
                   int64_t* out) const override;
  void Serialize(BufferWriter* writer) const override;

  /// Direct view of the stored values (used by scans on the
  /// "uncompressed" configuration).
  std::span<const int64_t> values() const { return values_; }

 private:
  explicit PlainColumn(std::vector<int64_t> values)
      : values_(std::move(values)) {}

  std::vector<int64_t> values_;
};

}  // namespace corra::enc

#endif  // CORRA_ENCODING_PLAIN_H_
