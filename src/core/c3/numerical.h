// C3's Numerical scheme: generalizes non-hierarchical diff encoding as an
// affine function. The target is modeled as round(a * ref) + b plus a
// bit-packed residual; a least-squares slope captures affine-like
// correlations (e.g. Taxi dropoff ~ pickup) more tightly than a pure
// difference when the slope is not exactly 1.

#ifndef CORRA_CORE_C3_NUMERICAL_H_
#define CORRA_CORE_C3_NUMERICAL_H_

#include <memory>
#include <span>

#include "common/bit_stream.h"
#include "core/horizontal.h"

namespace corra::c3 {

class NumericalColumn final : public SingleRefColumn {
 public:
  static Result<std::unique_ptr<NumericalColumn>> Encode(
      std::span<const int64_t> target, std::span<const int64_t> reference,
      uint32_t ref_index);

  /// Compressed size without encoding (slope fit + residual scan).
  static size_t EstimateSizeBytes(std::span<const int64_t> target,
                                  std::span<const int64_t> reference);

  static Result<std::unique_ptr<NumericalColumn>> Deserialize(
      BufferReader* reader);

  enc::Scheme scheme() const override { return enc::Scheme::kC3Numerical; }
  size_t size() const override { return packed_.size(); }
  size_t SizeBytes() const override;
  int64_t Get(size_t row) const override;
  void GatherWithReference(std::span<const uint32_t> rows,
                           const int64_t* ref_values,
                           int64_t* out) const override;
  void DecodeRangeWithReference(size_t row_begin, size_t count,
                                const int64_t* ref_values,
                                int64_t* out) const override;
  void Serialize(BufferWriter* writer) const override;

  double slope() const { return slope_; }
  int bit_width() const { return packed_.bit_width(); }

 private:
  NumericalColumn(uint32_t ref_index, double slope, int64_t base,
                  PackedArray packed);

  int64_t Predict(int64_t ref_value) const;

  double slope_;
  int64_t base_;        // FOR base of the residuals.
  PackedArray packed_;  // Residual offsets from base_.
};

}  // namespace corra::c3

#endif  // CORRA_CORE_C3_NUMERICAL_H_
