// C3's 1-to-1 scheme: "specialized for the case where one could directly
// infer the diff-encoded column from the reference column" (paper Table 3).
//
// For every distinct reference value the dominant target value is stored in
// a mapping table; rows deviating from their mapped value go to the outlier
// store. When the pair is a true functional dependency the per-row payload
// is zero bits — the entire column collapses into the map.

#ifndef CORRA_CORE_C3_ONE_TO_ONE_H_
#define CORRA_CORE_C3_ONE_TO_ONE_H_

#include <memory>
#include <span>
#include <vector>

#include "core/horizontal.h"
#include "core/outlier_store.h"

namespace corra::c3 {

class OneToOneColumn final : public SingleRefColumn {
 public:
  /// Encodes `target` as a function of `reference`. Fails if the deviating
  /// rows exceed `max_outlier_fraction` (the pair is not 1-to-1-ish).
  static Result<std::unique_ptr<OneToOneColumn>> Encode(
      std::span<const int64_t> target, std::span<const int64_t> reference,
      uint32_t ref_index, double max_outlier_fraction = 0.05);

  /// Compressed size without encoding. SIZE_MAX if the outlier fraction
  /// would exceed `max_outlier_fraction`.
  static size_t EstimateSizeBytes(std::span<const int64_t> target,
                                  std::span<const int64_t> reference,
                                  double max_outlier_fraction = 0.05);

  static Result<std::unique_ptr<OneToOneColumn>> Deserialize(
      BufferReader* reader);

  enc::Scheme scheme() const override { return enc::Scheme::kC3OneToOne; }
  size_t size() const override { return count_; }
  size_t SizeBytes() const override;
  int64_t Get(size_t row) const override;
  void GatherWithReference(std::span<const uint32_t> rows,
                           const int64_t* ref_values,
                           int64_t* out) const override;
  void DecodeRangeWithReference(size_t row_begin, size_t count,
                                const int64_t* ref_values,
                                int64_t* out) const override;
  void Serialize(BufferWriter* writer) const override;

  size_t map_size() const { return keys_.size(); }
  const OutlierStore& outliers() const { return outliers_; }

 private:
  OneToOneColumn(uint32_t ref_index, std::vector<int64_t> keys,
                 std::vector<int64_t> mapped, size_t count,
                 OutlierStore outliers);

  // The mapped value for `ref_value` (binary search over keys_); 0 for a
  // value with no key.
  int64_t MapValue(int64_t ref_value) const;

  std::vector<int64_t> keys_;    // Sorted distinct reference values.
  std::vector<int64_t> mapped_;  // Dominant target value per key.
  size_t count_ = 0;
  OutlierStore outliers_;
};

}  // namespace corra::c3

#endif  // CORRA_CORE_C3_ONE_TO_ONE_H_
