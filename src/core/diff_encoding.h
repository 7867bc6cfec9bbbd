// Non-hierarchical (diff) encoding — the paper's Sec. 2.1.
//
// The diff-encoded column stores, per row, the difference to a reference
// column ("horizontal" encoding): commitdate is stored as
// commitdate - shipdate. Because such differences are bounded in correlated
// data, the bit width collapses (12 bits -> 5 bits for TPC-H receiptdate,
// Table 2).
//
// Storage of the diffs follows the paper exactly (the Fig. 2 edge weights
// pin it down):
//   * all diffs non-negative -> raw bit-packing
//     (receiptdate - shipdate in [1, 30]: 5 bits -> 37.5 MB at SF 10);
//   * any negative diff -> zig-zag then bit-packing
//     (shipdate - receiptdate in [-30, -1]: 6 bits -> 45 MB — the paper's
//     asymmetric edge weights that make shipdate the greedy reference).
//
// When the outlier store is enabled (Sec. 2.1 "Outlier Detection"), the
// scheme switches to a windowed frame-of-reference over the diffs: rare
// wide diffs move to the side store and the window is chosen by total
// cost. This mode generalizes the paper's outlier architecture.

#ifndef CORRA_CORE_DIFF_ENCODING_H_
#define CORRA_CORE_DIFF_ENCODING_H_

#include <memory>
#include <span>
#include <vector>

#include "common/bit_stream.h"
#include "core/horizontal.h"
#include "core/outlier_store.h"

namespace corra {

/// Tuning knobs for diff encoding.
struct DiffOptions {
  /// Enables the outlier store. Off by default: in the paper's datasets,
  /// "the simple case of single reference columns did not require any
  /// special outlier handling".
  bool use_outliers = false;
  /// Upper bound on the fraction of rows allowed to become outliers.
  double max_outlier_fraction = 0.01;
};

/// How the packed diff payload is interpreted.
enum class DiffMode : uint8_t {
  kRaw = 0,     // diff = packed value (all diffs >= 0).
  kZigZag = 1,  // diff = ZigZagDecode(packed value).
  kWindow = 2,  // diff = base + packed value; outliers in the side store.
};

class DiffEncodedColumn final : public SingleRefColumn {
 public:
  /// Diff-encodes `target` against `reference` (same length).
  /// `ref_index` is the block-local index of the reference column.
  static Result<std::unique_ptr<DiffEncodedColumn>> Encode(
      std::span<const int64_t> target, std::span<const int64_t> reference,
      uint32_t ref_index, const DiffOptions& options = {});

  /// Compressed size `target` would have when diff-encoded against
  /// `reference`, without encoding. This is the edge weight of the
  /// optimizer graph (paper Fig. 2).
  static size_t EstimateSizeBytes(std::span<const int64_t> target,
                                  std::span<const int64_t> reference,
                                  const DiffOptions& options = {});

  static Result<std::unique_ptr<DiffEncodedColumn>> Deserialize(
      BufferReader* reader);

  enc::Scheme scheme() const override { return enc::Scheme::kDiff; }
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

  DiffMode mode() const { return mode_; }
  int bit_width() const { return packed_.bit_width(); }
  int64_t base() const { return base_; }
  const OutlierStore& outliers() const { return outliers_; }

 private:
  DiffEncodedColumn(uint32_t ref_index, DiffMode mode, int64_t base,
                    PackedArray packed, OutlierStore outliers);

  // The decoded diff at `row` (window-mode outliers not considered).
  int64_t DiffAt(size_t row) const;

  DiffMode mode_;
  int64_t base_;                  // Window base (kWindow mode only).
  PackedArray packed_;            // Diffs, coded per mode_.
  OutlierStore outliers_;
};

}  // namespace corra

#endif  // CORRA_CORE_DIFF_ENCODING_H_
