// Best-single-scheme selector: the paper's baseline.
//
// "We compare Corra to a baseline that employs the best single-column
//  encoding scheme for each column. We use FOR- or Dict-encoding schemes,
//  followed by a bit-packing. We chose these because they allow for fast
//  random access into the compressed column; both RLE and Delta require
//  checkpoints." (Sec. 3)
//
// SelectBestScheme estimates the compressed size under every applicable
// scheme and encodes with the cheapest one. By default only O(1)-access
// schemes compete (the paper's rule); pass kAllowCheckpointedSchemes to add
// Delta and RLE to the pool (used by the ablation bench). The workload
// hint has no effect: every scheme has one physical layout.

#ifndef CORRA_ENCODING_SELECTOR_H_
#define CORRA_ENCODING_SELECTOR_H_

#include <memory>
#include <span>
#include <vector>

#include "common/bit_util.h"
#include "encoding/encoded_column.h"

namespace corra::enc {

/// Candidate pool policy for SelectBestScheme.
enum class SelectionPolicy {
  /// FOR, Dict, BitPack, Plain — fast random access only (paper baseline).
  kConstantTimeAccessOnly,
  /// Additionally consider Delta and RLE.
  kAllowCheckpointedSchemes,
};

/// Has no effect: every scheme has one layout. Kept only so callers
/// that still assign it compile.
enum class WorkloadHint {
  kAnalytic,
  kPointServing,
};

/// Knobs for SelectBestScheme beyond the candidate pool policy.
struct SelectionOptions {
  SelectionPolicy policy = SelectionPolicy::kConstantTimeAccessOnly;
  /// Has no effect (see WorkloadHint).
  WorkloadHint workload = WorkloadHint::kAnalytic;
};

/// Estimated compressed footprint of one candidate scheme.
///
/// Dict's distinct count stops as soon as Dict's size reaches the smallest
/// of the Plain, BitPack and FOR estimates: Dict follows them in the
/// first-minimum order, so it wins only when strictly smaller, and its
/// size never decreases as the count grows. Dict's entry is therefore
/// exact whenever Dict is the minimum; otherwise it may be a lower bound
/// that is still >= the winning estimate. Use only the list's minimum
/// (every in-repo caller does); DictColumn::EstimateSizeBytes is exact.
struct SchemeEstimate {
  Scheme scheme;
  size_t size_bytes;  // SIZE_MAX if the scheme is inapplicable.
};

/// Estimates all candidate sizes for `values` without encoding.
std::vector<SchemeEstimate> EstimateSchemes(std::span<const int64_t> values,
                                            const SelectionOptions& options);
std::vector<SchemeEstimate> EstimateSchemes(std::span<const int64_t> values,
                                            SelectionPolicy policy);

/// Encodes `values` with the smallest applicable scheme under `options`
/// (the first on ties), reusing the estimates' min/max and Dict's
/// distinct-value table.
Result<std::unique_ptr<EncodedColumn>> SelectBestScheme(
    std::span<const int64_t> values, const SelectionOptions& options);
Result<std::unique_ptr<EncodedColumn>> SelectBestScheme(
    std::span<const int64_t> values,
    SelectionPolicy policy = SelectionPolicy::kConstantTimeAccessOnly);
/// Same, given the values' min and max (the compressor's per-column
/// statistics pass).
Result<std::unique_ptr<EncodedColumn>> SelectBestScheme(
    std::span<const int64_t> values, bit_util::MinMax range,
    const SelectionOptions& options);

}  // namespace corra::enc

#endif  // CORRA_ENCODING_SELECTOR_H_
