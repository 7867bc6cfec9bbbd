#include "encoding/selector.h"

#include <algorithm>
#include <optional>

#include "encoding/bitpack.h"
#include "encoding/delta.h"
#include "encoding/dictionary.h"
#include "encoding/for.h"
#include "encoding/plain.h"
#include "encoding/rle.h"

namespace corra::enc {

namespace {

// The estimates from one min/max pass (`range`) for Plain, BitPack and
// FOR, then Dict's distinct count into `distinct`, stopped once Dict can
// no longer come in strictly under the smallest of the three (see
// SchemeEstimate).
std::vector<SchemeEstimate> Estimate(std::span<const int64_t> values,
                                     bit_util::MinMax range,
                                     const SelectionOptions& options,
                                     std::optional<DistinctValues>* distinct) {
  std::vector<SchemeEstimate> estimates = {
      {Scheme::kPlain, values.size() * sizeof(int64_t)},
      {Scheme::kBitPack,
       BitPackColumn::EstimateSizeBytes(values.size(), range)},
      {Scheme::kFor, ForColumn::EstimateSizeBytes(values.size(), range)}};
  distinct->emplace(values, range,
                    std::min({estimates[0].size_bytes,
                              estimates[1].size_bytes,
                              estimates[2].size_bytes}));
  estimates.push_back({Scheme::kDict, (*distinct)->DictSizeBytes()});
  if (options.policy == SelectionPolicy::kAllowCheckpointedSchemes) {
    estimates.push_back(
        {Scheme::kDelta, DeltaColumn::EstimateSizeBytes(values)});
    estimates.push_back({Scheme::kRle, RleColumn::EstimateSizeBytes(values)});
  }
  return estimates;
}

}  // namespace

std::vector<SchemeEstimate> EstimateSchemes(std::span<const int64_t> values,
                                            const SelectionOptions& options) {
  std::optional<DistinctValues> distinct;
  return Estimate(values, bit_util::ComputeMinMax(values), options,
                  &distinct);
}

std::vector<SchemeEstimate> EstimateSchemes(std::span<const int64_t> values,
                                            SelectionPolicy policy) {
  return EstimateSchemes(values, SelectionOptions{.policy = policy});
}

Result<std::unique_ptr<EncodedColumn>> SelectBestScheme(
    std::span<const int64_t> values, const SelectionOptions& options) {
  return SelectBestScheme(values, bit_util::ComputeMinMax(values), options);
}

Result<std::unique_ptr<EncodedColumn>> SelectBestScheme(
    std::span<const int64_t> values, bit_util::MinMax range,
    const SelectionOptions& options) {
  std::optional<DistinctValues> distinct;
  const auto estimates = Estimate(values, range, options, &distinct);
  const auto best = std::min_element(
      estimates.begin(), estimates.end(),
      [](const SchemeEstimate& a, const SchemeEstimate& b) {
        return a.size_bytes < b.size_bytes;
      });
  switch (best->scheme) {
    case Scheme::kPlain:
      return std::unique_ptr<EncodedColumn>(PlainColumn::Encode(values));
    case Scheme::kBitPack: {
      CORRA_ASSIGN_OR_RETURN(auto col, BitPackColumn::Encode(values, range));
      return std::unique_ptr<EncodedColumn>(std::move(col));
    }
    case Scheme::kFor: {
      CORRA_ASSIGN_OR_RETURN(auto col, ForColumn::Encode(values, range));
      return std::unique_ptr<EncodedColumn>(std::move(col));
    }
    case Scheme::kDict:
      // Dict won, so it was strictly under the stop size: the count ran
      // to completion.
      return std::unique_ptr<EncodedColumn>(
          DictColumn::Encode(std::move(*distinct)));
    case Scheme::kDelta: {
      CORRA_ASSIGN_OR_RETURN(auto col, DeltaColumn::Encode(values));
      return std::unique_ptr<EncodedColumn>(std::move(col));
    }
    case Scheme::kRle: {
      CORRA_ASSIGN_OR_RETURN(auto col, RleColumn::Encode(values));
      return std::unique_ptr<EncodedColumn>(std::move(col));
    }
    default:
      return Status::Internal("selector produced non-vertical scheme");
  }
}

Result<std::unique_ptr<EncodedColumn>> SelectBestScheme(
    std::span<const int64_t> values, SelectionPolicy policy) {
  return SelectBestScheme(values, SelectionOptions{.policy = policy});
}

}  // namespace corra::enc
