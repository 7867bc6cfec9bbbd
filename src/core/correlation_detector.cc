#include "core/correlation_detector.h"

#include <algorithm>
#include <unordered_map>

#include "core/diff_encoding.h"
#include "core/hierarchical_encoding.h"

namespace corra {

namespace {

// Densifies arbitrary reference values into codes 0..C-1 (first-seen
// order) so the hierarchical estimator can run on any column.
std::vector<int64_t> Densify(std::span<const int64_t> values) {
  std::unordered_map<int64_t, int64_t> codes;
  std::vector<int64_t> out;
  out.reserve(values.size());
  for (int64_t v : values) {
    const auto [it, inserted] =
        codes.emplace(v, static_cast<int64_t>(codes.size()));
    out.push_back(it->second);
  }
  return out;
}

}  // namespace

Result<std::vector<CorrelationSuggestion>> DetectCorrelations(
    std::span<const CandidateColumn> columns,
    const DetectorOptions& options) {
  const size_t n = columns.size();
  if (n < 2) {
    return Status::InvalidArgument("need at least two columns");
  }
  const size_t rows = columns[0].values.size();
  for (const auto& c : columns) {
    if (c.values.size() != rows) {
      return Status::InvalidArgument("columns differ in length");
    }
  }

  // Vertical baselines per column (on samples).
  std::vector<size_t> vertical(n);
  for (size_t i = 0; i < n; ++i) {
    vertical[i] = BestVerticalEstimate(columns[i].values,
                                       options.sample_limit);
  }

  std::vector<CorrelationSuggestion> suggestions;
  std::vector<int64_t> target_sample;
  std::vector<int64_t> ref_sample;
  for (uint32_t t = 0; t < n; ++t) {
    for (uint32_t r = 0; r < n; ++r) {
      if (t == r) {
        continue;
      }
      PairedSample(columns[t].values, columns[r].values,
                   options.sample_limit, &target_sample, &ref_sample);
      CorrelationSuggestion best;
      best.scheme = enc::Scheme::kDiff;
      best.target = t;
      best.reference = r;
      best.vertical_bytes = vertical[t];
      best.horizontal_bytes = SIZE_MAX;
      if (options.consider_diff) {
        const size_t est = ScaleEstimate(
            DiffEncodedColumn::EstimateSizeBytes(target_sample, ref_sample,
                                                 options.diff_options),
            target_sample.size(), rows);
        if (est < best.horizontal_bytes) {
          best.horizontal_bytes = est;
          best.scheme = enc::Scheme::kDiff;
        }
      }
      if (options.consider_hierarchical) {
        // Note: metadata scales sublinearly with rows, so the scaled
        // estimate is conservative (an upper bound) for the metadata part.
        const std::vector<int64_t> dense = Densify(ref_sample);
        const size_t est = ScaleEstimate(
            HierarchicalColumn::EstimateSizeBytes(target_sample, dense),
            target_sample.size(), rows);
        if (est < best.horizontal_bytes) {
          best.horizontal_bytes = est;
          best.scheme = enc::Scheme::kHierarchical;
        }
      }
      if (best.horizontal_bytes == SIZE_MAX || best.vertical_bytes == 0) {
        continue;
      }
      best.saving_rate = 1.0 - static_cast<double>(best.horizontal_bytes) /
                                   static_cast<double>(best.vertical_bytes);
      if (best.saving_rate >= options.min_saving_rate) {
        suggestions.push_back(best);
      }
    }
  }
  std::sort(suggestions.begin(), suggestions.end(),
            [](const CorrelationSuggestion& a,
               const CorrelationSuggestion& b) {
              if (a.saving_rate != b.saving_rate) {
                return a.saving_rate > b.saving_rate;
              }
              if (a.target != b.target) {
                return a.target < b.target;
              }
              return a.reference < b.reference;
            });
  return suggestions;
}

}  // namespace corra
