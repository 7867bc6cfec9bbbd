#include "core/config_optimizer.h"

#include <algorithm>

#include "encoding/selector.h"

namespace corra {

std::string_view ColumnRoleToString(ColumnRole role) {
  switch (role) {
    case ColumnRole::kVertical:
      return "vertical";
    case ColumnRole::kReference:
      return "reference";
    case ColumnRole::kDiffEncoded:
      return "diff-encoded";
  }
  return "unknown";
}

namespace {

// Strided sample of `values` with at most `limit` elements (0 = all).
std::vector<int64_t> StridedSample(std::span<const int64_t> values,
                                   size_t limit) {
  if (limit == 0 || values.size() <= limit) {
    return std::vector<int64_t>(values.begin(), values.end());
  }
  const size_t stride = values.size() / limit;
  std::vector<int64_t> sample;
  sample.reserve(limit);
  for (size_t i = 0; i < values.size() && sample.size() < limit;
       i += stride) {
    sample.push_back(values[i]);
  }
  return sample;
}

}  // namespace

void PairedSample(std::span<const int64_t> a, std::span<const int64_t> b,
                  size_t limit, std::vector<int64_t>* out_a,
                  std::vector<int64_t>* out_b) {
  if (limit == 0 || a.size() <= limit) {
    out_a->assign(a.begin(), a.end());
    out_b->assign(b.begin(), b.end());
    return;
  }
  const size_t stride = a.size() / limit;
  out_a->clear();
  out_b->clear();
  out_a->reserve(limit);
  out_b->reserve(limit);
  for (size_t i = 0; i < a.size() && out_a->size() < limit; i += stride) {
    out_a->push_back(a[i]);
    out_b->push_back(b[i]);
  }
}

size_t ScaleEstimate(size_t sample_bytes, size_t sample_rows,
                     size_t full_rows) {
  if (sample_rows == 0 || sample_bytes == SIZE_MAX) {
    return sample_bytes;
  }
  const double factor = static_cast<double>(full_rows) /
                        static_cast<double>(sample_rows);
  return static_cast<size_t>(static_cast<double>(sample_bytes) * factor);
}

size_t BestVerticalEstimate(std::span<const int64_t> values,
                            size_t sample_limit) {
  const std::vector<int64_t> sample = StridedSample(values, sample_limit);
  size_t best = SIZE_MAX;
  for (const auto& e : enc::EstimateSchemes(
           sample, enc::SelectionPolicy::kConstantTimeAccessOnly)) {
    best = std::min(best, e.size_bytes);
  }
  return ScaleEstimate(best, sample.size(), values.size());
}

Result<DiffConfig> OptimizeDiffConfig(
    std::span<const CandidateColumn> candidates,
    const OptimizerOptions& options) {
  const size_t n = candidates.size();
  if (n < 2) {
    return Status::InvalidArgument("need at least two candidate columns");
  }
  const size_t rows = candidates[0].values.size();
  for (const auto& c : candidates) {
    if (c.values.size() != rows) {
      return Status::InvalidArgument("candidate columns differ in length");
    }
  }
  if (options.max_chain_depth < 1) {
    return Status::InvalidArgument("max_chain_depth must be >= 1");
  }

  DiffConfig config;
  config.assignments.resize(n);
  config.edge_sizes.assign(n, std::vector<size_t>(n, SIZE_MAX));

  // Vertex weights: best single-column size.
  for (size_t i = 0; i < n; ++i) {
    config.assignments[i].vertical_size =
        BestVerticalEstimate(candidates[i].values, options.sample_limit);
    config.assignments[i].assigned_size =
        config.assignments[i].vertical_size;
  }

  // Edge weights: size of a diff-encoded w.r.t. b, for all ordered pairs.
  std::vector<int64_t> sample_a;
  std::vector<int64_t> sample_b;
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = 0; b < n; ++b) {
      if (a == b) {
        continue;
      }
      PairedSample(candidates[a].values, candidates[b].values,
                   options.sample_limit, &sample_a, &sample_b);
      const size_t est = DiffEncodedColumn::EstimateSizeBytes(
          sample_a, sample_b, options.diff_options);
      config.edge_sizes[a][b] = ScaleEstimate(est, sample_a.size(), rows);
    }
  }

  // Cost-based greedy: repeatedly take the edge with the largest positive
  // saving whose source is still unassigned and whose target is allowed to
  // serve as a reference at the current chain depth.
  std::vector<bool> is_reference(n, false);
  while (true) {
    size_t best_a = n;
    size_t best_b = n;
    size_t best_saving = 0;
    for (size_t a = 0; a < n; ++a) {
      const auto& aa = config.assignments[a];
      // A column that is already diff-encoded or already serves as a
      // reference keeps its role.
      if (aa.role != ColumnRole::kVertical || is_reference[a]) {
        continue;
      }
      for (size_t b = 0; b < n; ++b) {
        if (a == b || config.edge_sizes[a][b] == SIZE_MAX) {
          continue;
        }
        const auto& ab = config.assignments[b];
        // The reference's own chain depth must leave room for one more
        // hop. Depth 0 (vertical/reference) always qualifies; depth d
        // qualifies iff d < max_chain_depth.
        if (ab.role == ColumnRole::kDiffEncoded &&
            ab.chain_depth >= options.max_chain_depth) {
          continue;
        }
        if (config.edge_sizes[a][b] >= aa.vertical_size) {
          continue;
        }
        const size_t saving =
            aa.vertical_size - config.edge_sizes[a][b];
        if (saving > best_saving) {
          best_saving = saving;
          best_a = a;
          best_b = b;
        }
      }
    }
    if (best_a == n) {
      break;
    }
    auto& src = config.assignments[best_a];
    auto& ref = config.assignments[best_b];
    src.role = ColumnRole::kDiffEncoded;
    src.reference = static_cast<int>(best_b);
    src.assigned_size = config.edge_sizes[best_a][best_b];
    src.chain_depth = ref.chain_depth + 1;
    is_reference[best_b] = true;
    if (ref.role == ColumnRole::kVertical) {
      ref.role = ColumnRole::kReference;
    }
  }

  for (const auto& a : config.assignments) {
    config.total_vertical_bytes += a.vertical_size;
    config.total_assigned_bytes += a.assigned_size;
  }
  return config;
}

}  // namespace corra
