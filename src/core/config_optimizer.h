// Optimal diff-encoding configuration — the paper's Fig. 2.
//
// Build a complete directed graph over candidate columns: the weight of an
// edge a -> b is the compressed size column a would have when diff-encoded
// with b as its reference; vertex weights are the best single-column sizes.
// A cost-based greedy pass (the strategy of CorBit, Lyu et al.) then picks
// which columns become references and which get diff-encoded. On TPC-H's
// three date columns this selects shipdate as the reference of both
// commitdate and receiptdate, saving 82.5 MB at SF 10.
//
// The paper leaves "a diff-encoded column becomes itself a reference"
// (chains) as future work; max_chain_depth > 1 enables that extension here.

#ifndef CORRA_CORE_CONFIG_OPTIMIZER_H_
#define CORRA_CORE_CONFIG_OPTIMIZER_H_

#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/diff_encoding.h"

namespace corra {

/// A named column participating in the optimization.
struct CandidateColumn {
  std::string name;
  std::span<const int64_t> values;
};

/// What the optimizer decided for one column.
enum class ColumnRole {
  kVertical,     // Best single-column scheme.
  kReference,    // Stays vertical; other columns diff against it.
  kDiffEncoded,  // Diff-encoded against `reference`.
};

std::string_view ColumnRoleToString(ColumnRole role);

struct ColumnAssignment {
  ColumnRole role = ColumnRole::kVertical;
  int reference = -1;        // Candidate index, when role == kDiffEncoded.
  size_t vertical_size = 0;  // Estimated best single-column size (bytes).
  size_t assigned_size = 0;  // Estimated size under the chosen role.
  int chain_depth = 0;       // 0 for vertical/reference, >=1 when diffed.
};

struct OptimizerOptions {
  /// Rows sampled (strided) for size estimation; 0 = use all rows.
  size_t sample_limit = 1 << 16;
  /// Options forwarded to the diff-size estimator.
  DiffOptions diff_options;
  /// 1 reproduces the paper (diff-encoded columns cannot be references);
  /// larger values allow reference chains of that depth.
  int max_chain_depth = 1;
};

/// The optimizer's output: per-column roles plus the full edge-weight
/// matrix (Fig. 2's graph) for inspection.
struct DiffConfig {
  std::vector<ColumnAssignment> assignments;
  /// edge_sizes[a][b] = estimated bytes of column a diff-encoded w.r.t. b
  /// (SIZE_MAX on the diagonal / inapplicable pairs).
  std::vector<std::vector<size_t>> edge_sizes;
  size_t total_vertical_bytes = 0;
  size_t total_assigned_bytes = 0;

  size_t saving_bytes() const {
    return total_vertical_bytes - total_assigned_bytes;
  }
};

/// Runs the cost-based greedy configuration search.
Result<DiffConfig> OptimizeDiffConfig(
    std::span<const CandidateColumn> candidates,
    const OptimizerOptions& options = {});

// Sample-based size estimation, shared with the correlation detector
// (core/correlation_detector.h).

/// Paired strided sample of at most `limit` rows (0 = all): row i of both
/// columns is kept or dropped together, as diff estimation needs aligned
/// rows.
void PairedSample(std::span<const int64_t> a, std::span<const int64_t> b,
                  size_t limit, std::vector<int64_t>* out_a,
                  std::vector<int64_t>* out_b);

/// Rescales an estimate made on `sample_rows` rows to `full_rows`.
/// Estimates are dominated by the per-row payload, which scales
/// linearly. SIZE_MAX (inapplicable) passes through.
size_t ScaleEstimate(size_t sample_bytes, size_t sample_rows,
                     size_t full_rows);

/// The smallest constant-time-access vertical size of `values`,
/// estimated on a strided sample of at most `sample_limit` rows
/// (0 = all) and scaled to the full column.
size_t BestVerticalEstimate(std::span<const int64_t> values,
                            size_t sample_limit);

}  // namespace corra

#endif  // CORRA_CORE_CONFIG_OPTIMIZER_H_
