// CorraCompressor — the library's top-level entry point.
//
// A CompressionPlan assigns every table column either a vertical scheme
// (explicit, or auto-selected by the baseline selector) or one of Corra's
// horizontal schemes together with its reference column(s). Compress then
// splits the table into self-contained blocks (1M rows by default, as in
// the paper) and encodes each block under the plan.
//
// Typical use:
//
//   corra::Table table = ...;
//   corra::CompressionPlan plan =
//       corra::CompressionPlan::AllAuto(table.num_columns());
//   plan.columns[receipt_idx].scheme = corra::enc::Scheme::kDiff;
//   plan.columns[receipt_idx].reference = ship_idx;
//   CORRA_ASSIGN_OR_RETURN(auto compressed,
//                          corra::CorraCompressor::Compress(table, plan));

#ifndef CORRA_CORE_CORRA_COMPRESSOR_H_
#define CORRA_CORE_CORRA_COMPRESSOR_H_

#include <vector>

#include "core/config_optimizer.h"
#include "core/diff_encoding.h"
#include "core/multi_ref_encoding.h"
#include "encoding/selector.h"
#include "storage/table.h"

namespace corra {

/// How one column is to be compressed.
struct ColumnPlan {
  /// When true the baseline selector picks the cheapest vertical scheme
  /// and `scheme` is ignored.
  bool auto_vertical = true;

  /// Explicit scheme (vertical or horizontal) when auto_vertical is false.
  enc::Scheme scheme = enc::Scheme::kPlain;

  /// Table-level index of the reference column (single-reference
  /// horizontal schemes). The reference must not be the column itself.
  int reference = -1;

  /// Options for Scheme::kDiff.
  DiffOptions diff_options;

  /// Formula table for Scheme::kMultiRef. Group members are table-level
  /// column indices (block-local indices coincide with table indices).
  FormulaTable formulas;

  /// Outlier budget for kMultiRef / kC3OneToOne.
  double max_outlier_fraction = 0.05;
};

struct CompressionPlan {
  std::vector<ColumnPlan> columns;
  /// Rows per self-contained block (paper: 1M tuples).
  size_t block_rows = kDefaultBlockRows;
  /// Worker threads compressing blocks concurrently (blocks are
  /// independent, so the output is identical for any thread count).
  size_t num_threads = 1;

  /// Has no effect: every scheme has one layout. Kept only so callers
  /// that still assign it compile.
  enc::WorkloadHint workload = enc::WorkloadHint::kAnalytic;

  /// Every column auto-selected vertical (the paper's baseline).
  static CompressionPlan AllAuto(size_t num_columns);

  /// Every column stored Plain (the paper's "uncompressed" latency case).
  static CompressionPlan AllPlain(size_t num_columns);
};

class CorraCompressor {
 public:
  /// Compresses `table` under `plan`, producing one block per
  /// plan.block_rows rows.
  static Result<CompressedTable> Compress(const Table& table,
                                          const CompressionPlan& plan);

  /// Fully decompresses back into an in-memory Table (string columns get
  /// their dictionaries rebuilt from block 0's copy). Inverse of
  /// Compress up to dictionary code assignment.
  static Result<Table> Decompress(const CompressedTable& compressed);

  /// Convenience: runs the Fig. 2 optimizer over the listed columns and
  /// converts its assignment into a plan (all other columns auto
  /// vertical).
  static Result<CompressionPlan> PlanFromOptimizer(
      const Table& table, std::span<const size_t> candidate_columns,
      const OptimizerOptions& options = {});
};

}  // namespace corra

#endif  // CORRA_CORE_CORRA_COMPRESSOR_H_
