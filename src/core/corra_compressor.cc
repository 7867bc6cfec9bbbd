#include "core/corra_compressor.h"

#include <algorithm>
#include <thread>

#include "core/c3/dfor.h"
#include "core/c3/numerical.h"
#include "core/c3/one_to_one.h"
#include "core/hierarchical_encoding.h"
#include "encoding/bitpack.h"
#include "encoding/delta.h"
#include "encoding/dictionary.h"
#include "encoding/for.h"
#include "encoding/plain.h"
#include "encoding/rle.h"
#include "encoding/selector.h"

namespace corra {

CompressionPlan CompressionPlan::AllAuto(size_t num_columns) {
  CompressionPlan plan;
  plan.columns.resize(num_columns);
  return plan;
}

CompressionPlan CompressionPlan::AllPlain(size_t num_columns) {
  CompressionPlan plan;
  plan.columns.resize(num_columns);
  for (auto& c : plan.columns) {
    c.auto_vertical = false;
    c.scheme = enc::Scheme::kPlain;
  }
  return plan;
}

namespace {

Status ValidatePlan(const Table& table, const CompressionPlan& plan) {
  if (plan.columns.size() != table.num_columns()) {
    return Status::InvalidArgument("plan/table column count mismatch");
  }
  if (plan.block_rows == 0) {
    return Status::InvalidArgument("block_rows must be positive");
  }
  const int n = static_cast<int>(table.num_columns());
  for (size_t i = 0; i < plan.columns.size(); ++i) {
    const ColumnPlan& cp = plan.columns[i];
    if (cp.auto_vertical) {
      continue;
    }
    if (enc::IsSingleReference(cp.scheme)) {
      if (cp.reference < 0 || cp.reference >= n ||
          cp.reference == static_cast<int>(i)) {
        return Status::InvalidArgument(
            "horizontal scheme needs a valid reference column");
      }
    }
    if (cp.scheme == enc::Scheme::kMultiRef) {
      CORRA_RETURN_NOT_OK(cp.formulas.Validate());
      for (const auto& group : cp.formulas.groups) {
        for (uint32_t col : group) {
          if (col >= static_cast<uint32_t>(n) || col == i) {
            return Status::InvalidArgument(
                "multi-ref group member out of range");
          }
        }
      }
    }
  }
  return Status::OK();
}

// Encodes one column slice under an explicit vertical scheme.
Result<std::unique_ptr<enc::EncodedColumn>> EncodeVertical(
    enc::Scheme scheme, std::span<const int64_t> values,
    bit_util::MinMax range) {
  switch (scheme) {
    case enc::Scheme::kPlain:
      return std::unique_ptr<enc::EncodedColumn>(
          enc::PlainColumn::Encode(values));
    case enc::Scheme::kBitPack: {
      CORRA_ASSIGN_OR_RETURN(auto col,
                             enc::BitPackColumn::Encode(values, range));
      return std::unique_ptr<enc::EncodedColumn>(std::move(col));
    }
    case enc::Scheme::kFor: {
      CORRA_ASSIGN_OR_RETURN(auto col, enc::ForColumn::Encode(values, range));
      return std::unique_ptr<enc::EncodedColumn>(std::move(col));
    }
    case enc::Scheme::kDict:
      return std::unique_ptr<enc::EncodedColumn>(
          enc::DictColumn::Encode(enc::DistinctValues(values, range)));
    case enc::Scheme::kDelta: {
      CORRA_ASSIGN_OR_RETURN(auto col, enc::DeltaColumn::Encode(values));
      return std::unique_ptr<enc::EncodedColumn>(std::move(col));
    }
    case enc::Scheme::kRle: {
      CORRA_ASSIGN_OR_RETURN(auto col, enc::RleColumn::Encode(values));
      return std::unique_ptr<enc::EncodedColumn>(std::move(col));
    }
    default:
      return Status::InvalidArgument("not a vertical scheme");
  }
}

}  // namespace

namespace {

// Compresses rows [begin, begin+len) of every column into one block.
Result<Block> CompressOneBlock(const Table& table,
                               const CompressionPlan& plan, size_t begin,
                               size_t len) {
  std::vector<BlockColumn> block_columns(table.num_columns());
  for (size_t i = 0; i < table.num_columns(); ++i) {
    const ColumnPlan& cp = plan.columns[i];
    const auto slice = table.column(i).values().subspan(begin, len);
    BlockColumn& out = block_columns[i];
    out.dict = table.column(i).dictionary();
    // The column's one statistics pass: the block's min/max stats, and
    // the range the selector, FOR, BitPack, Dict and Hierarchical take
    // (blocks are never empty).
    const bit_util::MinMax range = bit_util::ComputeMinMax(slice);
    out.range = range;

    if (cp.auto_vertical) {
      CORRA_ASSIGN_OR_RETURN(
          out.encoded,
          enc::SelectBestScheme(slice, range, enc::SelectionOptions{}));
      continue;
    }
    switch (cp.scheme) {
      case enc::Scheme::kDiff: {
        const auto ref =
            table.column(cp.reference).values().subspan(begin, len);
        CORRA_ASSIGN_OR_RETURN(
            auto col, DiffEncodedColumn::Encode(
                          slice, ref, static_cast<uint32_t>(cp.reference),
                          cp.diff_options));
        out.encoded = std::move(col);
        break;
      }
      case enc::Scheme::kHierarchical: {
        const auto ref =
            table.column(cp.reference).values().subspan(begin, len);
        CORRA_ASSIGN_OR_RETURN(
            auto col,
            HierarchicalColumn::Encode(
                slice, ref, static_cast<uint32_t>(cp.reference), range));
        out.encoded = std::move(col);
        break;
      }
      case enc::Scheme::kMultiRef: {
        const auto resolver = [&table, begin,
                               len](uint32_t col) -> std::span<const int64_t> {
          return table.column(col).values().subspan(begin, len);
        };
        CORRA_ASSIGN_OR_RETURN(
            auto col, MultiRefColumn::Encode(slice, resolver, cp.formulas,
                                             cp.max_outlier_fraction));
        out.encoded = std::move(col);
        break;
      }
      case enc::Scheme::kC3Dfor: {
        const auto ref =
            table.column(cp.reference).values().subspan(begin, len);
        CORRA_ASSIGN_OR_RETURN(
            auto col, c3::DforColumn::Encode(
                          slice, ref, static_cast<uint32_t>(cp.reference)));
        out.encoded = std::move(col);
        break;
      }
      case enc::Scheme::kC3Numerical: {
        const auto ref =
            table.column(cp.reference).values().subspan(begin, len);
        CORRA_ASSIGN_OR_RETURN(
            auto col, c3::NumericalColumn::Encode(
                          slice, ref, static_cast<uint32_t>(cp.reference)));
        out.encoded = std::move(col);
        break;
      }
      case enc::Scheme::kC3OneToOne: {
        const auto ref =
            table.column(cp.reference).values().subspan(begin, len);
        CORRA_ASSIGN_OR_RETURN(
            auto col, c3::OneToOneColumn::Encode(
                          slice, ref, static_cast<uint32_t>(cp.reference),
                          cp.max_outlier_fraction));
        out.encoded = std::move(col);
        break;
      }
      default: {
        CORRA_ASSIGN_OR_RETURN(
            out.encoded,
            EncodeVertical(cp.scheme, slice, range));
        break;
      }
    }
  }
  return Block::Build(std::move(block_columns));
}

}  // namespace

Result<CompressedTable> CorraCompressor::Compress(
    const Table& table, const CompressionPlan& plan) {
  CORRA_RETURN_NOT_OK(ValidatePlan(table, plan));
  if (table.num_rows() == 0) {
    return Status::InvalidArgument("cannot compress an empty table");
  }
  const size_t rows = table.num_rows();
  const size_t num_blocks = (rows + plan.block_rows - 1) / plan.block_rows;

  // Blocks are independent: compress them on num_threads workers (strided
  // assignment keeps the output order deterministic regardless of thread
  // count).
  std::vector<std::unique_ptr<Block>> block_slots(num_blocks);
  std::vector<Status> block_status(num_blocks);
  const auto worker = [&](size_t thread_id, size_t stride) {
    for (size_t b = thread_id; b < num_blocks; b += stride) {
      const size_t begin = b * plan.block_rows;
      const size_t len = std::min(plan.block_rows, rows - begin);
      auto block = CompressOneBlock(table, plan, begin, len);
      if (block.ok()) {
        block_slots[b] =
            std::make_unique<Block>(std::move(block).value());
      } else {
        block_status[b] = block.status();
      }
    }
  };
  const size_t threads =
      std::clamp<size_t>(plan.num_threads, 1, std::max<size_t>(num_blocks, 1));
  if (threads <= 1) {
    worker(0, 1);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (size_t t = 0; t < threads; ++t) {
      pool.emplace_back(worker, t, threads);
    }
    for (auto& thread : pool) {
      thread.join();
    }
  }
  std::vector<Block> blocks;
  blocks.reserve(num_blocks);
  for (size_t b = 0; b < num_blocks; ++b) {
    CORRA_RETURN_NOT_OK(block_status[b]);
    blocks.push_back(std::move(*block_slots[b]));
  }
  return CompressedTable(table.schema(), std::move(blocks));
}

Result<Table> CorraCompressor::Decompress(
    const CompressedTable& compressed) {
  if (compressed.num_blocks() == 0) {
    return Status::InvalidArgument("compressed table has no blocks");
  }
  Table table;
  for (size_t c = 0; c < compressed.schema().num_fields(); ++c) {
    const Field& field = compressed.schema().field(c);
    std::vector<int64_t> values = compressed.DecodeColumn(c);
    switch (field.type) {
      case LogicalType::kInt64: {
        CORRA_RETURN_NOT_OK(
            table.AddColumn(Column::Int64(field.name, std::move(values))));
        break;
      }
      case LogicalType::kDate: {
        CORRA_RETURN_NOT_OK(
            table.AddColumn(Column::Date(field.name, std::move(values))));
        break;
      }
      case LogicalType::kTimestamp: {
        CORRA_RETURN_NOT_OK(table.AddColumn(
            Column::Timestamp(field.name, std::move(values))));
        break;
      }
      case LogicalType::kMoney: {
        CORRA_RETURN_NOT_OK(
            table.AddColumn(Column::Money(field.name, std::move(values))));
        break;
      }
      case LogicalType::kString: {
        // All blocks carry the same dictionary (the compressor shares the
        // source column's); block 0's copy restores the column.
        const enc::StringDictionary* dict = compressed.block(0).dictionary(c);
        if (dict == nullptr) {
          return Status::Corruption("string column without dictionary");
        }
        auto shared = std::make_shared<enc::StringDictionary>();
        for (size_t code = 0; code < dict->size(); ++code) {
          shared->GetOrInsert((*dict)[code]);
        }
        CORRA_ASSIGN_OR_RETURN(
            Column column,
            Column::StringFromCodes(field.name, std::move(values),
                                    std::move(shared)));
        CORRA_RETURN_NOT_OK(table.AddColumn(std::move(column)));
        break;
      }
    }
  }
  return table;
}

Result<CompressionPlan> CorraCompressor::PlanFromOptimizer(
    const Table& table, std::span<const size_t> candidate_columns,
    const OptimizerOptions& options) {
  std::vector<CandidateColumn> candidates;
  candidates.reserve(candidate_columns.size());
  for (size_t idx : candidate_columns) {
    if (idx >= table.num_columns()) {
      return Status::InvalidArgument("candidate column index out of range");
    }
    candidates.push_back(
        {table.column(idx).name(), table.column(idx).values()});
  }
  CORRA_ASSIGN_OR_RETURN(DiffConfig config,
                         OptimizeDiffConfig(candidates, options));

  CompressionPlan plan = CompressionPlan::AllAuto(table.num_columns());
  for (size_t c = 0; c < candidate_columns.size(); ++c) {
    const ColumnAssignment& a = config.assignments[c];
    if (a.role == ColumnRole::kDiffEncoded) {
      ColumnPlan& cp = plan.columns[candidate_columns[c]];
      cp.auto_vertical = false;
      cp.scheme = enc::Scheme::kDiff;
      cp.reference =
          static_cast<int>(candidate_columns[static_cast<size_t>(a.reference)]);
      cp.diff_options = options.diff_options;
    }
  }
  return plan;
}

}  // namespace corra
