#include "core/multi_ref_encoding.h"

#include <algorithm>
#include <cassert>

namespace corra {

Status FormulaTable::Validate() const {
  if (code_bits < 1 || code_bits > 8) {
    return Status::InvalidArgument("code_bits must be in [1, 8]");
  }
  if (groups.empty() || groups.size() > 8) {
    return Status::InvalidArgument("need 1..8 reference groups");
  }
  for (const auto& group : groups) {
    if (group.empty()) {
      return Status::InvalidArgument("empty reference group");
    }
  }
  if (formulas.empty() ||
      formulas.size() > (size_t{1} << code_bits)) {
    return Status::InvalidArgument("formula count must be in [1, 2^bits]");
  }
  const uint8_t mask_limit =
      static_cast<uint8_t>((1u << groups.size()) - 1);
  for (uint8_t mask : formulas) {
    if (mask == 0 || mask > mask_limit) {
      return Status::InvalidArgument("formula mask out of range");
    }
  }
  return Status::OK();
}

namespace {

// Materializes, per group, the sum of its member columns over the first
// `sum_rows` rows. Every member must span all `row_count` rows.
Result<std::vector<std::vector<int64_t>>> ComputeGroupSums(
    size_t row_count, size_t sum_rows, const ColumnResolver& resolver,
    const std::vector<std::vector<uint32_t>>& groups) {
  std::vector<std::vector<int64_t>> sums(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    sums[g].assign(sum_rows, 0);
    for (uint32_t col : groups[g]) {
      const std::span<const int64_t> values = resolver(col);
      if (values.size() != row_count) {
        return Status::InvalidArgument(
            "reference column length mismatch in group");
      }
      for (size_t i = 0; i < sum_rows; ++i) {
        sums[g][i] += values[i];
      }
    }
  }
  return sums;
}

// The morsel kernel of GatherRange and DecodeRange, with stack scratch
// only. On entry `codes` holds a morsel's `len` formula codes; they are
// turned into group masks in place. `out` is zeroed, then every bound
// reference column is added into it where the row's mask has the
// column's group bit. `fetch(col, values)` materializes `col` at the
// morsel's rows.
template <typename Fetch>
void FoldReferences(
    const std::vector<uint8_t>& formulas,
    const std::vector<std::vector<const enc::EncodedColumn*>>& groups,
    uint64_t* codes, size_t len, Fetch&& fetch, int64_t* out) {
  for (size_t i = 0; i < len; ++i) {
    codes[i] = formulas[codes[i]];
  }
  std::fill_n(out, len, 0);
  int64_t values[enc::kMorselRows];
  for (size_t g = 0; g < groups.size(); ++g) {
    for (const enc::EncodedColumn* col : groups[g]) {
      fetch(*col, values);
      for (size_t i = 0; i < len; ++i) {
        out[i] += values[i] & -static_cast<int64_t>((codes[i] >> g) & 1);
      }
    }
  }
}

}  // namespace

MultiRefColumn::MultiRefColumn(FormulaTable table, PackedArray codes,
                               OutlierStore outliers)
    : table_(std::move(table)),
      codes_(std::move(codes)),
      outliers_(std::move(outliers)) {}

Result<std::unique_ptr<MultiRefColumn>> MultiRefColumn::Encode(
    std::span<const int64_t> target, const ColumnResolver& resolver,
    const FormulaTable& table, double max_outlier_fraction) {
  CORRA_RETURN_NOT_OK(table.Validate());
  if (target.size() > UINT32_MAX) {
    return Status::InvalidArgument("block too large for multi-ref encoding");
  }
  CORRA_ASSIGN_OR_RETURN(auto group_sums,
                         ComputeGroupSums(target.size(), target.size(),
                                          resolver, table.groups));

  std::vector<uint32_t> outlier_rows;
  std::vector<int64_t> outlier_values;
  PackedArray codes = PackedArray::Pack(
      target.size(), table.code_bits,
      [&](size_t begin, size_t len, uint64_t* out) {
        for (size_t i = begin; i < begin + len; ++i) {
          int matched_code = -1;
          for (size_t c = 0; c < table.formulas.size(); ++c) {
            const uint8_t mask = table.formulas[c];
            int64_t sum = 0;
            for (size_t g = 0; g < table.groups.size(); ++g) {
              if (mask & (1u << g)) {
                sum += group_sums[g][i];
              }
            }
            if (sum == target[i]) {
              matched_code = static_cast<int>(c);
              break;
            }
          }
          if (matched_code < 0) {
            outlier_rows.push_back(static_cast<uint32_t>(i));
            outlier_values.push_back(target[i]);
            out[i - begin] = 0;  // Placeholder; outlier indices disambiguate.
          } else {
            out[i - begin] = static_cast<uint64_t>(matched_code);
          }
        }
      });
  if (!target.empty() &&
      static_cast<double>(outlier_rows.size()) /
              static_cast<double>(target.size()) >
          max_outlier_fraction) {
    return Status::InvalidArgument(
        "outlier fraction exceeds limit; formulas do not fit the data");
  }
  CORRA_ASSIGN_OR_RETURN(OutlierStore store,
                         OutlierStore::Build(outlier_rows, outlier_values));
  return std::unique_ptr<MultiRefColumn>(
      new MultiRefColumn(table, std::move(codes), std::move(store)));
}

Result<FormulaTable> MultiRefColumn::DeriveFormulas(
    std::span<const int64_t> target, const ColumnResolver& resolver,
    std::vector<std::vector<uint32_t>> groups, int code_bits,
    size_t sample_limit) {
  FormulaTable probe;
  probe.groups = groups;
  probe.formulas = {1};  // Dummy; full validation happens below.
  probe.code_bits = code_bits;
  CORRA_RETURN_NOT_OK(probe.Validate());

  const size_t sample =
      std::min(target.size(), std::max<size_t>(sample_limit, 1));
  CORRA_ASSIGN_OR_RETURN(
      auto group_sums,
      ComputeGroupSums(target.size(), sample, resolver, groups));

  const size_t mask_count = size_t{1} << groups.size();
  std::vector<size_t> hits(mask_count, 0);
  for (size_t i = 0; i < sample; ++i) {
    for (size_t mask = 1; mask < mask_count; ++mask) {
      int64_t sum = 0;
      for (size_t g = 0; g < groups.size(); ++g) {
        if (mask & (size_t{1} << g)) {
          sum += group_sums[g][i];
        }
      }
      if (sum == target[i]) {
        ++hits[mask];
      }
    }
  }
  // Keep the 2^code_bits most frequent masks (frequency-descending, mask-
  // ascending tiebreak), dropping masks that never matched.
  std::vector<uint8_t> candidates;
  for (size_t mask = 1; mask < mask_count; ++mask) {
    if (hits[mask] > 0) {
      candidates.push_back(static_cast<uint8_t>(mask));
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [&hits](uint8_t a, uint8_t b) {
              if (hits[a] != hits[b]) {
                return hits[a] > hits[b];
              }
              return a < b;
            });
  if (candidates.empty()) {
    return Status::NotFound("no arithmetic formula matches any sampled row");
  }
  const size_t keep =
      std::min(candidates.size(), size_t{1} << code_bits);
  candidates.resize(keep);

  FormulaTable table;
  table.groups = std::move(groups);
  table.formulas = std::move(candidates);
  table.code_bits = code_bits;
  return table;
}

Result<std::unique_ptr<MultiRefColumn>> MultiRefColumn::Deserialize(
    BufferReader* reader) {
  FormulaTable table;
  uint8_t code_bits = 0;
  uint8_t group_count = 0;
  CORRA_RETURN_NOT_OK(reader->Read(&code_bits));
  CORRA_RETURN_NOT_OK(reader->Read(&group_count));
  table.code_bits = code_bits;
  table.groups.resize(group_count);
  for (auto& group : table.groups) {
    CORRA_RETURN_NOT_OK(reader->ReadUint32Array(&group));
  }
  std::span<const uint8_t> formula_bytes;
  CORRA_RETURN_NOT_OK(reader->ReadBytes(&formula_bytes));
  table.formulas.assign(formula_bytes.begin(), formula_bytes.end());
  CORRA_RETURN_NOT_OK(table.Validate());

  uint64_t count = 0;
  CORRA_RETURN_NOT_OK(reader->Read(&count));
  CORRA_ASSIGN_OR_RETURN(
      PackedArray codes,
      PackedArray::ReadPayload(reader, table.code_bits, count));
  // Codes must index into the formula table.
  for (size_t i = 0; i < count; ++i) {
    if (codes.Get(i) >= table.formulas.size()) {
      return Status::Corruption("multi-ref code out of range");
    }
  }
  CORRA_ASSIGN_OR_RETURN(OutlierStore outliers,
                         OutlierStore::Deserialize(reader));
  if (!outliers.empty() && outliers.row(outliers.size() - 1) >= count) {
    return Status::Corruption("multi-ref outlier row out of range");
  }
  return std::unique_ptr<MultiRefColumn>(new MultiRefColumn(
      std::move(table), std::move(codes), std::move(outliers)));
}

std::vector<uint32_t> MultiRefColumn::ReferenceIndices() const {
  std::vector<uint32_t> indices;
  for (const auto& group : table_.groups) {
    indices.insert(indices.end(), group.begin(), group.end());
  }
  return indices;
}

Status MultiRefColumn::BindReferences(
    std::span<const enc::EncodedColumn* const> references) {
  size_t expected = 0;
  for (const auto& group : table_.groups) {
    expected += group.size();
  }
  if (references.size() != expected) {
    return Status::InvalidArgument("multi-ref reference count mismatch");
  }
  bound_groups_.assign(table_.groups.size(), {});
  size_t next = 0;
  for (size_t g = 0; g < table_.groups.size(); ++g) {
    for (size_t c = 0; c < table_.groups[g].size(); ++c, ++next) {
      const enc::EncodedColumn* col = references[next];
      if (col == nullptr || col->size() != size()) {
        return Status::InvalidArgument("bad multi-ref reference column");
      }
      bound_groups_[g].push_back(col);
    }
  }
  return Status::OK();
}

int64_t MultiRefColumn::GroupSum(size_t g, size_t row) const {
  int64_t sum = 0;
  for (const enc::EncodedColumn* col : bound_groups_[g]) {
    sum += col->Get(row);
  }
  return sum;
}

int64_t MultiRefColumn::Get(size_t row) const {
  assert(!bound_groups_.empty() && "references not bound");
  if (const auto v = outliers_.Find(static_cast<uint32_t>(row))) {
    return *v;
  }
  const uint8_t mask = table_.formulas[codes_.Get(row)];
  int64_t sum = 0;
  for (size_t g = 0; g < bound_groups_.size(); ++g) {
    if (mask & (1u << g)) {
      sum += GroupSum(g, row);
    }
  }
  return sum;
}

void MultiRefColumn::GatherRange(std::span<const uint32_t> rows,
                                 int64_t* out) const {
  assert(!bound_groups_.empty() && "references not bound");
  // Morsel-at-a-time with stack scratch only: the codes are gathered
  // from the packed stream in bulk, then each reference column
  // contributes one positioned GatherRange (its own sparse fast path)
  // instead of one virtual Get per (row, column) pair.
  uint64_t codes[enc::kMorselRows];
  size_t done = 0;
  while (done < rows.size()) {
    const size_t len = std::min(rows.size() - done, enc::kMorselRows);
    const auto chunk = rows.subspan(done, len);
    codes_.Gather(chunk, codes);
    FoldReferences(
        table_.formulas, bound_groups_, codes, len,
        [chunk](const enc::EncodedColumn& col, int64_t* values) {
          col.GatherRange(chunk, values);
        },
        out + done);
    done += len;
  }
  outliers_.Patch(rows, out);
}

void MultiRefColumn::DecodeRange(size_t row_begin, size_t count,
                                 int64_t* out) const {
  assert(!bound_groups_.empty() && "references not bound");
  // Morsel-at-a-time: each reference column contributes one ranged
  // decode per morsel, so the whole working set stays cache-resident.
  uint64_t codes[enc::kMorselRows];
  while (count > 0) {
    const size_t len = std::min(count, enc::kMorselRows);
    codes_.DecodeRange(row_begin, len, codes);
    FoldReferences(
        table_.formulas, bound_groups_, codes, len,
        [row_begin, len](const enc::EncodedColumn& col, int64_t* values) {
          col.DecodeRange(row_begin, len, values);
        },
        out);
    outliers_.PatchRange(row_begin, len, out);
    row_begin += len;
    out += len;
    count -= len;
  }
}

size_t MultiRefColumn::SizeBytes() const {
  size_t metadata = 2;  // code_bits + group count
  for (const auto& group : table_.groups) {
    metadata += group.size() * sizeof(uint32_t);
  }
  metadata += table_.formulas.size();
  return codes_.SizeBytes() + outliers_.SizeBytes() + metadata;
}

MultiRefColumn::CodeStats MultiRefColumn::ComputeCodeStats() const {
  CodeStats stats;
  stats.code_counts.assign(table_.formulas.size(), 0);
  const size_t n = size();
  for (size_t i = 0; i < n; ++i) {
    ++stats.code_counts[codes_.Get(i)];
  }
  // Outlier rows carry placeholder code 0; reassign them.
  for (size_t o = 0; o < outliers_.size(); ++o) {
    --stats.code_counts[codes_.Get(outliers_.row(o))];
    ++stats.outlier_count;
  }
  return stats;
}

void MultiRefColumn::Serialize(BufferWriter* writer) const {
  writer->Write<uint8_t>(static_cast<uint8_t>(enc::Scheme::kMultiRef));
  writer->Write<uint8_t>(static_cast<uint8_t>(table_.code_bits));
  writer->Write<uint8_t>(static_cast<uint8_t>(table_.groups.size()));
  for (const auto& group : table_.groups) {
    writer->WriteUint32Array(group);
  }
  writer->WriteBytes(std::span<const uint8_t>(table_.formulas.data(),
                                              table_.formulas.size()));
  writer->Write<uint64_t>(codes_.size());
  codes_.WritePayload(writer);
  outliers_.Serialize(writer);
}

}  // namespace corra
