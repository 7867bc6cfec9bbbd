#include "core/c3/one_to_one.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

namespace corra::c3 {

namespace {

// Dominant (most frequent) target per reference value, plus the rows whose
// target deviates from their reference's dominant value.
struct MappingPlan {
  std::vector<int64_t> keys;
  std::vector<int64_t> mapped;
  std::vector<uint32_t> outlier_rows;
  std::vector<int64_t> outlier_values;
};

MappingPlan BuildMapping(std::span<const int64_t> target,
                         std::span<const int64_t> reference) {
  // Count (ref -> target) frequencies.
  std::unordered_map<int64_t, std::unordered_map<int64_t, uint32_t>> counts;
  for (size_t i = 0; i < target.size(); ++i) {
    ++counts[reference[i]][target[i]];
  }
  std::unordered_map<int64_t, int64_t> dominant;
  dominant.reserve(counts.size());
  for (const auto& [ref, targets] : counts) {
    uint32_t best_count = 0;
    int64_t best_value = 0;
    for (const auto& [value, count] : targets) {
      if (count > best_count ||
          (count == best_count && value < best_value)) {
        best_count = count;
        best_value = value;
      }
    }
    dominant.emplace(ref, best_value);
  }

  MappingPlan plan;
  plan.keys.reserve(dominant.size());
  for (const auto& [ref, value] : dominant) {
    plan.keys.push_back(ref);
  }
  std::sort(plan.keys.begin(), plan.keys.end());
  plan.mapped.reserve(plan.keys.size());
  for (int64_t key : plan.keys) {
    plan.mapped.push_back(dominant.find(key)->second);
  }
  for (size_t i = 0; i < target.size(); ++i) {
    if (dominant.find(reference[i])->second != target[i]) {
      plan.outlier_rows.push_back(static_cast<uint32_t>(i));
      plan.outlier_values.push_back(target[i]);
    }
  }
  return plan;
}

}  // namespace

OneToOneColumn::OneToOneColumn(uint32_t ref_index, std::vector<int64_t> keys,
                               std::vector<int64_t> mapped, size_t count,
                               OutlierStore outliers)
    : SingleRefColumn(ref_index),
      keys_(std::move(keys)),
      mapped_(std::move(mapped)),
      count_(count),
      outliers_(std::move(outliers)) {}

Result<std::unique_ptr<OneToOneColumn>> OneToOneColumn::Encode(
    std::span<const int64_t> target, std::span<const int64_t> reference,
    uint32_t ref_index, double max_outlier_fraction) {
  if (target.size() != reference.size()) {
    return Status::InvalidArgument("target/reference length mismatch");
  }
  if (target.size() > UINT32_MAX) {
    return Status::InvalidArgument("block too large for 1-to-1 encoding");
  }
  MappingPlan plan = BuildMapping(target, reference);
  if (!target.empty() &&
      static_cast<double>(plan.outlier_rows.size()) /
              static_cast<double>(target.size()) >
          max_outlier_fraction) {
    return Status::InvalidArgument(
        "pair is not 1-to-1: too many deviating rows");
  }
  CORRA_ASSIGN_OR_RETURN(
      OutlierStore store,
      OutlierStore::Build(plan.outlier_rows, plan.outlier_values));
  return std::unique_ptr<OneToOneColumn>(
      new OneToOneColumn(ref_index, std::move(plan.keys),
                         std::move(plan.mapped), target.size(),
                         std::move(store)));
}

size_t OneToOneColumn::EstimateSizeBytes(std::span<const int64_t> target,
                                         std::span<const int64_t> reference,
                                         double max_outlier_fraction) {
  if (target.size() != reference.size()) {
    return SIZE_MAX;
  }
  const MappingPlan plan = BuildMapping(target, reference);
  if (!target.empty() &&
      static_cast<double>(plan.outlier_rows.size()) /
              static_cast<double>(target.size()) >
          max_outlier_fraction) {
    return SIZE_MAX;
  }
  // Map (two int64 per key) + outliers (index + ~half-word value).
  return plan.keys.size() * 2 * sizeof(int64_t) +
         plan.outlier_rows.size() * 8;
}

Result<std::unique_ptr<OneToOneColumn>> OneToOneColumn::Deserialize(
    BufferReader* reader) {
  uint32_t ref_index = 0;
  uint64_t count = 0;
  CORRA_RETURN_NOT_OK(reader->Read(&ref_index));
  CORRA_RETURN_NOT_OK(reader->Read(&count));
  std::vector<int64_t> keys;
  std::vector<int64_t> mapped;
  CORRA_RETURN_NOT_OK(reader->ReadInt64Array(&keys));
  CORRA_RETURN_NOT_OK(reader->ReadInt64Array(&mapped));
  if (keys.size() != mapped.size()) {
    return Status::Corruption("1-to-1 map arrays disagree");
  }
  for (size_t i = 1; i < keys.size(); ++i) {
    if (keys[i] <= keys[i - 1]) {
      return Status::Corruption("1-to-1 keys not strictly increasing");
    }
  }
  CORRA_ASSIGN_OR_RETURN(OutlierStore outliers,
                         OutlierStore::Deserialize(reader));
  if (!outliers.empty() && outliers.row(outliers.size() - 1) >= count) {
    return Status::Corruption("1-to-1 outlier row out of range");
  }
  return std::unique_ptr<OneToOneColumn>(
      new OneToOneColumn(ref_index, std::move(keys), std::move(mapped),
                         count, std::move(outliers)));
}

size_t OneToOneColumn::SizeBytes() const {
  return keys_.size() * 2 * sizeof(int64_t) + outliers_.SizeBytes();
}

int64_t OneToOneColumn::MapValue(int64_t ref_value) const {
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), ref_value);
  // Every reference value the encoder saw is a key, so only a corrupt or
  // hostile block (Deserialize cannot check without decoding the
  // reference) gets here with a missing one; it reads 0.
  if (it == keys_.end() || *it != ref_value) {
    return 0;
  }
  return mapped_[static_cast<size_t>(it - keys_.begin())];
}

int64_t OneToOneColumn::Get(size_t row) const {
  assert(ref_ != nullptr && "reference not bound");
  if (const auto v = outliers_.Find(static_cast<uint32_t>(row))) {
    return *v;
  }
  return MapValue(ref_->Get(row));
}

void OneToOneColumn::GatherWithReference(std::span<const uint32_t> rows,
                                         const int64_t* ref_values,
                                         int64_t* out) const {
  for (size_t i = 0; i < rows.size(); ++i) {
    out[i] = MapValue(ref_values[i]);
  }
  outliers_.Patch(rows, out);
}

void OneToOneColumn::DecodeRangeWithReference(size_t row_begin, size_t count,
                                              const int64_t* ref_values,
                                              int64_t* out) const {
  for (size_t i = 0; i < count; ++i) {
    out[i] = MapValue(ref_values[i]);
  }
  outliers_.PatchRange(row_begin, count, out);
}

void OneToOneColumn::Serialize(BufferWriter* writer) const {
  writer->Write<uint8_t>(static_cast<uint8_t>(enc::Scheme::kC3OneToOne));
  writer->Write<uint32_t>(ref_index_);
  writer->Write<uint64_t>(count_);
  writer->WriteInt64Array(keys_);
  writer->WriteInt64Array(mapped_);
  outliers_.Serialize(writer);
}

}  // namespace corra::c3
