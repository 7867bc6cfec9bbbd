#include "core/hierarchical_encoding.h"

#include <algorithm>
#include <cassert>

#include "common/bit_util.h"
#include "common/flat_hash.h"

namespace corra {

namespace {

// Upper bound on the reference cardinality: a reference column with more
// distinct codes than this is not "hierarchical" in any useful sense, and
// the offsets metadata would dwarf the savings.
constexpr int64_t kMaxRefCardinality = int64_t{1} << 26;

// The per-reference local dictionaries, in first-seen order (the paper
// builds them "on the fly" with a hashtable during compression): one flat
// hash numbers the distinct (reference code, value) pairs, and each new
// pair takes the next local code of its reference.
struct LocalDictionaries {
  size_t cardinality = 0;                // Reference codes: max code + 1.
  std::vector<RefValueKey> pairs;        // Distinct pairs, first-seen.
  std::vector<uint32_t> local_of_pair;   // Local code of each pair.
  std::vector<uint32_t> local_count;     // Dictionary size per reference.
  uint32_t max_local = 0;
};

// Builds the local dictionaries of `target` under the dense reference
// codes `ref_codes`; with `row_codes`, also stores every row's local code
// there (target.size() entries). InvalidArgument for a non-dense
// reference.
Result<LocalDictionaries> BuildLocalDictionaries(
    std::span<const int64_t> target, std::span<const int64_t> ref_codes,
    uint32_t* row_codes) {
  if (target.size() != ref_codes.size()) {
    return Status::InvalidArgument("target/reference length mismatch");
  }
  int64_t max_code = -1;
  for (int64_t c : ref_codes) {
    if (c < 0) {
      return Status::InvalidArgument(
          "hierarchical reference codes must be non-negative");
    }
    max_code = std::max(max_code, c);
  }
  if (max_code >= kMaxRefCardinality) {
    return Status::InvalidArgument("reference cardinality too large");
  }
  LocalDictionaries dicts;
  dicts.cardinality = static_cast<size_t>(max_code + 1);
  dicts.local_count.assign(dicts.cardinality, 0);
  FlatIdMap<RefValueKey> ids(std::min(target.size(), dicts.cardinality));
  for (size_t i = 0; i < target.size(); ++i) {
    const RefValueKey key{ref_codes[i], target[i]};
    const uint32_t id = ids.Insert(key);
    if (id == dicts.local_of_pair.size()) {
      const uint32_t local = dicts.local_count[static_cast<size_t>(key.ref)]++;
      dicts.local_of_pair.push_back(local);
      dicts.max_local = std::max(dicts.max_local, local);
    }
    if (row_codes != nullptr) {
      row_codes[i] = dicts.local_of_pair[id];
    }
  }
  dicts.pairs = ids.keys();
  return dicts;
}

}  // namespace

HierarchicalColumn::HierarchicalColumn(uint32_t ref_index,
                                       std::vector<int64_t> values,
                                       std::vector<uint32_t> offsets,
                                       PackedArray local)
    : SingleRefColumn(ref_index),
      values_(std::move(values)),
      offsets_(std::move(offsets)),
      local_(std::move(local)) {}

Result<std::unique_ptr<HierarchicalColumn>> HierarchicalColumn::Encode(
    std::span<const int64_t> target, std::span<const int64_t> ref_codes,
    uint32_t ref_index) {
  std::vector<uint32_t> local_codes(target.size());
  CORRA_ASSIGN_OR_RETURN(
      const LocalDictionaries dicts,
      BuildLocalDictionaries(target, ref_codes, local_codes.data()));

  // Flatten into the paper's (values, offsets) metadata.
  const size_t cardinality = dicts.cardinality;
  std::vector<uint32_t> offsets(cardinality + 1, 0);
  for (size_t c = 0; c < cardinality; ++c) {
    offsets[c + 1] = offsets[c] + dicts.local_count[c];
  }
  std::vector<int64_t> values(dicts.pairs.size());
  for (size_t p = 0; p < dicts.pairs.size(); ++p) {
    const RefValueKey& pair = dicts.pairs[p];
    values[offsets[static_cast<size_t>(pair.ref)] + dicts.local_of_pair[p]] =
        pair.value;
  }

  const int width = bit_util::BitWidth(dicts.max_local);
  PackedArray local = PackedArray::Pack(
      target.size(), width, [&](size_t begin, size_t len, uint64_t* codes) {
        std::copy_n(local_codes.data() + begin, len, codes);
      });
  return std::unique_ptr<HierarchicalColumn>(new HierarchicalColumn(
      ref_index, std::move(values), std::move(offsets), std::move(local)));
}

size_t HierarchicalColumn::EstimateSizeBytes(
    std::span<const int64_t> target, std::span<const int64_t> ref_codes) {
  const auto dicts = BuildLocalDictionaries(target, ref_codes, nullptr);
  if (!dicts.ok()) {
    return SIZE_MAX;
  }
  const int width = bit_util::BitWidth(dicts.value().max_local);
  return bit_util::CeilDiv(target.size() * width, 8) +
         dicts.value().pairs.size() * sizeof(int64_t) +
         (dicts.value().cardinality + 1) * sizeof(uint32_t);
}

Result<std::unique_ptr<HierarchicalColumn>> HierarchicalColumn::Deserialize(
    BufferReader* reader) {
  uint32_t ref_index = 0;
  CORRA_RETURN_NOT_OK(reader->Read(&ref_index));
  std::vector<int64_t> values;
  CORRA_RETURN_NOT_OK(reader->ReadInt64Array(&values));
  std::vector<uint32_t> offsets;
  CORRA_RETURN_NOT_OK(reader->ReadUint32Array(&offsets));
  if (offsets.empty() || offsets.front() != 0 ||
      offsets.back() != values.size()) {
    return Status::Corruption("hierarchical offsets inconsistent");
  }
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) {
      return Status::Corruption("hierarchical offsets not monotone");
    }
  }
  CORRA_ASSIGN_OR_RETURN(PackedArray local, PackedArray::Read(reader));
  return std::unique_ptr<HierarchicalColumn>(new HierarchicalColumn(
      ref_index, std::move(values), std::move(offsets), std::move(local)));
}

size_t HierarchicalColumn::SizeBytes() const {
  return local_.SizeBytes() + values_.size() * sizeof(int64_t) +
         offsets_.size() * sizeof(uint32_t);
}

int64_t HierarchicalColumn::Get(size_t row) const {
  assert(ref_ != nullptr && "reference not bound");
  const size_t ref = static_cast<size_t>(ref_->Get(row));
  return values_[offsets_[ref] + local_.Get(row)];
}

void HierarchicalColumn::GatherWithReference(std::span<const uint32_t> rows,
                                             const int64_t* ref_values,
                                             int64_t* out) const {
  // Positioned SIMD gather of the packed local indices, then Alg. 1's
  // metadata translation over the staged chunk.
  uint64_t local[enc::kMorselRows];
  size_t done = 0;
  while (done < rows.size()) {
    const size_t len = std::min(rows.size() - done, enc::kMorselRows);
    local_.Gather(rows.subspan(done, len), local);
    for (size_t i = 0; i < len; ++i) {
      const size_t ref = static_cast<size_t>(ref_values[done + i]);
      out[done + i] = values_[offsets_[ref] + local[i]];
    }
    done += len;
  }
}

void HierarchicalColumn::DecodeRangeWithReference(size_t row_begin,
                                                  size_t count,
                                                  const int64_t* ref_values,
                                                  int64_t* out) const {
  // Alg. 1 over a morsel: unpack the local indices sequentially into
  // `out`, then translate each (ref code, local index) pair through the
  // flattened metadata in place.
  local_.DecodeRange(row_begin, count, reinterpret_cast<uint64_t*>(out));
  for (size_t i = 0; i < count; ++i) {
    const size_t ref = static_cast<size_t>(ref_values[i]);
    out[i] = values_[offsets_[ref] + static_cast<uint64_t>(out[i])];
  }
}

Status HierarchicalColumn::VerifyWithReference() const {
  if (ref_ == nullptr) {
    return Status::InvalidArgument("reference not bound");
  }
  const size_t n = local_.size();
  for (size_t i = 0; i < n; ++i) {
    const int64_t ref = ref_->Get(i);
    if (ref < 0 ||
        static_cast<size_t>(ref) >= offsets_.size() - 1) {
      return Status::Corruption("reference code out of metadata range");
    }
    const uint64_t local = local_.Get(i);
    const size_t begin = offsets_[static_cast<size_t>(ref)];
    const size_t end = offsets_[static_cast<size_t>(ref) + 1];
    if (begin + local >= end) {
      return Status::Corruption("local index exceeds local dictionary");
    }
  }
  return Status::OK();
}

void HierarchicalColumn::Serialize(BufferWriter* writer) const {
  writer->Write<uint8_t>(static_cast<uint8_t>(enc::Scheme::kHierarchical));
  writer->Write<uint32_t>(ref_index_);
  writer->WriteInt64Array(values_);
  writer->WriteUint32Array(offsets_);
  local_.Write(writer);
}

}  // namespace corra
