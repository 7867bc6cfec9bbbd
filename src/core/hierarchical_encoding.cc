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
// builds them "on the fly" with a hashtable during compression): each new
// (reference code, value) pair takes the next local code of its
// reference.
struct LocalDictionaries {
  size_t cardinality = 0;                // Reference codes: max code + 1.
  std::vector<RefValueKey> pairs;        // Distinct pairs, first-seen.
  std::vector<uint32_t> local_count;     // Dictionary size per reference.
  uint32_t max_local = 0;
};

// Slot tables of (reference code, value) pairs: a pair's slot is
// first[ref] + value (wrapping), and `slots` counts them all. Empty when
// the pairs need more than 2 * rows slots, the bound that keeps a table
// of uint32 slots at 8 bytes per row.
struct SlotLayout {
  std::vector<uint64_t> first;
  size_t slots = 0;
};

// One slice of span = max - min + 1 slots per reference code, when
// cardinality * span <= 2 * rows: O(1) from the column's range.
SlotLayout GlobalSpanLayout(size_t rows, size_t cardinality,
                            bit_util::MinMax range) {
  SlotLayout layout;
  const uint64_t base = static_cast<uint64_t>(range.min);
  const uint64_t max_offset = static_cast<uint64_t>(range.max) - base;
  // cardinality * (max_offset + 1) <= 2 * rows, without overflow.
  if (max_offset >= 2 * rows / cardinality) {
    return layout;
  }
  const size_t span = max_offset + 1;
  layout.first.resize(cardinality);
  for (size_t c = 0; c < cardinality; ++c) {
    layout.first[c] = c * span - base;
  }
  layout.slots = cardinality * span;
  return layout;
}

// One slice per reference code of its own values' span, when those sum
// to at most 2 * rows: one pass takes each code's range, and stops once
// the running sum passes the bound (a genuinely wide domain). Codes
// without rows get no slots.
SlotLayout PerReferenceLayout(std::span<const int64_t> target,
                              std::span<const int64_t> ref_codes,
                              size_t cardinality) {
  SlotLayout layout;
  // The ranges' arrays stay within the table's bound too.
  if (cardinality > 2 * target.size()) {
    return layout;
  }
  std::vector<int64_t> lo(cardinality, INT64_MAX);
  std::vector<int64_t> hi(cardinality, INT64_MIN);
  uint64_t budget = 2 * target.size();  // Slots not yet claimed.
  for (size_t i = 0; i < target.size(); ++i) {
    const size_t ref = static_cast<size_t>(ref_codes[i]);
    const int64_t v = target[i];
    uint64_t grow = 0;
    if (lo[ref] > hi[ref]) {  // The code's first row.
      lo[ref] = hi[ref] = v;
      grow = 1;
    } else if (v < lo[ref]) {
      grow = static_cast<uint64_t>(lo[ref]) - static_cast<uint64_t>(v);
      lo[ref] = v;
    } else if (v > hi[ref]) {
      grow = static_cast<uint64_t>(v) - static_cast<uint64_t>(hi[ref]);
      hi[ref] = v;
    } else {
      continue;
    }
    if (grow > budget) {
      return layout;
    }
    budget -= grow;
  }
  // Each code's slice starts where the previous one ended.
  layout.first.resize(cardinality);
  for (size_t c = 0; c < cardinality; ++c) {
    if (lo[c] <= hi[c]) {
      const uint64_t min = static_cast<uint64_t>(lo[c]);
      layout.first[c] = layout.slots - min;
      layout.slots += static_cast<uint64_t>(hi[c]) - min + 1;
    }
  }
  return layout;
}

// Builds the local dictionaries of `target` (min and max in `range`)
// under the dense reference codes `ref_codes`; with `row_codes`, also
// stores every row's local code there (target.size() entries).
// InvalidArgument for a non-dense reference. The pairs are numbered in a
// slot table (GlobalSpanLayout, else PerReferenceLayout) when one fits
// in 2 * rows slots, and in one flat hash otherwise.
Result<LocalDictionaries> BuildLocalDictionaries(
    std::span<const int64_t> target, bit_util::MinMax range,
    std::span<const int64_t> ref_codes, uint32_t* row_codes) {
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
  const size_t n = target.size();
  if (n == 0) {
    return dicts;
  }
  // The local code of a new pair under reference `ref`.
  const auto next_local = [&](int64_t ref) {
    const uint32_t local = dicts.local_count[static_cast<size_t>(ref)]++;
    dicts.max_local = std::max(dicts.max_local, local);
    return local;
  };
  // Whenever the global rule fits, the per-reference layout fits too, but
  // its pass over the rows costs about 2 ns each (DMV's city and
  // zip_code), more than its smaller table saves; so the O(1) rule runs
  // first.
  SlotLayout layout = GlobalSpanLayout(n, dicts.cardinality, range);
  if (layout.first.empty()) {
    layout = PerReferenceLayout(target, ref_codes, dicts.cardinality);
  }
  if (!layout.first.empty()) {
    // Each slot holds its pair's local code + 1, or 0 while unseen.
    std::vector<uint32_t> slots(layout.slots, 0);
    const uint64_t* first = layout.first.data();
    for (size_t i = 0; i < n; ++i) {
      uint32_t& slot = slots[first[static_cast<size_t>(ref_codes[i])] +
                             static_cast<uint64_t>(target[i])];
      if (slot == 0) {
        dicts.pairs.push_back({ref_codes[i], target[i]});
        slot = next_local(ref_codes[i]) + 1;
      }
      if (row_codes != nullptr) {
        row_codes[i] = slot - 1;
      }
    }
  } else {
    FlatIdMap<RefValueKey> ids(std::min(n, dicts.cardinality));
    std::vector<uint32_t> local_of_pair;
    for (size_t i = 0; i < n; ++i) {
      const uint32_t id = ids.Insert({ref_codes[i], target[i]});
      if (id == local_of_pair.size()) {
        local_of_pair.push_back(next_local(ref_codes[i]));
      }
      if (row_codes != nullptr) {
        row_codes[i] = local_of_pair[id];
      }
    }
    dicts.pairs = ids.keys();
  }
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
      local_(std::move(local)) {
  // The empty slice of out-of-range reference codes, and the zero that
  // out-of-metadata pairs read.
  offsets_.push_back(offsets_.back());
  values_.push_back(0);
}

size_t HierarchicalColumn::ValueIndex(uint64_t ref, uint64_t local) const {
  const size_t r = std::min<uint64_t>(ref, ref_cardinality());
  const size_t begin = offsets_[r];
  return local < offsets_[r + 1] - begin ? begin + local : value_count();
}

Result<std::unique_ptr<HierarchicalColumn>> HierarchicalColumn::Encode(
    std::span<const int64_t> target, std::span<const int64_t> ref_codes,
    uint32_t ref_index) {
  return Encode(target, ref_codes, ref_index,
                bit_util::ComputeMinMax(target));
}

Result<std::unique_ptr<HierarchicalColumn>> HierarchicalColumn::Encode(
    std::span<const int64_t> target, std::span<const int64_t> ref_codes,
    uint32_t ref_index, bit_util::MinMax range) {
  std::vector<uint32_t> local_codes(target.size());
  CORRA_ASSIGN_OR_RETURN(
      const LocalDictionaries dicts,
      BuildLocalDictionaries(target, range, ref_codes, local_codes.data()));

  // Flatten into the paper's (values, offsets) metadata: a reference's
  // pairs arrive in local-code order, so each goes to the next free entry
  // of its slice.
  const size_t cardinality = dicts.cardinality;
  std::vector<uint32_t> offsets(cardinality + 1, 0);
  offsets.reserve(cardinality + 2);  // The constructor's padding.
  for (size_t c = 0; c < cardinality; ++c) {
    offsets[c + 1] = offsets[c] + dicts.local_count[c];
  }
  std::vector<int64_t> values(dicts.pairs.size());
  values.reserve(dicts.pairs.size() + 1);
  std::vector<uint32_t> next(offsets.begin(), offsets.end() - 1);
  for (const RefValueKey& pair : dicts.pairs) {
    values[next[static_cast<size_t>(pair.ref)]++] = pair.value;
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
  const auto dicts = BuildLocalDictionaries(
      target, bit_util::ComputeMinMax(target), ref_codes, nullptr);
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
  // One spare slot each for the constructor's padding, so that it does
  // not reallocate what was just read.
  std::vector<int64_t> values;
  CORRA_RETURN_NOT_OK(reader->ReadInt64Array(&values, 1));
  std::vector<uint32_t> offsets;
  CORRA_RETURN_NOT_OK(reader->ReadUint32Array(&offsets, 1));
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
  return local_.SizeBytes() + value_count() * sizeof(int64_t) +
         (ref_cardinality() + 1) * sizeof(uint32_t);
}

int64_t HierarchicalColumn::Get(size_t row) const {
  assert(ref_ != nullptr && "reference not bound");
  return values_[ValueIndex(static_cast<uint64_t>(ref_->Get(row)),
                            local_.Get(row))];
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
      out[done + i] = values_[ValueIndex(
          static_cast<uint64_t>(ref_values[done + i]), local[i])];
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
    out[i] = values_[ValueIndex(static_cast<uint64_t>(ref_values[i]),
                                static_cast<uint64_t>(out[i]))];
  }
}

Status HierarchicalColumn::VerifyWithReference() const {
  if (ref_ == nullptr) {
    return Status::InvalidArgument("reference not bound");
  }
  const size_t n = local_.size();
  for (size_t i = 0; i < n; ++i) {
    const int64_t ref = ref_->Get(i);
    if (ref < 0 || static_cast<size_t>(ref) >= ref_cardinality()) {
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
  writer->WriteInt64Array(std::span(values_).first(value_count()));
  writer->WriteUint32Array(std::span(offsets_).first(ref_cardinality() + 1));
  local_.Write(writer);
}

}  // namespace corra
