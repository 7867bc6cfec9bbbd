#include "encoding/dictionary.h"

#include <algorithm>

#include "common/bit_util.h"
#include "common/simd/simd.h"

namespace corra::enc {

size_t DictSizeBytes(size_t rows, size_t distinct) {
  const int width = bit_util::BitWidth(distinct == 0 ? 0 : distinct - 1);
  return bit_util::CeilDiv(rows * width, 8) + distinct * sizeof(int64_t);
}

DistinctValues::DistinctValues(std::span<const int64_t> values,
                               bit_util::MinMax range, size_t stop_bytes)
    : values_(values), range_(range) {
  const size_t n = values.size();
  // Counts the new value at row i; true when the count stops there.
  const auto count_new = [&](size_t i) {
    ++count_;
    if (enc::DictSizeBytes(n, count_) < stop_bytes) {
      return false;
    }
    complete_ = i + 1 == n;
    return true;
  };
  const uint64_t base = static_cast<uint64_t>(range.min);
  const uint64_t max_offset = static_cast<uint64_t>(range.max) - base;
  if (max_offset < 2 * n) {
    slots_.assign(max_offset + 1, 0);
    for (size_t i = 0; i < n; ++i) {
      uint32_t& slot = slots_[static_cast<uint64_t>(values[i]) - base];
      if (slot == 0) {
        slot = 1;
        if (count_new(i)) {
          return;
        }
      }
    }
    return;
  }
  ids_.emplace(std::min(n, stop_bytes / sizeof(int64_t) + 1));
  for (size_t i = 0; i < n; ++i) {
    if (ids_->Insert(values[i]) == count_ && count_new(i)) {
      return;
    }
  }
}

Result<std::unique_ptr<DictColumn>> DictColumn::Encode(
    std::span<const int64_t> values) {
  return Encode(DistinctValues(values, bit_util::ComputeMinMax(values)));
}

std::unique_ptr<DictColumn> DictColumn::Encode(DistinctValues distinct) {
  if (!distinct.complete_) {
    distinct = DistinctValues(distinct.values_, distinct.range_);
  }
  // Codes are the ranks of the sorted distinct values.
  const std::span<const int64_t> values = distinct.values_;
  std::vector<int64_t> dict(distinct.count_);
  const int width = bit_util::BitWidth(dict.empty() ? 0 : dict.size() - 1);
  const auto pack = [&](auto&& code_of) {
    PackedArray codes = PackedArray::Pack(
        values.size(), width, [&](size_t begin, size_t len, uint64_t* out) {
          for (size_t i = 0; i < len; ++i) {
            out[i] = code_of(values[begin + i]);
          }
        });
    return std::unique_ptr<DictColumn>(
        new DictColumn(std::move(dict), std::move(codes)));
  };

  if (!distinct.ids_) {
    // Narrow domain: the seen slots in value order are the ranks; each
    // slot is overwritten with its rank.
    std::vector<uint32_t>& slots = distinct.slots_;
    const uint64_t base = static_cast<uint64_t>(distinct.range_.min);
    uint32_t rank = 0;
    for (size_t s = 0; s < slots.size(); ++s) {
      if (slots[s] != 0) {
        dict[rank] = static_cast<int64_t>(base + s);
        slots[s] = rank++;
      }
    }
    return pack([&](int64_t v) {
      return slots[static_cast<uint64_t>(v) - base];
    });
  }

  // Wide domain: sort (value, id) pairs, then map each first-seen id to
  // its rank.
  const FlatIdMap<int64_t>& ids = *distinct.ids_;
  const std::vector<int64_t>& seen = ids.keys();
  std::vector<std::pair<int64_t, uint32_t>> sorted(seen.size());
  for (size_t id = 0; id < seen.size(); ++id) {
    sorted[id] = {seen[id], static_cast<uint32_t>(id)};
  }
  std::sort(sorted.begin(), sorted.end());
  std::vector<uint32_t> rank_of_id(sorted.size());
  for (size_t r = 0; r < sorted.size(); ++r) {
    dict[r] = sorted[r].first;
    rank_of_id[sorted[r].second] = static_cast<uint32_t>(r);
  }
  return pack([&](int64_t v) { return rank_of_id[ids.Find(v)]; });
}

size_t DictColumn::EstimateSizeBytes(std::span<const int64_t> values) {
  return DistinctValues(values, bit_util::ComputeMinMax(values))
      .DictSizeBytes();
}

Result<std::unique_ptr<DictColumn>> DictColumn::Deserialize(
    BufferReader* reader) {
  std::vector<int64_t> dict;
  CORRA_RETURN_NOT_OK(reader->ReadInt64Array(&dict));
  CORRA_ASSIGN_OR_RETURN(PackedArray codes, PackedArray::Read(reader));
  // Reject codes that exceed the dictionary, so a corrupted payload cannot
  // cause out-of-bounds reads later: the packed filter kernel looks for
  // codes in [dict.size(), 2^64 - 1] a morsel at a time, and matches
  // nothing without unpacking when the width cannot hold such a code. Its
  // row ids are 32-bit, as a block's are.
  if (codes.size() > UINT32_MAX) {
    return Status::Corruption("Dict column has more than 2^32 - 1 rows");
  }
  uint32_t rows[kMorselRows];
  for (size_t begin = 0; begin < codes.size(); begin += kMorselRows) {
    const size_t len = std::min(codes.size() - begin, kMorselRows);
    if (codes.Filter(begin, len, dict.size(), UINT64_MAX, rows) != 0) {
      return Status::Corruption("Dict code out of range");
    }
  }
  return std::unique_ptr<DictColumn>(
      new DictColumn(std::move(dict), std::move(codes)));
}

size_t DictColumn::SizeBytes() const {
  return codes_.SizeBytes() + dict_.size() * sizeof(int64_t);
}

void DictColumn::GatherRange(std::span<const uint32_t> rows,
                             int64_t* out) const {
  // Positioned gather of the packed codes into a stack chunk, then one
  // SIMD dictionary translate per chunk (same split as DecodeRange).
  uint64_t codes[kMorselRows];
  const int64_t* dict = dict_.data();
  size_t done = 0;
  while (done < rows.size()) {
    const size_t len = std::min(rows.size() - done, kMorselRows);
    codes_.Gather(rows.subspan(done, len), codes);
    simd::TranslateCodes(dict, codes, len, out + done);
    done += len;
  }
}

void DictColumn::DecodeRange(size_t row_begin, size_t count,
                             int64_t* out) const {
  // Unpack the codes of one morsel-sized chunk into a stack buffer, then
  // gather through the dictionary with one SIMD translate per chunk. The
  // separate code buffer (instead of translating `out` in place) keeps
  // the unpack kernel's stores and the gather's loads independent, and
  // the chunk L1-resident.
  uint64_t codes[kMorselRows];
  const int64_t* dict = dict_.data();
  while (count > 0) {
    const size_t len = count < kMorselRows ? count : kMorselRows;
    codes_.DecodeRange(row_begin, len, codes);
    simd::TranslateCodes(dict, codes, len, out);
    row_begin += len;
    count -= len;
    out += len;
  }
}

void DictColumn::Serialize(BufferWriter* writer) const {
  writer->Write<uint8_t>(static_cast<uint8_t>(Scheme::kDict));
  writer->WriteInt64Array(dict_);
  codes_.Write(writer);
}

}  // namespace corra::enc
