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
                               size_t stop_bytes)
    : values_(values),
      ids_(std::min(values.size(), stop_bytes / sizeof(int64_t) + 1)) {
  const size_t n = values.size();
  for (size_t i = 0; i < n; ++i) {
    const size_t before = ids_.size();
    ids_.Insert(values[i]);
    if (ids_.size() != before &&
        enc::DictSizeBytes(n, ids_.size()) >= stop_bytes) {
      complete_ = i + 1 == n;
      return;
    }
  }
}

Result<std::unique_ptr<DictColumn>> DictColumn::Encode(
    std::span<const int64_t> values) {
  return Encode(DistinctValues(values));
}

std::unique_ptr<DictColumn> DictColumn::Encode(
    const DistinctValues& distinct) {
  if (!distinct.complete_) {
    return Encode(DistinctValues(distinct.values_));
  }
  // Codes are the ranks of the sorted distinct values: sort (value, id)
  // pairs, then map each first-seen id to its rank.
  const std::vector<int64_t>& seen = distinct.ids_.keys();
  std::vector<std::pair<int64_t, uint32_t>> sorted(seen.size());
  for (size_t id = 0; id < seen.size(); ++id) {
    sorted[id] = {seen[id], static_cast<uint32_t>(id)};
  }
  std::sort(sorted.begin(), sorted.end());
  std::vector<int64_t> dict(sorted.size());
  std::vector<uint32_t> rank_of_id(sorted.size());
  for (size_t r = 0; r < sorted.size(); ++r) {
    dict[r] = sorted[r].first;
    rank_of_id[sorted[r].second] = static_cast<uint32_t>(r);
  }

  const std::span<const int64_t> values = distinct.values_;
  const int width = bit_util::BitWidth(dict.empty() ? 0 : dict.size() - 1);
  PackedArray codes = PackedArray::Pack(
      values.size(), width, [&](size_t begin, size_t len, uint64_t* out) {
        for (size_t i = 0; i < len; ++i) {
          out[i] = rank_of_id[distinct.ids_.Find(values[begin + i])];
        }
      });
  return std::unique_ptr<DictColumn>(
      new DictColumn(std::move(dict), std::move(codes)));
}

size_t DictColumn::EstimateSizeBytes(std::span<const int64_t> values) {
  return DistinctValues(values).DictSizeBytes();
}

Result<std::unique_ptr<DictColumn>> DictColumn::Deserialize(
    BufferReader* reader) {
  std::vector<int64_t> dict;
  CORRA_RETURN_NOT_OK(reader->ReadInt64Array(&dict));
  CORRA_ASSIGN_OR_RETURN(PackedArray codes, PackedArray::Read(reader));
  // Reject codes that exceed the dictionary, so a corrupted payload cannot
  // cause out-of-bounds reads later.
  for (size_t i = 0; i < codes.size(); ++i) {
    if (codes.Get(i) >= dict.size()) {
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
