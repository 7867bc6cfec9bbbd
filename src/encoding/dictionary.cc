#include "encoding/dictionary.h"

#include <algorithm>

#include "common/bit_util.h"
#include "common/simd/simd.h"

namespace corra::enc {

DictColumn::DictColumn(std::vector<int64_t> dict, std::vector<uint8_t> bytes,
                       int bit_width, size_t count)
    : dict_(std::move(dict)),
      bytes_(std::move(bytes)),
      reader_(bytes_.data(), bit_width, count) {}

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
  std::vector<uint8_t> bytes = PackCodes(
      values.size(), width, [&](size_t begin, size_t len, uint64_t* codes) {
        for (size_t i = 0; i < len; ++i) {
          codes[i] = rank_of_id[distinct.ids_.Find(values[begin + i])];
        }
      });
  return std::unique_ptr<DictColumn>(
      new DictColumn(std::move(dict), std::move(bytes), width, values.size()));
}

size_t DictColumn::EstimateSizeBytes(std::span<const int64_t> values) {
  return DistinctValues(values).DictSizeBytes();
}

Result<std::unique_ptr<DictColumn>> DictColumn::Deserialize(
    BufferReader* reader) {
  std::vector<int64_t> dict;
  CORRA_RETURN_NOT_OK(reader->ReadInt64Array(&dict));
  uint8_t width = 0;
  uint64_t count = 0;
  CORRA_RETURN_NOT_OK(reader->Read(&width));
  CORRA_RETURN_NOT_OK(reader->Read(&count));
  if (width > 64) {
    return Status::Corruption("Dict width > 64");
  }
  std::span<const uint8_t> payload;
  CORRA_RETURN_NOT_OK(reader->ReadBytes(&payload));
  if (payload.size() < bit_util::PackedDataBytes(count, width)) {
    return Status::Corruption("Dict payload truncated");
  }
  std::vector<uint8_t> bytes(payload.begin(), payload.end());
  bytes.resize(bit_util::PackedBytes(count, width), 0);  // Decode slack.
  // Reject codes that exceed the dictionary, so a corrupted payload cannot
  // cause out-of-bounds reads later. Probe the padded copy — the raw span
  // may lack the load slack Get assumes.
  BitReader probe(bytes.data(), width, count);
  for (size_t i = 0; i < count; ++i) {
    if (probe.Get(i) >= dict.size()) {
      return Status::Corruption("Dict code out of range");
    }
  }
  return std::unique_ptr<DictColumn>(
      new DictColumn(std::move(dict), std::move(bytes), width, count));
}

size_t DictColumn::SizeBytes() const {
  return bit_util::CeilDiv(reader_.size() * reader_.bit_width(), 8) +
         dict_.size() * sizeof(int64_t);
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
    simd::GatherBits(bytes_.data(), reader_.bit_width(), rows.data() + done,
                     len, codes);
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
    reader_.DecodeRange(row_begin, len, codes);
    simd::TranslateCodes(dict, codes, len, out);
    row_begin += len;
    count -= len;
    out += len;
  }
}

void DictColumn::Serialize(BufferWriter* writer) const {
  writer->Write<uint8_t>(static_cast<uint8_t>(Scheme::kDict));
  writer->WriteInt64Array(dict_);
  writer->Write<uint8_t>(static_cast<uint8_t>(reader_.bit_width()));
  writer->Write<uint64_t>(reader_.size());
  writer->WriteBytes(bytes_);
}

}  // namespace corra::enc
