#include "core/outlier_store.h"

#include <algorithm>

#include "common/bit_util.h"

namespace corra {

Result<OutlierStore> OutlierStore::Build(std::span<const uint32_t> rows,
                                         std::span<const int64_t> values) {
  if (rows.size() != values.size()) {
    return Status::InvalidArgument("outlier rows/values length mismatch");
  }
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i] <= rows[i - 1]) {
      return Status::InvalidArgument("outlier rows must strictly increase");
    }
  }
  OutlierStore store;
  store.rows_.assign(rows.begin(), rows.end());
  const auto mm = bit_util::ComputeMinMax(values);  // {0, 0} when empty.
  store.base_ = mm.min;
  const uint64_t base = static_cast<uint64_t>(mm.min);
  const int width = bit_util::MaxForBitWidth(mm);
  store.values_ = PackedArray::Pack(
      values.size(), width, [&](size_t begin, size_t len, uint64_t* codes) {
        for (size_t i = 0; i < len; ++i) {
          codes[i] = static_cast<uint64_t>(values[begin + i]) - base;
        }
      });
  return store;
}

Result<OutlierStore> OutlierStore::Deserialize(BufferReader* reader) {
  std::vector<uint32_t> rows;
  CORRA_RETURN_NOT_OK(reader->ReadUint32Array(&rows));
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i] <= rows[i - 1]) {
      return Status::Corruption("outlier rows not strictly increasing");
    }
  }
  OutlierStore store;
  uint8_t width = 0;
  CORRA_RETURN_NOT_OK(reader->Read(&store.base_));
  CORRA_RETURN_NOT_OK(reader->Read(&width));
  CORRA_ASSIGN_OR_RETURN(store.values_,
                         PackedArray::ReadPayload(reader, width, rows.size()));
  store.rows_ = std::move(rows);
  return store;
}

void OutlierStore::Serialize(BufferWriter* writer) const {
  writer->WriteUint32Array(rows_);
  writer->Write<int64_t>(base_);
  writer->Write<uint8_t>(static_cast<uint8_t>(values_.bit_width()));
  values_.WritePayload(writer);
}

std::optional<int64_t> OutlierStore::Find(uint32_t row) const {
  const auto it = std::lower_bound(rows_.begin(), rows_.end(), row);
  if (it == rows_.end() || *it != row) {
    return std::nullopt;
  }
  return value(static_cast<size_t>(it - rows_.begin()));
}

void OutlierStore::Patch(std::span<const uint32_t> rows, int64_t* out) const {
  if (rows_.empty() || rows.empty()) {
    return;
  }
  // Both sequences are sorted: advance through the outlier list once.
  // A matched outlier stays current, so a repeated position is patched
  // at every copy.
  size_t o = std::lower_bound(rows_.begin(), rows_.end(), rows.front()) -
             rows_.begin();
  for (size_t i = 0; i < rows.size() && o < rows_.size(); ++i) {
    while (o < rows_.size() && rows_[o] < rows[i]) {
      ++o;
    }
    if (o < rows_.size() && rows_[o] == rows[i]) {
      out[i] = value(o);
    }
  }
}

void OutlierStore::PatchRange(size_t row_begin, size_t count,
                              int64_t* out) const {
  if (rows_.empty() || count == 0) {
    return;
  }
  const size_t end = row_begin + count;
  size_t o = std::lower_bound(rows_.begin(), rows_.end(),
                              static_cast<uint32_t>(row_begin)) -
             rows_.begin();
  for (; o < rows_.size() && rows_[o] < end; ++o) {
    out[rows_[o] - row_begin] = value(o);
  }
}

size_t OutlierStore::SizeBytes() const {
  return rows_.size() * sizeof(uint32_t) + values_.SizeBytes() +
         (rows_.empty() ? 0 : sizeof(int64_t));
}

}  // namespace corra
