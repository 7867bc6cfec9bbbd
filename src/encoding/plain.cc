#include "encoding/plain.h"

#include <cstring>

namespace corra::enc {

std::unique_ptr<PlainColumn> PlainColumn::Encode(
    std::span<const int64_t> values) {
  return std::unique_ptr<PlainColumn>(
      new PlainColumn(std::vector<int64_t>(values.begin(), values.end())));
}

Result<std::unique_ptr<PlainColumn>> PlainColumn::Deserialize(
    BufferReader* reader) {
  std::vector<int64_t> values;
  CORRA_RETURN_NOT_OK(reader->ReadInt64Array(&values));
  return std::unique_ptr<PlainColumn>(new PlainColumn(std::move(values)));
}

void PlainColumn::GatherRange(std::span<const uint32_t> rows,
                              int64_t* out) const {
  const int64_t* values = values_.data();
  for (size_t i = 0; i < rows.size(); ++i) {
    out[i] = values[rows[i]];
  }
}

void PlainColumn::DecodeRange(size_t row_begin, size_t count,
                              int64_t* out) const {
  std::memcpy(out, values_.data() + row_begin, count * sizeof(int64_t));
}

void PlainColumn::Serialize(BufferWriter* writer) const {
  writer->Write<uint8_t>(static_cast<uint8_t>(Scheme::kPlain));
  writer->WriteInt64Array(values_);
}

}  // namespace corra::enc
