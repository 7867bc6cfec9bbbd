#include "encoding/bitpack.h"

#include "common/bit_util.h"
#include "common/simd/simd.h"

namespace corra::enc {

BitPackColumn::BitPackColumn(std::vector<uint8_t> bytes, int bit_width,
                             size_t count)
    : bytes_(std::move(bytes)),
      reader_(bytes_.data(), bit_width, count) {}

Result<std::unique_ptr<BitPackColumn>> BitPackColumn::Encode(
    std::span<const int64_t> values) {
  return Encode(values, bit_util::ComputeMinMax(values));
}

Result<std::unique_ptr<BitPackColumn>> BitPackColumn::Encode(
    std::span<const int64_t> values, bit_util::MinMax range) {
  if (range.min < 0) {
    return Status::InvalidArgument(
        "BitPack requires non-negative values; use FOR instead");
  }
  // Non-negative values are their own codes.
  const int width = bit_util::BitWidth(static_cast<uint64_t>(range.max));
  return std::unique_ptr<BitPackColumn>(new BitPackColumn(
      PackValues({reinterpret_cast<const uint64_t*>(values.data()),
                  values.size()},
                 width),
      width, values.size()));
}

size_t BitPackColumn::EstimateSizeBytes(std::span<const int64_t> values) {
  return EstimateSizeBytes(values.size(), bit_util::ComputeMinMax(values));
}

size_t BitPackColumn::EstimateSizeBytes(size_t count,
                                        bit_util::MinMax range) {
  if (range.min < 0) {
    return SIZE_MAX;
  }
  const int width = bit_util::BitWidth(static_cast<uint64_t>(range.max));
  return bit_util::CeilDiv(count * width, 8);
}

Result<std::unique_ptr<BitPackColumn>> BitPackColumn::Deserialize(
    BufferReader* reader) {
  uint8_t width = 0;
  uint64_t count = 0;
  CORRA_RETURN_NOT_OK(reader->Read(&width));
  CORRA_RETURN_NOT_OK(reader->Read(&count));
  if (width > 64) {
    return Status::Corruption("BitPack width > 64");
  }
  std::span<const uint8_t> payload;
  CORRA_RETURN_NOT_OK(reader->ReadBytes(&payload));
  if (payload.size() < bit_util::PackedDataBytes(count, width)) {
    return Status::Corruption("BitPack payload truncated");
  }
  std::vector<uint8_t> bytes(payload.begin(), payload.end());
  bytes.resize(bit_util::PackedBytes(count, width), 0);  // Decode slack.
  return std::unique_ptr<BitPackColumn>(
      new BitPackColumn(std::move(bytes), width, count));
}

size_t BitPackColumn::SizeBytes() const {
  return bit_util::CeilDiv(reader_.size() * reader_.bit_width(), 8);
}

void BitPackColumn::GatherRange(std::span<const uint32_t> rows,
                                int64_t* out) const {
  // Positioned SIMD gather straight from the packed stream.
  simd::GatherBits(bytes_.data(), reader_.bit_width(), rows.data(),
                   rows.size(), reinterpret_cast<uint64_t*>(out));
}

void BitPackColumn::DecodeRange(size_t row_begin, size_t count,
                                int64_t* out) const {
  reader_.DecodeRange(row_begin, count, reinterpret_cast<uint64_t*>(out));
}

void BitPackColumn::Serialize(BufferWriter* writer) const {
  writer->Write<uint8_t>(static_cast<uint8_t>(Scheme::kBitPack));
  writer->Write<uint8_t>(static_cast<uint8_t>(reader_.bit_width()));
  writer->Write<uint64_t>(reader_.size());
  writer->WriteBytes(bytes_);
}

}  // namespace corra::enc
