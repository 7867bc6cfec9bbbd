#include "encoding/bitpack.h"

#include "common/bit_util.h"

namespace corra::enc {

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
  return std::unique_ptr<BitPackColumn>(
      new BitPackColumn(PackedArray::Pack(
          {reinterpret_cast<const uint64_t*>(values.data()), values.size()},
          width)));
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
  CORRA_ASSIGN_OR_RETURN(PackedArray packed, PackedArray::Read(reader));
  return std::unique_ptr<BitPackColumn>(new BitPackColumn(std::move(packed)));
}

size_t BitPackColumn::SizeBytes() const { return packed_.SizeBytes(); }

void BitPackColumn::GatherRange(std::span<const uint32_t> rows,
                                int64_t* out) const {
  // Positioned SIMD gather straight from the packed stream.
  packed_.Gather(rows, reinterpret_cast<uint64_t*>(out));
}

void BitPackColumn::DecodeRange(size_t row_begin, size_t count,
                                int64_t* out) const {
  packed_.DecodeRange(row_begin, count, reinterpret_cast<uint64_t*>(out));
}

void BitPackColumn::Serialize(BufferWriter* writer) const {
  writer->Write<uint8_t>(static_cast<uint8_t>(Scheme::kBitPack));
  packed_.Write(writer);
}

}  // namespace corra::enc
