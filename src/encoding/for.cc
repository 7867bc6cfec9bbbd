#include "encoding/for.h"

#include "common/bit_util.h"
#include "common/simd/simd.h"

namespace corra::enc {

ForColumn::ForColumn(int64_t base, std::vector<uint8_t> bytes, int bit_width,
                     size_t count)
    : base_(base), bytes_(std::move(bytes)),
      reader_(bytes_.data(), bit_width, count) {}

Result<std::unique_ptr<ForColumn>> ForColumn::Encode(
    std::span<const int64_t> values) {
  return Encode(values, bit_util::ComputeMinMax(values));
}

Result<std::unique_ptr<ForColumn>> ForColumn::Encode(
    std::span<const int64_t> values, bit_util::MinMax range) {
  const uint64_t base = static_cast<uint64_t>(range.min);
  const int width = bit_util::MaxForBitWidth(range);
  std::vector<uint8_t> bytes = PackCodes(
      values.size(), width, [&](size_t begin, size_t len, uint64_t* codes) {
        for (size_t i = 0; i < len; ++i) {
          codes[i] = static_cast<uint64_t>(values[begin + i]) - base;
        }
      });
  return std::unique_ptr<ForColumn>(
      new ForColumn(range.min, std::move(bytes), width, values.size()));
}

size_t ForColumn::EstimateSizeBytes(std::span<const int64_t> values) {
  return EstimateSizeBytes(values.size(), bit_util::ComputeMinMax(values));
}

size_t ForColumn::EstimateSizeBytes(size_t count, bit_util::MinMax range) {
  return bit_util::CeilDiv(count * bit_util::MaxForBitWidth(range), 8) +
         sizeof(int64_t);
}

Result<std::unique_ptr<ForColumn>> ForColumn::Deserialize(
    BufferReader* reader) {
  int64_t base = 0;
  uint8_t width = 0;
  uint64_t count = 0;
  CORRA_RETURN_NOT_OK(reader->Read(&base));
  CORRA_RETURN_NOT_OK(reader->Read(&width));
  CORRA_RETURN_NOT_OK(reader->Read(&count));
  if (width > 64) {
    return Status::Corruption("FOR width > 64");
  }
  std::span<const uint8_t> payload;
  CORRA_RETURN_NOT_OK(reader->ReadBytes(&payload));
  if (payload.size() < bit_util::PackedDataBytes(count, width)) {
    return Status::Corruption("FOR payload truncated");
  }
  std::vector<uint8_t> bytes(payload.begin(), payload.end());
  bytes.resize(bit_util::PackedBytes(count, width), 0);  // Decode slack.
  return std::unique_ptr<ForColumn>(
      new ForColumn(base, std::move(bytes), width, count));
}

size_t ForColumn::SizeBytes() const {
  return bit_util::CeilDiv(reader_.size() * reader_.bit_width(), 8) +
         sizeof(int64_t);
}

void ForColumn::GatherRange(std::span<const uint32_t> rows,
                            int64_t* out) const {
  // Positioned SIMD gather of the packed offsets, then one vectorized
  // rebase pass — the sparse twin of DecodeRange.
  simd::GatherBits(bytes_.data(), reader_.bit_width(), rows.data(),
                   rows.size(), reinterpret_cast<uint64_t*>(out));
  simd::AddConst(out, rows.size(), base_);
}

void ForColumn::DecodeRange(size_t row_begin, size_t count,
                            int64_t* out) const {
  // Unpack the offsets with the SIMD kernels, then rebase in a second
  // vectorized pass (both L1-resident; the split keeps the unpack kernel
  // width-specialized and branch-free).
  reader_.DecodeRange(row_begin, count, reinterpret_cast<uint64_t*>(out));
  simd::AddConst(out, count, base_);
}

void ForColumn::Serialize(BufferWriter* writer) const {
  writer->Write<uint8_t>(static_cast<uint8_t>(Scheme::kFor));
  writer->Write<int64_t>(base_);
  writer->Write<uint8_t>(static_cast<uint8_t>(reader_.bit_width()));
  writer->Write<uint64_t>(reader_.size());
  writer->WriteBytes(bytes_);
}

}  // namespace corra::enc
