#include "encoding/for.h"

#include "common/bit_util.h"
#include "common/simd/simd.h"

namespace corra::enc {

Result<std::unique_ptr<ForColumn>> ForColumn::Encode(
    std::span<const int64_t> values) {
  return Encode(values, bit_util::ComputeMinMax(values));
}

Result<std::unique_ptr<ForColumn>> ForColumn::Encode(
    std::span<const int64_t> values, bit_util::MinMax range) {
  const uint64_t base = static_cast<uint64_t>(range.min);
  const int width = bit_util::MaxForBitWidth(range);
  PackedArray packed = PackedArray::Pack(
      values.size(), width, [&](size_t begin, size_t len, uint64_t* codes) {
        for (size_t i = 0; i < len; ++i) {
          codes[i] = static_cast<uint64_t>(values[begin + i]) - base;
        }
      });
  return std::unique_ptr<ForColumn>(
      new ForColumn(range.min, std::move(packed)));
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
  CORRA_RETURN_NOT_OK(reader->Read(&base));
  CORRA_ASSIGN_OR_RETURN(PackedArray packed, PackedArray::Read(reader));
  return std::unique_ptr<ForColumn>(new ForColumn(base, std::move(packed)));
}

size_t ForColumn::SizeBytes() const {
  return packed_.SizeBytes() + sizeof(int64_t);
}

void ForColumn::GatherRange(std::span<const uint32_t> rows,
                            int64_t* out) const {
  // Positioned SIMD gather of the packed offsets, then one vectorized
  // rebase pass — the sparse twin of DecodeRange.
  packed_.Gather(rows, reinterpret_cast<uint64_t*>(out));
  simd::AddConst(out, rows.size(), base_);
}

void ForColumn::DecodeRange(size_t row_begin, size_t count,
                            int64_t* out) const {
  // Unpack the offsets with the SIMD kernels, then rebase in a second
  // vectorized pass (both L1-resident; the split keeps the unpack kernel
  // width-specialized and branch-free).
  packed_.DecodeRange(row_begin, count, reinterpret_cast<uint64_t*>(out));
  simd::AddConst(out, count, base_);
}

void ForColumn::Serialize(BufferWriter* writer) const {
  writer->Write<uint8_t>(static_cast<uint8_t>(Scheme::kFor));
  writer->Write<int64_t>(base_);
  packed_.Write(writer);
}

}  // namespace corra::enc
