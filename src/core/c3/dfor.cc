#include "core/c3/dfor.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/bit_stream.h"
#include "common/bit_util.h"
#include "common/simd/simd.h"

namespace corra::c3 {

namespace {

uint64_t ReadBits(const uint8_t* bytes, uint64_t bit_pos, int width) {
  if (width == 0) {
    return 0;
  }
  const size_t byte = bit_pos >> 3;
  const int shift = static_cast<int>(bit_pos & 7);
  uint64_t word;
  std::memcpy(&word, bytes + byte, sizeof(word));
  uint64_t v = word >> shift;
  if (shift + width > 64) {
    uint64_t next;
    std::memcpy(&next, bytes + byte + 8, sizeof(next));
    v |= next << (64 - shift);
  }
  const uint64_t mask = width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
  return v & mask;
}

}  // namespace

DforColumn::DforColumn(uint32_t ref_index, std::vector<int64_t> frame_bases,
                       std::vector<uint8_t> frame_widths,
                       std::vector<uint64_t> frame_bit_starts,
                       std::shared_ptr<const uint8_t> payload, size_t count)
    : SingleRefColumn(ref_index),
      frame_bases_(std::move(frame_bases)),
      frame_widths_(std::move(frame_widths)),
      frame_bit_starts_(std::move(frame_bit_starts)),
      payload_(std::move(payload)),
      count_(count) {}

Result<std::unique_ptr<DforColumn>> DforColumn::Encode(
    std::span<const int64_t> target, std::span<const int64_t> reference,
    uint32_t ref_index) {
  if (target.size() != reference.size()) {
    return Status::InvalidArgument("target/reference length mismatch");
  }
  std::vector<int64_t> diffs(target.size());
  for (size_t i = 0; i < target.size(); ++i) {
    diffs[i] = static_cast<int64_t>(static_cast<uint64_t>(target[i]) -
                                    static_cast<uint64_t>(reference[i]));
  }
  const size_t frames = bit_util::CeilDiv(diffs.size(), kFrameSize);
  std::vector<int64_t> bases(frames);
  std::vector<uint8_t> widths(frames);
  std::vector<uint64_t> starts(frames);
  uint64_t cursor = 0;
  for (size_t f = 0; f < frames; ++f) {
    const size_t begin = f * kFrameSize;
    const size_t end = std::min(begin + kFrameSize, diffs.size());
    const auto mm = bit_util::ComputeMinMax(
        std::span<const int64_t>(diffs).subspan(begin, end - begin));
    bases[f] = mm.min;
    widths[f] = static_cast<uint8_t>(bit_util::MaxForBitWidth(mm));
    starts[f] = cursor;
    cursor += (end - begin) * widths[f];
  }
  // kFrameSize is a multiple of 64, so every frame starts on a word and
  // packs as its own stream.
  static_assert(kFrameSize % 64 == 0, "frames must start on a word");
  std::shared_ptr<uint8_t[]> payload = std::make_shared<uint8_t[]>(
      (cursor + 7) / 8 + bit_util::kDecodePadBytes);
  uint8_t* packed = payload.get();
  uint64_t offsets[kFrameSize];
  for (size_t f = 0; f < frames; ++f) {
    const size_t begin = f * kFrameSize;
    const size_t end = std::min(begin + kFrameSize, diffs.size());
    for (size_t i = begin; i < end; ++i) {
      offsets[i - begin] = static_cast<uint64_t>(diffs[i]) -
                           static_cast<uint64_t>(bases[f]);
    }
    PackBits(offsets, end - begin, widths[f], packed + starts[f] / 8);
  }
  return std::unique_ptr<DforColumn>(new DforColumn(
      ref_index, std::move(bases), std::move(widths), std::move(starts),
      std::shared_ptr<const uint8_t>(std::move(payload), packed),
      target.size()));
}

size_t DforColumn::EstimateSizeBytes(std::span<const int64_t> target,
                                     std::span<const int64_t> reference) {
  if (target.size() != reference.size()) {
    return SIZE_MAX;
  }
  size_t total_bits = 0;
  size_t frames = 0;
  for (size_t begin = 0; begin < target.size(); begin += kFrameSize) {
    const size_t end = std::min(begin + kFrameSize, target.size());
    int64_t lo = 0;
    int64_t hi = 0;
    for (size_t i = begin; i < end; ++i) {
      const int64_t d = static_cast<int64_t>(
          static_cast<uint64_t>(target[i]) -
          static_cast<uint64_t>(reference[i]));
      if (i == begin) {
        lo = hi = d;
      } else {
        lo = std::min(lo, d);
        hi = std::max(hi, d);
      }
    }
    total_bits += (end - begin) *
                  bit_util::BitWidth(static_cast<uint64_t>(hi) -
                                     static_cast<uint64_t>(lo));
    ++frames;
  }
  // Per frame: base (8B) + width (1B) + bit start (8B).
  return bit_util::CeilDiv(total_bits, 8) + frames * 17;
}

Result<std::unique_ptr<DforColumn>> DforColumn::Deserialize(
    BufferReader* reader) {
  uint32_t ref_index = 0;
  uint64_t count = 0;
  CORRA_RETURN_NOT_OK(reader->Read(&ref_index));
  CORRA_RETURN_NOT_OK(reader->Read(&count));
  std::vector<int64_t> bases;
  CORRA_RETURN_NOT_OK(reader->ReadInt64Array(&bases));
  std::span<const uint8_t> width_bytes;
  CORRA_RETURN_NOT_OK(reader->ReadBytes(&width_bytes));
  std::vector<int64_t> starts_i64;
  CORRA_RETURN_NOT_OK(reader->ReadInt64Array(&starts_i64));
  std::span<const uint8_t> payload;
  CORRA_RETURN_NOT_OK(reader->ReadBytes(&payload));

  const size_t frames = bit_util::CeilDiv(count, kFrameSize);
  if (bases.size() != frames || width_bytes.size() != frames ||
      starts_i64.size() != frames) {
    return Status::Corruption("DFOR frame directory size mismatch");
  }
  std::vector<uint8_t> widths(width_bytes.begin(), width_bytes.end());
  std::vector<uint64_t> starts(frames);
  uint64_t expected_bits = 0;
  for (size_t f = 0; f < frames; ++f) {
    if (widths[f] > 64) {
      return Status::Corruption("DFOR width > 64");
    }
    starts[f] = static_cast<uint64_t>(starts_i64[f]);
    if (starts[f] != expected_bits) {
      return Status::Corruption("DFOR frame bit starts inconsistent");
    }
    const size_t rows_in_frame =
        std::min(kFrameSize, static_cast<size_t>(count) - f * kFrameSize);
    expected_bits += rows_in_frame * widths[f];
  }
  const size_t data_bytes = (expected_bits + 7) / 8;
  if (payload.size() < data_bytes) {
    return Status::Corruption("DFOR payload truncated");
  }
  return std::unique_ptr<DforColumn>(new DforColumn(
      ref_index, std::move(bases), std::move(widths), std::move(starts),
      PaddedBytes(payload, data_bytes, reader->owner()), count));
}

size_t DforColumn::PayloadBytes() const {
  uint64_t total_bits = 0;
  for (size_t f = 0; f < frame_widths_.size(); ++f) {
    const size_t rows =
        std::min(kFrameSize, count_ - f * kFrameSize);
    total_bits += rows * frame_widths_[f];
  }
  return bit_util::CeilDiv(total_bits, 8);
}

size_t DforColumn::SizeBytes() const {
  return PayloadBytes() + frame_bases_.size() * 17;
}

int64_t DforColumn::DiffAt(size_t row) const {
  const size_t f = row / kFrameSize;
  const uint64_t bit_pos =
      frame_bit_starts_[f] + (row % kFrameSize) * frame_widths_[f];
  return frame_bases_[f] +
         static_cast<int64_t>(
             ReadBits(payload_.get(), bit_pos, frame_widths_[f]));
}

int64_t DforColumn::Get(size_t row) const {
  assert(ref_ != nullptr && "reference not bound");
  return ref_->Get(row) + DiffAt(row);
}

void DforColumn::GatherWithReference(std::span<const uint32_t> rows,
                                     const int64_t* ref_values,
                                     int64_t* out) const {
  // Frame-grouped positioned gather: positions sharing a frame are
  // rebased to frame-local indices and gathered from the frame's
  // byte-aligned payload slice with one SIMD GatherBits per group, then
  // combined with the reference values and the frame base in one
  // vectorized add. A frame switch (or an out-of-order caller) simply
  // starts a new group.
  uint32_t local[enc::kMorselRows];
  uint64_t offsets[enc::kMorselRows];
  size_t i = 0;
  while (i < rows.size()) {
    const size_t f = rows[i] / kFrameSize;
    const uint32_t frame_first = static_cast<uint32_t>(f * kFrameSize);
    size_t j = i;
    while (j < rows.size() && j - i < enc::kMorselRows &&
           rows[j] / kFrameSize == f) {
      local[j - i] = rows[j] - frame_first;
      ++j;
    }
    const size_t len = j - i;
    simd::GatherBits(payload_.get() + (frame_bit_starts_[f] >> 3),
                     frame_widths_[f], local, len, offsets);
    simd::AddRefAndBase(ref_values + i, offsets, frame_bases_[f], len,
                        out + i);
    i = j;
  }
}

void DforColumn::DecodeRangeWithReference(size_t row_begin, size_t count,
                                          const int64_t* ref_values,
                                          int64_t* out) const {
  // Frame-at-a-time: hoist the frame's base, width, and bit start out of
  // the row loop, then hand the in-frame segment to the SIMD kernel
  // layer. kFrameSize rows x width bits is a whole byte count, so every
  // frame's payload starts byte-aligned and unpacks as its own packed
  // stream; the unpacked offsets are combined with the reference morsel
  // in one vectorized add pass.
  static_assert(kFrameSize % 8 == 0,
                "frame payloads must start byte-aligned");
  uint64_t offsets[enc::kMorselRows];
  size_t i = 0;
  while (i < count) {
    const size_t row = row_begin + i;
    const size_t f = row / kFrameSize;
    const size_t frame_end = (f + 1) * kFrameSize;
    size_t len = std::min<size_t>(count - i, frame_end - row);
    len = std::min(len, enc::kMorselRows);  // Callers pass morsels; be safe.
    simd::UnpackRange(payload_.get() + (frame_bit_starts_[f] >> 3),
                      frame_widths_[f], row % kFrameSize, len, offsets);
    simd::AddRefAndBase(ref_values + i, offsets, frame_bases_[f], len,
                        out + i);
    i += len;
  }
}

void DforColumn::Serialize(BufferWriter* writer) const {
  writer->Write<uint8_t>(static_cast<uint8_t>(enc::Scheme::kC3Dfor));
  writer->Write<uint32_t>(ref_index_);
  writer->Write<uint64_t>(count_);
  writer->WriteInt64Array(frame_bases_);
  writer->WriteBytes(std::span<const uint8_t>(frame_widths_.data(),
                                              frame_widths_.size()));
  std::vector<int64_t> starts(frame_bit_starts_.begin(),
                              frame_bit_starts_.end());
  writer->WriteInt64Array(starts);
  writer->WriteBytes(std::span<const uint8_t>(
      payload_.get(), PayloadBytes() + bit_util::kDecodePadBytes));
}

}  // namespace corra::c3
