#include "encoding/delta.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

#include "common/bit_util.h"
#include "common/simd/simd.h"

namespace corra::enc {

namespace {

// Extended-format markers for the serialized layout: the legacy layout
// starts with the checkpoint array's uint64 length prefix, which can
// never be anywhere near UINT64_MAX, so the markers unambiguously
// announce what follows. kIntervalMarker: a checkpoint interval field,
// then the legacy out-of-band body. kInlineMarker: an interval field,
// then an inline-checkpoint window stream (see RepackInlineWindows),
// which older writers produced and Deserialize still reads. Columns
// whose interval matches the legacy constant keep writing the legacy
// layout byte-for-byte (and stay readable by older readers); every
// legacy file was written with that constant, so the sniffing reader
// maps the legacy layout to it.
constexpr uint64_t kIntervalMarker = ~uint64_t{0};
constexpr uint64_t kInlineMarker = ~uint64_t{0} - 1;
constexpr size_t kLegacySerializedInterval = 128;

bool ValidInterval(size_t interval) {
  return interval >= DeltaColumn::kMinCheckpointInterval &&
         interval <= DeltaColumn::kMaxCheckpointInterval &&
         (interval & (interval - 1)) == 0;
}

size_t NumCheckpoints(size_t count, size_t interval) {
  return count == 0 ? 0 : (count - 1) / interval + 1;
}

// Width of the widest zig-zag delta between consecutive values.
int MaxDeltaBitWidth(std::span<const int64_t> values) {
  uint64_t max_zz = 0;
  for (size_t i = 1; i < values.size(); ++i) {
    // Wrap-around subtraction is well defined in unsigned space and is
    // inverted exactly by the wrap-around addition in Get/DecodeRange.
    const int64_t delta = static_cast<int64_t>(
        static_cast<uint64_t>(values[i]) - static_cast<uint64_t>(values[i - 1]));
    max_zz = std::max(max_zz, bit_util::ZigZagEncode(delta));
  }
  return bit_util::BitWidth(max_zz);
}

// Bytes per window of the inline wire form: the 8-byte checkpoint plus
// the interval's delta slots, rounded up to a multiple of 8.
size_t InlineStrideBytes(size_t interval, int bit_width) {
  return 8 + bit_util::RoundUpPow2(
                 bit_util::CeilDiv(
                     interval * static_cast<size_t>(bit_width), 8),
                 8);
}

// Re-packs an inline window stream into the packed layout. Window k of
// `payload` (at byte k * stride, one per checkpoint) holds the absolute
// value of row k * interval, then `interval` zig-zag delta slots packed
// from bit 0, slot j being the delta of row k * interval + 1 + j. So the
// heads are the checkpoint array, and the slots in order continue the
// delta stream after row 0's unused slot; slots past the last row are
// dropped. `payload` must hold NumCheckpoints(count, interval) windows,
// and `width` must be at most 64.
PackedArray RepackInlineWindows(std::span<const uint8_t> payload,
                                size_t count, size_t interval, int width,
                                std::vector<int64_t>* checkpoints) {
  const size_t stride = InlineStrideBytes(interval, width);
  checkpoints->resize(NumCheckpoints(count, interval));
  for (size_t k = 0; k < checkpoints->size(); ++k) {
    std::memcpy(&(*checkpoints)[k], payload.data() + k * stride,
                sizeof(int64_t));
  }
  // The current window's slots. Reading them cannot fail: the width is
  // valid and each window's stride - 8 bytes hold all `interval` slots.
  PackedArray slots;
  size_t window = 0;
  size_t slot = 0;
  return PackedArray::Pack(
      count, width, [&](size_t begin, size_t len, uint64_t* codes) {
        size_t i = 0;
        if (begin == 0) {
          codes[i++] = 0;  // Row 0's slot: the checkpoint covers it.
        }
        while (i < len) {
          if (slot == 0) {
            slots = PackedArray::ReadPayload(
                        payload.subspan(window * stride + 8, stride - 8),
                        width, interval)
                        .value();
          }
          const size_t take = std::min(interval - slot, len - i);
          slots.DecodeRange(slot, take, codes + i);
          i += take;
          slot += take;
          if (slot == interval) {
            slot = 0;
            ++window;
          }
        }
      });
}

}  // namespace

DeltaColumn::DeltaColumn(std::vector<int64_t> checkpoints,
                         PackedArray deltas, size_t interval)
    : checkpoints_(std::move(checkpoints)),
      deltas_(std::move(deltas)),
      interval_(interval),
      // The one and only shift derivation: every construction path
      // (Encode at any interval, every wire form) funnels through here,
      // so interval_ and interval_shift_ can never disagree.
      interval_shift_(std::countr_zero(interval)) {
  assert(ValidInterval(interval));
}

Result<std::unique_ptr<DeltaColumn>> DeltaColumn::Encode(
    std::span<const int64_t> values, size_t checkpoint_interval) {
  if (!ValidInterval(checkpoint_interval)) {
    return Status::InvalidArgument(
        "Delta checkpoint interval must be a power of two in [16, 2048]");
  }
  const int width = MaxDeltaBitWidth(values);
  std::vector<int64_t> checkpoints;
  checkpoints.reserve(values.size() / checkpoint_interval + 1);
  for (size_t i = 0; i < values.size(); i += checkpoint_interval) {
    checkpoints.push_back(values[i]);
  }
  // Row 0's delta slot is unused (the checkpoint covers it); store 0 to
  // keep positions aligned.
  PackedArray deltas = PackedArray::Pack(
      values.size(), width, [&](size_t begin, size_t len, uint64_t* codes) {
        for (size_t i = begin; i < begin + len; ++i) {
          codes[i - begin] =
              i == 0 ? 0
                     : bit_util::ZigZagEncode(static_cast<int64_t>(
                           static_cast<uint64_t>(values[i]) -
                           static_cast<uint64_t>(values[i - 1])));
        }
      });
  return std::unique_ptr<DeltaColumn>(new DeltaColumn(
      std::move(checkpoints), std::move(deltas), checkpoint_interval));
}

size_t DeltaColumn::EstimateSizeBytes(std::span<const int64_t> values,
                                      size_t checkpoint_interval) {
  const int width = MaxDeltaBitWidth(values);
  return bit_util::CeilDiv(values.size() * width, 8) +
         NumCheckpoints(values.size(), checkpoint_interval) * sizeof(int64_t);
}

Result<std::unique_ptr<DeltaColumn>> DeltaColumn::Deserialize(
    BufferReader* reader) {
  // Format sniff: the legacy layout begins with the checkpoint array's
  // length prefix; the extended layouts begin with a marker (see the
  // marker constants). Legacy columns always used the default interval.
  uint64_t first = 0;
  CORRA_RETURN_NOT_OK(reader->Read(&first));

  size_t interval = kLegacySerializedInterval;
  if (first == kIntervalMarker || first == kInlineMarker) {
    uint64_t stored_interval = 0;
    CORRA_RETURN_NOT_OK(reader->Read(&stored_interval));
    if (stored_interval > kMaxCheckpointInterval ||
        !ValidInterval(static_cast<size_t>(stored_interval))) {
      return Status::Corruption("Delta checkpoint interval invalid");
    }
    interval = static_cast<size_t>(stored_interval);
  }
  std::vector<int64_t> checkpoints;
  if (first == kInlineMarker) {
    uint8_t width = 0;
    uint64_t count = 0;
    std::span<const uint8_t> payload;
    CORRA_RETURN_NOT_OK(reader->Read(&width));
    CORRA_RETURN_NOT_OK(reader->Read(&count));
    CORRA_RETURN_NOT_OK(reader->ReadBytes(&payload));
    if (width > 64) {
      return Status::Corruption("Delta width > 64");
    }
    // Division, not `payload.size() < windows * stride`: a corrupt
    // `count` near 2^64 makes the product wrap to a small value and
    // sail past the check, building a column whose row count vastly
    // exceeds its buffer (out-of-bounds reads on first access).
    if (NumCheckpoints(count, interval) >
        payload.size() / InlineStrideBytes(interval, width)) {
      return Status::Corruption("Delta inline window stream truncated");
    }
    PackedArray deltas =
        RepackInlineWindows(payload, count, interval, width, &checkpoints);
    return std::unique_ptr<DeltaColumn>(new DeltaColumn(
        std::move(checkpoints), std::move(deltas), interval));
  }
  if (first == kIntervalMarker) {
    CORRA_RETURN_NOT_OK(reader->ReadInt64Array(&checkpoints));
  } else {
    CORRA_RETURN_NOT_OK(
        reader->ReadInt64Values(static_cast<size_t>(first), &checkpoints));
  }
  CORRA_ASSIGN_OR_RETURN(PackedArray deltas, PackedArray::Read(reader));
  if (checkpoints.size() != NumCheckpoints(deltas.size(), interval)) {
    return Status::Corruption("Delta checkpoint count mismatch");
  }
  return std::unique_ptr<DeltaColumn>(new DeltaColumn(
      std::move(checkpoints), std::move(deltas), interval));
}

size_t DeltaColumn::SizeBytes() const {
  return deltas_.SizeBytes() + checkpoints_.size() * sizeof(int64_t);
}

int64_t DeltaColumn::Get(size_t row) const {
  // One fused kernel call: seek from the *nearest* checkpoint (forward
  // from the covering one or backward from the next), with the replay
  // folded straight out of the packed stream. Expected replay is
  // interval / 4 deltas; see simd::DeltaPointPacked.
  return simd::DeltaPointPacked(deltas_.data(), deltas_.bit_width(),
                                checkpoints_.data(), interval_shift_,
                                deltas_.size(), row);
}

void DeltaColumn::GatherRange(std::span<const uint32_t> rows,
                              int64_t* out) const {
  const size_t n = rows.size();
  if (n == 0) {
    return;
  }
  // Two checkpoint-indexed strategies, picked by selection density
  // (measured crossover at an average gap of ~24 deltas, see the bench):
  //
  //  * sparse: one batched kernel call walks the selection with a
  //    running cursor, folding each gap straight out of the packed
  //    stream and re-anchoring through the nearest checkpoint. Work per
  //    row is bounded by the gap (<= interval/2), but the
  //    variable-length folds cost a branch mispredict or two per row.
  //  * dense: reconstruct each covering morsel (anchored at its
  //    checkpoint) with the fused branch-free unpack+zigzag+prefix-sum
  //    kernel, then pick the selected values. Work per row is
  //    (gap+1) * ~0.5ns but entirely predictable.
  //
  // An unsorted selection (detected by span) takes the sparse path,
  // which tolerates out-of-order positions by re-anchoring.
  constexpr size_t kDenseGatherMaxGap = 24;
  const size_t span = rows[n - 1] >= rows[0] ? rows[n - 1] - rows[0] + 1 : 0;
  if (span == 0 || span > n * kDenseGatherMaxGap) {
    simd::DeltaGatherPacked(deltas_.data(), deltas_.bit_width(),
                            checkpoints_.data(), interval_shift_,
                            deltas_.size(), rows.data(), n, out);
    return;
  }
  int64_t values[kMorselRows + 1];
  size_t i = 0;
  while (i < n) {
    const size_t k = rows[i] >> interval_shift_;
    const size_t anchor = k << interval_shift_;
    const size_t window_end = std::min(anchor + kMorselRows, deltas_.size());
    size_t j = i;
    size_t last_row = rows[i];
    while (j < n && rows[j] >= last_row && rows[j] < window_end) {
      last_row = rows[j];
      ++j;
    }
    // values[v] is the reconstructed value at row anchor + v; slot 0 is
    // the checkpoint itself, so the pick loop is branch-free.
    values[0] = checkpoints_[k];
    simd::DeltaDecodePacked(deltas_.data(), deltas_.bit_width(), anchor + 1,
                            last_row - anchor, checkpoints_[k], values + 1);
    for (; i < j; ++i) {
      out[i] = values[rows[i] - anchor];
    }
  }
}

void DeltaColumn::DecodeRange(size_t row_begin, size_t count,
                              int64_t* out) const {
  if (count == 0) {
    return;
  }
  // One checkpoint seek for the first value, then the rest of the range
  // is a single fused unpack + zig-zag + prefix-sum kernel call over the
  // packed stream. No re-anchoring is needed inside the range: the
  // wrap-around prefix sum reproduces every checkpoint value exactly.
  out[0] = Get(row_begin);
  simd::DeltaDecodePacked(deltas_.data(), deltas_.bit_width(), row_begin + 1,
                          count - 1, out[0], out + 1);
}

void DeltaColumn::Serialize(BufferWriter* writer) const {
  writer->Write<uint8_t>(static_cast<uint8_t>(Scheme::kDelta));
  if (interval_ != kLegacySerializedInterval) {
    writer->Write<uint64_t>(kIntervalMarker);
    writer->Write<uint64_t>(interval_);
  }
  writer->WriteInt64Array(checkpoints_);
  deltas_.Write(writer);
}

}  // namespace corra::enc
