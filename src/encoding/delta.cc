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
// then the legacy out-of-band body (PR 4 extension). kInlineMarker: an
// interval field, then the inline-checkpoint window stream (no
// out-of-band checkpoint array at all). Columns whose interval matches
// the legacy constant and use the packed layout keep writing the legacy
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

// Bytes per inline-layout window: the 8-byte checkpoint plus the
// interval's delta slots, rounded up to a multiple of 8 so every
// window's checkpoint load stays 8-byte aligned relative to the stream
// base (see the layout contract in common/simd/simd.h).
size_t WindowStrideBytes(size_t interval, int bit_width) {
  return 8 + bit_util::RoundUpPow2(
                 bit_util::CeilDiv(
                     interval * static_cast<size_t>(bit_width), 8),
                 8);
}

size_t NumWindows(size_t count, size_t interval) {
  return count == 0 ? 0 : (count - 1) / interval + 1;
}

// Width of the widest zig-zag delta between consecutive values.
int MaxDeltaBitWidth(std::span<const int64_t> values) {
  uint64_t max_zz = 0;
  for (size_t i = 1; i < values.size(); ++i) {
    // Wrap-around subtraction is well defined in unsigned space and is
    // inverted exactly by the wrap-around addition in Get/DecodeAll.
    const int64_t delta = static_cast<int64_t>(
        static_cast<uint64_t>(values[i]) - static_cast<uint64_t>(values[i - 1]));
    max_zz = std::max(max_zz, bit_util::ZigZagEncode(delta));
  }
  return bit_util::BitWidth(max_zz);
}

// Builds the inline window stream for `values` (see WindowStrideBytes).
// Slot j of window k holds the zig-zag delta of row k*interval + 1 + j;
// unused slots of the (possibly partial) last window stay zero, and the
// buffer carries kDecodePadBytes of decode slack.
std::vector<uint8_t> BuildInlineWindows(std::span<const int64_t> values,
                                        size_t interval, int width) {
  const size_t n = values.size();
  const size_t windows = NumWindows(n, interval);
  const size_t stride = WindowStrideBytes(interval, width);
  std::vector<uint8_t> bytes(windows * stride + bit_util::kDecodePadBytes, 0);
  // Each window's slots start byte-aligned and span whole words (see
  // WindowStrideBytes), so PackBits fills them without touching the next
  // checkpoint.
  uint64_t slots[DeltaColumn::kMaxCheckpointInterval];
  for (size_t k = 0; k < windows; ++k) {
    const size_t first = k * interval;
    uint8_t* window = bytes.data() + k * stride;
    std::memcpy(window, &values[first], sizeof(int64_t));
    const size_t last = std::min(first + interval, n - 1);
    for (size_t row = first + 1; row <= last; ++row) {
      slots[row - first - 1] = bit_util::ZigZagEncode(static_cast<int64_t>(
          static_cast<uint64_t>(values[row]) -
          static_cast<uint64_t>(values[row - 1])));
    }
    PackBits(slots, last - first, width, window + 8);
  }
  return bytes;
}

}  // namespace

DeltaColumn::DeltaColumn(std::vector<int64_t> checkpoints,
                         std::vector<uint8_t> bytes, int bit_width,
                         size_t count, size_t interval, DeltaLayout layout)
    : checkpoints_(std::move(checkpoints)),
      bytes_(std::move(bytes)),
      bit_width_(bit_width),
      count_(count),
      interval_(interval),
      // The one and only shift derivation: every construction path
      // (Encode at any interval, legacy and extended deserialization,
      // both layouts) funnels through here, so interval_ and
      // interval_shift_ can never disagree.
      interval_shift_(std::countr_zero(interval)),
      layout_(layout),
      window_stride_(layout == DeltaLayout::kInline
                         ? WindowStrideBytes(interval, bit_width)
                         : 0),
      point_kernel_(layout == DeltaLayout::kPacked
                        ? simd::ResolveDeltaPointKernel()
                        : nullptr),
      inline_point_kernel_(layout == DeltaLayout::kInline
                               ? simd::ResolveDeltaPointInlineKernel()
                               : nullptr) {
  assert(ValidInterval(interval));
}

Result<std::unique_ptr<DeltaColumn>> DeltaColumn::Encode(
    std::span<const int64_t> values, size_t checkpoint_interval,
    DeltaLayout layout) {
  if (!ValidInterval(checkpoint_interval)) {
    return Status::InvalidArgument(
        "Delta checkpoint interval must be a power of two in [16, 2048]");
  }
  const int width = MaxDeltaBitWidth(values);

  if (layout == DeltaLayout::kInline) {
    return std::unique_ptr<DeltaColumn>(new DeltaColumn(
        {}, BuildInlineWindows(values, checkpoint_interval, width), width,
        values.size(), checkpoint_interval, layout));
  }

  std::vector<int64_t> checkpoints;
  checkpoints.reserve(values.size() / checkpoint_interval + 1);
  for (size_t i = 0; i < values.size(); i += checkpoint_interval) {
    checkpoints.push_back(values[i]);
  }
  // Row 0's delta slot is unused (the checkpoint covers it); store 0 to
  // keep positions aligned.
  std::vector<uint8_t> bytes = PackCodes(
      values.size(), width, [&](size_t begin, size_t len, uint64_t* codes) {
        for (size_t i = begin; i < begin + len; ++i) {
          codes[i - begin] =
              i == 0 ? 0
                     : bit_util::ZigZagEncode(static_cast<int64_t>(
                           static_cast<uint64_t>(values[i]) -
                           static_cast<uint64_t>(values[i - 1])));
        }
      });
  return std::unique_ptr<DeltaColumn>(
      new DeltaColumn(std::move(checkpoints), std::move(bytes), width,
                      values.size(), checkpoint_interval, layout));
}

size_t DeltaColumn::EstimateSizeBytes(std::span<const int64_t> values,
                                      size_t checkpoint_interval,
                                      DeltaLayout layout) {
  const int width = MaxDeltaBitWidth(values);
  if (layout == DeltaLayout::kInline) {
    return NumWindows(values.size(), checkpoint_interval) *
           WindowStrideBytes(checkpoint_interval, width);
  }
  const size_t checkpoints =
      values.empty() ? 0 : (values.size() - 1) / checkpoint_interval + 1;
  return bit_util::CeilDiv(values.size() * width, 8) +
         checkpoints * sizeof(int64_t);
}

Result<std::unique_ptr<DeltaColumn>> DeltaColumn::Deserialize(
    BufferReader* reader) {
  // Format sniff: the legacy layout begins with the checkpoint array's
  // length prefix; the extended layouts begin with a marker (see the
  // marker constants). Legacy columns always used the default interval.
  uint64_t first = 0;
  CORRA_RETURN_NOT_OK(reader->Read(&first));

  if (first == kInlineMarker) {
    uint64_t stored_interval = 0;
    CORRA_RETURN_NOT_OK(reader->Read(&stored_interval));
    if (stored_interval > kMaxCheckpointInterval ||
        !ValidInterval(static_cast<size_t>(stored_interval))) {
      return Status::Corruption("Delta checkpoint interval invalid");
    }
    const size_t interval = static_cast<size_t>(stored_interval);
    uint8_t width = 0;
    uint64_t count = 0;
    CORRA_RETURN_NOT_OK(reader->Read(&width));
    CORRA_RETURN_NOT_OK(reader->Read(&count));
    if (width > 64) {
      return Status::Corruption("Delta width > 64");
    }
    const size_t windows = NumWindows(count, interval);
    const size_t stride = WindowStrideBytes(interval, width);
    std::span<const uint8_t> payload;
    CORRA_RETURN_NOT_OK(reader->ReadBytes(&payload));
    // Division, not `payload.size() < windows * stride`: a corrupt
    // `count` near 2^64 makes the product wrap to a small value and
    // sail past the check, building a column whose row count vastly
    // exceeds its buffer (out-of-bounds reads on first access).
    if (windows > payload.size() / stride) {
      return Status::Corruption("Delta inline window stream truncated");
    }
    std::vector<uint8_t> bytes(payload.begin(),
                               payload.begin() + windows * stride);
    bytes.resize(windows * stride + bit_util::kDecodePadBytes, 0);
    return std::unique_ptr<DeltaColumn>(
        new DeltaColumn({}, std::move(bytes), width, count, interval,
                        DeltaLayout::kInline));
  }

  size_t interval = kLegacySerializedInterval;
  std::vector<int64_t> checkpoints;
  if (first == kIntervalMarker) {
    uint64_t stored_interval = 0;
    CORRA_RETURN_NOT_OK(reader->Read(&stored_interval));
    if (stored_interval > kMaxCheckpointInterval ||
        !ValidInterval(static_cast<size_t>(stored_interval))) {
      return Status::Corruption("Delta checkpoint interval invalid");
    }
    interval = static_cast<size_t>(stored_interval);
    CORRA_RETURN_NOT_OK(reader->ReadInt64Array(&checkpoints));
  } else {
    CORRA_RETURN_NOT_OK(
        reader->ReadInt64Values(static_cast<size_t>(first), &checkpoints));
  }
  uint8_t width = 0;
  uint64_t count = 0;
  CORRA_RETURN_NOT_OK(reader->Read(&width));
  CORRA_RETURN_NOT_OK(reader->Read(&count));
  if (width > 64) {
    return Status::Corruption("Delta width > 64");
  }
  const size_t expected_checkpoints =
      count == 0 ? 0 : (count - 1) / interval + 1;
  if (checkpoints.size() != expected_checkpoints) {
    return Status::Corruption("Delta checkpoint count mismatch");
  }
  std::span<const uint8_t> payload;
  CORRA_RETURN_NOT_OK(reader->ReadBytes(&payload));
  if (payload.size() < bit_util::PackedDataBytes(count, width)) {
    return Status::Corruption("Delta payload truncated");
  }
  std::vector<uint8_t> bytes(payload.begin(), payload.end());
  bytes.resize(bit_util::PackedBytes(count, width), 0);  // Decode slack.
  return std::unique_ptr<DeltaColumn>(
      new DeltaColumn(std::move(checkpoints), std::move(bytes), width, count,
                      interval, DeltaLayout::kPacked));
}

size_t DeltaColumn::SizeBytes() const {
  if (layout_ == DeltaLayout::kInline) {
    return NumWindows(count_, interval_) * window_stride_;
  }
  return bit_util::CeilDiv(count_ * static_cast<size_t>(bit_width_), 8) +
         checkpoints_.size() * sizeof(int64_t);
}

int64_t DeltaColumn::InlineCheckpoint(size_t k) const {
  int64_t value;
  std::memcpy(&value, bytes_.data() + k * window_stride_, sizeof(value));
  return value;
}

int64_t DeltaColumn::SeekValue(size_t row) const {
  // One fused kernel call: seek from the *nearest* checkpoint (forward
  // from the covering one or backward from the next), with the replay
  // folded straight out of the packed stream. Expected replay is
  // interval / 4 deltas; see simd::DeltaPointPacked /
  // simd::DeltaPointInline.
  if (layout_ == DeltaLayout::kInline) {
    return inline_point_kernel_(bytes_.data(), bit_width_, interval_shift_,
                                window_stride_, count_, row);
  }
  return point_kernel_(bytes_.data(), bit_width_, checkpoints_.data(),
                       interval_shift_, count_, row);
}

int64_t DeltaColumn::Get(size_t row) const { return SeekValue(row); }

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
  //  * dense: reconstruct each covering window (anchored at its
  //    checkpoint; one morsel for kPacked, one interval for kInline)
  //    with the fused branch-free unpack+zigzag+prefix-sum kernel, then
  //    pick the selected values. Work per row is (gap+1) * ~0.5ns but
  //    entirely predictable.
  //
  // An unsorted selection (detected by span) takes the sparse path,
  // which tolerates out-of-order positions by re-anchoring.
  constexpr size_t kDenseGatherMaxGap = 24;
  const size_t span = rows[n - 1] >= rows[0] ? rows[n - 1] - rows[0] + 1 : 0;
  if (layout_ == DeltaLayout::kInline) {
    // The inline crossover sits much lower (measured: gap 3 — see the
    // strategy table in the bench): dense reconstruction re-anchors
    // every `interval_` rows (16 by default), so its per-window fixed
    // cost amortizes only over near-contiguous selections, while the
    // running cursor profits from the same single-window locality that
    // point access does.
    constexpr size_t kInlineDenseGatherMaxGap = 3;
    if (span == 0 || span > n * kInlineDenseGatherMaxGap) {
      simd::DeltaGatherInline(bytes_.data(), bit_width_, interval_shift_,
                              window_stride_, count_, rows.data(), n, out);
      return;
    }
    // Dense: reconstruct one interval window at a time (the inline
    // stream is not contiguous across windows, so each window gets its
    // own fused decode anchored on its inline checkpoint).
    int64_t values[kMorselRows + 1];
    size_t i = 0;
    while (i < n) {
      const size_t k = rows[i] >> interval_shift_;
      const size_t first = k << interval_shift_;
      const size_t window_end = std::min(first + interval_, count_);
      size_t j = i;
      size_t last_row = rows[i];
      while (j < n && rows[j] >= last_row && rows[j] < window_end) {
        last_row = rows[j];
        ++j;
      }
      values[0] = InlineCheckpoint(k);
      simd::DeltaDecodePacked(WindowDeltas(k), bit_width_, 0,
                              last_row - first, values[0], values + 1);
      for (; i < j; ++i) {
        out[i] = values[rows[i] - first];
      }
    }
    return;
  }
  if (span == 0 || span > n * kDenseGatherMaxGap) {
    simd::DeltaGatherPacked(bytes_.data(), bit_width_, checkpoints_.data(),
                            interval_shift_, count_, rows.data(), n, out);
    return;
  }
  int64_t values[kMorselRows + 1];
  size_t i = 0;
  while (i < n) {
    const size_t k = rows[i] >> interval_shift_;
    const size_t anchor = k << interval_shift_;
    const size_t window_end = std::min(anchor + kMorselRows, count_);
    size_t j = i;
    size_t last_row = rows[i];
    while (j < n && rows[j] >= last_row && rows[j] < window_end) {
      last_row = rows[j];
      ++j;
    }
    // values[v] is the reconstructed value at row anchor + v; slot 0 is
    // the checkpoint itself, so the pick loop is branch-free.
    values[0] = checkpoints_[k];
    simd::DeltaDecodePacked(bytes_.data(), bit_width_, anchor + 1,
                            last_row - anchor, checkpoints_[k], values + 1);
    for (; i < j; ++i) {
      out[i] = values[rows[i] - anchor];
    }
  }
}

void DeltaColumn::DecodeAll(int64_t* out) const {
  DecodeRange(0, count_, out);
}

void DeltaColumn::DecodeRange(size_t row_begin, size_t count,
                              int64_t* out) const {
  if (count == 0) {
    return;
  }
  if (layout_ == DeltaLayout::kInline) {
    // The inline stream re-anchors once per interval window: each
    // window's slots are decoded with one fused kernel call seeded by
    // the in-window checkpoint (or the partial forward fold when the
    // range starts mid-window).
    size_t row = row_begin;
    size_t done = 0;
    while (done < count) {
      const size_t k = row >> interval_shift_;
      const size_t first = k << interval_shift_;
      const size_t window_end = std::min(first + interval_, count_);
      const size_t take = std::min(window_end - row, count - done);
      const uint8_t* region = WindowDeltas(k);
      const int64_t checkpoint = InlineCheckpoint(k);
      if (row == first) {
        out[done] = checkpoint;
        simd::DeltaDecodePacked(region, bit_width_, 0, take - 1, checkpoint,
                                out + done + 1);
      } else {
        // Seed with the value at row - 1 (checkpoint plus the forward
        // fold of the preceding slots), then decode the range in place.
        const size_t local = row - first;
        const int64_t seed = static_cast<int64_t>(
            static_cast<uint64_t>(checkpoint) +
            static_cast<uint64_t>(simd::ZigZagSumPacked(region, bit_width_,
                                                        0, local - 1)));
        simd::DeltaDecodePacked(region, bit_width_, local - 1, take, seed,
                                out + done);
      }
      done += take;
      row += take;
    }
    return;
  }
  // One checkpoint seek for the first value, then the rest of the range
  // is a single fused unpack + zig-zag + prefix-sum kernel call over the
  // packed stream. No re-anchoring is needed inside the range: the
  // wrap-around prefix sum reproduces every checkpoint value exactly.
  out[0] = SeekValue(row_begin);
  simd::DeltaDecodePacked(bytes_.data(), bit_width_, row_begin + 1,
                          count - 1, out[0], out + 1);
}

void DeltaColumn::Serialize(BufferWriter* writer) const {
  writer->Write<uint8_t>(static_cast<uint8_t>(Scheme::kDelta));
  if (layout_ == DeltaLayout::kInline) {
    writer->Write<uint64_t>(kInlineMarker);
    writer->Write<uint64_t>(interval_);
    writer->Write<uint8_t>(static_cast<uint8_t>(bit_width_));
    writer->Write<uint64_t>(count_);
    writer->WriteBytes(std::span<const uint8_t>(
        bytes_.data(), NumWindows(count_, interval_) * window_stride_));
    return;
  }
  if (interval_ != kLegacySerializedInterval) {
    writer->Write<uint64_t>(kIntervalMarker);
    writer->Write<uint64_t>(interval_);
  }
  writer->WriteInt64Array(checkpoints_);
  writer->Write<uint8_t>(static_cast<uint8_t>(bit_width_));
  writer->Write<uint64_t>(count_);
  writer->WriteBytes(bytes_);
}

}  // namespace corra::enc
