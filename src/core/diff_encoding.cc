#include "core/diff_encoding.h"

#include <algorithm>
#include <cassert>

#include "common/bit_util.h"
#include "common/simd/simd.h"

namespace corra {

namespace {

// Approximate cost charged per outlier when picking the packed window:
// 4 bytes of row index plus roughly half a word of packed value.
constexpr size_t kOutlierCostBytes = 8;

// The encoding decision: mode, window parameters, and total cost.
struct DiffLayout {
  DiffMode mode = DiffMode::kRaw;
  int64_t base = 0;       // kWindow only.
  int bit_width = 0;
  size_t cost_bytes = 0;  // Packed payload + outlier estimate.
};

// Paper-faithful layout without outliers: raw widths for non-negative
// diffs, zig-zag otherwise.
DiffLayout PlainLayout(std::span<const int64_t> diffs) {
  DiffLayout layout;
  const auto mm = bit_util::ComputeMinMax(diffs);
  if (mm.min >= 0) {
    layout.mode = DiffMode::kRaw;
    layout.bit_width = bit_util::BitWidth(static_cast<uint64_t>(mm.max));
  } else {
    layout.mode = DiffMode::kZigZag;
    layout.bit_width = bit_util::MaxZigZagBitWidth(mm);
  }
  layout.cost_bytes = bit_util::CeilDiv(diffs.size() * layout.bit_width, 8);
  return layout;
}

// Extended layout with the outlier store: windowed FOR over the diffs,
// choosing the (window, #outliers) pair by total cost against the plain
// layout.
DiffLayout SelectLayout(std::span<const int64_t> diffs,
                        const DiffOptions& options) {
  DiffLayout best = PlainLayout(diffs);
  if (!options.use_outliers || diffs.size() < 2) {
    return best;
  }
  std::vector<int64_t> sorted(diffs.begin(), diffs.end());
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  const size_t max_outliers = static_cast<size_t>(
      static_cast<double>(n) * options.max_outlier_fraction);

  // Geometric ladder over the outlier budget: the optimum is coarse in k,
  // so probing powers of two keeps this O(n log n) after the sort.
  for (size_t k = 1; k <= max_outliers; k *= 2) {
    uint64_t min_range = ~uint64_t{0};
    size_t best_lo = 0;
    for (size_t lo = 0; lo + (n - k) <= n; ++lo) {
      const uint64_t range = static_cast<uint64_t>(sorted[lo + (n - k) - 1]) -
                             static_cast<uint64_t>(sorted[lo]);
      if (range < min_range) {
        min_range = range;
        best_lo = lo;
      }
    }
    DiffLayout candidate;
    candidate.mode = DiffMode::kWindow;
    candidate.base = sorted[best_lo];
    candidate.bit_width = bit_util::BitWidth(min_range);
    candidate.cost_bytes = bit_util::CeilDiv(n * candidate.bit_width, 8) +
                           k * kOutlierCostBytes + sizeof(int64_t);
    if (candidate.cost_bytes < best.cost_bytes) {
      best = candidate;
    }
  }
  return best;
}

}  // namespace

DiffEncodedColumn::DiffEncodedColumn(uint32_t ref_index, DiffMode mode,
                                     int64_t base, PackedArray packed,
                                     OutlierStore outliers)
    : SingleRefColumn(ref_index),
      mode_(mode),
      base_(base),
      packed_(std::move(packed)),
      outliers_(std::move(outliers)) {}

Result<std::unique_ptr<DiffEncodedColumn>> DiffEncodedColumn::Encode(
    std::span<const int64_t> target, std::span<const int64_t> reference,
    uint32_t ref_index, const DiffOptions& options) {
  if (target.size() != reference.size()) {
    return Status::InvalidArgument("target/reference length mismatch");
  }
  if (target.size() > UINT32_MAX) {
    return Status::InvalidArgument("block too large for diff encoding");
  }
  std::vector<int64_t> diffs(target.size());
  for (size_t i = 0; i < target.size(); ++i) {
    diffs[i] = static_cast<int64_t>(static_cast<uint64_t>(target[i]) -
                                    static_cast<uint64_t>(reference[i]));
  }
  const DiffLayout layout = SelectLayout(diffs, options);

  std::vector<uint32_t> outlier_rows;
  std::vector<int64_t> outlier_values;
  PackedArray packed;
  switch (layout.mode) {
    case DiffMode::kRaw:
      packed = PackedArray::Pack(
          {reinterpret_cast<const uint64_t*>(diffs.data()), diffs.size()},
          layout.bit_width);
      break;
    case DiffMode::kZigZag:
      packed = PackedArray::Pack(
          diffs.size(), layout.bit_width,
          [&](size_t begin, size_t len, uint64_t* codes) {
            for (size_t i = 0; i < len; ++i) {
              codes[i] = bit_util::ZigZagEncode(diffs[begin + i]);
            }
          });
      break;
    case DiffMode::kWindow: {
      // Out-of-window rows store 0 (any in-window code works — the outlier
      // indices, not a sentinel, identify them; cf. Sec. 2.3).
      const uint64_t limit = layout.bit_width >= 64
                                 ? ~uint64_t{0}
                                 : (uint64_t{1} << layout.bit_width) - 1;
      packed = PackedArray::Pack(
          diffs.size(), layout.bit_width,
          [&](size_t begin, size_t len, uint64_t* codes) {
            for (size_t i = begin; i < begin + len; ++i) {
              const uint64_t offset = static_cast<uint64_t>(diffs[i]) -
                                      static_cast<uint64_t>(layout.base);
              if (offset > limit) {
                outlier_rows.push_back(static_cast<uint32_t>(i));
                outlier_values.push_back(target[i]);
                codes[i - begin] = 0;
              } else {
                codes[i - begin] = offset;
              }
            }
          });
      break;
    }
  }
  CORRA_ASSIGN_OR_RETURN(OutlierStore store,
                         OutlierStore::Build(outlier_rows, outlier_values));
  return std::unique_ptr<DiffEncodedColumn>(new DiffEncodedColumn(
      ref_index, layout.mode, layout.base, std::move(packed),
      std::move(store)));
}

size_t DiffEncodedColumn::EstimateSizeBytes(
    std::span<const int64_t> target, std::span<const int64_t> reference,
    const DiffOptions& options) {
  if (target.size() != reference.size()) {
    return SIZE_MAX;
  }
  std::vector<int64_t> diffs(target.size());
  for (size_t i = 0; i < target.size(); ++i) {
    diffs[i] = static_cast<int64_t>(static_cast<uint64_t>(target[i]) -
                                    static_cast<uint64_t>(reference[i]));
  }
  return SelectLayout(diffs, options).cost_bytes;
}

Result<std::unique_ptr<DiffEncodedColumn>> DiffEncodedColumn::Deserialize(
    BufferReader* reader) {
  uint32_t ref_index = 0;
  uint8_t mode_byte = 0;
  int64_t base = 0;
  CORRA_RETURN_NOT_OK(reader->Read(&ref_index));
  CORRA_RETURN_NOT_OK(reader->Read(&mode_byte));
  CORRA_RETURN_NOT_OK(reader->Read(&base));
  if (mode_byte > static_cast<uint8_t>(DiffMode::kWindow)) {
    return Status::Corruption("bad diff mode");
  }
  CORRA_ASSIGN_OR_RETURN(PackedArray packed, PackedArray::Read(reader));
  CORRA_ASSIGN_OR_RETURN(OutlierStore outliers,
                         OutlierStore::Deserialize(reader));
  if (!outliers.empty() &&
      outliers.row(outliers.size() - 1) >= packed.size()) {
    return Status::Corruption("diff outlier row out of range");
  }
  return std::unique_ptr<DiffEncodedColumn>(new DiffEncodedColumn(
      ref_index, static_cast<DiffMode>(mode_byte), base, std::move(packed),
      std::move(outliers)));
}

size_t DiffEncodedColumn::SizeBytes() const {
  size_t bytes = packed_.SizeBytes() + outliers_.SizeBytes();
  if (mode_ == DiffMode::kWindow) {
    bytes += sizeof(int64_t);  // The window base.
  }
  return bytes;
}

int64_t DiffEncodedColumn::DiffAt(size_t row) const {
  switch (mode_) {
    case DiffMode::kRaw:
      return static_cast<int64_t>(packed_.Get(row));
    case DiffMode::kZigZag:
      return bit_util::ZigZagDecode(packed_.Get(row));
    case DiffMode::kWindow:
      return base_ + static_cast<int64_t>(packed_.Get(row));
  }
  return 0;
}

int64_t DiffEncodedColumn::Get(size_t row) const {
  assert(ref_ != nullptr && "reference not bound");
  if (!outliers_.empty()) {
    if (const auto v = outliers_.Find(static_cast<uint32_t>(row))) {
      return *v;
    }
  }
  return ref_->Get(row) + DiffAt(row);
}

void DiffEncodedColumn::GatherWithReference(std::span<const uint32_t> rows,
                                            const int64_t* ref_values,
                                            int64_t* out) const {
  // Positioned SIMD gather of the packed diff codes, then the same
  // mode-hoisted combine passes as DecodeRangeWithReference; the sparse
  // outlier positions are patched over the result at the end.
  uint64_t codes[enc::kMorselRows];
  size_t done = 0;
  while (done < rows.size()) {
    const size_t len = std::min(rows.size() - done, enc::kMorselRows);
    packed_.Gather(rows.subspan(done, len), codes);
    switch (mode_) {
      case DiffMode::kRaw:
        simd::AddRefAndBase(ref_values + done, codes, 0, len, out + done);
        break;
      case DiffMode::kZigZag:
        simd::AddRefZigZag(ref_values + done, codes, len, out + done);
        break;
      case DiffMode::kWindow:
        simd::AddRefAndBase(ref_values + done, codes, base_, len,
                            out + done);
        break;
    }
    done += len;
  }
  outliers_.Patch(rows, out);
}

void DiffEncodedColumn::DecodeRangeWithReference(size_t row_begin,
                                                 size_t count,
                                                 const int64_t* ref_values,
                                                 int64_t* out) const {
  // Unpack the diff codes of each morsel-sized chunk into a stack
  // buffer, then combine with the reference morsel in one
  // mode-specialized SIMD pass (the mode switch is hoisted out of the
  // row loop, unlike the per-row DiffAt path).
  uint64_t codes[enc::kMorselRows];
  size_t done = 0;
  while (done < count) {
    const size_t len = std::min(count - done, enc::kMorselRows);
    packed_.DecodeRange(row_begin + done, len, codes);
    switch (mode_) {
      case DiffMode::kRaw:
        simd::AddRefAndBase(ref_values + done, codes, 0, len, out + done);
        break;
      case DiffMode::kZigZag:
        simd::AddRefZigZag(ref_values + done, codes, len, out + done);
        break;
      case DiffMode::kWindow:
        simd::AddRefAndBase(ref_values + done, codes, base_, len,
                            out + done);
        break;
    }
    done += len;
  }
  outliers_.PatchRange(row_begin, count, out);
}

void DiffEncodedColumn::Serialize(BufferWriter* writer) const {
  writer->Write<uint8_t>(static_cast<uint8_t>(enc::Scheme::kDiff));
  writer->Write<uint32_t>(ref_index_);
  writer->Write<uint8_t>(static_cast<uint8_t>(mode_));
  writer->Write<int64_t>(base_);
  packed_.Write(writer);
  outliers_.Serialize(writer);
}

}  // namespace corra
