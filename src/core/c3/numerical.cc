#include "core/c3/numerical.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/bit_util.h"

namespace corra::c3 {

namespace {

// Least-squares slope of target on reference. Returns 1.0 for degenerate
// inputs (constant reference), reducing the scheme to plain diff encoding.
double FitSlope(std::span<const int64_t> target,
                std::span<const int64_t> reference) {
  if (target.empty()) {
    return 1.0;
  }
  const double n = static_cast<double>(target.size());
  double mean_x = 0;
  double mean_y = 0;
  for (size_t i = 0; i < target.size(); ++i) {
    mean_x += static_cast<double>(reference[i]);
    mean_y += static_cast<double>(target[i]);
  }
  mean_x /= n;
  mean_y /= n;
  double cov = 0;
  double var = 0;
  for (size_t i = 0; i < target.size(); ++i) {
    const double dx = static_cast<double>(reference[i]) - mean_x;
    cov += dx * (static_cast<double>(target[i]) - mean_y);
    var += dx * dx;
  }
  if (var == 0.0 || !std::isfinite(cov / var)) {
    return 1.0;
  }
  return cov / var;
}

int64_t PredictWith(double slope, int64_t ref_value) {
  return static_cast<int64_t>(
      std::llround(slope * static_cast<double>(ref_value)));
}

}  // namespace

NumericalColumn::NumericalColumn(uint32_t ref_index, double slope,
                                 int64_t base, PackedArray packed)
    : SingleRefColumn(ref_index),
      slope_(slope),
      base_(base),
      packed_(std::move(packed)) {}

int64_t NumericalColumn::Predict(int64_t ref_value) const {
  return PredictWith(slope_, ref_value);
}

Result<std::unique_ptr<NumericalColumn>> NumericalColumn::Encode(
    std::span<const int64_t> target, std::span<const int64_t> reference,
    uint32_t ref_index) {
  if (target.size() != reference.size()) {
    return Status::InvalidArgument("target/reference length mismatch");
  }
  const double slope = FitSlope(target, reference);
  std::vector<int64_t> residuals(target.size());
  for (size_t i = 0; i < target.size(); ++i) {
    residuals[i] = static_cast<int64_t>(
        static_cast<uint64_t>(target[i]) -
        static_cast<uint64_t>(PredictWith(slope, reference[i])));
  }
  const auto mm = bit_util::ComputeMinMax(residuals);
  const int width = bit_util::MaxForBitWidth(mm);
  const uint64_t base = static_cast<uint64_t>(mm.min);
  PackedArray packed = PackedArray::Pack(
      residuals.size(), width, [&](size_t begin, size_t len, uint64_t* codes) {
        for (size_t i = 0; i < len; ++i) {
          codes[i] = static_cast<uint64_t>(residuals[begin + i]) - base;
        }
      });
  return std::unique_ptr<NumericalColumn>(new NumericalColumn(
      ref_index, slope, mm.min, std::move(packed)));
}

size_t NumericalColumn::EstimateSizeBytes(std::span<const int64_t> target,
                                          std::span<const int64_t> reference) {
  if (target.size() != reference.size()) {
    return SIZE_MAX;
  }
  const double slope = FitSlope(target, reference);
  int64_t lo = 0;
  int64_t hi = 0;
  for (size_t i = 0; i < target.size(); ++i) {
    const int64_t r = static_cast<int64_t>(
        static_cast<uint64_t>(target[i]) -
        static_cast<uint64_t>(PredictWith(slope, reference[i])));
    if (i == 0) {
      lo = hi = r;
    } else {
      lo = std::min(lo, r);
      hi = std::max(hi, r);
    }
  }
  const int width = bit_util::BitWidth(static_cast<uint64_t>(hi) -
                                       static_cast<uint64_t>(lo));
  return bit_util::CeilDiv(target.size() * width, 8) + sizeof(double) +
         sizeof(int64_t);
}

Result<std::unique_ptr<NumericalColumn>> NumericalColumn::Deserialize(
    BufferReader* reader) {
  uint32_t ref_index = 0;
  uint64_t slope_bits = 0;
  int64_t base = 0;
  CORRA_RETURN_NOT_OK(reader->Read(&ref_index));
  CORRA_RETURN_NOT_OK(reader->Read(&slope_bits));
  CORRA_RETURN_NOT_OK(reader->Read(&base));
  double slope;
  static_assert(sizeof(slope) == sizeof(slope_bits));
  std::memcpy(&slope, &slope_bits, sizeof(slope));
  if (!std::isfinite(slope)) {
    return Status::Corruption("numerical slope not finite");
  }
  CORRA_ASSIGN_OR_RETURN(PackedArray packed, PackedArray::Read(reader));
  return std::unique_ptr<NumericalColumn>(
      new NumericalColumn(ref_index, slope, base, std::move(packed)));
}

size_t NumericalColumn::SizeBytes() const {
  return packed_.SizeBytes() + sizeof(double) + sizeof(int64_t);
}

int64_t NumericalColumn::Get(size_t row) const {
  assert(ref_ != nullptr && "reference not bound");
  return Predict(ref_->Get(row)) + base_ +
         static_cast<int64_t>(packed_.Get(row));
}

void NumericalColumn::GatherWithReference(std::span<const uint32_t> rows,
                                          const int64_t* ref_values,
                                          int64_t* out) const {
  // Positioned SIMD gather of the packed residuals, then the affine
  // model over the staged chunk.
  uint64_t residuals[enc::kMorselRows];
  const int64_t base = base_;
  size_t done = 0;
  while (done < rows.size()) {
    const size_t len = std::min(rows.size() - done, enc::kMorselRows);
    packed_.Gather(rows.subspan(done, len), residuals);
    for (size_t i = 0; i < len; ++i) {
      out[done + i] = Predict(ref_values[done + i]) + base +
                      static_cast<int64_t>(residuals[i]);
    }
    done += len;
  }
}

void NumericalColumn::DecodeRangeWithReference(size_t row_begin,
                                               size_t count,
                                               const int64_t* ref_values,
                                               int64_t* out) const {
  // Unpack the residual morsel sequentially, then apply the affine model.
  packed_.DecodeRange(row_begin, count, reinterpret_cast<uint64_t*>(out));
  const int64_t base = base_;
  for (size_t i = 0; i < count; ++i) {
    out[i] = Predict(ref_values[i]) + base + out[i];
  }
}

void NumericalColumn::Serialize(BufferWriter* writer) const {
  writer->Write<uint8_t>(static_cast<uint8_t>(enc::Scheme::kC3Numerical));
  writer->Write<uint32_t>(ref_index_);
  uint64_t slope_bits;
  std::memcpy(&slope_bits, &slope_, sizeof(slope_bits));
  writer->Write<uint64_t>(slope_bits);
  writer->Write<int64_t>(base_);
  packed_.Write(writer);
}

}  // namespace corra::c3
