// C3's DFOR scheme (Glas et al., reimplemented from the description in the
// paper's Table 3): diff-encode against the reference column, then compress
// the diff column with *frame-wise* FOR — each frame of kFrameSize rows has
// its own base and bit width, following BtrBlocks' block-local philosophy.
// Random access stays O(1) through a per-frame bit-offset directory. Like
// a PackedArray, a DFOR column read from a loaded block views its frame
// payload in the block's read buffer instead of copying it.

#ifndef CORRA_CORE_C3_DFOR_H_
#define CORRA_CORE_C3_DFOR_H_

#include <memory>
#include <span>
#include <vector>

#include "core/horizontal.h"

namespace corra::c3 {

class DforColumn final : public SingleRefColumn {
 public:
  static constexpr size_t kFrameSize = 1024;

  static Result<std::unique_ptr<DforColumn>> Encode(
      std::span<const int64_t> target, std::span<const int64_t> reference,
      uint32_t ref_index);

  /// Compressed size without encoding (frame scan only).
  static size_t EstimateSizeBytes(std::span<const int64_t> target,
                                  std::span<const int64_t> reference);

  static Result<std::unique_ptr<DforColumn>> Deserialize(
      BufferReader* reader);

  enc::Scheme scheme() const override { return enc::Scheme::kC3Dfor; }
  size_t size() const override { return count_; }
  size_t SizeBytes() const override;
  int64_t Get(size_t row) const override;
  void GatherWithReference(std::span<const uint32_t> rows,
                           const int64_t* ref_values,
                           int64_t* out) const override;
  void DecodeRangeWithReference(size_t row_begin, size_t count,
                                const int64_t* ref_values,
                                int64_t* out) const override;
  void Serialize(BufferWriter* writer) const override;

 private:
  DforColumn(uint32_t ref_index, std::vector<int64_t> frame_bases,
             std::vector<uint8_t> frame_widths,
             std::vector<uint64_t> frame_bit_starts,
             std::shared_ptr<const uint8_t> payload, size_t count);

  // The packed diff (relative to its frame base) at `row`.
  int64_t DiffAt(size_t row) const;
  // Bytes of the frame-packed payload, slack excluded.
  size_t PayloadBytes() const;

  std::vector<int64_t> frame_bases_;
  std::vector<uint8_t> frame_widths_;
  std::vector<uint64_t> frame_bit_starts_;  // Bit offset of each frame.
  // The frames' packed diffs plus decode slack (see PaddedBytes).
  std::shared_ptr<const uint8_t> payload_;
  size_t count_ = 0;
};

}  // namespace corra::c3

#endif  // CORRA_CORE_C3_DFOR_H_
