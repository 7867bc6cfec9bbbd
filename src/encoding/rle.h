// Run-length encoding with positional checkpoints.
//
// Runs are (value, end_position) pairs; a checkpoint array maps every
// kCheckpointInterval-th row to its run index, so Get costs one checkpoint
// lookup plus a short forward scan (never a full binary search over all
// runs). Like Delta, RLE is implemented to *show* why the paper's baseline
// prefers FOR/Dict for point access.

#ifndef CORRA_ENCODING_RLE_H_
#define CORRA_ENCODING_RLE_H_

#include <memory>
#include <span>
#include <vector>

#include "encoding/encoded_column.h"

namespace corra::enc {

class RleColumn final : public EncodedColumn {
 public:
  static constexpr size_t kCheckpointInterval = 128;

  static Result<std::unique_ptr<RleColumn>> Encode(
      std::span<const int64_t> values);

  /// Compressed size estimate (runs + checkpoints).
  static size_t EstimateSizeBytes(std::span<const int64_t> values);

  static Result<std::unique_ptr<RleColumn>> Deserialize(BufferReader* reader);

  Scheme scheme() const override { return Scheme::kRle; }
  size_t size() const override { return count_; }
  size_t SizeBytes() const override;
  int64_t Get(size_t row) const override;
  void GatherRange(std::span<const uint32_t> rows,
                   int64_t* out) const override;
  void DecodeRange(size_t row_begin, size_t count,
                   int64_t* out) const override;
  void Serialize(BufferWriter* writer) const override;

  size_t run_count() const { return run_values_.size(); }

 private:
  RleColumn(std::vector<int64_t> run_values, std::vector<uint32_t> run_ends,
            std::vector<uint32_t> checkpoints, size_t count);

  std::vector<int64_t> run_values_;
  std::vector<uint32_t> run_ends_;  // Exclusive end row of each run.
  std::vector<uint32_t> checkpoints_;  // Run index covering row k*interval.
  size_t count_ = 0;
};

}  // namespace corra::enc

#endif  // CORRA_ENCODING_RLE_H_
