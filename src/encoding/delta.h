// Delta encoding with checkpoints.
//
// Each value is stored as the zig-zag difference to its predecessor;
// absolute values are checkpointed every `checkpoint_interval` rows so
// random access costs at most one checkpoint plus a bounded replay. The
// paper excludes Delta from its baseline precisely because of this
// checkpoint cost — implementing it lets the scheme selector demonstrate
// that choice instead of asserting it.
//
// Layout: one contiguous bit-packed delta stream plus an out-of-band
// checkpoint array. Dense scans are one checkpoint seek plus a single
// fused unpack+zigzag+prefix-sum kernel sweep over the stream
// (simd::DeltaDecodePacked); Get is one nearest-checkpoint fixed-trip
// masked fold (simd::DeltaPointPacked); GatherRange splits by selection
// density between fused window reconstruction and a batched
// running-cursor kernel (simd::DeltaGatherPacked). No path materializes
// a packed window or bottoms out in per-delta bit fetches.
//
// Deserialize also reads the inline-checkpoint wire form older files
// may carry (each interval's absolute value at the head of its own
// fixed-stride window of delta slots) and converts it into this layout.

#ifndef CORRA_ENCODING_DELTA_H_
#define CORRA_ENCODING_DELTA_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/bit_stream.h"
#include "encoding/encoded_column.h"

namespace corra::enc {

class DeltaColumn final : public EncodedColumn {
 public:
  /// Default rows between consecutive absolute-value checkpoints.
  ///
  /// Space/point-latency trade-off: each checkpoint costs 8 bytes, so
  /// the metadata overhead is 64 / interval bits per row, while point
  /// access replays at most interval / 2 deltas (Get seeks from the
  /// nearest checkpoint in either direction — expected replay is
  /// interval / 4, folded by the fixed-trip masked SIMD kernel). Both
  /// dimensions, measured at 1M rows of 13-bit deltas on the AVX2 dev
  /// box (random point accesses; total column size incl. checkpoints):
  ///
  ///   interval   overhead      point access   column size
  ///        32    2.0  bit/row   ~16 ns/row    1.97 MB  <- default
  ///        64    1.0  bit/row   ~21 ns/row    1.84 MB
  ///       128    0.5  bit/row   ~38 ns/row    1.77 MB
  ///       256    0.25 bit/row   ~64 ns/row    1.74 MB
  ///      1024    0.06 bit/row  ~234 ns/row    1.71 MB
  ///
  /// 32 is the densified default: point latency is dominated by the
  /// fixed per-access cost (dispatch, two L2 lines, fold prologue) at an
  /// 8-delta expected replay, so a denser index would buy nothing,
  /// while each doubling of the interval adds the full marginal fold
  /// cost. The price is ~2 bits/row of metadata (+15% on a 13-bit-delta
  /// column) — columns that are only ever scanned (DecodeRange
  /// amortizes one seek per range) should pass a larger interval to
  /// Encode and reclaim that space.
  static constexpr size_t kDefaultCheckpointInterval = 32;

  /// Bounds on configurable intervals. Intervals must be powers of two
  /// so the per-access checkpoint mapping stays a shift (a runtime
  /// division would cost more than the replay it locates), and at most
  /// one morsel so reconstruction windows stay L1-sized. 16 is accepted
  /// (files written with it must open) although no default uses it.
  static constexpr size_t kMinCheckpointInterval = 16;
  static constexpr size_t kMaxCheckpointInterval = kMorselRows;

  /// Encodes `values` with a checkpoint every `checkpoint_interval` rows
  /// (see kDefaultCheckpointInterval for the trade-off). The interval
  /// must be a power of two in
  /// [kMinCheckpointInterval, kMaxCheckpointInterval].
  static Result<std::unique_ptr<DeltaColumn>> Encode(
      std::span<const int64_t> values,
      size_t checkpoint_interval = kDefaultCheckpointInterval);

  /// Compressed size estimate (deltas + checkpoints).
  static size_t EstimateSizeBytes(
      std::span<const int64_t> values,
      size_t checkpoint_interval = kDefaultCheckpointInterval);

  /// Reads any of the three wire forms: legacy (implied interval 128),
  /// interval marker, and inline checkpoints. The inline form is
  /// re-packed into this layout without decoding a value: its window
  /// heads become the checkpoint array and its delta slots, in order,
  /// the delta stream, so Serialize then writes exactly the bytes Encode
  /// would for the same values and interval.
  static Result<std::unique_ptr<DeltaColumn>> Deserialize(
      BufferReader* reader);

  Scheme scheme() const override { return Scheme::kDelta; }
  size_t size() const override { return deltas_.size(); }
  size_t SizeBytes() const override;
  int64_t Get(size_t row) const override;
  void GatherRange(std::span<const uint32_t> rows,
                   int64_t* out) const override;
  void DecodeRange(size_t row_begin, size_t count,
                   int64_t* out) const override;
  void Serialize(BufferWriter* writer) const override;

  int bit_width() const { return deltas_.bit_width(); }
  size_t checkpoint_interval() const { return interval_; }

 private:
  DeltaColumn(std::vector<int64_t> checkpoints, PackedArray deltas,
              size_t interval);

  std::vector<int64_t> checkpoints_;  // Absolute value at row k*interval.
  PackedArray deltas_;                // Zig-zag deltas.
  size_t interval_ = kDefaultCheckpointInterval;
  // log2(interval_): the per-access checkpoint mapping is a shift. There
  // is exactly one derivation — the constructor computes it from
  // `interval_` — so no construction path (legacy deserialization,
  // non-default Encode intervals, the inline wire form) can ever pair an
  // interval with a stale shift and silently map rows to the wrong
  // checkpoint.
  int interval_shift_;
};

}  // namespace corra::enc

#endif  // CORRA_ENCODING_DELTA_H_
