// Per-request trace spans — the narrative half of the serving telemetry
// layer (src/obs/).
//
// A RequestTrace attributes one ScanService request end to end: total
// wall latency, a fixed set of timed phases (queue wait, block prune,
// cache pin, miss fill, decode/filter, merge), and one BlockSpan per
// block touched (scheme annotations, rows, pruned/hit flags, per-block
// timings). Phase times are *attributed* time summed across the threads
// that ran the request's units. A request run wholly by its caller —
// every single-block request, and every request on a num_threads = 0
// service — has phases that partition its wall clock, so they sum to
// ~total; when pool helpers join a multi-block request, the per-block
// phases overlap in real time and can legitimately sum past total.
//
// Traces are opt-in on the request (ScanRequest::collect_trace →
// ScanResult::trace) and cost a handful of steady_clock reads per block
// — never per row; the scheme annotation text is built only for a trace
// that leaves the service. Independently of opt-in, the service keeps the last
// N traces that breached its slow threshold in a TraceRing for post-hoc
// dumping (a request you did not think to trace can still be explained
// after the fact).
//
// Everything here is inert when obs::Enabled() is false: the service
// skips its clock reads and produces neither traces nor ring entries.

#ifndef CORRA_OBS_TRACE_H_
#define CORRA_OBS_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"

namespace corra::obs {

/// Monotonic nanoseconds (steady_clock): the repository's one clock.
/// Request telemetry reads it only when Enabled(); deadlines, quarantine
/// TTLs and the benchmarks read it unconditionally.
inline uint64_t MonotonicNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Seconds elapsed since `begin_ns`, an earlier MonotonicNs() reading.
inline double SecondsSince(uint64_t begin_ns) {
  return static_cast<double>(MonotonicNs() - begin_ns) * 1e-9;
}

/// The timed phases of one serving request, in execution order.
enum class Phase : uint8_t {
  kQueueWait = 0,  // Helper hand-off -> its first claim; 0 for the
                   // caller's units and a helper's later ones.
  kBlockPrune,     // Min/max stats check across the directory.
  kCachePin,       // BlockCache lookup/pin, minus any miss fill.
  kMissFill,       // Loader time: disk read + deserialize (misses only).
  kDecodeFilter,   // Predicate, decode, gather, aggregate kernels.
  kMerge,          // In-order merge of per-block partials.
  kScatter,        // Always 0; stays because ladderbench/common.cc names it.
};
inline constexpr size_t kNumPhases = 7;

std::string_view PhaseName(Phase phase);

/// One block's share of a request.
struct BlockSpan {
  uint32_t block = 0;
  uint64_t rows = 0;       // Rows this block contributed to the request.
  bool pruned = false;     // Skipped via min/max stats; no other fields.
  bool cache_hit = false;  // Pin was served without running the loader.
  /// The fill absorbed read retries (re-issued preads or a checksum
  /// re-read): the block was served, but the medium misbehaved.
  bool retried = false;
  uint64_t queue_ns = 0;
  uint64_t pin_ns = 0;
  uint64_t fill_ns = 0;
  uint64_t decode_ns = 0;
  /// Touched columns as "index:scheme", comma-joined (e.g.
  /// "0:FOR,1:Corra-Diff") — which kernels served this block. Filled
  /// only on traces that leave the service (an opted-in trace and one
  /// the slow ring keeps); empty for a pruned block.
  std::string schemes;
};

struct RequestTrace {
  std::string_view op;  // "execute" or "gather" (static storage).
  uint64_t total_ns = 0;
  std::array<uint64_t, kNumPhases> phase_ns{};
  uint64_t rows_scanned = 0;
  uint64_t rows_matched = 0;
  std::vector<BlockSpan> blocks;  // Block order.

  uint64_t phase(Phase p) const {
    return phase_ns[static_cast<size_t>(p)];
  }
  uint64_t PhaseTotalNs() const {
    uint64_t total = 0;
    for (uint64_t ns : phase_ns) {
      total += ns;
    }
    return total;
  }

  /// One self-contained JSON object (phases keyed by name, blocks as an
  /// array) for logs and the slow-trace dump.
  std::string ToJson() const;
};

/// Fixed-capacity ring retaining the most recent traces pushed into it
/// (the service pushes traces whose total latency breached its slow
/// threshold). Thread-safe; Push is O(1) and never allocates beyond the
/// trace it stores.
class TraceRing {
 public:
  explicit TraceRing(size_t capacity = 32);

  void Push(RequestTrace trace);

  /// Retained traces, oldest first; leaves the ring empty.
  [[nodiscard]] std::vector<RequestTrace> Drain();

  /// Copy of the retained traces, oldest first.
  [[nodiscard]] std::vector<RequestTrace> Snapshot() const;

  size_t capacity() const { return capacity_; }
  /// Total traces ever pushed (including ones already overwritten).
  uint64_t pushed() const;

 private:
  mutable Mutex mu_;
  const size_t capacity_;
  uint64_t pushed_ CORRA_GUARDED_BY(mu_) = 0;
  // ring_[i] slot reused circularly.
  std::vector<RequestTrace> ring_ CORRA_GUARDED_BY(mu_);
};

}  // namespace corra::obs

#endif  // CORRA_OBS_TRACE_H_
