// Process-wide metrics registry — the numeric half of the serving
// telemetry layer (src/obs/).
//
// Three metric kinds, all safe for concurrent use:
//   * Counter   — monotonically increasing. Add() is a relaxed atomic
//                 add on a per-thread cache-line-private shard, so a
//                 hot-path increment never contends or fences; Value()
//                 sums the shards.
//   * Gauge     — a level that moves both ways (resident bytes, pinned
//                 blocks). One atomic; updates are rare next to counter
//                 increments (they happen under the owner's own locks).
//   * Histogram — fixed-bucket latency distribution with p50/p90/p99/
//                 p999 extraction. Record() bins into per-thread shard
//                 arrays with relaxed adds; Snapshot() merges shards.
//
// The Registry owns metrics by name. Lookup (counter()/gauge()/
// histogram()) takes a mutex and is meant to run once per call site —
// cache the returned reference, then increment lock-free forever. The
// reference stays valid for the registry's lifetime (metrics are never
// unregistered). Names may carry one label suffix, e.g.
// "query.decode_rows{scheme=\"FOR\"}", which is part of the name.
//
// Snapshots export as JSON (ToJson). Snapshot reads are relaxed:
// each shard value is exact at the instant it is read, so a snapshot
// racing a recorder can be mid-update across *metrics* but every
// counter is monotone and a quiesced registry snapshots exactly.
//
// Escape hatch: the CORRA_OBS_OFF environment variable (any value but
// "0"), read once, switches the whole layer off; SetEnabled() overrides
// it (used by the A/B overhead bench and tests). Disabled means
// Add/Set/Record are no-ops and instrumented code paths skip their
// clock reads; the bench-verified bound is <= 2% overhead on dense
// scans with observability ON (see bench/bench_overhead.cc).

#ifndef CORRA_OBS_METRICS_H_
#define CORRA_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"

namespace corra::obs {

// --- Enable/disable ---------------------------------------------------------

namespace internal {
// 0 = uninitialized (consult the environment), 1 = on, -1 = off.
extern std::atomic<int> g_enabled;
bool InitEnabledFromEnv();
}  // namespace internal

/// True unless observability is switched off (env CORRA_OBS_OFF or
/// SetEnabled(false)). One relaxed load on the hot path.
inline bool Enabled() {
  const int e = internal::g_enabled.load(std::memory_order_relaxed);
  if (e == 0) {
    return internal::InitEnabledFromEnv();
  }
  return e > 0;
}

/// Runtime override; wins over the environment.
void SetEnabled(bool enabled);

// --- Thread shards ----------------------------------------------------------

/// Shard count for counters and histograms. Each live thread gets a
/// round-robin home shard; with more threads than shards, collisions
/// degrade to (still correct) contended relaxed adds.
inline constexpr size_t kMetricShards = 16;

namespace internal {
size_t AssignThreadSlot();
inline size_t ThreadSlot() {
  thread_local size_t slot = AssignThreadSlot();
  return slot;
}
}  // namespace internal

// --- Counter ----------------------------------------------------------------

class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  /// Relaxed add on the calling thread's shard; no-op when disabled.
  void Add(uint64_t n) {
    if (!Enabled()) {
      return;
    }
    slots_[internal::ThreadSlot()].value.fetch_add(
        n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  /// Sum across shards (relaxed; exact once writers quiesce).
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Slot& slot : slots_) {
      total += slot.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (Slot& slot : slots_) {
      slot.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> value{0};
  };
  std::array<Slot, kMetricShards> slots_{};
};

// --- Gauge ------------------------------------------------------------------

class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) {
    if (Enabled()) {
      value_.store(v, std::memory_order_relaxed);
    }
  }
  void Add(int64_t n) {
    if (Enabled()) {
      value_.fetch_add(n, std::memory_order_relaxed);
    }
  }
  void Sub(int64_t n) { Add(-n); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// --- Histogram --------------------------------------------------------------

/// Default latency bucket upper bounds in microseconds: 1us .. 10s on a
/// 1-2-5 ladder, plus the implicit +Inf overflow bucket.
std::span<const uint64_t> LatencyBucketBoundsUs();

/// Merged, immutable view of a histogram; quantiles are linearly
/// interpolated inside the owning bucket and clamped to the observed
/// maximum (so a one-sample histogram reports that sample at p999 and
/// overflow-bucket samples report max, not infinity).
struct HistogramSnapshot {
  std::vector<uint64_t> bounds;  // Ascending inclusive upper bounds.
  std::vector<uint64_t> counts;  // bounds.size() + 1 (last = overflow).
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;

  /// q in [0, 1]; returns 0 for an empty histogram.
  double Quantile(double q) const;
  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

class Histogram {
 public:
  /// `bounds` must be ascending and non-empty; values above the last
  /// bound land in the overflow bucket.
  explicit Histogram(std::span<const uint64_t> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Bins `value`, relaxed, on the calling thread's shard.
  void Record(uint64_t value);

  [[nodiscard]] HistogramSnapshot Snapshot() const;
  void Reset();

  std::span<const uint64_t> bounds() const { return bounds_; }

 private:
  // Cache-line aligned like Counter::Slot, so adjacent thread slots do
  // not contend on sum and max.
  struct alignas(64) Shard {
    std::unique_ptr<std::atomic<uint64_t>[]> counts;  // bounds + overflow.
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> max{0};
  };
  std::vector<uint64_t> bounds_;
  std::array<Shard, kMetricShards> shards_;
};

// --- Registry ---------------------------------------------------------------

struct RegistrySnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  /// {"counters": {...}, "gauges": {...}, "histograms": {name:
  /// {count, sum, mean, max, p50, p90, p99, p999}}} — sorted by name.
  [[nodiscard]] std::string ToJson() const;

};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry every built-in instrumentation point
  /// records into (tests and embedders may use private instances).
  static Registry& Default();

  /// Finds or creates; the reference lives as long as the registry.
  /// Takes a mutex — resolve once per call site, then increment freely.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// First registration of a name pins its bounds; later calls return
  /// the existing histogram regardless of `bounds`.
  Histogram& histogram(std::string_view name,
                       std::span<const uint64_t> bounds = {});

  [[nodiscard]] RegistrySnapshot Snapshot() const;
  [[nodiscard]] std::string ToJson() const { return Snapshot().ToJson(); }

  /// Zeroes every metric; registrations (and cached references) survive.
  void Reset();

 private:
  // mu_ guards the registration maps only; the metric objects behind
  // them are internally synchronized (lock-free atomics) and their
  // references outlive any lock.
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      CORRA_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      CORRA_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      CORRA_GUARDED_BY(mu_);
};

}  // namespace corra::obs

#endif  // CORRA_OBS_METRICS_H_
