// ScanService — concurrent out-of-core query execution over CORF files.
//
// Every request becomes a list of per-block units, and every unit runs
// the same steps: check the deadline, pin its block through the
// reader's BlockCache, run the request's kernels against the compressed
// representation (query::FilterToSelection, ranged scans, aggregate
// pushdown for Execute; one query::ScanColumn per column for Gather),
// fill the unit's trace span, and release the pin. The caller claims
// units in order from a per-request cursor and runs them; a multi-block
// request also queues min(num_threads, units - 1) helpers that claim
// from the same cursor. A single-block request never leaves its caller's
// thread. Partial results are merged in block order, so the output is
// byte-identical to materializing the whole table and scanning it in
// memory. Each admitted caller and each helper pins one block at a time,
// and a pinned block stays resident past the cache's capacity: at most
// max_inflight_requests + num_threads blocks are pinned for decoding at
// once, and nothing bounds them when max_inflight_requests is 0.
//
// Filtered requests prune first: a block whose persisted min/max range
// (CORF v3 stats, checked against the directory without any payload
// read) cannot intersect the predicate is skipped entirely — it is
// neither fetched nor decoded, and only counts toward rows_scanned /
// blocks_skipped.
//
// One ScanService instance is meant to be shared by many concurrent
// clients (Execute and Gather are thread-safe); all of them draw from
// the same helper pool and, through their readers, the same cache.
//
// The front door:
//  * Admission control — Options::max_inflight_requests bounds the
//    requests in flight; arrivals past the bound are rejected with
//    ResourceExhausted ("serve.rejected") instead of queueing without
//    bound, and a request whose deadline has already passed is rejected
//    with DeadlineExceeded ("serve.deadline_missed") before touching any
//    block; one that expires mid-flight stops scanning further blocks.
//    Degrade, don't collapse.
//
// There is no read-ahead: each unit reads its own block on a miss
// (miss_fill). A prefetcher ran past a cache smaller than the scan and
// evicted blocks before their units pinned them (README, "Why there is
// no read-ahead").
//
// Telemetry (src/obs/): every request feeds the registry's serving
// histograms (total latency plus per-phase queue wait / cache pin /
// miss fill / decode / merge) and counters, at a cost of a handful of
// clock reads per block — never per row. A request with collect_trace
// set additionally returns the full obs::RequestTrace (per-block scheme
// annotations, pruned/hit flags, span timings) on ScanResult::trace,
// and any request slower than Options::slow_trace_ns is retained in a
// last-N ring (DrainSlowTraces) whether or not it opted in. All of it
// is inert — no clock reads, no traces — when obs::Enabled() is false
// (env CORRA_OBS_OFF, or obs::SetEnabled(false)).

#ifndef CORRA_SERVE_SCAN_SERVICE_H_
#define CORRA_SERVE_SCAN_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/table_reader.h"

namespace corra::serve {

enum class AggregateOp { kSum, kMin, kMax };

/// One scan over one table: an optional range predicate, optional
/// projections, optional positions, optional aggregate — evaluated in a
/// single pass over each block.
struct ScanRequest {
  /// Range predicate filter_lo <= value <= filter_hi on this column;
  /// absent means every row matches.
  std::optional<size_t> filter_column;
  int64_t filter_lo = INT64_MIN;
  int64_t filter_hi = INT64_MAX;

  /// Columns to materialize at the matching rows.
  std::vector<size_t> project_columns;

  /// Also return the global row positions of the matching rows.
  bool return_positions = false;

  /// Aggregate over `aggregate_column` at the matching rows. Without a
  /// filter this uses the compressed-domain pushdown kernels.
  std::optional<AggregateOp> aggregate;
  size_t aggregate_column = 0;

  /// Return the full per-request trace (phase timings + per-block
  /// scheme/rows/pruned annotations) on ScanResult::trace. Ignored —
  /// the trace stays nullopt — when observability is disabled.
  bool collect_trace = false;

  /// Absolute deadline (obs::MonotonicNs clock; 0 = none). A request
  /// whose deadline has already passed is rejected before touching any
  /// block, and one that expires mid-flight stops scanning further
  /// blocks; both return DeadlineExceeded and count toward
  /// "serve.deadline_missed".
  uint64_t deadline_ns = 0;

  /// Degrade instead of fail: when set, a block whose fetch or load
  /// fails (Corruption, IOError, quarantine fast-fail, ...) is reported
  /// on ScanResult::failed_blocks — with its original status, context
  /// intact — while every healthy block's results are still returned
  /// and stay byte-identical to a fault-free scan of those blocks.
  /// DeadlineExceeded is never downgraded: an expired deadline fails
  /// the whole request either way, because a partial answer past the
  /// deadline helps no one.
  bool allow_partial = false;
};

/// Per-call options for ScanService::Gather (the positional twin of the
/// fields ScanRequest carries for Execute).
struct GatherOptions {
  /// Absolute deadline (obs::MonotonicNs clock; 0 = none); semantics as
  /// ScanRequest::deadline_ns.
  uint64_t deadline_ns = 0;
  /// With a non-null trace (and observability enabled), receives the
  /// request's full attribution.
  obs::RequestTrace* trace = nullptr;
};

struct ScanResult {
  uint64_t rows_scanned = 0;  // Rows covered across all blocks (a
                              // stats-pruned block counts as covered:
                              // its rows were answered without a read).
  uint64_t rows_matched = 0;  // Rows passing the predicate.
  uint64_t blocks_skipped = 0;  // Blocks pruned via the CORF v3 per-block
                                // min/max stats (never read from disk).

  /// Global row ids of matches (when return_positions), ascending.
  std::vector<uint64_t> positions;

  /// Materialized values, parallel to ScanRequest::project_columns;
  /// each vector has rows_matched entries in position order.
  std::vector<std::vector<int64_t>> columns;

  /// Aggregate outputs (sum wraps around like query::SumColumn).
  int64_t agg_sum = 0;
  std::optional<int64_t> agg_min;
  std::optional<int64_t> agg_max;

  /// One block that failed under ScanRequest::allow_partial.
  struct BlockError {
    uint64_t block = 0;  // Block index within the table.
    Status status;       // The original fetch/load failure.
  };

  /// Blocks whose fetch failed, ascending by index; only ever non-empty
  /// under allow_partial (without it the first failure fails the whole
  /// request). A failed block contributes nothing to rows_scanned /
  /// rows_matched / positions / columns / aggregates — callers that
  /// need exact coverage must check this before trusting totals.
  std::vector<BlockError> failed_blocks;

  /// Full request attribution (ScanRequest::collect_trace only): where
  /// the latency went, block by block and phase by phase.
  std::optional<obs::RequestTrace> trace;
};

class ScanService {
 public:
  struct Options {
    /// Helper threads shared by all requests. The caller always runs
    /// its own units; 0 means the caller runs them alone.
    size_t num_threads = 4;

    /// Registry receiving the serving histograms and counters
    /// ("serve.*"); null means obs::Registry::Default().
    obs::Registry* registry = nullptr;

    /// Requests at least this slow are retained in the slow-trace ring
    /// (0 retains every request). Default 10 ms.
    uint64_t slow_trace_ns = 10'000'000;

    /// Slow-trace ring capacity (last N retained).
    size_t slow_trace_capacity = 32;

    /// Reject (ResourceExhausted) requests arriving while this many are
    /// already in flight (0 = unbounded). Callers decode their own units,
    /// so this plus num_threads bounds the threads decoding at once and
    /// the blocks they pin (which may exceed the cache's capacity); with
    /// 0, both grow with the number of concurrent callers.
    size_t max_inflight_requests = 0;

    /// Has no effect: read-ahead was removed. Kept only so callers that
    /// still assign it compile.
    bool read_ahead = true;
  };

  ScanService();  // Default Options.
  explicit ScanService(Options options);
  ~ScanService();
  ScanService(const ScanService&) = delete;
  ScanService& operator=(const ScanService&) = delete;

  /// Runs `request` over every block of `reader`, merging partial
  /// results in block order.
  Result<ScanResult> Execute(const TableReader& reader,
                             const ScanRequest& request);

  /// Materializes `columns` at the sorted global positions `rows`,
  /// touching (and caching) only the blocks that own selected rows, and
  /// returns one value vector per requested column. Each block slice
  /// goes through query::ScanColumn: positioned GatherRange kernels, or
  /// one ranged decode for a contiguous slice, never a per-row Get.
  /// `options` carries the deadline and an optional trace sink (see
  /// ScanRequest::collect_trace). Gather is strict: the first failed
  /// block fails the request.
  Result<std::vector<std::vector<int64_t>>> Gather(
      const TableReader& reader, std::span<const size_t> columns,
      std::span<const uint64_t> rows, const GatherOptions& options = {});

  size_t num_threads() const { return workers_.size(); }

  /// Traces that breached Options::slow_trace_ns, oldest first (at most
  /// the last slow_trace_capacity of them); leaves the ring empty.
  [[nodiscard]] std::vector<obs::RequestTrace> DrainSlowTraces() {
    return slow_traces_.Drain();
  }
  const obs::TraceRing& slow_traces() const { return slow_traces_; }

 private:
  // Cached registry series (resolved once in the constructor).
  struct Metrics {
    obs::Counter* requests;
    obs::Counter* gather_requests;
    obs::Counter* rows_scanned;
    obs::Counter* rows_matched;
    obs::Counter* gather_rows;
    obs::Counter* blocks_pruned;
    obs::Counter* rejected;          // Admission-control fast rejects.
    obs::Counter* deadline_missed;   // DeadlineExceeded returns.
    obs::Counter* partial_results;   // allow_partial scans missing blocks.
    obs::Gauge* queue_depth;         // Helper tasks waiting for a worker.
    obs::Gauge* inflight;            // Admitted, not yet returned.
    obs::Histogram* latency_us;
    std::array<obs::Histogram*, obs::kNumPhases> phase_us;
  };

  // One block's share of a request, what all of a request's units
  // share, and the request's claim cursor (defined in scan_service.cc).
  struct Unit;
  struct UnitWork;
  struct Claims;
  // A queued helper task: claims->Run(handoff_ns, false) on a worker.
  struct Helper {
    std::shared_ptr<Claims> claims;
    uint64_t handoff_ns = 0;
  };

  // Runs one unit: checks the deadline, pins the block, runs the
  // request's work on it, and fills the unit's span. The pin is released
  // before this returns. `handoff_ns` is when the helper running the
  // unit was handed to the pool, for its first claim only (0 otherwise).
  static void RunUnit(const TableReader& reader, const Unit& unit,
                      const UnitWork& work, uint64_t handoff_ns);

  // Runs `units` on the calling thread plus up to min(num_threads,
  // units - 1) pool helpers; returns once every unit is done.
  void RunUnits(const TableReader& reader, std::span<const Unit> units,
                const UnitWork& work);

  // Sums the trace's block spans into its phases, records histograms and
  // counters for the finished request, and files the trace (slow ring,
  // and the caller's sink when opted in).
  void FinishRequest(obs::RequestTrace trace, uint64_t start_ns,
                     obs::RequestTrace* sink);

  // Admission: deadline-expired or over-limit requests are rejected
  // before any block work. Admit() takes an in-flight slot on success;
  // ReleaseSlot() returns it.
  Status Admit(uint64_t deadline_ns);
  void ReleaseSlot();

  void WorkerLoop();

  Mutex mu_;
  CondVar cv_;  // Signals new helpers and shutdown.
  std::deque<Helper> helpers_ CORRA_GUARDED_BY(mu_);
  bool stop_ CORRA_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;  // Written by the ctor only.
  Metrics metrics_{};
  uint64_t slow_trace_ns_ = 0;
  obs::TraceRing slow_traces_;
  size_t max_inflight_ = 0;
  std::atomic<size_t> inflight_{0};
};

}  // namespace corra::serve

#endif  // CORRA_SERVE_SCAN_SERVICE_H_
