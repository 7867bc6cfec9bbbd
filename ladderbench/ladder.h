// Shared pieces of the ladder benchmark: arguments, the closed-loop
// client harness, the in-memory span recorder, the statistics every
// workload reports, and the result printer.
//
// A run measures one workload. With --trace 0 it reports the end-to-end
// metrics (setup_s, latency_p50_ms, ops_per_s, stored_bytes_per_value);
// with --trace 1 it records spans around every call the benchmark makes
// into the program, replays a seed-chosen sample of ops down the layer
// ladder, and reports the per-layer metrics (kLayerMetrics).

#ifndef LADDERBENCH_LADDER_H_
#define LADDERBENCH_LADDER_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/corra_compressor.h"
#include "obs/trace.h"
#include "serve/block_cache.h"
#include "serve/scan_service.h"

namespace ladder {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double NsToMs(double ns) { return ns / 1e6; }
inline double NsToUs(double ns) { return ns / 1e3; }

/// splitmix64 over (seed, a, b): derives independent, reproducible
/// sub-seeds for every generator and client.
uint64_t Mix(uint64_t seed, uint64_t a, uint64_t b = 0);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Divides every input size (the self-test runs with a large value).
  size_t shrink = 1;
  /// Scratch directory for CORF files (removed when the run ends).
  std::string workdir;
  /// Where a traced run writes <workload>.spans.jsonl.
  std::string trace_dir;
};

// --- Spans ------------------------------------------------------------------

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 for a root span.
  uint64_t request = 0;  // Shared by every span of one op.
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  const char* name = "";  // Static storage.
};

/// One thread's spans. Ids are unique across logs (the lane is folded
/// into the high bits), so logs merge without renumbering.
class SpanLog {
 public:
  explicit SpanLog(uint32_t lane) : next_(uint64_t{lane + 1} << 40) {}
  uint64_t NewId() { return ++next_; }
  void Add(uint64_t id, const char* name, uint64_t parent, uint64_t request,
           uint64_t start_ns, uint64_t end_ns) {
    spans_.push_back(Span{id, parent, request, start_ns, end_ns, name});
  }
  /// Adds a span with a fresh id and returns the id.
  uint64_t Record(const char* name, uint64_t parent, uint64_t request,
                  uint64_t start_ns, uint64_t end_ns) {
    const uint64_t id = NewId();
    Add(id, name, parent, request, start_ns, end_ns);
    return id;
  }
  /// The program's own per-request attribution as child spans of
  /// `parent`: phases laid end to end from the parent's start (they are
  /// attributed durations, not intervals), clipped to the parent's end.
  void AddPhases(const corra::obs::RequestTrace& trace, uint64_t parent,
                 uint64_t request, uint64_t start_ns, uint64_t end_ns);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t next_;
  std::vector<Span> spans_;
};

/// Merged spans of a run, with per-name duration and self-time queries.
/// Self time is a span's duration minus the part of its interval that
/// its children cover.
class SpanSet {
 public:
  void Merge(const SpanLog& log);
  const std::vector<Span>& spans() const { return spans_; }
  /// Durations (ns) of every span called `name`.
  std::vector<double> Durations(const char* name) const;
  /// Per request: the summed durations of spans called `name` (ns).
  std::map<uint64_t, double> SumByRequest(const char* name) const;
  /// Prints count, median duration and median self time per name.
  void PrintSelfTimes() const;
  /// Writes one JSON object per span to `path`, times in ns from the
  /// earliest span's start.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// --- Closed-loop clients ----------------------------------------------------

struct OpRecord {
  uint64_t start_ns = 0;  // Call into the program begins.
  uint64_t end_ns = 0;    // Call returns.
  uint64_t check_ns = 0;  // Oracle check right after end_ns (not timed
                          // as the op, and not counted as busy time).
  bool traced = false;
};

struct ClientLog {
  std::vector<OpRecord> ops;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t digest = 0xcbf29ce484222325ull;  // FNV-1a over the prefix.
  uint64_t digest_ops = 0;
};

/// Runs `clients` closed-loop clients: each calls op(client, index, log)
/// back to back until `end_ns` has passed and it has done at least
/// `min_ops` ops (the fixed digest prefix). Joins every thread before
/// returning.
std::vector<ClientLog> RunClosedLoop(
    size_t clients, uint64_t end_ns, uint64_t min_ops,
    const std::function<void(size_t, uint64_t, ClientLog*)>& op);

// --- Statistics -------------------------------------------------------------

double Median(std::vector<double> values);

/// Latencies (ns) of ops that ended inside [t0, t1); traced_filter 1
/// keeps only traced ops, 0 only untraced ones, -1 all.
std::vector<double> WindowLatencies(const std::vector<ClientLog>& logs,
                                    uint64_t t0, uint64_t t1,
                                    int traced_filter = -1);

/// Ops per second summed over clients, as the median over one-second
/// slices of [t0, t1). An op counts in a slice by the share of its call
/// that falls there; each client's rate divides by the slice's length
/// minus the client's oracle-check time in it.
double OpsPerSecond(const std::vector<ClientLog>& logs, uint64_t t0,
                    uint64_t t1);

/// The highest of p99.99/p99.9/p99/p90/p50 with at least 10 samples
/// beyond it.
struct Tail {
  double percentile = 0;
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;
};
Tail TailLatency(std::vector<double> latencies);

// --- Byte digests -----------------------------------------------------------

inline uint64_t Fnv1a(uint64_t hash, const void* data, size_t len) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}
inline uint64_t Fnv1a(uint64_t hash, std::span<const int64_t> values) {
  return Fnv1a(hash, values.data(), values.size_bytes());
}

// --- Report -----------------------------------------------------------------

struct LayerMetricSpec {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in BENCHMARK.json order. Each traced run
/// prints all of them; a layer the workload never calls reads 0.
extern const std::vector<LayerMetricSpec> kLayerMetrics;

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics (untraced run).
  double setup_s = 0;
  double latency_p50_ms = 0;
  double ops_per_s = 0;
  double stored_bytes_per_value = 0;
  /// Per-layer metrics (traced run): name -> value.
  std::map<std::string, double> layer;

  void AddLogs(const std::vector<ClientLog>& logs);
};

/// Prints "nontiming <key> <value>": values that two runs of the same
/// code and seed must print identically.
void PrintNonTiming(const std::string& key, const std::string& value);
std::string Hex(uint64_t value);
std::string Exact(double value);  // 17 significant digits: round-trips.

/// Prints "threads ..." with client, worker and read-ahead thread
/// counts against the CPUs this process may run on.
void PrintThreadBudget(size_t clients, size_t workers, size_t read_ahead);

/// Prints the p50 and tail lines for a set of op latencies.
void PrintLatencyLines(const char* label, const std::vector<double>& lat_ns);

/// Median of `durations_ns` in the unit of the metric, or 0 when the
/// layer was not called.
double MedianUs(const std::vector<double>& durations_ns);
double MedianMs(const std::vector<double>& durations_ns);

/// Sum of every registry counter whose name starts with `prefix`.
uint64_t CounterSum(const std::string& prefix);

/// Serving-path counters (default registry + one cache), read before
/// and after a traced window; the difference per op becomes the cache.*,
/// storage.*_per_op, encoding.*_per_op and serve.*_share metrics.
struct ServeCounters {
  corra::serve::BlockCacheStats cache;
  uint64_t gather_requests = 0;
  uint64_t coalesced_requests = 0;
  uint64_t prefetch_issued = 0;
  uint64_t read_bytes = 0;
  uint64_t gather_rows = 0;
  uint64_t decode_rows = 0;
  uint64_t filter_rows = 0;

  static ServeCounters Take(const corra::serve::BlockCache& cache);
};
void AddCounterMetrics(const ServeCounters& before, const ServeCounters& after,
                       uint64_t ops, Report* report);

/// Program-attributed phase time summed over traced requests; their
/// per-request means become serve.phase.*_us.
struct PhaseTotals {
  std::array<double, corra::obs::kNumPhases> ns{};
  uint64_t requests = 0;
  void Add(const corra::obs::RequestTrace& trace);
  void Merge(const PhaseTotals& other);
  void AddMetrics(Report* report) const;
};

/// Prints the ladder replay count and each span name's self time, and
/// writes the spans to <trace_dir>/<workload>.spans.jsonl.
void ReportSpans(const Args& args, const SpanSet& spans, uint64_t replays,
                 uint64_t sample_every);

/// Adds latency_tail_ms and obs.trace_overhead_share from a traced
/// window in which every other op asked the program for its trace.
void AddTracedLatencyMetrics(const std::vector<ClientLog>& logs, uint64_t t0,
                             uint64_t t1, Report* report);

/// A written table served through one cache, reader and service.
struct Served {
  std::shared_ptr<corra::serve::BlockCache> cache;
  std::unique_ptr<corra::serve::TableReader> reader;
  std::unique_ptr<corra::serve::ScanService> service;
};

// --- The paper's datasets and plans -----------------------------------------

/// Table 2 plans, as bench_table2_compression.cc builds them.
corra::CompressionPlan LineitemPlan();  // Diff receipt/commit on ship.
corra::CompressionPlan TaxiPlan();      // Diff dropoff, MultiRef total.
corra::CompressionPlan DmvPlan();       // Hierarchical city, zip.
corra::CompressionPlan LdbcPlan();      // Hierarchical ip.

/// Size of a file in bytes (0 when it cannot be read).
uint64_t FileBytes(const std::string& path);
/// FNV-1a over a file's bytes.
uint64_t FileDigest(const std::string& path);

// --- Workloads --------------------------------------------------------------

// Each returns false (after printing why) when set-up fails; op
// failures are counted in the report instead.
bool RunIngest(const Args& args, Report* report);
bool RunPointHot(const Args& args, Report* report);
bool RunScanCold(const Args& args, Report* report);

/// Shows that every oracle rejects a corrupted result; 0 on success.
int RunOracleSelfTest(const Args& args);

}  // namespace ladder

#endif  // LADDERBENCH_LADDER_H_
