#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>
#include <unordered_map>

#include "datagen/taxi.h"
#include "ladder.h"
#include "obs/metrics.h"

namespace ladder {

uint64_t Mix(uint64_t seed, uint64_t a, uint64_t b) {
  uint64_t x = seed ^ (a * 0x9E3779B97F4A7C15ull) ^ (b * 0xC2B2AE3D27D4EB4Full);
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// --- Spans ------------------------------------------------------------------

namespace {

// Span names of the program's phases ("serve.phase.<phase>"), static
// so Span::name can point at them.
const char* PhaseSpanName(corra::obs::Phase phase) {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (size_t p = 0; p < corra::obs::kNumPhases; ++p) {
      out.push_back("serve.phase." +
                    std::string(corra::obs::PhaseName(
                        static_cast<corra::obs::Phase>(p))));
    }
    return out;
  }();
  return names[static_cast<size_t>(phase)].c_str();
}

}  // namespace

void SpanLog::AddPhases(const corra::obs::RequestTrace& trace,
                        uint64_t parent, uint64_t request, uint64_t start_ns,
                        uint64_t end_ns) {
  // With parallel workers the phases sum past the request's wall time;
  // they are then scaled down to share the parent's interval.
  const double total = static_cast<double>(trace.PhaseTotalNs());
  const double span = static_cast<double>(end_ns - start_ns);
  const double scale = total > span ? span / total : 1.0;
  double cursor = static_cast<double>(start_ns);
  for (size_t p = 0; p < corra::obs::kNumPhases; ++p) {
    if (trace.phase_ns[p] == 0) {
      continue;
    }
    const double next =
        cursor + static_cast<double>(trace.phase_ns[p]) * scale;
    Record(PhaseSpanName(static_cast<corra::obs::Phase>(p)), parent, request,
           static_cast<uint64_t>(cursor),
           std::min(end_ns, static_cast<uint64_t>(next)));
    cursor = next;
  }
}

void SpanSet::Merge(const SpanLog& log) {
  spans_.insert(spans_.end(), log.spans().begin(), log.spans().end());
}

std::vector<double> SpanSet::Durations(const char* name) const {
  std::vector<double> out;
  const std::string_view want(name);
  for (const Span& span : spans_) {
    if (want == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns));
    }
  }
  return out;
}

std::map<uint64_t, double> SpanSet::SumByRequest(const char* name) const {
  std::map<uint64_t, double> out;
  const std::string_view want(name);
  for (const Span& span : spans_) {
    if (want == span.name) {
      out[span.request] += static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  return out;
}

void SpanSet::PrintSelfTimes() const {
  // Children grouped by parent; self = duration - union of children
  // clipped to the parent's interval.
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& span : spans_) {
    if (span.parent != 0) {
      children[span.parent].push_back(&span);
    }
  }
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      by_name;
  for (const Span& span : spans_) {
    const double duration = static_cast<double>(span.end_ns - span.start_ns);
    double covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      std::vector<std::pair<uint64_t, uint64_t>> intervals;
      for (const Span* child : it->second) {
        const uint64_t a = std::max(child->start_ns, span.start_ns);
        const uint64_t b = std::min(child->end_ns, span.end_ns);
        if (a < b) {
          intervals.emplace_back(a, b);
        }
      }
      std::sort(intervals.begin(), intervals.end());
      uint64_t reach = 0;
      for (const auto& [a, b] : intervals) {
        const uint64_t from = std::max(a, reach);
        if (b > from) {
          covered += static_cast<double>(b - from);
        }
        reach = std::max(reach, b);
      }
    }
    auto& entry = by_name[span.name];
    entry.first.push_back(duration);
    if (it != children.end()) {
      entry.second.push_back(duration - covered);
    }
  }
  // Self time is taken over the spans that have children (only a sample
  // of ops carry phase or ladder children); a leaf's self time is its
  // duration.
  std::printf("%-34s %9s %14s %14s\n", "span", "count", "p50 dur (us)",
              "p50 self (us)");
  for (auto& [name, entry] : by_name) {
    const size_t count = entry.first.size();
    const double self = entry.second.empty() ? Median(entry.first)
                                             : Median(std::move(entry.second));
    std::printf("%-34s %9zu %14.3f %14.3f\n", name.c_str(), count,
                NsToUs(Median(std::move(entry.first))), NsToUs(self));
  }
}

bool SpanSet::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  uint64_t origin_ns = UINT64_MAX;
  for (const Span& span : spans_) {
    origin_ns = std::min(origin_ns, span.start_ns);
  }
  for (const Span& span : spans_) {
    out << "{\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"request\":" << span.request << ",\"name\":\"" << span.name
        << "\",\"start_ns\":" << (span.start_ns - origin_ns)
        << ",\"end_ns\":" << (span.end_ns - origin_ns) << "}\n";
  }
  return static_cast<bool>(out);
}

// --- Closed-loop clients ----------------------------------------------------

std::vector<ClientLog> RunClosedLoop(
    size_t clients, uint64_t end_ns, uint64_t min_ops,
    const std::function<void(size_t, uint64_t, ClientLog*)>& op) {
  std::vector<ClientLog> logs(clients);
  auto loop = [&](size_t client) {
    ClientLog* log = &logs[client];
    log->ops.reserve(1 << 16);
    for (uint64_t i = 0; i < min_ops || NowNs() < end_ns; ++i) {
      op(client, i, log);
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 1; c < clients; ++c) {
    threads.emplace_back(loop, c);
  }
  loop(0);
  for (std::thread& thread : threads) {
    thread.join();
  }
  return logs;
}

// --- Statistics -------------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) {
    return values[mid];
  }
  const double upper = values[mid];
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2;
}

std::vector<double> WindowLatencies(const std::vector<ClientLog>& logs,
                                    uint64_t t0, uint64_t t1,
                                    int traced_filter) {
  std::vector<double> out;
  for (const ClientLog& log : logs) {
    for (const OpRecord& op : log.ops) {
      if (op.end_ns < t0 || op.end_ns >= t1) {
        continue;
      }
      if (traced_filter >= 0 && op.traced != (traced_filter == 1)) {
        continue;
      }
      out.push_back(static_cast<double>(op.end_ns - op.start_ns));
    }
  }
  return out;
}

namespace {

double Overlap(uint64_t a0, uint64_t a1, uint64_t b0, uint64_t b1) {
  const uint64_t lo = std::max(a0, b0);
  const uint64_t hi = std::min(a1, b1);
  return hi > lo ? static_cast<double>(hi - lo) : 0.0;
}

}  // namespace

double OpsPerSecond(const std::vector<ClientLog>& logs, uint64_t t0,
                    uint64_t t1) {
  const double seconds = static_cast<double>(t1 - t0) / 1e9;
  const size_t slices =
      std::max<size_t>(4, static_cast<size_t>(std::llround(seconds)));
  const uint64_t len = (t1 - t0) / slices;
  std::vector<double> rates;
  for (size_t s = 0; s < slices; ++s) {
    const uint64_t a = t0 + s * len;
    const uint64_t b = a + len;
    double rate = 0;
    for (const ClientLog& log : logs) {
      double ops = 0;
      double check = 0;
      for (const OpRecord& op : log.ops) {
        if (op.end_ns + op.check_ns < a || op.start_ns >= b) {
          continue;
        }
        const uint64_t dur = op.end_ns - op.start_ns;
        if (dur == 0) {
          ops += (op.end_ns >= a && op.end_ns < b) ? 1.0 : 0.0;
        } else {
          ops += Overlap(op.start_ns, op.end_ns, a, b) /
                 static_cast<double>(dur);
        }
        check += Overlap(op.end_ns, op.end_ns + op.check_ns, a, b);
      }
      const double busy = static_cast<double>(len) - check;
      if (busy > 0) {
        rate += ops / (busy / 1e9);
      }
    }
    rates.push_back(rate);
  }
  return Median(std::move(rates));
}

Tail TailLatency(std::vector<double> latencies) {
  Tail tail;
  tail.samples = latencies.size();
  if (latencies.empty()) {
    return tail;
  }
  std::sort(latencies.begin(), latencies.end());
  const double n = static_cast<double>(latencies.size());
  for (double p : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    const auto beyond = static_cast<size_t>(std::floor(n * (1 - p / 100)));
    if (beyond >= 10 || p == 50.0) {
      const size_t index =
          std::min(latencies.size() - 1,
                   static_cast<size_t>(std::ceil(n * p / 100)) - 1);
      tail.percentile = p;
      tail.value = latencies[index];
      tail.beyond = latencies.size() - 1 - index;
      return tail;
    }
  }
  return tail;
}

// --- Report -----------------------------------------------------------------

const std::vector<LayerMetricSpec> kLayerMetrics = {
    {"datagen.gen_s", "s"},
    {"encoding.select_ms", "ms"},
    {"core.compress_ms.lineitem", "ms"},
    {"core.compress_ms.taxi", "ms"},
    {"core.compress_ms.dmv", "ms"},
    {"core.compress_ms.ldbc", "ms"},
    {"storage.serialize_ms", "ms"},
    {"storage.write_ms", "ms"},
    {"core.bits_per_value.l_receiptdate", "bit"},
    {"core.bits_per_value.l_commitdate", "bit"},
    {"core.bits_per_value.dropoff", "bit"},
    {"core.bits_per_value.total_amount", "bit"},
    {"core.bits_per_value.zip_code", "bit"},
    {"core.bits_per_value.city", "bit"},
    {"core.bits_per_value.ip", "bit"},
    {"core.saving.l_receiptdate", "%"},
    {"core.saving.l_commitdate", "%"},
    {"core.saving.dropoff", "%"},
    {"core.saving.total_amount", "%"},
    {"core.saving.zip_code", "%"},
    {"core.saving.city", "%"},
    {"core.saving.ip", "%"},
    {"serve.gather_us", "us"},
    {"serve.inline_gather_us", "us"},
    {"query.split_us", "us"},
    {"serve.pin_us", "us"},
    {"query.gather_us", "us"},
    {"serve.self_us", "us"},
    {"serve.phase.queue_wait_us", "us"},
    {"serve.phase.cache_pin_us", "us"},
    {"serve.phase.miss_fill_us", "us"},
    {"serve.phase.decode_filter_us", "us"},
    {"serve.phase.merge_us", "us"},
    {"serve.phase.scatter_us", "us"},
    {"serve.coalesced_share", "share"},
    {"encoding.gather_rows_per_op", "rows"},
    {"serve.execute_ms", "ms"},
    {"serve.inline_execute_ms", "ms"},
    {"storage.read_us", "us"},
    {"storage.deserialize_us", "us"},
    {"query.filter_us", "us"},
    {"query.project_us", "us"},
    {"query.aggregate_us", "us"},
    {"cache.hit_rate", "share"},
    {"cache.misses_per_op", "count"},
    {"cache.evictions_per_op", "count"},
    {"cache.load_waits_per_op", "count"},
    {"serve.prefetch_issued_per_op", "count"},
    {"serve.prefetch_hit_share", "share"},
    {"storage.read_bytes_per_op", "B"},
    {"encoding.decode_rows_per_op", "rows"},
    {"encoding.filter_rows_per_op", "rows"},
    {"latency_tail_ms", "ms"},
    {"obs.trace_overhead_share", "share"},
};

void Report::AddLogs(const std::vector<ClientLog>& logs) {
  for (const ClientLog& log : logs) {
    attempted += log.attempted;
    failed += log.failed;
  }
}

void PrintNonTiming(const std::string& key, const std::string& value) {
  std::printf("nontiming %s %s\n", key.c_str(), value.c_str());
}

std::string Hex(uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::string Exact(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void PrintThreadBudget(size_t clients, size_t workers, size_t read_ahead) {
  cpu_set_t set;
  CPU_ZERO(&set);
  size_t cpus = std::thread::hardware_concurrency();
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    cpus = static_cast<size_t>(CPU_COUNT(&set));
  }
  const size_t total = clients + workers + read_ahead;
  std::printf(
      "threads clients=%zu workers=%zu read_ahead=%zu total=%zu nproc=%zu%s\n",
      clients, workers, read_ahead, total, cpus,
      total > cpus ? "  OVERSUBSCRIBED: more threads than CPUs" : "");
}

void PrintLatencyLines(const char* label, const std::vector<double>& lat_ns) {
  const Tail tail = TailLatency(lat_ns);
  std::printf("%s latency_p50_ms %.6f (n=%zu)\n", label,
              NsToMs(Median(lat_ns)), lat_ns.size());
  std::printf("%s latency_tail_ms p%g %.6f (n=%zu, %zu beyond)\n", label,
              tail.percentile, NsToMs(tail.value), tail.samples, tail.beyond);
}

double MedianUs(const std::vector<double>& durations_ns) {
  return NsToUs(Median(durations_ns));
}

double MedianMs(const std::vector<double>& durations_ns) {
  return NsToMs(Median(durations_ns));
}

uint64_t CounterSum(const std::string& prefix) {
  uint64_t total = 0;
  for (const auto& [name, value] :
       corra::obs::Registry::Default().Snapshot().counters) {
    if (name.compare(0, prefix.size(), prefix) == 0) {
      total += value;
    }
  }
  return total;
}

ServeCounters ServeCounters::Take(const corra::serve::BlockCache& cache) {
  ServeCounters c;
  c.cache = cache.GetStats();
  c.gather_requests = CounterSum("serve.gather_requests");
  c.coalesced_requests = CounterSum("serve.coalesced_requests");
  c.prefetch_issued = CounterSum("serve.prefetch_issued");
  c.read_bytes = CounterSum("storage.block_read_bytes");
  c.gather_rows = CounterSum("query.gather_rows");
  c.decode_rows = CounterSum("query.decode_rows");
  c.filter_rows = CounterSum("query.filter_rows");
  return c;
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void AddCounterMetrics(const ServeCounters& before, const ServeCounters& after,
                       uint64_t ops, Report* report) {
  auto delta = [](uint64_t a, uint64_t b) {
    return static_cast<double>(b - a);
  };
  const double n = static_cast<double>(ops);
  const double hits = delta(before.cache.hits, after.cache.hits);
  const double misses = delta(before.cache.misses, after.cache.misses);
  const double prefetches =
      delta(before.prefetch_issued, after.prefetch_issued);
  auto& m = report->layer;
  m["cache.hit_rate"] = Ratio(hits, hits + misses);
  m["cache.misses_per_op"] = Ratio(misses, n);
  m["cache.evictions_per_op"] =
      Ratio(delta(before.cache.evictions, after.cache.evictions), n);
  m["cache.load_waits_per_op"] =
      Ratio(delta(before.cache.load_waits, after.cache.load_waits), n);
  m["serve.prefetch_issued_per_op"] = Ratio(prefetches, n);
  m["serve.prefetch_hit_share"] = Ratio(hits, prefetches);
  m["serve.coalesced_share"] =
      Ratio(delta(before.coalesced_requests, after.coalesced_requests),
            delta(before.gather_requests, after.gather_requests));
  m["storage.read_bytes_per_op"] =
      Ratio(delta(before.read_bytes, after.read_bytes), n);
  m["encoding.gather_rows_per_op"] =
      Ratio(delta(before.gather_rows, after.gather_rows), n);
  m["encoding.decode_rows_per_op"] =
      Ratio(delta(before.decode_rows, after.decode_rows), n);
  m["encoding.filter_rows_per_op"] =
      Ratio(delta(before.filter_rows, after.filter_rows), n);
}

void PhaseTotals::Add(const corra::obs::RequestTrace& trace) {
  for (size_t p = 0; p < corra::obs::kNumPhases; ++p) {
    ns[p] += static_cast<double>(trace.phase_ns[p]);
  }
  ++requests;
}

void PhaseTotals::Merge(const PhaseTotals& other) {
  for (size_t p = 0; p < corra::obs::kNumPhases; ++p) {
    ns[p] += other.ns[p];
  }
  requests += other.requests;
}

void PhaseTotals::AddMetrics(Report* report) const {
  using corra::obs::Phase;
  const std::pair<Phase, const char*> phases[] = {
      {Phase::kQueueWait, "serve.phase.queue_wait_us"},
      {Phase::kCachePin, "serve.phase.cache_pin_us"},
      {Phase::kMissFill, "serve.phase.miss_fill_us"},
      {Phase::kDecodeFilter, "serve.phase.decode_filter_us"},
      {Phase::kMerge, "serve.phase.merge_us"},
      {Phase::kScatter, "serve.phase.scatter_us"},
  };
  for (const auto& [phase, name] : phases) {
    report->layer[name] = NsToUs(
        Ratio(ns[static_cast<size_t>(phase)], static_cast<double>(requests)));
  }
}

void AddTracedLatencyMetrics(const std::vector<ClientLog>& logs, uint64_t t0,
                             uint64_t t1, Report* report) {
  const std::vector<double> all = WindowLatencies(logs, t0, t1);
  const double traced = Median(WindowLatencies(logs, t0, t1, 1));
  const double untraced = Median(WindowLatencies(logs, t0, t1, 0));
  PrintLatencyLines("traced-window", all);
  std::printf("traced-window p50 traced %.6f ms, untraced %.6f ms\n",
              NsToMs(traced), NsToMs(untraced));
  report->layer["latency_tail_ms"] = NsToMs(TailLatency(all).value);
  report->layer["obs.trace_overhead_share"] =
      untraced > 0 ? traced / untraced - 1 : 0.0;
}

void ReportSpans(const Args& args, const SpanSet& spans, uint64_t replays,
                 uint64_t sample_every) {
  std::printf("ladder replays %llu (sampled 1 in %llu traced ops)\n",
              static_cast<unsigned long long>(replays),
              static_cast<unsigned long long>(sample_every));
  spans.PrintSelfTimes();
  const std::string path = args.trace_dir + "/" + args.workload +
                           ".spans.jsonl";
  if (spans.WriteJsonLines(path)) {
    std::printf("spans %zu written to %s\n", spans.spans().size(),
                path.c_str());
  }
}

// --- Plans ------------------------------------------------------------------

corra::CompressionPlan LineitemPlan() {
  corra::CompressionPlan plan = corra::CompressionPlan::AllAuto(4);
  for (size_t target : {size_t{2}, size_t{3}}) {  // commit, receipt
    plan.columns[target].auto_vertical = false;
    plan.columns[target].scheme = corra::enc::Scheme::kDiff;
    plan.columns[target].reference = 1;  // l_shipdate
  }
  return plan;
}

corra::CompressionPlan TaxiPlan() {
  using C = corra::datagen::TaxiColumns;
  corra::CompressionPlan plan = corra::CompressionPlan::AllAuto(11);
  plan.columns[C::kDropoff].auto_vertical = false;
  plan.columns[C::kDropoff].scheme = corra::enc::Scheme::kDiff;
  plan.columns[C::kDropoff].reference = C::kPickup;
  auto& total = plan.columns[C::kTotalAmount];
  total.auto_vertical = false;
  total.scheme = corra::enc::Scheme::kMultiRef;
  total.formulas.groups = {{C::kMtaTax, C::kFareAmount,
                            C::kImprovementSurcharge, C::kExtra,
                            C::kTipAmount, C::kTollsAmount},
                           {C::kCongestionSurcharge},
                           {C::kAirportFee}};
  total.formulas.formulas = {0b001, 0b011, 0b101, 0b111};
  total.formulas.code_bits = 2;
  total.max_outlier_fraction = 0.02;
  return plan;
}

corra::CompressionPlan DmvPlan() {
  corra::CompressionPlan plan = corra::CompressionPlan::AllAuto(3);
  plan.columns[1].auto_vertical = false;  // city w.r.t. state
  plan.columns[1].scheme = corra::enc::Scheme::kHierarchical;
  plan.columns[1].reference = 0;
  plan.columns[2].auto_vertical = false;  // zip w.r.t. city
  plan.columns[2].scheme = corra::enc::Scheme::kHierarchical;
  plan.columns[2].reference = 1;
  return plan;
}

corra::CompressionPlan LdbcPlan() {
  corra::CompressionPlan plan = corra::CompressionPlan::AllAuto(2);
  plan.columns[1].auto_vertical = false;  // ip w.r.t. countryid
  plan.columns[1].scheme = corra::enc::Scheme::kHierarchical;
  plan.columns[1].reference = 0;
  return plan;
}

uint64_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<uint64_t>(in.tellg()) : 0;
}

uint64_t FileDigest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  uint64_t hash = 0xcbf29ce484222325ull;
  char buf[1 << 16];
  while (in) {
    in.read(buf, sizeof(buf));
    hash = Fnv1a(hash, buf, static_cast<size_t>(in.gcount()));
  }
  return hash;
}

}  // namespace ladder
