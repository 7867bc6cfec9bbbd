#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace corra::obs {

namespace internal {

std::atomic<int> g_enabled{0};

bool InitEnabledFromEnv() {
  // Racy-but-idempotent init: every racer computes the same value from
  // the same environment, so the winning store does not matter.
  const char* env = std::getenv("CORRA_OBS_OFF");
  const bool off = env != nullptr && std::strcmp(env, "0") != 0;
  int expected = 0;
  g_enabled.compare_exchange_strong(expected, off ? -1 : 1,
                                    std::memory_order_relaxed);
  return g_enabled.load(std::memory_order_relaxed) > 0;
}

size_t AssignThreadSlot() {
  static std::atomic<size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
}

}  // namespace internal

void SetEnabled(bool enabled) {
  internal::g_enabled.store(enabled ? 1 : -1, std::memory_order_relaxed);
}

// --- Latency buckets --------------------------------------------------------

std::span<const uint64_t> LatencyBucketBoundsUs() {
  // 1us .. 10s on a 1-2-5 ladder (22 finite buckets + overflow).
  static constexpr uint64_t kBounds[] = {
      1,       2,       5,       10,      20,      50,       100,     200,
      500,     1000,    2000,    5000,    10000,   20000,    50000,   100000,
      200000,  500000,  1000000, 2000000, 5000000, 10000000};
  return kBounds;
}

// --- Histogram --------------------------------------------------------------

Histogram::Histogram(std::span<const uint64_t> bounds)
    : bounds_(bounds.begin(), bounds.end()) {
  if (bounds_.empty()) {
    const auto defaults = LatencyBucketBoundsUs();
    bounds_.assign(defaults.begin(), defaults.end());
  }
  const size_t buckets = bounds_.size() + 1;
  for (Shard& shard : shards_) {
    shard.counts = std::make_unique<std::atomic<uint64_t>[]>(buckets);
    for (size_t b = 0; b < buckets; ++b) {
      shard.counts[b].store(0, std::memory_order_relaxed);
    }
  }
}

void Histogram::Record(uint64_t value) {
  if (!Enabled()) {
    return;
  }
  // First bound >= value owns it; past-the-end = overflow bucket.
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  Shard& shard = shards_[internal::ThreadSlot()];
  shard.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(value, std::memory_order_relaxed);
  uint64_t seen = shard.max.load(std::memory_order_relaxed);
  while (value > seen && !shard.max.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.counts.assign(bounds_.size() + 1, 0);
  for (const Shard& shard : shards_) {
    for (size_t b = 0; b < snap.counts.size(); ++b) {
      snap.counts[b] += shard.counts[b].load(std::memory_order_relaxed);
    }
    snap.sum += shard.sum.load(std::memory_order_relaxed);
    snap.max = std::max(snap.max,
                        shard.max.load(std::memory_order_relaxed));
  }
  for (uint64_t c : snap.counts) {
    snap.count += c;
  }
  return snap;
}

void Histogram::Reset() {
  for (Shard& shard : shards_) {
    for (size_t b = 0; b < bounds_.size() + 1; ++b) {
      shard.counts[b].store(0, std::memory_order_relaxed);
    }
    shard.sum.store(0, std::memory_order_relaxed);
    shard.max.store(0, std::memory_order_relaxed);
  }
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the sample holding this quantile, clamped to the first one:
  // even q = 0 reports a position inside the observed data, so a
  // one-sample histogram answers that sample at every q.
  const double rank = std::max(1.0, q * static_cast<double>(count));
  uint64_t seen = 0;
  for (size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) {
      continue;
    }
    const uint64_t next = seen + counts[b];
    if (static_cast<double>(next) >= rank) {
      if (b == bounds.size()) {
        return static_cast<double>(max);  // Overflow bucket: best bound.
      }
      const double lo =
          b == 0 ? 0.0 : static_cast<double>(bounds[b - 1]);
      const double hi = static_cast<double>(bounds[b]);
      const double frac =
          counts[b] == 0
              ? 0.0
              : (rank - static_cast<double>(seen)) /
                    static_cast<double>(counts[b]);
      // Clamp to the observed max so sparse histograms (one sample in
      // a wide bucket) never report a value no one recorded past.
      return std::min(lo + frac * (hi - lo), static_cast<double>(max));
    }
    seen = next;
  }
  return static_cast<double>(max);
}

// --- Registry ---------------------------------------------------------------

Registry& Registry::Default() {
  static Registry* registry = new Registry();  // Never destroyed: cached
                                               // references outlive exit.
  return *registry;
}

Counter& Registry::counter(std::string_view name) {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>())
             .first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::span<const uint64_t> bounds) {
  MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(bounds))
             .first;
  }
  return *it->second;
}

RegistrySnapshot Registry::Snapshot() const {
  MutexLock lock(mu_);
  RegistrySnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace_back(name, counter->Value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace_back(name, gauge->Value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms.emplace_back(name, histogram->Snapshot());
  }
  return snap;
}

void Registry::Reset() {
  MutexLock lock(mu_);
  for (auto& [name, counter] : counters_) {
    counter->Reset();
  }
  for (auto& [name, gauge] : gauges_) {
    gauge->Reset();
  }
  for (auto& [name, histogram] : histograms_) {
    histogram->Reset();
  }
}

// --- Export -----------------------------------------------------------------

namespace {

void Append(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
void Append(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) {
    out->append(buf, std::min(static_cast<size_t>(n), sizeof(buf) - 1));
  }
}

std::string JsonEscaped(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::string RegistrySnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  for (size_t i = 0; i < counters.size(); ++i) {
    Append(&out, "%s\n    \"%s\": %" PRIu64, i ? "," : "",
           JsonEscaped(counters[i].first).c_str(), counters[i].second);
  }
  out += counters.empty() ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  for (size_t i = 0; i < gauges.size(); ++i) {
    Append(&out, "%s\n    \"%s\": %" PRId64, i ? "," : "",
           JsonEscaped(gauges[i].first).c_str(), gauges[i].second);
  }
  out += gauges.empty() ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot& h = histograms[i].second;
    Append(&out,
           "%s\n    \"%s\": {\"count\": %" PRIu64 ", \"sum\": %" PRIu64
           ", \"mean\": %.3f, \"max\": %" PRIu64
           ", \"p50\": %.3f, \"p90\": %.3f, \"p99\": %.3f, "
           "\"p999\": %.3f}",
           i ? "," : "", JsonEscaped(histograms[i].first).c_str(), h.count,
           h.sum, h.Mean(), h.max, h.Quantile(0.5), h.Quantile(0.9),
           h.Quantile(0.99), h.Quantile(0.999));
  }
  out += histograms.empty() ? "}\n" : "\n  }\n";
  out += "}";
  return out;
}

}  // namespace corra::obs
