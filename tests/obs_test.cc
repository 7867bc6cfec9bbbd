// Telemetry registry (src/obs/): counter sharding, gauge levels,
// histogram binning and quantile edge cases, snapshot/reset semantics,
// JSON export shape, the enable gate, and the trace ring.
//
// The concurrency tests here are the surface the CI TSan job exercises:
// N threads hammering one counter/histogram while another thread
// snapshots mid-record must be race-free by construction (relaxed
// atomics on private shards), not by luck.

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"

namespace corra::obs {
namespace {

TEST(EnabledTest, SetEnabledGatesRecording) {
  SetEnabled(true);
  Counter counter;
  Gauge gauge;
  Histogram histogram(LatencyBucketBoundsUs());

  SetEnabled(false);
  counter.Add(5);
  gauge.Set(7);
  histogram.Record(100);
  EXPECT_EQ(counter.Value(), 0u);
  EXPECT_EQ(gauge.Value(), 0);
  EXPECT_EQ(histogram.Snapshot().count, 0u);

  SetEnabled(true);
  counter.Add(5);
  gauge.Set(7);
  histogram.Record(100);
  EXPECT_EQ(counter.Value(), 5u);
  EXPECT_EQ(gauge.Value(), 7);
  EXPECT_EQ(histogram.Snapshot().count, 1u);
}

// The environment switch: read on the first Enabled() after the gate is
// reset to "uninitialized"; any value but "0" turns the layer off, and
// SetEnabled() still wins afterwards.
TEST(EnabledTest, EnvCorraObsOffSwitchesLayerOff) {
  const auto enabled_with_env = [](const char* value) {
    if (value == nullptr) {
      unsetenv("CORRA_OBS_OFF");
    } else {
      setenv("CORRA_OBS_OFF", value, /*overwrite=*/1);
    }
    internal::g_enabled.store(0, std::memory_order_relaxed);
    return Enabled();
  };
  EXPECT_FALSE(enabled_with_env("1"));
  EXPECT_FALSE(enabled_with_env(""));
  EXPECT_TRUE(enabled_with_env("0"));
  EXPECT_TRUE(enabled_with_env(nullptr));

  EXPECT_FALSE(enabled_with_env("1"));
  Counter counter;
  counter.Add(3);
  EXPECT_EQ(counter.Value(), 0u);
  SetEnabled(true);
  counter.Add(3);
  EXPECT_EQ(counter.Value(), 3u);
  unsetenv("CORRA_OBS_OFF");
}

TEST(CounterTest, AddsAccumulateAcrossThreads) {
  SetEnabled(true);
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kIters; ++i) {
        counter.Increment();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter.Value(),
            static_cast<uint64_t>(kThreads) * kIters);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(GaugeTest, MovesBothWays) {
  SetEnabled(true);
  Gauge gauge;
  gauge.Add(100);
  gauge.Sub(30);
  EXPECT_EQ(gauge.Value(), 70);
  gauge.Set(-5);
  EXPECT_EQ(gauge.Value(), -5);
}

TEST(HistogramTest, ZeroSamples) {
  SetEnabled(true);
  Histogram histogram(LatencyBucketBoundsUs());
  const HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0u);
  EXPECT_EQ(snap.max, 0u);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.999), 0.0);
  EXPECT_DOUBLE_EQ(snap.Mean(), 0.0);
}

TEST(HistogramTest, SingleSampleReportsItselfAtEveryQuantile) {
  SetEnabled(true);
  Histogram histogram(LatencyBucketBoundsUs());
  histogram.Record(137);
  const HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.sum, 137u);
  EXPECT_EQ(snap.max, 137u);
  // Quantiles interpolate inside the owning bucket but clamp to the
  // observed max, so one sample is reported exactly everywhere.
  for (double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_DOUBLE_EQ(snap.Quantile(q), 137.0) << "q=" << q;
  }
}

TEST(HistogramTest, BeyondLastBucketLandsInOverflow) {
  SetEnabled(true);
  const uint64_t bounds[] = {10, 100};
  Histogram histogram(bounds);
  histogram.Record(5);
  histogram.Record(50);
  histogram.Record(5000);  // Past the last bound.
  const HistogramSnapshot snap = histogram.Snapshot();
  ASSERT_EQ(snap.counts.size(), 3u);  // Two bounds + overflow.
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.max, 5000u);
  // Overflow-bucket quantiles report the observed max, not infinity.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.999), 5000.0);
}

TEST(HistogramTest, BoundaryValuesBinIntoInclusiveUpperBound) {
  SetEnabled(true);
  const uint64_t bounds[] = {10, 100};
  Histogram histogram(bounds);
  histogram.Record(10);   // == first bound: first bucket.
  histogram.Record(11);   // second bucket.
  histogram.Record(100);  // == last bound: second bucket.
  histogram.Record(101);  // overflow.
  const HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 1u);
}

TEST(HistogramTest, ConcurrentRecordsAllCounted) {
  SetEnabled(true);
  Histogram histogram(LatencyBucketBoundsUs());
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kIters; ++i) {
        histogram.Record(static_cast<uint64_t>(t * kIters + i) % 10000);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kIters);
  uint64_t bucket_total = 0;
  for (uint64_t c : snap.counts) {
    bucket_total += c;
  }
  EXPECT_EQ(bucket_total, snap.count);
  EXPECT_EQ(snap.max, 9999u);
}

TEST(HistogramTest, SnapshotDuringRecordingIsCoherentEnough) {
  SetEnabled(true);
  // A snapshot racing recorders may be mid-update across shards, but
  // every value it reads is a real committed value: bucket totals never
  // exceed the number of records started, and never shrink.
  Histogram histogram(LatencyBucketBoundsUs());
  constexpr int kIters = 20000;
  std::thread recorder([&histogram] {
    for (int i = 0; i < kIters; ++i) {
      histogram.Record(static_cast<uint64_t>(i) % 1000);
    }
  });
  uint64_t last_count = 0;
  for (int i = 0; i < 100; ++i) {
    const HistogramSnapshot snap = histogram.Snapshot();
    EXPECT_LE(snap.count, static_cast<uint64_t>(kIters));
    EXPECT_GE(snap.count, last_count);  // Counters are monotone.
    last_count = snap.count;
  }
  recorder.join();
  EXPECT_EQ(histogram.Snapshot().count, static_cast<uint64_t>(kIters));
}

TEST(RegistryTest, LookupIsIdempotentAndStable) {
  SetEnabled(true);
  Registry registry;
  Counter& a = registry.counter("x.count");
  Counter& b = registry.counter("x.count");
  EXPECT_EQ(&a, &b);
  a.Add(3);
  EXPECT_EQ(b.Value(), 3u);
  Histogram& h1 = registry.histogram("x.lat_us", LatencyBucketBoundsUs());
  Histogram& h2 = registry.histogram("x.lat_us");  // Bounds already pinned.
  EXPECT_EQ(&h1, &h2);
}

TEST(RegistryTest, ResetZeroesButKeepsRegistrations) {
  SetEnabled(true);
  Registry registry;
  Counter& c = registry.counter("c");
  Gauge& g = registry.gauge("g");
  Histogram& h = registry.histogram("h", LatencyBucketBoundsUs());
  c.Add(4);
  g.Set(9);
  h.Record(10);
  registry.Reset();
  EXPECT_EQ(c.Value(), 0u);  // Cached references survive the reset.
  EXPECT_EQ(g.Value(), 0);
  EXPECT_EQ(h.Snapshot().count, 0u);
  const RegistrySnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.histograms.size(), 1u);
}

TEST(RegistryTest, JsonExportShape) {
  SetEnabled(true);
  Registry registry;
  registry.counter("serve.requests").Add(2);
  registry.gauge("cache.cached_bytes").Set(4096);
  Histogram& h =
      registry.histogram("serve.request_latency_us", LatencyBucketBoundsUs());
  h.Record(40);
  h.Record(60);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"serve.requests\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"cache.cached_bytes\": 4096"), std::string::npos);
  EXPECT_NE(json.find("\"serve.request_latency_us\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"sum\": 100"), std::string::npos);
  EXPECT_NE(json.find("\"max\": 60"), std::string::npos);
}

TEST(TraceRingTest, RetainsLastNOldestFirst) {
  SetEnabled(true);
  TraceRing ring(3);
  for (uint64_t i = 1; i <= 5; ++i) {
    RequestTrace trace;
    trace.op = "execute";
    trace.total_ns = i;
    ring.Push(std::move(trace));
  }
  EXPECT_EQ(ring.pushed(), 5u);
  const auto snap = ring.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].total_ns, 3u);
  EXPECT_EQ(snap[1].total_ns, 4u);
  EXPECT_EQ(snap[2].total_ns, 5u);
  auto drained = ring.Drain();
  ASSERT_EQ(drained.size(), 3u);
  EXPECT_EQ(drained[2].total_ns, 5u);
  EXPECT_TRUE(ring.Drain().empty());  // Drain leaves the ring empty.
}

TEST(TraceTest, ToJsonNamesPhasesAndBlocks) {
  SetEnabled(true);
  RequestTrace trace;
  trace.op = "execute";
  trace.total_ns = 1000;
  trace.phase_ns[static_cast<size_t>(Phase::kDecodeFilter)] = 600;
  BlockSpan span;
  span.block = 2;
  span.rows = 128;
  span.cache_hit = true;
  span.schemes = "0:FOR,1:Corra-Diff";
  trace.blocks.push_back(span);
  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"op\": \"execute\""), std::string::npos);
  EXPECT_NE(json.find("\"decode_filter\""), std::string::npos);
  EXPECT_NE(json.find("\"0:FOR,1:Corra-Diff\""), std::string::npos);
  EXPECT_NE(json.find("\"block\": 2"), std::string::npos);
}

}  // namespace
}  // namespace corra::obs
