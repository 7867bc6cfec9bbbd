#include "obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace corra::obs {

std::string_view PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kQueueWait:
      return "queue_wait";
    case Phase::kBlockPrune:
      return "block_prune";
    case Phase::kCachePin:
      return "cache_pin";
    case Phase::kMissFill:
      return "miss_fill";
    case Phase::kDecodeFilter:
      return "decode_filter";
    case Phase::kMerge:
      return "merge";
    case Phase::kScatter:
      return "scatter";
  }
  return "unknown";
}

std::string RequestTrace::ToJson() const {
  char buf[320];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "{\"op\": \"%.*s\", \"total_ns\": %" PRIu64
                ", \"rows_scanned\": %" PRIu64 ", \"rows_matched\": %" PRIu64
                ", \"phases\": {",
                static_cast<int>(op.size()), op.data(), total_ns,
                rows_scanned, rows_matched);
  out += buf;
  for (size_t p = 0; p < kNumPhases; ++p) {
    const std::string_view name = PhaseName(static_cast<Phase>(p));
    std::snprintf(buf, sizeof(buf), "%s\"%.*s\": %" PRIu64, p ? ", " : "",
                  static_cast<int>(name.size()), name.data(), phase_ns[p]);
    out += buf;
  }
  out += "}, \"blocks\": [";
  for (size_t b = 0; b < blocks.size(); ++b) {
    const BlockSpan& span = blocks[b];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"block\": %u, \"rows\": %" PRIu64
                  ", \"pruned\": %s, \"cache_hit\": %s"
                  ", \"retried\": %s, \"queue_ns\": %" PRIu64
                  ", \"pin_ns\": %" PRIu64 ", \"fill_ns\": %" PRIu64
                  ", \"decode_ns\": %" PRIu64 ", \"schemes\": \"",
                  b ? ", " : "", span.block, span.rows,
                  span.pruned ? "true" : "false",
                  span.cache_hit ? "true" : "false",
                  span.retried ? "true" : "false", span.queue_ns,
                  span.pin_ns, span.fill_ns, span.decode_ns);
    out += buf;
    out += span.schemes;  // "index:scheme" pairs; no JSON metacharacters.
    out += "\"}";
  }
  out += "]}";
  return out;
}

TraceRing::TraceRing(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 1)) {}

void TraceRing::Push(RequestTrace trace) {
  MutexLock lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(trace));
  } else {
    ring_[pushed_ % capacity_] = std::move(trace);
  }
  ++pushed_;
}

std::vector<RequestTrace> TraceRing::Drain() {
  MutexLock lock(mu_);
  std::vector<RequestTrace> out;
  out.reserve(ring_.size());
  // Oldest-first: once the ring has wrapped, the slot at pushed_ %
  // capacity_ holds the oldest retained trace.
  const size_t count = ring_.size();
  const size_t start = count < capacity_ ? 0 : pushed_ % capacity_;
  for (size_t i = 0; i < count; ++i) {
    out.push_back(std::move(ring_[(start + i) % count]));
  }
  ring_.clear();
  return out;
}

std::vector<RequestTrace> TraceRing::Snapshot() const {
  MutexLock lock(mu_);
  std::vector<RequestTrace> out;
  out.reserve(ring_.size());
  const size_t count = ring_.size();
  const size_t start = count < capacity_ ? 0 : pushed_ % capacity_;
  for (size_t i = 0; i < count; ++i) {
    out.push_back(ring_[(start + i) % count]);
  }
  return out;
}

uint64_t TraceRing::pushed() const {
  MutexLock lock(mu_);
  return pushed_;
}

}  // namespace corra::obs
