#include "serve/block_cache.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "obs/trace.h"

namespace corra::serve {

namespace {

// Statuses that quarantine a block: the *data* is bad (or the medium
// persistently failed after retries), so re-running the loader cannot
// help. Transient classes — deadline, admission, internal hiccups —
// never quarantine; the next request simply retries the load.
bool QuarantineEligible(const Status& status) {
  return status.IsCorruption() || status.IsIOError();
}

}  // namespace

// All cache machinery lives here; Handles co-own it so pin release is
// safe even after the issuing BlockCache is gone.
struct BlockCache::State {
  struct Entry {
    BlockKey key{};
    std::shared_ptr<const Block> block;
    size_t bytes = 0;
    int pins = 0;
    bool loading = true;
    // Set by EraseFile on entries it cannot drop yet (pinned or mid
    // load). The file id is never reused, so no lookup can reach the
    // entry again; the last unpin erases it instead of re-filing it.
    bool doomed = false;
    // Valid only when pins == 0 && !loading (entry sits in the LRU).
    std::list<Entry*>::iterator lru_it{};
    bool in_lru = false;
  };

  // One quarantined block: the load error to replay and when the block
  // becomes loadable again.
  struct Quarantined {
    Status status;
    uint64_t expire_ns = 0;
  };

  // Entry objects themselves carry no annotations: an Entry is only
  // reachable through its shard's guarded containers, so every access
  // already runs under that shard's mu (raw Entry* copies never escape
  // a locked region).
  struct Shard {
    mutable Mutex mu;
    CondVar cv;  // Signals load completions.
    std::unordered_map<BlockKey, std::unique_ptr<Entry>, BlockKeyHash>
        entries CORRA_GUARDED_BY(mu);
    // Front = most recently used, unpinned only.
    std::list<Entry*> lru CORRA_GUARDED_BY(mu);
    // Negative cache of persistently failing blocks; bounded by the
    // cache-wide quarantine_capacity split across shards. The FIFO
    // holds insertion order so the oldest entry is dropped first when
    // the shard's share of the bound is exceeded.
    std::unordered_map<BlockKey, Quarantined, BlockKeyHash> quarantine
        CORRA_GUARDED_BY(mu);
    std::deque<BlockKey> quarantine_fifo CORRA_GUARDED_BY(mu);
    size_t bytes CORRA_GUARDED_BY(mu) = 0;
    uint64_t hits CORRA_GUARDED_BY(mu) = 0;
    uint64_t misses CORRA_GUARDED_BY(mu) = 0;
    uint64_t evictions CORRA_GUARDED_BY(mu) = 0;
    uint64_t failed_loads CORRA_GUARDED_BY(mu) = 0;
    // EraseFile removals (incl. doomed unpins).
    uint64_t erased CORRA_GUARDED_BY(mu) = 0;
    // Hits that waited out an in-flight load.
    uint64_t load_waits CORRA_GUARDED_BY(mu) = 0;
    uint64_t quarantine_fastfails CORRA_GUARDED_BY(mu) = 0;
  };

  // Cached registry series; resolved once at construction so cache
  // events are lock-free counter/gauge updates. The counters mirror the
  // per-shard stats; the gauges track residency levels, replacing the
  // ad-hoc GetStats polling the serving benches used to do.
  struct Metrics {
    obs::Counter* hits;
    obs::Counter* misses;
    obs::Counter* evictions;
    obs::Counter* failed_loads;
    obs::Counter* load_waits;
    obs::Counter* quarantine_fastfails;
    obs::Gauge* cached_blocks;
    obs::Gauge* cached_bytes;
    obs::Gauge* pinned_blocks;
    obs::Gauge* pinned_bytes;
    obs::Gauge* quarantined_blocks;

    explicit Metrics(obs::Registry& registry)
        : hits(&registry.counter("cache.hits")),
          misses(&registry.counter("cache.misses")),
          evictions(&registry.counter("cache.evictions")),
          failed_loads(&registry.counter("cache.failed_loads")),
          load_waits(&registry.counter("cache.load_waits")),
          quarantine_fastfails(
              &registry.counter("cache.quarantine_fastfails")),
          cached_blocks(&registry.gauge("cache.cached_blocks")),
          cached_bytes(&registry.gauge("cache.cached_bytes")),
          pinned_blocks(&registry.gauge("cache.pinned_blocks")),
          pinned_bytes(&registry.gauge("cache.pinned_bytes")),
          quarantined_blocks(&registry.gauge("cache.quarantined_blocks")) {}
  };

  BlockCacheOptions options;
  std::unique_ptr<Metrics> metrics;
  // Per-shard quarantine bound (quarantine_capacity split across
  // shards, at least 1 each); 0 when quarantine is disabled.
  size_t quarantine_per_shard = 0;
  // Budgets are enforced globally (per-shard slices would starve the
  // cache whenever capacity / shards is smaller than a block); a shard
  // can only evict its own entries, so an overshoot in one shard drains
  // as soon as that shard sees an unpin or an insert.
  std::atomic<size_t> total_blocks{0};  // Fully loaded entries.
  std::atomic<size_t> total_bytes{0};
  // Serializes the over-budget check with the evictions it triggers.
  // Without it, two shards (say an unpin re-filing its entry while
  // another shard finishes an insert) can both observe the same
  // one-block overshoot and both evict — double-counting the eviction
  // and draining the cache below its budget. Ordering: always acquired
  // *after* a shard mutex, and never acquires one itself, so there is
  // no lock cycle. Only contended when the cache is actually over
  // budget: EvictOverflow pre-checks the atomics lock-free and takes
  // this mutex (re-checking under it) only on an observed overshoot.
  // No fields are guarded by it — it serializes the check-and-evict
  // sequence, not any particular datum.
  Mutex evict_mu;
  std::vector<std::unique_ptr<Shard>> shards;
  std::atomic<uint64_t> next_file_id{1};

  Shard& ShardFor(const BlockKey& key) {
    return *shards[BlockKeyHash{}(key) % shards.size()];
  }
  const Shard& ShardFor(const BlockKey& key) const {
    return *shards[BlockKeyHash{}(key) % shards.size()];
  }

  // Evicts this shard's LRU-tail entries while the cache exceeds its
  // global budget.
  void EvictOverflow(Shard& shard) CORRA_REQUIRES(shard.mu) {
    const auto over = [&] {
      if (options.capacity_blocks > 0 &&
          total_blocks.load(std::memory_order_relaxed) >
              options.capacity_blocks) {
        return true;
      }
      if (options.capacity_bytes > 0 &&
          total_bytes.load(std::memory_order_relaxed) >
              options.capacity_bytes) {
        return true;
      }
      return false;
    };
    // Steady state (under budget) stays lock-free: an unpin or insert
    // that observes no overshoot must not funnel every shard through
    // the global mutex. The check is conservative — a transient miss
    // just leaves the overshoot for the next operation to drain.
    if (!over()) {
      return;
    }
    // Check-and-evict must be atomic across shards once over budget:
    // see evict_mu. The over() re-check below runs under the lock.
    MutexLock evict_lock(evict_mu);
    // Only unpinned, fully loaded entries sit in the LRU list; pinned
    // entries (and residents of other shards) can carry the cache over
    // budget until their pins drop or their shard sees traffic.
    while (over() && !shard.lru.empty()) {
      Entry* victim = shard.lru.back();
      shard.lru.pop_back();
      victim->in_lru = false;
      shard.bytes -= victim->bytes;
      total_blocks.fetch_sub(1, std::memory_order_relaxed);
      total_bytes.fetch_sub(victim->bytes, std::memory_order_relaxed);
      ++shard.evictions;
      metrics->evictions->Increment();
      metrics->cached_blocks->Sub(1);
      metrics->cached_bytes->Sub(static_cast<int64_t>(victim->bytes));
      // Copy: erase(key) must not receive a reference into the node it
      // is destroying.
      const BlockKey victim_key = victim->key;
      shard.entries.erase(victim_key);
    }
  }

  // Quarantine bookkeeping.
  void RemoveQuarantineLocked(Shard& shard, const BlockKey& key)
      CORRA_REQUIRES(shard.mu) {
    auto it = shard.quarantine.find(key);
    if (it == shard.quarantine.end()) {
      return;
    }
    shard.quarantine.erase(it);
    auto fit = std::find(shard.quarantine_fifo.begin(),
                         shard.quarantine_fifo.end(), key);
    if (fit != shard.quarantine_fifo.end()) {
      shard.quarantine_fifo.erase(fit);
    }
    metrics->quarantined_blocks->Sub(1);
  }

  void InsertQuarantineLocked(Shard& shard, const BlockKey& key,
                              const Status& status)
      CORRA_REQUIRES(shard.mu) {
    const uint64_t expire_ns =
        obs::MonotonicNs() + options.quarantine_ttl_ms * 1'000'000ull;
    auto it = shard.quarantine.find(key);
    if (it != shard.quarantine.end()) {
      // Re-failure refreshes the window and the status; the FIFO slot
      // keeps its original position (age by first failure).
      it->second = Quarantined{status, expire_ns};
      return;
    }
    shard.quarantine.emplace(key, Quarantined{status, expire_ns});
    shard.quarantine_fifo.push_back(key);
    metrics->quarantined_blocks->Add(1);
    while (shard.quarantine.size() > quarantine_per_shard) {
      const BlockKey oldest = shard.quarantine_fifo.front();
      shard.quarantine_fifo.pop_front();
      shard.quarantine.erase(oldest);
      metrics->quarantined_blocks->Sub(1);
    }
  }

  // Removes the pin added by a Handle; re-files the entry in the LRU.
  void Unpin(const BlockKey& key) {
    Shard& shard = ShardFor(key);
    MutexLock lock(shard.mu);
    auto it = shard.entries.find(key);
    if (it == shard.entries.end()) {
      return;  // Entry was erased (EraseFile) while pinned.
    }
    Entry* entry = it->second.get();
    if (--entry->pins > 0) {
      return;
    }
    metrics->pinned_blocks->Sub(1);
    metrics->pinned_bytes->Sub(static_cast<int64_t>(entry->bytes));
    if (entry->doomed) {
      // The owning file was erased while this pin was out; the entry is
      // unreachable (file ids are never reused), so drop it now.
      shard.bytes -= entry->bytes;
      total_blocks.fetch_sub(1, std::memory_order_relaxed);
      total_bytes.fetch_sub(entry->bytes, std::memory_order_relaxed);
      ++shard.erased;
      metrics->cached_blocks->Sub(1);
      metrics->cached_bytes->Sub(static_cast<int64_t>(entry->bytes));
      shard.entries.erase(it);
      return;
    }
    // Last pin released: the entry becomes evictable at the MRU
    // position.
    shard.lru.push_front(entry);
    entry->lru_it = shard.lru.begin();
    entry->in_lru = true;
    EvictOverflow(shard);
  }

  // Blocks still resident when the cache dies stop being resident: give
  // their share of the process-wide residency gauges back, so many
  // short-lived caches (benches, tests) don't drift the gauges upward.
  ~State() {
    for (const auto& shard_ptr : shards) {
      // The last co-owner (cache or outstanding Handle) runs this, so
      // by shared_ptr ordering no *other* thread still touches the
      // shards — but a Handle released on another thread moments ago
      // may not have published its Unpin writes to this one. Locking
      // each shard both satisfies the guarded-field contract and
      // provides the release/acquire edge that makes the final gauge
      // accounting read those writes.
      MutexLock lock(shard_ptr->mu);
      for (const auto& [key, entry] : shard_ptr->entries) {
        if (entry->loading) {
          continue;
        }
        metrics->cached_blocks->Sub(1);
        metrics->cached_bytes->Sub(static_cast<int64_t>(entry->bytes));
        if (entry->pins > 0) {
          metrics->pinned_blocks->Sub(1);
          metrics->pinned_bytes->Sub(static_cast<int64_t>(entry->bytes));
        }
      }
      metrics->quarantined_blocks->Sub(
          static_cast<int64_t>(shard_ptr->quarantine.size()));
    }
  }
};

// --- Handle -----------------------------------------------------------------

BlockCache::Handle::Handle(Handle&& other) noexcept
    : state_(std::move(other.state_)), key_(other.key_),
      block_(std::move(other.block_)) {
  other.state_ = nullptr;
  other.block_ = nullptr;
}

BlockCache::Handle& BlockCache::Handle::operator=(Handle&& other) noexcept {
  if (this != &other) {
    Release();
    state_ = std::move(other.state_);
    key_ = other.key_;
    block_ = std::move(other.block_);
    other.state_ = nullptr;
    other.block_ = nullptr;
  }
  return *this;
}

BlockCache::Handle::~Handle() { Release(); }

void BlockCache::Handle::Release() {
  if (state_ != nullptr && block_ != nullptr) {
    state_->Unpin(key_);
  }
  state_ = nullptr;
  block_ = nullptr;
}

// --- BlockCache -------------------------------------------------------------

BlockCache::BlockCache(BlockCacheOptions options)
    : state_(std::make_shared<State>()) {
  state_->options = options;
  state_->metrics = std::make_unique<State::Metrics>(
      options.registry != nullptr ? *options.registry
                                  : obs::Registry::Default());
  size_t shards = std::max<size_t>(options.shards, 1);
  if (options.capacity_blocks > 0) {
    // Never more shards than blocks: a tiny cache degenerates to one
    // LRU so an insert can always evict the over-budget entry itself.
    shards = std::min(shards, options.capacity_blocks);
  }
  state_->shards.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    state_->shards.push_back(std::make_unique<State::Shard>());
  }
  if (options.quarantine_ttl_ms > 0 && options.quarantine_capacity > 0) {
    state_->quarantine_per_shard =
        std::max<size_t>(1, options.quarantine_capacity / shards);
  }
}

uint64_t BlockCache::RegisterFile() {
  return state_->next_file_id.fetch_add(1, std::memory_order_relaxed);
}

size_t BlockCache::capacity_blocks() const {
  return state_->options.capacity_blocks;
}

size_t BlockCache::capacity_bytes() const {
  return state_->options.capacity_bytes;
}

size_t BlockCache::num_shards() const { return state_->shards.size(); }

Result<BlockCache::Handle> BlockCache::GetOrLoad(const BlockKey& key,
                                                 const Loader& loader) {
  State::Shard& shard = state_->ShardFor(key);
  MutexLock lock(shard.mu);
  bool waited = false;  // Blocked on another caller's in-flight load.
  for (;;) {
    auto it = shard.entries.find(key);
    if (it == shard.entries.end()) {
      break;  // Miss: this caller becomes the loader.
    }
    State::Entry* entry = it->second.get();
    if (!entry->loading) {
      ++shard.hits;
      state_->metrics->hits->Increment();
      if (waited) {
        // Single-flight in action: this caller's miss was absorbed by a
        // concurrent load (another request's) — it paid a wait, not a
        // fill.
        ++shard.load_waits;
        state_->metrics->load_waits->Increment();
      }
      if (entry->in_lru) {
        shard.lru.erase(entry->lru_it);
        entry->in_lru = false;
      }
      if (entry->pins++ == 0) {
        state_->metrics->pinned_blocks->Add(1);
        state_->metrics->pinned_bytes->Add(
            static_cast<int64_t>(entry->bytes));
      }
      return Handle(state_, key, entry->block);
    }
    // Another caller is loading this block; wait for it to finish, then
    // re-check (the entry may be gone if the load failed).
    waited = true;
    shard.cv.Wait(shard.mu);
  }

  // Quarantine check before becoming the loader: a block that failed
  // persistently moments ago fails fast with that same status — this
  // is also what waiters woken from a failed single-flight load hit,
  // so a pile-up on a bad block produces one disk read, not N.
  if (state_->quarantine_per_shard > 0) {
    auto qit = shard.quarantine.find(key);
    if (qit != shard.quarantine.end()) {
      if (obs::MonotonicNs() < qit->second.expire_ns) {
        ++shard.quarantine_fastfails;
        state_->metrics->quarantine_fastfails->Increment();
        return qit->second.status;
      }
      // Expired: the block earns a fresh load attempt.
      state_->RemoveQuarantineLocked(shard, key);
    }
  }

  auto placeholder = std::make_unique<State::Entry>();
  placeholder->key = key;
  State::Entry* entry = placeholder.get();
  shard.entries.emplace(key, std::move(placeholder));
  ++shard.misses;
  state_->metrics->misses->Increment();
  lock.Unlock();

  Result<std::shared_ptr<const Block>> loaded = loader();

  lock.Lock();
  if (!loaded.ok() || loaded.value() == nullptr) {
    ++shard.failed_loads;
    state_->metrics->failed_loads->Increment();
    shard.entries.erase(key);
    Status failure =
        loaded.ok() ? Status::Internal("block loader returned null block")
                    : loaded.status();
    // Quarantine before waking the waiters: each of them re-checks the
    // map, finds no entry, and hits the quarantine — every waiter gets
    // this failure without any of them re-running a doomed loader.
    if (state_->quarantine_per_shard > 0 && QuarantineEligible(failure)) {
      state_->InsertQuarantineLocked(shard, key, failure);
    }
    shard.cv.NotifyAll();
    return failure;
  }
  entry->block = std::move(loaded).value();
  entry->bytes = entry->block->GetStats().encoded_bytes;
  entry->loading = false;
  entry->pins = 1;  // The returned handle's pin; not in the LRU yet.
  shard.bytes += entry->bytes;
  state_->total_blocks.fetch_add(1, std::memory_order_relaxed);
  state_->total_bytes.fetch_add(entry->bytes, std::memory_order_relaxed);
  state_->metrics->cached_blocks->Add(1);
  state_->metrics->cached_bytes->Add(static_cast<int64_t>(entry->bytes));
  state_->metrics->pinned_blocks->Add(1);
  state_->metrics->pinned_bytes->Add(static_cast<int64_t>(entry->bytes));
  shard.cv.NotifyAll();
  state_->EvictOverflow(shard);
  return Handle(state_, key, entry->block);
}

bool BlockCache::Contains(const BlockKey& key) const {
  const State::Shard& shard =
      static_cast<const State&>(*state_).ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.entries.find(key);
  return it != shard.entries.end() && !it->second->loading;
}

void BlockCache::EraseFile(uint64_t file_id) {
  for (auto& shard_ptr : state_->shards) {
    State::Shard& shard = *shard_ptr;
    MutexLock lock(shard.mu);
    for (auto qit = shard.quarantine.begin();
         qit != shard.quarantine.end();) {
      if (qit->first.file_id == file_id) {
        auto fit = std::find(shard.quarantine_fifo.begin(),
                             shard.quarantine_fifo.end(), qit->first);
        if (fit != shard.quarantine_fifo.end()) {
          shard.quarantine_fifo.erase(fit);
        }
        state_->metrics->quarantined_blocks->Sub(1);
        qit = shard.quarantine.erase(qit);
      } else {
        ++qit;
      }
    }
    for (auto it = shard.entries.begin(); it != shard.entries.end();) {
      State::Entry* entry = it->second.get();
      if (entry->key.file_id != file_id) {
        ++it;
        continue;
      }
      if (entry->loading || entry->pins > 0) {
        // Cannot drop yet; the last unpin (or the loader's handle
        // release) will erase it instead of re-filing it in the LRU.
        entry->doomed = true;
        ++it;
        continue;
      }
      if (entry->in_lru) {
        shard.lru.erase(entry->lru_it);
      }
      shard.bytes -= entry->bytes;
      state_->total_blocks.fetch_sub(1, std::memory_order_relaxed);
      state_->total_bytes.fetch_sub(entry->bytes,
                                    std::memory_order_relaxed);
      ++shard.erased;
      state_->metrics->cached_blocks->Sub(1);
      state_->metrics->cached_bytes->Sub(
          static_cast<int64_t>(entry->bytes));
      it = shard.entries.erase(it);
    }
  }
}

void BlockCache::ClearQuarantine() {
  for (auto& shard_ptr : state_->shards) {
    State::Shard& shard = *shard_ptr;
    MutexLock lock(shard.mu);
    state_->metrics->quarantined_blocks->Sub(
        static_cast<int64_t>(shard.quarantine.size()));
    shard.quarantine.clear();
    shard.quarantine_fifo.clear();
  }
}

// Thread-safety analysis is off here by design: the function locks a
// *dynamic* set of mutexes (one per shard, discovered at runtime),
// which the static analysis cannot model — there is no per-shard
// capability expression to name at compile time. The locking protocol
// is reviewed by hand instead and documented below.
BlockCacheStats BlockCache::GetStats() const
    CORRA_NO_THREAD_SAFETY_ANALYSIS {
  // Coherent snapshot: every shard lock is held for the whole
  // aggregation, so no load can complete, no pin can drop, and no
  // eviction can run while counting — the ledger invariant documented
  // on BlockCacheStats holds exactly, never just transiently. (Locking
  // all shards is deadlock-free: no other path ever holds two shard
  // locks, and the eviction mutex is only ever taken *after* a shard
  // lock, never before one.) Shard-at-a-time aggregation would instead
  // let a block finish loading in shard A after A was counted but
  // before B was — a reader could then see misses != evictions +
  // cached_blocks + loading_blocks even with the per-shard counters
  // individually exact.
  for (const auto& shard_ptr : state_->shards) {
    shard_ptr->mu.Lock();
  }
  BlockCacheStats stats;
  for (const auto& shard_ptr : state_->shards) {
    const State::Shard& shard = *shard_ptr;
    stats.hits += shard.hits;
    stats.misses += shard.misses;
    stats.evictions += shard.evictions;
    stats.failed_loads += shard.failed_loads;
    stats.erased_blocks += shard.erased;
    stats.load_waits += shard.load_waits;
    stats.quarantine_fastfails += shard.quarantine_fastfails;
    stats.quarantined += shard.quarantine.size();
    stats.cached_bytes += shard.bytes;
    for (const auto& [key, entry] : shard.entries) {
      if (entry->loading) {
        ++stats.loading_blocks;
        continue;
      }
      ++stats.cached_blocks;
      if (entry->pins > 0) {
        ++stats.pinned_blocks;
      }
    }
  }
  for (const auto& shard_ptr : state_->shards) {
    shard_ptr->mu.Unlock();
  }
  return stats;
}

}  // namespace corra::serve
