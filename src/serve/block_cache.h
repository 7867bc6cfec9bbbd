// BlockCache — the memory budget of the out-of-core serving layer.
//
// A sharded, capacity-bounded LRU over deserialized Blocks, keyed by
// (file id, block index). Readers never hold whole tables in memory:
// they ask the cache for one block at a time, and the cache either hands
// back a cached copy (hit) or runs the caller's loader exactly once per
// missing block (misses by concurrent callers for the same block wait
// for the single in-flight load instead of re-reading the file).
//
// Returned blocks are wrapped in a pinning Handle: while at least one
// handle to a block is alive, the block is exempt from eviction, so a
// scan in progress can never have its block reclaimed underneath it.
// Eviction strikes the least-recently-used unpinned entry whenever a
// shard exceeds its share of the block/byte budget.
//
// Sharding bounds lock contention under concurrent scans: each key maps
// to one shard with its own mutex and LRU list. The block and byte
// budgets are global — a shard evicts its own LRU tail while the cache
// as a whole is over budget — so a budget smaller than shard_count
// blocks still caches, it never degenerates to per-shard slices of less
// than one block. When the block capacity is smaller than the requested
// shard count, the shard count shrinks to match (a capacity of one
// block really caches one block, not one per shard).

#ifndef CORRA_SERVE_BLOCK_CACHE_H_
#define CORRA_SERVE_BLOCK_CACHE_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "common/result.h"
#include "obs/metrics.h"
#include "storage/block.h"

namespace corra::serve {

/// Identifies one block of one open file. File ids come from
/// BlockCache::RegisterFile so two readers of different files sharing a
/// cache can never collide.
struct BlockKey {
  uint64_t file_id = 0;
  uint64_t block_index = 0;

  friend bool operator==(const BlockKey&, const BlockKey&) = default;
};

struct BlockKeyHash {
  size_t operator()(const BlockKey& key) const {
    // splitmix64-style mix of the two halves.
    uint64_t x = key.file_id * 0x9E3779B97F4A7C15ull + key.block_index;
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return static_cast<size_t>(x);
  }
};

struct BlockCacheOptions {
  /// Maximum cached blocks (0 = unlimited). Pinned blocks may push the
  /// cache over this bound; it is restored as pins are released.
  size_t capacity_blocks = 64;
  /// Optional byte budget over Block::GetStats().encoded_bytes
  /// (0 = unlimited).
  size_t capacity_bytes = 0;
  /// Desired shard count; clamped to capacity_blocks when that is
  /// smaller, and to at least 1.
  size_t shards = 8;
  /// Metrics registry the cache reports into (hits/misses/evictions as
  /// counters, resident/pinned blocks and bytes as gauges, all under
  /// "cache."). Null means obs::Registry::Default(). Several caches
  /// sharing one registry aggregate into the same series.
  obs::Registry* registry = nullptr;
  /// Quarantine TTL: a block whose load fails with a persistent status
  /// (Corruption or IOError — not deadline/admission classes) enters a
  /// bounded negative cache for this long, and requests arriving inside
  /// the window fail fast with the original Status instead of hammering
  /// the disk with loads that cannot succeed. 0 disables quarantine
  /// (every request re-runs the loader, the pre-quarantine behavior).
  uint64_t quarantine_ttl_ms = 2000;
  /// Upper bound on quarantined blocks across all shards; the oldest
  /// entry is dropped first (it simply becomes loadable again early).
  size_t quarantine_capacity = 256;
};

/// Coherent point-in-time snapshot of the cache (see GetStats).
///
/// Ledger invariant — because the snapshot is taken with every shard
/// locked at once, it holds *exactly*, not just eventually:
///
///   misses == cached_blocks + loading_blocks
///           + evictions + failed_loads + erased_blocks
///
/// Every miss creates exactly one entry, and every entry is either
/// still loading, resident, or was removed by exactly one of eviction,
/// load failure, or EraseFile (immediately, or deferred to the last
/// unpin of a doomed entry — counted as erased either way).
///
/// Quarantine sits outside the ledger: a failed load counts toward
/// failed_loads exactly once whether or not it quarantines the block,
/// and a request rejected by the quarantine (quarantine_fastfails)
/// never creates an entry — it is neither a hit nor a miss, so the
/// equation above is untouched by any quarantine traffic.
struct BlockCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t failed_loads = 0;
  /// Entries removed by EraseFile (including doomed entries dropped at
  /// their last unpin) — removals that are neither evictions nor
  /// failures, kept separate so the ledger invariant stays exact.
  uint64_t erased_blocks = 0;
  /// Hits that first waited out another caller's in-flight load of the
  /// same block (single-flight absorption — e.g. a request arriving
  /// while another request's thread is still filling the block). A
  /// subset of hits; not part of the ledger invariant.
  uint64_t load_waits = 0;
  /// Requests failed fast by the quarantine with the original load
  /// error (no loader run, no entry created).
  uint64_t quarantine_fastfails = 0;
  size_t cached_blocks = 0;
  size_t cached_bytes = 0;
  size_t pinned_blocks = 0;
  /// Entries whose loader is still running (missed, not yet resident).
  size_t loading_blocks = 0;
  /// Blocks currently held in the quarantine negative cache (their
  /// expiry may have passed; expired entries are reaped lazily on the
  /// next request for the block).
  size_t quarantined = 0;

  [[nodiscard]] double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

class BlockCache {
 public:
  /// Loads a block on a miss. Runs outside any shard lock.
  using Loader =
      std::function<Result<std::shared_ptr<const Block>>()>;

  struct State;  // Internal shards + budgets, co-owned by Handles.

  /// RAII pin: keeps the block unevictable while alive. Default
  /// instances are empty (operator bool is false). A handle co-owns the
  /// cache's internal state, so it stays valid (and its block readable)
  /// even if it outlives the BlockCache that issued it.
  class Handle {
   public:
    Handle() = default;
    Handle(Handle&& other) noexcept;
    Handle& operator=(Handle&& other) noexcept;
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    ~Handle();

    explicit operator bool() const { return block_ != nullptr; }
    const Block& operator*() const { return *block_; }
    const Block* operator->() const { return block_.get(); }
    [[nodiscard]] const std::shared_ptr<const Block>& block() const {
      return block_;
    }

    /// Releases the pin early (idempotent).
    void Release();

   private:
    friend class BlockCache;
    Handle(std::shared_ptr<State> state, BlockKey key,
           std::shared_ptr<const Block> block)
        : state_(std::move(state)), key_(key), block_(std::move(block)) {}

    std::shared_ptr<State> state_;
    BlockKey key_{};
    std::shared_ptr<const Block> block_;
  };

  explicit BlockCache(BlockCacheOptions options = {});
  ~BlockCache() = default;
  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// Returns a process-unique file id for keying a newly opened file.
  [[nodiscard]] uint64_t RegisterFile();

  /// Returns a pinned handle for `key`, running `loader` if (and only
  /// if) the block is not cached and no other caller is already loading
  /// it. Loader failures are propagated and nothing is cached; a
  /// persistent failure (Corruption/IOError) additionally quarantines
  /// the key (see BlockCacheOptions::quarantine_ttl_ms), so callers —
  /// including waiters woken from the failed single-flight load — fail
  /// fast with that same status until the TTL expires.
  [[nodiscard]] Result<Handle> GetOrLoad(const BlockKey& key,
                                         const Loader& loader);

  /// True if `key` is resident (does not touch LRU order or stats).
  [[nodiscard]] bool Contains(const BlockKey& key) const;

  /// Drops every unpinned entry of `file_id` (a closing reader's blocks
  /// stop occupying budget). Entries still pinned or mid-load are
  /// dropped when their last pin is released — they never linger as
  /// unreachable residents. The file's quarantine entries are dropped
  /// too (file ids are never reused, so they could only leak).
  void EraseFile(uint64_t file_id);

  /// Empties the quarantine: every quarantined block becomes loadable
  /// again immediately (operational unblock after replacing a bad
  /// file, and the test hook for TTL-independent recovery).
  void ClearQuarantine();

  /// Coherent snapshot: taken with every shard lock held at once, so
  /// the BlockCacheStats ledger invariant (see its comment) holds
  /// exactly even while concurrent loads, unpins, and evictions are in
  /// flight. Safe against the eviction path's lock order (no code path
  /// holds two shard locks, and GetStats acquires them in index order).
  [[nodiscard]] BlockCacheStats GetStats() const;

  [[nodiscard]] size_t capacity_blocks() const;
  [[nodiscard]] size_t capacity_bytes() const;
  [[nodiscard]] size_t num_shards() const;

 private:
  // All mutable cache machinery (shards, budgets, counters) lives in
  // State, shared between the cache and its outstanding Handles so a
  // handle released after the cache is destroyed unpins safely.
  std::shared_ptr<State> state_;
};

}  // namespace corra::serve

#endif  // CORRA_SERVE_BLOCK_CACHE_H_
