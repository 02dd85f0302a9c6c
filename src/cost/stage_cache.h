// Sharded stage-cost cache — the incremental-evaluation layer (§4.3 spirit).
//
// The search applies localized reconfiguration primitives, so consecutive
// Evaluate() calls differ in at most one or two stages; every other stage's
// walk is byte-identical to one already computed. This cache memoizes the
// aggregated per-stage cost (StageCost, the reduction of a StageWalk) keyed
// by ParallelConfig::StageSemanticHash(), which folds in everything
// WalkStage() reads (op range, per-op settings, microbatch size,
// device-placement context), so a hit substitutes O(1) arithmetic for the
// O(#ops) walk without changing a single bit of the PerfResult.
//
// Concurrency: AcesoSearch runs one serial SingleSearch per stage count on its
// ThreadPool against one PerformanceModel (DESIGN.md §11), and the cache is
// deliberately shared across those workers — sibling searches re-walk many of
// the same stages. The key space is partitioned into power-of-two shards, each
// with its own mutex, so concurrent lookups of different stages rarely contend.
// Values are immutable once inserted (shared_ptr<const StageCost>), making a
// hit a lock-then-copy-pointer operation.
//
// Capacity is bounded: each shard evicts in FIFO order past its share of the
// capacity, keeping long searches' memory flat (like the unexplored-pool
// bound in the search itself). Hit/miss/eviction counters are plumbed into
// SearchStats so experiments can report cache effectiveness.

#ifndef SRC_COST_STAGE_CACHE_H_
#define SRC_COST_STAGE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/common/hash.h"
#include "src/common/striped_counters.h"

namespace aceso {

struct StageCost;  // src/cost/perf_model.h

struct StageCacheOptions {
  // Master switch: a disabled cache never stores anything and every Lookup
  // misses (without counting), so the model falls back to plain WalkStage().
  bool enabled = true;

  // Maximum cached StageCost entries across all shards.
  size_t capacity = 1 << 15;

  // Number of mutex shards; rounded up to a power of two, capped at
  // capacity.
  size_t num_shards = 16;
};

// A consistent snapshot of the cache counters. `operator-` yields the delta
// between two snapshots (used to attribute activity to one search run).
struct StageCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t entries = 0;  // current size, not a delta-able counter

  StageCacheStats operator-(const StageCacheStats& other) const {
    StageCacheStats d;
    d.hits = hits - other.hits;
    d.misses = misses - other.misses;
    d.evictions = evictions - other.evictions;
    d.entries = entries;
    return d;
  }
};

class StageCostCache {
 public:
  explicit StageCostCache(const StageCacheOptions& options = {});

  StageCostCache(const StageCostCache&) = delete;
  StageCostCache& operator=(const StageCostCache&) = delete;

  // Returns the cached cost for `key`, or nullptr on miss. Counts one hit
  // or one miss in the calling thread's counter stripe. On a disabled
  // cache, returns nullptr without counting.
  std::shared_ptr<const StageCost> Lookup(uint64_t key) const;

  // Stores `cost` under `key`, evicting the shard's oldest entry when full.
  // Re-inserting an existing key is a no-op (the first value wins; values
  // for one key are identical by construction). No-op when disabled.
  void Insert(uint64_t key, std::shared_ptr<const StageCost> cost);

  // Drops every entry; counters are preserved.
  void Clear();

  bool enabled() const { return options_.enabled; }
  // Setup-time toggle (not synchronized against in-flight Lookup/Insert).
  void set_enabled(bool enabled) { options_.enabled = enabled; }

  size_t capacity() const { return options_.capacity; }

  StageCacheStats stats() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, std::shared_ptr<const StageCost>,
                       IdentityHash>
        entries;
    std::deque<uint64_t> insertion_order;  // FIFO eviction queue
  };

  Shard& ShardFor(uint64_t key) const {
    // Keys are already well-mixed; fold the high bits in so shard selection
    // is independent of the map's bucket choice (which uses the low bits).
    return *shards_[static_cast<size_t>(key >> 48) & shard_mask_];
  }

  enum Counter : size_t { kHits, kMisses, kEvictions, kNumCounters };

  // Read-mostly; the striped counters below never share their lines.
  StageCacheOptions options_;
  size_t shard_mask_ = 0;
  size_t shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  StripedCounters<kNumCounters> counters_;
};

}  // namespace aceso

#endif  // SRC_COST_STAGE_CACHE_H_
