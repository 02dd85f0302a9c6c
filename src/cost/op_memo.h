// Lock-free op-breakdown memo — the op-level layer of the walk cache
// hierarchy (DESIGN.md §12).
//
// A stage-cache miss used to walk every op in the stage and pay 2–6 locked
// ProfileDatabase lookups per op, even though deep models are mostly
// identical transformer layers whose ops repeat the same (semantic word,
// layout-state) context over and over. This memo caches the full OpBreakdown
// per *context key* — op signature, packed semantic word, microbatch size,
// incoming activation layout, dp-reshard bit, and the stage's placement
// context — so a repeated layer costs one hash + one lock-free probe instead
// of a re-derivation through the profile database.
//
// Concurrency: an insert-only open-addressing table of atomic entry
// pointers. Entries are immutable once published (release store, acquire
// load), lookups acquire no locks, and inserts are first-writer-wins CAS —
// every writer computes the same bits for a key (the breakdown is a pure
// function of the key's inputs and the deterministic profile database), so
// losing a race never changes observable values. The table never grows or
// evicts: once full (or a probe run exceeds the bound), inserts are dropped
// and those contexts simply recompute — a bounded-memory backstop, not a
// steady-state mode (capacity comfortably exceeds the distinct contexts a
// search visits).

#ifndef SRC_COST_OP_MEMO_H_
#define SRC_COST_OP_MEMO_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/common/striped_counters.h"

namespace aceso {

struct OpBreakdown;  // src/cost/perf_model.h

struct OpMemoOptions {
  // Master switch: a disabled memo never stores anything and every Lookup
  // misses (without counting), so the model falls back to per-op
  // re-derivation.
  bool enabled = true;

  // Slot count; rounded up to a power of two. Inserts stop at 7/8
  // occupancy to keep probe runs short.
  size_t capacity = 1 << 16;
};

// Monotonic counters; `operator-` attributes a delta to one search run,
// like StageCacheStats / ProfileDbStats.
struct OpMemoStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t inserts_dropped = 0;  // table full or probe bound exceeded
  int64_t entries = 0;          // current size, not a delta-able counter

  OpMemoStats operator-(const OpMemoStats& other) const {
    OpMemoStats d;
    d.hits = hits - other.hits;
    d.misses = misses - other.misses;
    d.inserts_dropped = inserts_dropped - other.inserts_dropped;
    d.entries = entries;
    return d;
  }
};

class OpBreakdownMemo {
 public:
  explicit OpBreakdownMemo(const OpMemoOptions& options = {});
  ~OpBreakdownMemo();

  OpBreakdownMemo(const OpBreakdownMemo&) = delete;
  OpBreakdownMemo& operator=(const OpBreakdownMemo&) = delete;

  // Returns the published breakdown for `key`, or nullptr on a miss. The
  // pointer is stable until Clear() or destruction. Lock-free: an acquire
  // probe plus one relaxed bump of the calling thread's counter stripe, so
  // concurrent hits write no shared line. A disabled memo always returns
  // nullptr without counting.
  const OpBreakdown* Lookup(uint64_t key) const;

  // Publishes a copy of `value` under `key` (first-writer-wins; the
  // survivor is returned either way). Returns nullptr only when the insert
  // was dropped — table full, probe bound exceeded, or memo disabled —
  // in which case the caller keeps using its own computed value.
  const OpBreakdown* Insert(uint64_t key, const OpBreakdown& value);

  bool enabled() const { return enabled_; }
  // Setup-time toggle; not synchronized against concurrent Lookup/Insert.
  void set_enabled(bool enabled) {
    enabled_ = enabled;
    if (!enabled) {
      Clear();
    }
  }

  // Drops every entry. Setup-time only: callers must guarantee no
  // concurrent Lookup/Insert and no outstanding entry pointers.
  void Clear();

  OpMemoStats stats() const;

 private:
  // Defined in the .cc (OpBreakdown is incomplete here); the entry embeds
  // the key and the breakdown by value, so a hit is one pointer chase.
  struct Entry;

  // Longest tolerated probe run; beyond it the insert is dropped. Keeps
  // worst-case lookups O(1) even under adversarial key clustering.
  static constexpr size_t kMaxProbe = 64;

  enum Counter : size_t { kHits, kMisses, kInsertsDropped, kNumCounters };

  // Read on every lookup; never written after construction (bar setup-time
  // toggles), so the counters below sit on other cache lines.
  bool enabled_ = true;
  size_t mask_ = 0;
  std::vector<std::atomic<const Entry*>> slots_;
  StripedCounters<kNumCounters> counters_;
  // Written on every successful insert (the miss path): its own line.
  alignas(kCacheLineBytes) std::atomic<int64_t> entries_{0};
};

}  // namespace aceso

#endif  // SRC_COST_OP_MEMO_H_
