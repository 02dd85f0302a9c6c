// Counter snapshots declared once (DESIGN.md §12).
//
// A *Stats snapshot struct lists its monotonic counters in one table,
//
//   static constexpr StatField<FooStats> kFields[] = {
//       {"hits", &FooStats::hits}, {"misses", &FooStats::misses}};
//
// and every operation on snapshots walks that table: the delta of two
// snapshots (operator-, from the StatsSnapshot base), the merge of
// per-worker totals, the JSON fields (the names are the keys, emitted in
// table order), and the load from live counters (AtomicStats,
// StripedStats). A field outside the table is a gauge — a current size such
// as `entries` — and a delta keeps the left side's value.

#ifndef SRC_COMMON_STAT_FIELDS_H_
#define SRC_COMMON_STAT_FIELDS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>

#include "src/common/striped_counters.h"

namespace aceso {

template <class T>
struct StatField {
  const char* name;
  int64_t T::*member;
};

template <class T>
inline constexpr size_t kNumStatFields = std::size(T::kFields);

// The table position of `member`. Evaluated at compile time; a member that
// is not in the table does not compile.
template <class T>
consteval size_t StatIndex(int64_t T::*member) {
  for (size_t i = 0; i < kNumStatFields<T>; ++i) {
    if (T::kFields[i].member == member) {
      return i;
    }
  }
  throw "not a counter of this snapshot";
}

// True when T holds nothing but its table counters and `gauges` int64_t
// gauges. The static_assert beside each all-int64_t struct uses it, so a
// counter declared without a table entry fails the build.
template <class T>
constexpr bool StatTableCovers(size_t gauges) {
  return sizeof(T) == (kNumStatFields<T> + gauges) * sizeof(int64_t);
}

// Base of a snapshot struct: `a - b` is the per-counter delta (used to
// attribute activity to one run), gauges taken from `a`.
template <class T>
struct StatsSnapshot {
  friend T operator-(const T& a, const T& b) {
    T delta = a;
    for (const StatField<T>& field : T::kFields) {
      delta.*field.member -= b.*field.member;
    }
    return delta;
  }
};

// Adds every counter of `from` into `*into`.
template <class T>
void MergeStats(const T& from, T* into) {
  for (const StatField<T>& field : T::kFields) {
    into->*field.member += from.*field.member;
  }
}

// Appends `"name":value` for every counter, comma-separated, in table
// order (no braces: callers place the fields inside their own object).
template <class T>
void AppendStatsJson(std::string& out, const T& stats) {
  bool first = true;
  for (const StatField<T>& field : T::kFields) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += '"';
    out += field.name;
    out += "\":";
    out += std::to_string(stats.*field.member);
  }
}

// Live counters of T, one relaxed atomic per table entry: a bump is one
// fetch_add, a snapshot one load per counter.
template <class T>
class AtomicStats {
 public:
  template <int64_t T::*Field>
  void Add(int64_t delta = 1) {
    values_[StatIndex(Field)].fetch_add(delta, std::memory_order_relaxed);
  }

  T Snapshot() const {
    T stats;
    for (size_t i = 0; i < kNumStatFields<T>; ++i) {
      stats.*T::kFields[i].member =
          values_[i].load(std::memory_order_relaxed);
    }
    return stats;
  }

 private:
  std::atomic<int64_t> values_[kNumStatFields<T>] = {};
};

// Live counters of T in per-thread stripes (src/common/striped_counters.h),
// for counters every lookup bumps.
template <class T>
class StripedStats {
 public:
  template <int64_t T::*Field>
  void Add(int64_t delta = 1) const {
    counters_.Add(StatIndex(Field), delta);
  }

  T Snapshot() const {
    T stats;
    for (size_t i = 0; i < kNumStatFields<T>; ++i) {
      stats.*T::kFields[i].member = counters_.Sum(i);
    }
    return stats;
  }

 private:
  StripedCounters<kNumStatFields<T>> counters_;
};

}  // namespace aceso

#endif  // SRC_COMMON_STAT_FIELDS_H_
