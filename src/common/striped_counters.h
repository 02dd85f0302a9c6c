// Event counters that concurrent writers bump without sharing a cache line.
//
// The hot lookup paths (op memo, stage-cost cache, profile database) count
// every hit. One std::atomic<int64_t> per counter makes every thread write
// the same line, and when that line also holds the read-mostly fields the
// lookup reads (enable flags, table masks, slot pointers), each bump
// evicts them from every other reader's cache. StripedCounters keeps one
// cache-line-aligned copy of a group of up to eight counters per stripe; a
// thread writes only its own stripe and a read sums the stripes
// (DESIGN.md §12).
//
// Ownership: a thread claims the lowest free stripe on its first bump and
// frees it when it exits, so up to kCounterStripes live counting threads
// each write a line no other thread writes, with a plain load and store
// instead of a locked add. Threads beyond that share one extra stripe and
// bump it atomically. Totals are exact either way.

#ifndef SRC_COMMON_STRIPED_COUNTERS_H_
#define SRC_COMMON_STRIPED_COUNTERS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace aceso {

inline constexpr size_t kCacheLineBytes = 64;
// Stripes a thread can own; stripe kCounterStripes is the shared one.
inline constexpr size_t kCounterStripes = 16;

namespace striped_counters_internal {
// The calling thread's stripe, or kCounterStripes + 1 before its first
// bump. Constant-initialized, so reading it is a plain thread-local load.
inline thread_local size_t tls_stripe = kCounterStripes + 1;
// Claims a stripe for the calling thread (the first-bump slow path).
size_t ClaimStripe();
}  // namespace striped_counters_internal

// The calling thread's stripe index: below kCounterStripes when the thread
// owns it, kCounterStripes when it shares the overflow stripe.
inline size_t ThisThreadCounterStripe() {
  const size_t stripe = striped_counters_internal::tls_stripe;
  if (stripe <= kCounterStripes) [[likely]] {
    return stripe;
  }
  return striped_counters_internal::ClaimStripe();
}

template <size_t N>
class StripedCounters {
 public:
  static_assert(N >= 1 && N * sizeof(int64_t) <= kCacheLineBytes,
                "one stripe holds the whole group on one cache line");

  void Add(size_t counter, int64_t delta = 1) const {
    const size_t stripe = ThisThreadCounterStripe();
    std::atomic<int64_t>& value = stripes_[stripe].values[counter];
    if (stripe < kCounterStripes) {
      // Only this thread writes an owned stripe.
      value.store(value.load(std::memory_order_relaxed) + delta,
                  std::memory_order_relaxed);
    } else {
      value.fetch_add(delta, std::memory_order_relaxed);
    }
  }

  int64_t Sum(size_t counter) const {
    int64_t total = 0;
    for (const Stripe& stripe : stripes_) {
      total += stripe.values[counter].load(std::memory_order_relaxed);
    }
    return total;
  }

  // Zeroes one counter. Not synchronized with concurrent Add.
  void Reset(size_t counter) {
    for (Stripe& stripe : stripes_) {
      stripe.values[counter].store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(kCacheLineBytes) Stripe {
    std::atomic<int64_t> values[N] = {};
  };

  mutable std::array<Stripe, kCounterStripes + 1> stripes_;
};

}  // namespace aceso

#endif  // SRC_COMMON_STRIPED_COUNTERS_H_
