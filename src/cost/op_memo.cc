#include "src/cost/op_memo.h"

#include <algorithm>

#include "src/cost/perf_model.h"

namespace aceso {
namespace {

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

}  // namespace

struct OpBreakdownMemo::Entry {
  uint64_t key = 0;
  OpBreakdown value;
};

OpBreakdownMemo::OpBreakdownMemo(const OpMemoOptions& options)
    : enabled_(options.enabled) {
  const size_t capacity = RoundUpPow2(std::max<size_t>(options.capacity, 64));
  mask_ = capacity - 1;
  slots_ = std::vector<std::atomic<const Entry*>>(capacity);
  for (auto& slot : slots_) {
    slot.store(nullptr, std::memory_order_relaxed);
  }
}

OpBreakdownMemo::~OpBreakdownMemo() { Clear(); }

void OpBreakdownMemo::Clear() {
  for (auto& slot : slots_) {
    delete slot.exchange(nullptr, std::memory_order_acq_rel);
  }
  entries_.store(0, std::memory_order_relaxed);
}

const OpBreakdown* OpBreakdownMemo::Lookup(uint64_t key) const {
  if (!enabled_) {
    return nullptr;
  }
  size_t index = static_cast<size_t>(key) & mask_;
  for (size_t probe = 0; probe < kMaxProbe; ++probe) {
    const Entry* entry = slots_[index].load(std::memory_order_acquire);
    if (entry == nullptr) {
      // Inserts fill slots from the home position without ever clearing
      // them, so an empty slot ends every probe sequence for this key.
      break;
    }
    if (entry->key == key) {
      counters_.Add(kHits);
      return &entry->value;
    }
    index = (index + 1) & mask_;
  }
  counters_.Add(kMisses);
  return nullptr;
}

const OpBreakdown* OpBreakdownMemo::Insert(uint64_t key,
                                           const OpBreakdown& value) {
  if (!enabled_) {
    return nullptr;
  }
  // 7/8 occupancy cap: past it, probe runs lengthen sharply and the memo
  // has clearly been sized below the working set — dropping inserts keeps
  // lookups fast and memory bounded.
  if (entries_.load(std::memory_order_relaxed) >=
      static_cast<int64_t>((mask_ + 1) - ((mask_ + 1) >> 3))) {
    counters_.Add(kInsertsDropped);
    return nullptr;
  }
  Entry* fresh = nullptr;
  size_t index = static_cast<size_t>(key) & mask_;
  for (size_t probe = 0; probe < kMaxProbe; ++probe) {
    const Entry* entry = slots_[index].load(std::memory_order_acquire);
    if (entry == nullptr) {
      if (fresh == nullptr) {
        fresh = new Entry;
        fresh->key = key;
        fresh->value = value;
      }
      const Entry* expected = nullptr;
      if (slots_[index].compare_exchange_strong(expected, fresh,
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
        entries_.fetch_add(1, std::memory_order_relaxed);
        return &fresh->value;
      }
      entry = expected;  // lost the race; fall through to examine the winner
    }
    if (entry->key == key) {
      // First-writer-wins: someone published this key (necessarily with the
      // same bits — the value is a pure function of the key's inputs).
      delete fresh;
      return &entry->value;
    }
    index = (index + 1) & mask_;
  }
  delete fresh;
  counters_.Add(kInsertsDropped);
  return nullptr;
}

OpMemoStats OpBreakdownMemo::stats() const {
  OpMemoStats s;
  s.hits = counters_.Sum(kHits);
  s.misses = counters_.Sum(kMisses);
  s.inserts_dropped = counters_.Sum(kInsertsDropped);
  s.entries = entries_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace aceso
