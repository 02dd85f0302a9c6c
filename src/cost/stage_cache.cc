#include "src/cost/stage_cache.h"

#include <algorithm>

#include "src/cost/perf_model.h"

namespace aceso {
namespace {

size_t CeilPow2(size_t n) {
  size_t p = 1;
  while (p < n) {
    p *= 2;
  }
  return p;
}

}  // namespace

StageCostCache::StageCostCache(const StageCacheOptions& options)
    : options_(options) {
  options_.capacity = std::max<size_t>(options_.capacity, 1);
  size_t shards = CeilPow2(std::max<size_t>(options_.num_shards, 1));
  shards = std::min(shards, CeilPow2(options_.capacity));
  shard_mask_ = shards - 1;
  // Ceil-divide so shard capacities sum to >= capacity (never below, so a
  // small capacity with many shards still caches something per shard).
  shard_capacity_ = (options_.capacity + shards - 1) / shards;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::shared_ptr<const StageCost> StageCostCache::Lookup(uint64_t key) const {
  if (!options_.enabled) {
    return nullptr;
  }
  Shard& shard = ShardFor(key);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      counters_.Add<&StageCacheStats::hits>();
      return it->second;
    }
  }
  counters_.Add<&StageCacheStats::misses>();
  return nullptr;
}

void StageCostCache::Insert(uint64_t key,
                            std::shared_ptr<const StageCost> cost) {
  if (!options_.enabled) {
    return;
  }
  Shard& shard = ShardFor(key);
  int64_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto [it, inserted] = shard.entries.emplace(key, std::move(cost));
    (void)it;
    if (!inserted) {
      return;  // racing insert of the same stage walk; first value wins
    }
    shard.insertion_order.push_back(key);
    while (shard.entries.size() > shard_capacity_) {
      shard.entries.erase(shard.insertion_order.front());
      shard.insertion_order.pop_front();
      ++evicted;
    }
  }
  if (evicted > 0) {
    counters_.Add<&StageCacheStats::evictions>(evicted);
  }
}

void StageCostCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->entries.clear();
    shard->insertion_order.clear();
  }
}

StageCacheStats StageCostCache::stats() const {
  StageCacheStats s = counters_.Snapshot();
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    s.entries += static_cast<int64_t>(shard->entries.size());
  }
  return s;
}

}  // namespace aceso
