#include "src/serve/plan_cache.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace aceso {
namespace serve {
namespace {

// Normalized magnitude delta in [0, 1]: 0 for equal, ->1 as the values
// diverge. Both arguments non-negative.
double DeltaScore(double a, double b) {
  if (a == b) {
    return 0.0;
  }
  const double m = std::max(a, b);
  return m > 0.0 ? std::abs(a - b) / m : 0.0;
}

// Memory budgets compare specially: 0 means "device capacity", which is
// only a zero-delta match against another capacity request — against an
// explicit budget the plans were judged under different verdicts, so the
// pair takes the full penalty.
double BudgetDelta(int64_t a, int64_t b) {
  const bool cap_a = a <= 0;
  const bool cap_b = b <= 0;
  if (cap_a && cap_b) {
    return 0.0;
  }
  if (cap_a != cap_b) {
    return 1.0;
  }
  return DeltaScore(static_cast<double>(a), static_cast<double>(b));
}

}  // namespace

std::optional<CachedPlan> PlanCache::Get(uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->plan;
}

void PlanCache::UnhookNeighborLocked(const Entry& entry) {
  if (!entry.neighbor.has_value()) {
    return;
  }
  auto fit = families_.find(entry.family);
  if (fit == families_.end()) {
    return;
  }
  auto& keys = fit->second;
  keys.erase(std::remove(keys.begin(), keys.end(), entry.key), keys.end());
  if (keys.empty()) {
    families_.erase(fit);
  }
}

void PlanCache::Put(uint64_t key, CachedPlan plan) {
  if (options_.capacity == 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->plan = std::move(plan);
    it->second->derived.clear();
    UnhookNeighborLocked(*it->second);
    it->second->neighbor.reset();
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(plan), {}, 0, std::nullopt});
  index_[key] = lru_.begin();
  ++stats_.inserts;
  while (lru_.size() > options_.capacity) {
    UnhookNeighborLocked(lru_.back());
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

std::shared_ptr<const std::string> PlanCache::GetDerived(uint64_t key,
                                                         uint64_t variant) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  for (const auto& [v, payload] : it->second->derived) {
    if (v == variant) {
      ++stats_.derived_hits;
      return payload;
    }
  }
  ++stats_.derived_misses;
  return nullptr;
}

void PlanCache::PutDerived(uint64_t key, uint64_t variant,
                           std::shared_ptr<const std::string> payload) {
  if (options_.capacity == 0 || payload == nullptr ||
      options_.max_derived_payloads == 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    return;  // entry evicted between render and publish — nothing to attach
  }
  auto& derived = it->second->derived;
  for (auto& [v, existing] : derived) {
    if (v == variant) {
      existing = std::move(payload);
      return;
    }
  }
  while (derived.size() >= options_.max_derived_payloads) {
    derived.erase(derived.begin());
    ++stats_.derived_evictions;
  }
  derived.emplace_back(variant, std::move(payload));
  ++stats_.derived_inserts;
}

void PlanCache::AttachNeighbor(uint64_t key, uint64_t family,
                               NeighborPlan plan) {
  if (options_.capacity == 0 || plan.config == nullptr) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    return;  // entry evicted between search and registration
  }
  UnhookNeighborLocked(*it->second);  // re-registration replaces cleanly
  it->second->family = family;
  it->second->neighbor = std::move(plan);
  families_[family].push_back(key);
}

std::optional<NeighborPlan> PlanCache::FindNeighbor(
    uint64_t family, uint64_t exclude_key, int num_ops, int num_gpus,
    int64_t memory_budget_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.neighbor_probes;
  auto fit = families_.find(family);
  if (fit == families_.end()) {
    return std::nullopt;
  }
  const NeighborPlan* best = nullptr;
  double best_score = 0.0;
  for (const uint64_t key : fit->second) {
    if (key == exclude_key) {
      continue;
    }
    auto it = index_.find(key);
    if (it == index_.end() || !it->second->neighbor.has_value()) {
      continue;  // stale registration; unhooked lazily on next eviction
    }
    const NeighborPlan& plan = *it->second->neighbor;
    const double score =
        DeltaScore(plan.num_ops, num_ops) + DeltaScore(plan.num_gpus, num_gpus) +
        BudgetDelta(plan.memory_budget_bytes, memory_budget_bytes);
    if (best == nullptr || score < best_score) {
      best = &plan;
      best_score = score;
    }
  }
  if (best == nullptr) {
    return std::nullopt;
  }
  ++stats_.neighbor_hits;
  return *best;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace serve
}  // namespace aceso
