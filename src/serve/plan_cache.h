// The cross-request plan cache of the planning daemon (DESIGN.md §14, §16,
// §17).
//
// Keyed by PlanCacheKey — the composed semantic fingerprint of (model IR,
// cluster spec, answer-determining SearchOptions). Because fixed-seed
// searches under a deterministic budget are bit-reproducible, two requests
// with equal keys can only produce the same plan, so a hit replays the
// stored response payload without re-entering AcesoSearch at all.
//
// Values are the *pre-serialized* payload JSON (BuildPlanPayload) behind a
// `shared_ptr<const string>`: immutable, and shared by reference all the
// way into the HTTP connection's writev iovec, so a cache hit constructs
// no JSON and copies no payload bytes (zero-serialization, DESIGN.md §16).
// Each entry also holds a small set of *derived* payloads — re-renderings
// of the entry keyed by a variant hash (e.g. a budget-sweep's budget list)
// — so repeat sweeps against a cached frontier skip re-serialization too.
//
// Beside the exact LRU sits a *similarity index* (DESIGN.md §17): entries
// whose search adopted a plan register it under a model-family × cluster-
// family fingerprint, and a cache miss probes its family bucket for the
// nearest neighbor — scored by normalized layer-count, device-count, and
// memory-budget deltas — whose plan the serving layer adapts into a search
// seed (src/core/seed_adapt.h). Neighbor plans ride the LRU: eviction or
// refresh of the exact entry unhooks its neighbor registration.
//
// LRU with a fixed entry capacity; thread-safe (one mutex — the cache sits
// on the request admission path, not inside any search loop); the counters
// are bumped under the same mutex.

#ifndef SRC_SERVE_PLAN_CACHE_H_
#define SRC_SERVE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/hash.h"
#include "src/common/stat_fields.h"
#include "src/config/parallel_config.h"

namespace aceso {
namespace serve {

struct PlanCacheOptions {
  // Max entries; 0 disables caching (every Get is a miss and Put is a
  // no-op), which keeps the daemon's cache=off mode trivial.
  size_t capacity = 64;
  // Max derived (per-entry variant) payloads kept per entry, oldest dropped
  // first; drops count toward derived_evictions.
  size_t max_derived_payloads = 8;
};

struct PlanCacheStats : StatsSnapshot<PlanCacheStats> {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t inserts = 0;
  int64_t evictions = 0;
  // Derived-payload (per-entry variant) traffic, e.g. budget sweeps.
  int64_t derived_hits = 0;
  int64_t derived_misses = 0;
  int64_t derived_inserts = 0;
  // Variants dropped by the per-entry cap (PlanCacheOptions::
  // max_derived_payloads), not by entry eviction.
  int64_t derived_evictions = 0;
  // Similarity-index traffic: FindNeighbor calls, and the subset that
  // returned a registered neighbor plan.
  int64_t neighbor_probes = 0;
  int64_t neighbor_hits = 0;

  static constexpr StatField<PlanCacheStats> kFields[] = {
      {"hits", &PlanCacheStats::hits},
      {"misses", &PlanCacheStats::misses},
      {"inserts", &PlanCacheStats::inserts},
      {"evictions", &PlanCacheStats::evictions},
      {"derived_hits", &PlanCacheStats::derived_hits},
      {"derived_misses", &PlanCacheStats::derived_misses},
      {"derived_inserts", &PlanCacheStats::derived_inserts},
      {"derived_evictions", &PlanCacheStats::derived_evictions},
      {"neighbor_probes", &PlanCacheStats::neighbor_probes},
      {"neighbor_hits", &PlanCacheStats::neighbor_hits},
  };
};
static_assert(StatTableCovers<PlanCacheStats>(/*gauges=*/0));

// One cached outcome: the shared response payload plus the headline numbers
// the daemon logs without re-parsing its own JSON.
struct CachedPlan {
  std::shared_ptr<const std::string> payload_json;
  bool found = false;
  double iteration_time = 0.0;
};

// A plan registered with the similarity index: the adopted configuration
// plus the request features the nearest-neighbor score compares. The config
// is shared and immutable — probes hand it out by reference, adaptation
// copies-on-write.
struct NeighborPlan {
  std::shared_ptr<const ParallelConfig> config;
  int num_ops = 0;
  int num_gpus = 0;
  // Per-device memory budget the plan was searched under (0 = device
  // capacity).
  int64_t memory_budget_bytes = 0;
  double iteration_time = 0.0;
};

class PlanCache {
 public:
  explicit PlanCache(PlanCacheOptions options) : options_(options) {}
  // Entry-capacity-only convenience (derived cap stays at the default).
  explicit PlanCache(size_t capacity)
      : PlanCache(PlanCacheOptions{.capacity = capacity}) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  // Looks up `key`, refreshing its LRU position on a hit.
  std::optional<CachedPlan> Get(uint64_t key);

  // Inserts (or refreshes) `key`. Evicts the least-recently-used entry when
  // over capacity. Refreshing drops the entry's derived payloads and its
  // neighbor registration (both were rendered from the replaced payload).
  void Put(uint64_t key, CachedPlan plan);

  // Derived payloads: immutable re-renderings of the entry identified by
  // (key, variant). A hit refreshes the entry's LRU position; a miss on a
  // *present* entry counts toward derived_misses (a miss on an absent entry
  // is just nullptr — the caller has no base payload to derive from either).
  std::shared_ptr<const std::string> GetDerived(uint64_t key,
                                                uint64_t variant);
  // Attaches a derived payload to an existing entry (no-op when the entry
  // has been evicted). At most options.max_derived_payloads variants are
  // kept per entry, oldest dropped first (derived_evictions counts drops).
  void PutDerived(uint64_t key, uint64_t variant,
                  std::shared_ptr<const std::string> payload);

  // Registers `plan` with the similarity index under `family`, attached to
  // the existing exact entry for `key` (no-op when the entry has been
  // evicted — a neighbor plan never outlives its exact entry).
  void AttachNeighbor(uint64_t key, uint64_t family, NeighborPlan plan);

  // Probes family `family` for the registered plan nearest to the request
  // features (normalized |Δops| + |Δgpus| + |Δbudget|; a budget of 0 means
  // device capacity and scores 0 against 0, a full penalty against any
  // explicit budget). Skips the exact entry `exclude_key` — a neighbor probe
  // only runs on a miss, but the runner's own earlier generation may still
  // be registered. Deterministic: strictly-better score wins, ties keep the
  // earliest-registered plan. Read-only (no LRU refresh).
  std::optional<NeighborPlan> FindNeighbor(uint64_t family,
                                           uint64_t exclude_key, int num_ops,
                                           int num_gpus,
                                           int64_t memory_budget_bytes);

  size_t size() const;
  size_t capacity() const { return options_.capacity; }
  size_t max_derived_payloads() const { return options_.max_derived_payloads; }
  PlanCacheStats stats() const;

 private:
  struct Entry {
    uint64_t key = 0;
    CachedPlan plan;
    // Small, ordered oldest→newest; linear scan beats a map at this size.
    std::vector<std::pair<uint64_t, std::shared_ptr<const std::string>>>
        derived;
    // Similarity-index registration (nullopt = not registered). `family` is
    // only meaningful when `neighbor` is set.
    uint64_t family = 0;
    std::optional<NeighborPlan> neighbor;
  };

  // Removes `entry`'s neighbor registration from its family bucket (no-op
  // when unregistered). Caller holds mu_.
  void UnhookNeighborLocked(const Entry& entry);

  const PlanCacheOptions options_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<uint64_t, std::list<Entry>::iterator, IdentityHash>
      index_;
  // family fingerprint -> keys of registered entries, registration order.
  std::unordered_map<uint64_t, std::vector<uint64_t>, IdentityHash> families_;
  PlanCacheStats stats_;
};

}  // namespace serve
}  // namespace aceso

#endif  // SRC_SERVE_PLAN_CACHE_H_
