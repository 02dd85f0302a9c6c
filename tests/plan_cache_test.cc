#include "src/serve/plan_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/ir/models/model_zoo.h"
#include "src/serve/plan_protocol.h"

namespace aceso {
namespace serve {
namespace {

CachedPlan Plan(const std::string& payload) {
  CachedPlan plan;
  plan.payload_json = std::make_shared<const std::string>(payload);
  plan.found = true;
  return plan;
}

TEST(PlanCacheTest, GetReturnsWhatPutStored) {
  PlanCache cache(4);
  EXPECT_FALSE(cache.Get(1).has_value());
  cache.Put(1, Plan("one"));
  auto hit = cache.Get(1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit->payload_json, "one");
  EXPECT_TRUE(hit->found);
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.inserts, 1);
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsed) {
  PlanCache cache(2);
  cache.Put(1, Plan("one"));
  cache.Put(2, Plan("two"));
  // Touch 1 so 2 becomes the LRU entry, then overflow.
  EXPECT_TRUE(cache.Get(1).has_value());
  cache.Put(3, Plan("three"));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Get(1).has_value());
  EXPECT_FALSE(cache.Get(2).has_value());
  EXPECT_TRUE(cache.Get(3).has_value());
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(PlanCacheTest, PutRefreshesExistingEntry) {
  PlanCache cache(2);
  cache.Put(1, Plan("one"));
  cache.Put(2, Plan("two"));
  cache.Put(1, Plan("one again"));  // refresh, not insert: 2 is now LRU
  cache.Put(3, Plan("three"));
  EXPECT_EQ(*cache.Get(1)->payload_json, "one again");
  EXPECT_FALSE(cache.Get(2).has_value());
  EXPECT_EQ(cache.stats().inserts, 3);
}

TEST(PlanCacheTest, DerivedPayloadsRoundTripAndAreScopedToTheEntry) {
  PlanCache cache(4);
  cache.Put(1, Plan("base"));
  EXPECT_EQ(cache.GetDerived(1, 42), nullptr);  // present entry, no variant
  auto sweep = std::make_shared<const std::string>("sweep for budgets A");
  cache.PutDerived(1, 42, sweep);
  auto hit = cache.GetDerived(1, 42);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), sweep.get()) << "shared by reference, not copied";
  EXPECT_EQ(cache.GetDerived(1, 43), nullptr);  // other variant
  EXPECT_EQ(cache.GetDerived(2, 42), nullptr);  // absent entry: not a miss
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.derived_hits, 1);
  EXPECT_EQ(stats.derived_misses, 2);
  EXPECT_EQ(stats.derived_inserts, 1);
}

TEST(PlanCacheTest, RefreshingAnEntryDropsItsDerivedPayloads) {
  // Derived payloads are renderings of the entry's payload; replacing the
  // payload must invalidate them or a sweep could replay stale data.
  PlanCache cache(4);
  cache.Put(1, Plan("v1"));
  cache.PutDerived(1, 7, std::make_shared<const std::string>("from v1"));
  cache.Put(1, Plan("v2"));
  EXPECT_EQ(cache.GetDerived(1, 7), nullptr);
}

TEST(PlanCacheTest, DerivedPayloadsAreCappedPerEntry) {
  PlanCache cache(PlanCacheOptions{.capacity = 4, .max_derived_payloads = 3});
  cache.Put(1, Plan("base"));
  for (uint64_t v = 0; v < 3 + 3; ++v) {
    cache.PutDerived(
        1, v, std::make_shared<const std::string>("d" + std::to_string(v)));
  }
  // Oldest variants were dropped (and counted); the newest 3 survive.
  EXPECT_EQ(cache.GetDerived(1, 0), nullptr);
  EXPECT_EQ(cache.GetDerived(1, 2), nullptr);
  ASSERT_NE(cache.GetDerived(1, 3), nullptr);
  ASSERT_NE(cache.GetDerived(1, 5), nullptr);
  EXPECT_EQ(cache.stats().derived_evictions, 3);
}

TEST(PlanCacheTest, ZeroDerivedCapKeepsNoVariants) {
  PlanCache cache(PlanCacheOptions{.capacity = 4, .max_derived_payloads = 0});
  cache.Put(1, Plan("base"));
  cache.PutDerived(1, 7, std::make_shared<const std::string>("variant"));
  EXPECT_EQ(cache.GetDerived(1, 7), nullptr);
  EXPECT_EQ(cache.stats().derived_inserts, 0);
}

TEST(PlanCacheTest, PutDerivedOnMissingEntryIsANoOp) {
  PlanCache cache(2);
  cache.PutDerived(99, 1, std::make_shared<const std::string>("orphan"));
  EXPECT_EQ(cache.GetDerived(99, 1), nullptr);
  EXPECT_EQ(cache.stats().derived_inserts, 0);
}

TEST(PlanCacheTest, ZeroCapacityDisablesCaching) {
  PlanCache cache(0);
  cache.Put(1, Plan("one"));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Get(1).has_value());
  EXPECT_EQ(cache.stats().inserts, 0);
}

// ---- similarity index (DESIGN.md §17) ----

NeighborPlan Neighbor(int num_ops, int num_gpus,
                      int64_t memory_budget_bytes = 0) {
  NeighborPlan plan;
  plan.config = std::make_shared<const ParallelConfig>();
  plan.num_ops = num_ops;
  plan.num_gpus = num_gpus;
  plan.memory_budget_bytes = memory_budget_bytes;
  return plan;
}

TEST(PlanCacheTest, FindNeighborPicksTheNearestRegisteredPlan) {
  PlanCache cache(8);
  cache.Put(1, Plan("24 layers"));
  cache.Put(2, Plan("48 layers"));
  constexpr uint64_t kFamily = 0xF00D;
  cache.AttachNeighbor(1, kFamily, Neighbor(/*num_ops=*/24, /*num_gpus=*/8));
  cache.AttachNeighbor(2, kFamily, Neighbor(/*num_ops=*/48, /*num_gpus=*/8));

  // A 28-op request is closer to 24 than to 48.
  auto hit = cache.FindNeighbor(kFamily, /*exclude_key=*/99, /*num_ops=*/28,
                                /*num_gpus=*/8, /*memory_budget_bytes=*/0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->num_ops, 24);

  // A 44-op request flips to the other plan.
  hit = cache.FindNeighbor(kFamily, 99, 44, 8, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->num_ops, 48);

  // A different family bucket is empty.
  EXPECT_FALSE(cache.FindNeighbor(kFamily + 1, 99, 28, 8, 0).has_value());

  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.neighbor_probes, 3);
  EXPECT_EQ(stats.neighbor_hits, 2);
}

TEST(PlanCacheTest, FindNeighborSkipsTheExcludedKey) {
  // The only registered plan is the request's own entry: the probe must not
  // hand a search its own prior answer as a "neighbor".
  PlanCache cache(8);
  cache.Put(1, Plan("self"));
  constexpr uint64_t kFamily = 7;
  cache.AttachNeighbor(1, kFamily, Neighbor(24, 8));
  EXPECT_FALSE(cache.FindNeighbor(kFamily, /*exclude_key=*/1, 24, 8, 0)
                   .has_value());
  EXPECT_TRUE(cache.FindNeighbor(kFamily, /*exclude_key=*/2, 24, 8, 0)
                  .has_value());
}

TEST(PlanCacheTest, ExplicitBudgetsPreferBudgetedNeighbors) {
  // 0 means "device capacity": capacity-to-capacity is a perfect budget
  // match, capacity-to-explicit takes the full penalty — the plans were
  // verdicted under different limits.
  PlanCache cache(8);
  cache.Put(1, Plan("capacity"));
  cache.Put(2, Plan("16GiB"));
  constexpr uint64_t kFamily = 7;
  constexpr int64_t kGiB = 1LL << 30;
  cache.AttachNeighbor(1, kFamily, Neighbor(24, 8, 0));
  cache.AttachNeighbor(2, kFamily, Neighbor(24, 8, 16 * kGiB));

  auto hit = cache.FindNeighbor(kFamily, 99, 24, 8, /*budget=*/0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->memory_budget_bytes, 0);

  hit = cache.FindNeighbor(kFamily, 99, 24, 8, /*budget=*/14 * kGiB);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->memory_budget_bytes, 16 * kGiB);
}

TEST(PlanCacheTest, EvictionUnhooksTheNeighborRegistration) {
  PlanCache cache(2);
  cache.Put(1, Plan("one"));
  constexpr uint64_t kFamily = 7;
  cache.AttachNeighbor(1, kFamily, Neighbor(24, 8));
  ASSERT_TRUE(cache.FindNeighbor(kFamily, 99, 24, 8, 0).has_value());
  // Overflow the LRU so entry 1 (least recent) is evicted.
  cache.Put(2, Plan("two"));
  cache.Put(3, Plan("three"));
  EXPECT_FALSE(cache.Get(1).has_value());
  EXPECT_FALSE(cache.FindNeighbor(kFamily, 99, 24, 8, 0).has_value())
      << "a neighbor plan must not outlive its exact entry";
}

TEST(PlanCacheTest, RefreshDropsTheNeighborRegistration) {
  // Refreshing replaces the payload; the registered plan was the old
  // payload's and must go with it (the runner re-attaches after the new
  // search).
  PlanCache cache(4);
  cache.Put(1, Plan("v1"));
  constexpr uint64_t kFamily = 7;
  cache.AttachNeighbor(1, kFamily, Neighbor(24, 8));
  cache.Put(1, Plan("v2"));
  EXPECT_FALSE(cache.FindNeighbor(kFamily, 99, 24, 8, 0).has_value());
}

TEST(PlanCacheTest, AttachNeighborToMissingEntryIsANoOp) {
  PlanCache cache(2);
  cache.AttachNeighbor(99, /*family=*/7, Neighbor(24, 8));
  EXPECT_FALSE(cache.FindNeighbor(7, 0, 24, 8, 0).has_value());
}

// ---- keying: PlanCacheKey over the parsed request ----

class PlanCacheKeyTest : public ::testing::Test {
 protected:
  // The key a request denotes, end to end: build the model, derive the
  // cluster and options exactly like the service does.
  static uint64_t KeyOf(const PlanRequest& request) {
    auto graph = models::BuildByName(request.model);
    EXPECT_TRUE(graph.ok()) << graph.status().ToString();
    const ClusterSpec cluster = ClusterSpec::WithGpuCount(request.gpus);
    return PlanCacheKey(*graph, cluster, ToSearchOptions(request));
  }

  static PlanRequest BaseRequest() {
    PlanRequest request;
    request.model = "gpt3-0.35b";
    request.gpus = 4;
    request.max_evaluations = 50;
    return request;
  }
};

// The key formulas as they stood before the graph cached its identity,
// re-derived from every operator on each call. The O(1) keys must equal
// them on every zoo model: the key contract did not move.
uint64_t RecomputedSemanticFingerprint(const OpGraph& graph) {
  Hasher h;
  h.Add(static_cast<int>(graph.precision()));
  h.Add(graph.global_batch_size());
  h.Add(graph.num_ops());
  for (const Operator& op : graph.ops()) {
    Hasher per_op;
    per_op.Add(op.Signature());
    per_op.Add(static_cast<int>(op.default_tp_dim));
    h.Add(Mix64(per_op.Digest()));
  }
  return h.Digest();
}

uint64_t RecomputedPlanCacheKey(const OpGraph& graph,
                                const ClusterSpec& cluster,
                                const SearchOptions& options) {
  Hasher h;
  h.Add(Mix64(RecomputedSemanticFingerprint(graph)));
  h.Add(Mix64(cluster.Fingerprint()));
  h.Add(Mix64(SearchOptionsSemanticHash(options)));
  return Mix64(h.Digest());
}

uint64_t RecomputedNeighborFamilyKey(const OpGraph& graph,
                                     const ClusterSpec& cluster) {
  Hasher model;
  model.Add(static_cast<int>(graph.precision()));
  std::vector<uint64_t> seen;
  for (const Operator& op : graph.ops()) {
    const uint64_t sig = op.Signature();
    if (std::find(seen.begin(), seen.end(), sig) == seen.end()) {
      seen.push_back(sig);
      model.Add(sig);
    }
  }
  model.Add(static_cast<int64_t>(seen.size()));
  Hasher family;
  family.Add(cluster.gpu.Fingerprint());
  family.Add(cluster.nvlink_bandwidth);
  family.Add(cluster.nvlink_latency);
  family.Add(cluster.ib_bandwidth);
  family.Add(cluster.ib_latency);
  return HashCombine(Mix64(model.Digest()), Mix64(family.Digest()));
}

TEST_F(PlanCacheKeyTest, CachedIdentityKeysEqualTheRecomputedFormulas) {
  std::vector<std::string> names = models::ZooNames();
  names.push_back("deepnet-16");
  names.push_back("deepnet-256");
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(16);
  const SearchOptions options = ToSearchOptions(BaseRequest());
  for (const std::string& name : names) {
    auto graph = models::BuildByName(name);
    ASSERT_TRUE(graph.ok()) << name;
    // Twice: the first call fills the graph's cache, the second reads it.
    for (int round = 0; round < 2; ++round) {
      EXPECT_EQ(graph->SemanticFingerprint(),
                RecomputedSemanticFingerprint(*graph))
          << name;
      EXPECT_EQ(PlanCacheKey(*graph, cluster, options),
                RecomputedPlanCacheKey(*graph, cluster, options))
          << name;
      EXPECT_EQ(NeighborFamilyKey(*graph, cluster),
                RecomputedNeighborFamilyKey(*graph, cluster))
          << name;
    }
  }
}

TEST_F(PlanCacheKeyTest, KeyValuesArePinned) {
  // Literal values of the key contract; a change here invalidates every
  // persisted or replicated plan-cache key and must be deliberate.
  struct Pin {
    const char* model;
    int gpus;
    uint64_t fingerprint;
    uint64_t plan_key;
    uint64_t family_key;
  };
  const Pin pins[] = {
      {"gpt3-0.35b", 4, 0xd7430267d1e3e1a6ULL, 0xa09ccfc7728b86bfULL,
       0xe88505bfbdffaa1bULL},
      {"deepnet-256", 16, 0x3181a1f2ba3db2b6ULL, 0x22edb55c8c507ed3ULL,
       0x6858621eed5c91a9ULL},
  };
  const SearchOptions options = ToSearchOptions(BaseRequest());
  for (const Pin& pin : pins) {
    auto graph = models::BuildByName(pin.model);
    ASSERT_TRUE(graph.ok()) << pin.model;
    const ClusterSpec cluster = ClusterSpec::WithGpuCount(pin.gpus);
    EXPECT_EQ(graph->SemanticFingerprint(), pin.fingerprint) << pin.model;
    EXPECT_EQ(PlanCacheKey(*graph, cluster, options), pin.plan_key)
        << pin.model;
    EXPECT_EQ(NeighborFamilyKey(*graph, cluster), pin.family_key)
        << pin.model;
  }
}

TEST_F(PlanCacheKeyTest, NonSemanticFieldsDoNotChangeTheKey) {
  const uint64_t base = KeyOf(BaseRequest());

  PlanRequest request = BaseRequest();
  request.request_id = "r-123";
  request.client = "curl";
  request.stream = true;
  EXPECT_EQ(KeyOf(request), base)
      << "bookkeeping fields must not fragment the cache";
}

TEST_F(PlanCacheKeyTest, SemanticFieldsChangeTheKey) {
  const uint64_t base = KeyOf(BaseRequest());

  PlanRequest request = BaseRequest();
  request.model = "gpt3-1.3b";
  EXPECT_NE(KeyOf(request), base);

  request = BaseRequest();
  request.gpus = 8;
  EXPECT_NE(KeyOf(request), base);

  request = BaseRequest();
  request.seed = 7;
  EXPECT_NE(KeyOf(request), base);

  request = BaseRequest();
  request.budget_seconds = 9.5;
  EXPECT_NE(KeyOf(request), base);

  request = BaseRequest();
  request.max_evaluations = 51;
  EXPECT_NE(KeyOf(request), base);

  request = BaseRequest();
  request.max_hops = 3;
  EXPECT_NE(KeyOf(request), base);

  request = BaseRequest();
  request.stages = 2;
  EXPECT_NE(KeyOf(request), base);

  request = BaseRequest();
  request.seed_mode = SeedMode::kDp;
  EXPECT_NE(KeyOf(request), base);

  request = BaseRequest();
  request.top_k = 2;
  EXPECT_NE(KeyOf(request), base);
}

TEST_F(PlanCacheKeyTest, FrontierAndBudgetFieldsKeySeparately) {
  // ISSUE-8 regression: `frontier` and `memory_budget_bytes` are semantic —
  // the first adds a member to the answer, the second changes every
  // feasibility verdict — so requests differing only in them must never
  // collide (a collision replays a payload computed under the wrong limit,
  // or one with no frontier to derive a sweep from).
  const uint64_t base = KeyOf(BaseRequest());

  PlanRequest request = BaseRequest();
  request.frontier = true;
  const uint64_t frontier_key = KeyOf(request);
  EXPECT_NE(frontier_key, base);

  request = BaseRequest();
  request.memory_budget_bytes = 16LL * (1LL << 30);
  const uint64_t budget16 = KeyOf(request);
  EXPECT_NE(budget16, base);
  EXPECT_NE(budget16, frontier_key);

  request = BaseRequest();
  request.memory_budget_bytes = 8LL * (1LL << 30);
  const uint64_t budget8 = KeyOf(request);
  EXPECT_NE(budget8, base);
  EXPECT_NE(budget8, budget16);

  // A cache seeded by one budget must miss for the other.
  PlanCache cache(4);
  cache.Put(budget16, Plan("under 16 GiB"));
  EXPECT_FALSE(cache.Get(budget8).has_value());
  EXPECT_EQ(*cache.Get(budget16)->payload_json, "under 16 GiB");
}

TEST_F(PlanCacheKeyTest, BudgetSweepKeysAsItsBaseFrontierRequest) {
  // The sweep list is a lookup input, not a search input: a sweep request
  // must key exactly like the frontier request whose archive answers it —
  // that equality is what lets a warm cache serve the whole sweep without
  // re-entering the search.
  PlanRequest frontier_request = BaseRequest();
  frontier_request.frontier = true;
  const uint64_t frontier_key = KeyOf(frontier_request);

  PlanRequest sweep = BaseRequest();
  sweep.memory_budgets = {8LL * (1LL << 30), 16LL * (1LL << 30)};
  EXPECT_EQ(KeyOf(sweep), frontier_key);

  PlanRequest other_sweep = BaseRequest();
  other_sweep.memory_budgets = {4LL * (1LL << 30)};
  EXPECT_EQ(KeyOf(other_sweep), frontier_key)
      << "different budget lists share the one cached frontier";
}

TEST_F(PlanCacheKeyTest, GpuPriceChangesTheKey) {
  // The frontier payload carries a $/step axis derived from the GPU's
  // hourly price, so a re-priced cluster must not replay payloads priced
  // under the old rate.
  auto graph = models::BuildByName("gpt3-0.35b");
  ASSERT_TRUE(graph.ok());
  const SearchOptions options =
      ToSearchOptions(BaseRequest());
  ClusterSpec cluster = ClusterSpec::WithGpuCount(4);
  const uint64_t base = PlanCacheKey(*graph, cluster, options);
  cluster.gpu.price_per_hour_usd *= 2.0;
  EXPECT_NE(PlanCacheKey(*graph, cluster, options), base);
}

TEST_F(PlanCacheKeyTest, FuzzNonSemanticPerturbationsAlwaysHit) {
  // Property fuzz in the spirit of the hash fuzz suite: any combination of
  // non-semantic perturbations keeps the key; flipping one semantic field
  // on top changes it.
  Rng rng(20240808);
  const uint64_t base = KeyOf(BaseRequest());
  for (int trial = 0; trial < 200; ++trial) {
    PlanRequest request = BaseRequest();
    if (rng.NextBelow(2) == 1) {
      request.request_id = "r" + std::to_string(rng.NextU64());
    }
    if (rng.NextBelow(2) == 1) {
      request.client = "client" + std::to_string(rng.NextBelow(100));
    }
    if (rng.NextBelow(2) == 1) request.stream = true;
    ASSERT_EQ(KeyOf(request), base) << "trial " << trial;

    switch (rng.NextBelow(4)) {
      case 0:
        request.seed += 1 + rng.NextBelow(1000);
        break;
      case 1:
        request.max_evaluations += 1 + static_cast<int64_t>(rng.NextBelow(9));
        break;
      case 2:
        // 1..6, never the base's 7.
        request.max_hops = 1 + static_cast<int>(rng.NextBelow(6));
        break;
      default:
        request.top_k = 6 + static_cast<int>(rng.NextBelow(4));
        break;
    }
    ASSERT_NE(KeyOf(request), base) << "trial " << trial;
  }
}

}  // namespace
}  // namespace serve
}  // namespace aceso
