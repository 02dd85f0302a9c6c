#include "src/core/frontier.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/core/search.h"
#include "src/ir/models/model_zoo.h"

namespace aceso {
namespace {

constexpr int64_t kGiB = 1LL << 30;

// A synthetic offer: the archive only reads (time, MaxMemory, oom) from the
// PerfResult and treats the hash as an opaque dedup key, so unit tests can
// drive it without building real configurations.
bool Offer(FrontierArchive& archive, double iteration_time,
           int64_t peak_memory, uint64_t hash, bool oom = false,
           double cost = 0.0) {
  PerfResult perf;
  perf.oom = oom;
  perf.iteration_time = iteration_time;
  StageUsage stage;
  stage.memory_bytes = peak_memory;
  perf.stages.push_back(stage);
  return archive.Offer(ParallelConfig(), perf, hash, cost);
}

TEST(FrontierArchiveTest, KeepsOnlyNonDominatedPoints) {
  FrontierArchive archive;
  EXPECT_TRUE(Offer(archive, 4.0, 8 * kGiB, 1));
  EXPECT_TRUE(Offer(archive, 2.0, 16 * kGiB, 2));
  // Slower AND hungrier than the 16 GiB point: dominated.
  EXPECT_FALSE(Offer(archive, 3.0, 24 * kGiB, 3));
  // Faster at 24 GiB: admitted, extends the frontier.
  EXPECT_TRUE(Offer(archive, 1.0, 24 * kGiB, 4));
  // Strictly better than the 8 GiB point: admitted, evicts it.
  EXPECT_TRUE(Offer(archive, 3.5, 6 * kGiB, 5));
  ASSERT_EQ(archive.size(), 3u);
  EXPECT_EQ(archive.points()[0].semantic_hash, 5u);
  EXPECT_EQ(archive.points()[1].semantic_hash, 2u);
  EXPECT_EQ(archive.points()[2].semantic_hash, 4u);
  EXPECT_EQ(archive.stats().offered, 5);
  EXPECT_EQ(archive.stats().admitted, 4);
  EXPECT_EQ(archive.stats().dominated, 1);
  EXPECT_EQ(archive.stats().evicted, 1);
}

TEST(FrontierArchiveTest, EqualMetricsKeepTheIncumbent) {
  // First offer wins: a later point with identical metrics is dominated,
  // not swapped in — this is what makes the archive order-deterministic.
  FrontierArchive archive;
  EXPECT_TRUE(Offer(archive, 2.0, 8 * kGiB, 1));
  EXPECT_FALSE(Offer(archive, 2.0, 8 * kGiB, 2));
  ASSERT_EQ(archive.size(), 1u);
  EXPECT_EQ(archive.points()[0].semantic_hash, 1u);
}

TEST(FrontierArchiveTest, DedupesBySemanticHash) {
  FrontierArchive archive;
  EXPECT_TRUE(Offer(archive, 2.0, 8 * kGiB, 42));
  // Same config re-evaluated (even with a "better" estimate) is a duplicate:
  // one configuration gets one point.
  EXPECT_FALSE(Offer(archive, 1.0, 4 * kGiB, 42));
  EXPECT_EQ(archive.stats().duplicates, 1);
}

TEST(FrontierArchiveTest, RejectsNonFiniteAndNonPositiveEstimates) {
  FrontierArchive archive;
  EXPECT_FALSE(Offer(archive, std::numeric_limits<double>::quiet_NaN(),
                     kGiB, 1));
  EXPECT_FALSE(Offer(archive, std::numeric_limits<double>::infinity(),
                     kGiB, 2));
  EXPECT_FALSE(Offer(archive, 0.0, kGiB, 3));
  EXPECT_FALSE(Offer(archive, -1.0, kGiB, 4));
  EXPECT_TRUE(archive.empty());
  EXPECT_EQ(archive.stats().rejected, 4);
}

TEST(FrontierArchiveTest, InfeasiblePointsAreArchivedWithTheirVerdict) {
  // Points above the searched limit still answer larger budgets; the
  // feasible flag records the verdict under the limit the search ran with.
  FrontierArchive archive;
  EXPECT_TRUE(Offer(archive, 2.0, 40 * kGiB, 1, /*oom=*/true));
  ASSERT_EQ(archive.size(), 1u);
  EXPECT_FALSE(archive.points()[0].feasible);
  EXPECT_EQ(archive.BestUnderBudget(64 * kGiB)->semantic_hash, 1u);
}

TEST(FrontierArchiveTest, BestUnderBudgetMatchesBruteForce) {
  Rng rng(20240808);
  FrontierArchive archive;
  // Keep every admitted offer to brute-force against.
  std::vector<FrontierPoint> offered;
  for (uint64_t i = 0; i < 300; ++i) {
    FrontierPoint p;
    p.iteration_time = 0.5 + static_cast<double>(rng.NextBelow(1000)) / 100.0;
    p.peak_memory_bytes = static_cast<int64_t>(1 + rng.NextBelow(64)) * kGiB;
    p.semantic_hash = i + 1;
    offered.push_back(p);
    Offer(archive, p.iteration_time, p.peak_memory_bytes, p.semantic_hash);
  }
  for (int64_t budget = 0; budget <= 70 * kGiB; budget += kGiB / 2) {
    const FrontierPoint* best = archive.BestUnderBudget(budget);
    double brute = std::numeric_limits<double>::infinity();
    for (const FrontierPoint& p : offered) {
      if (p.peak_memory_bytes <= budget) {
        brute = std::min(brute, p.iteration_time);
      }
    }
    if (best == nullptr) {
      EXPECT_TRUE(std::isinf(brute)) << "budget " << budget;
    } else {
      EXPECT_EQ(best->iteration_time, brute) << "budget " << budget;
    }
  }
}

TEST(FrontierArchiveTest, RandomOfferStreamPreservesInvariants) {
  Rng rng(7);
  FrontierArchive archive;
  for (int i = 0; i < 2000; ++i) {
    Offer(archive, 0.1 + static_cast<double>(rng.NextBelow(500)) / 50.0,
          static_cast<int64_t>(1 + rng.NextBelow(48)) * (kGiB / 2),
          rng.NextU64(), rng.NextBelow(4) == 0);
    // Memory strictly ascending, time strictly descending: no archived
    // point weakly dominates another.
    const std::vector<FrontierPoint>& points = archive.points();
    for (size_t j = 1; j < points.size(); ++j) {
      ASSERT_GT(points[j].peak_memory_bytes, points[j - 1].peak_memory_bytes);
      ASSERT_LT(points[j].iteration_time, points[j - 1].iteration_time);
    }
  }
  const FrontierStats& stats = archive.stats();
  EXPECT_EQ(stats.offered, 2000);
  EXPECT_EQ(stats.offered, stats.admitted + stats.dominated +
                               stats.duplicates + stats.rejected);
  EXPECT_EQ(archive.size(),
            static_cast<size_t>(stats.admitted - stats.evicted));
}

TEST(FrontierArchiveTest, MergeIsOrderDeterministic) {
  Rng rng(99);
  FrontierArchive a;
  FrontierArchive b;
  for (int i = 0; i < 200; ++i) {
    const double time = 0.1 + static_cast<double>(rng.NextBelow(300)) / 30.0;
    const int64_t mem = static_cast<int64_t>(1 + rng.NextBelow(32)) * kGiB;
    const uint64_t hash = rng.NextU64();
    Offer(i % 2 == 0 ? a : b, time, mem, hash);
  }
  FrontierArchive merged1;
  merged1.Merge(a);
  merged1.Merge(b);
  FrontierArchive merged2;
  merged2.Merge(a);
  merged2.Merge(b);
  ASSERT_EQ(merged1.size(), merged2.size());
  for (size_t i = 0; i < merged1.size(); ++i) {
    EXPECT_EQ(merged1.points()[i].semantic_hash,
              merged2.points()[i].semantic_hash);
  }
  // The merged set is still a valid frontier.
  for (size_t i = 1; i < merged1.size(); ++i) {
    EXPECT_GT(merged1.points()[i].peak_memory_bytes,
              merged1.points()[i - 1].peak_memory_bytes);
    EXPECT_LT(merged1.points()[i].iteration_time,
              merged1.points()[i - 1].iteration_time);
  }
}

TEST(FrontierArchiveTest, CostPerStepUsdPricesTheWholeCluster) {
  // 2s/iter on 8 GPUs at $3.60/hr each: 16 GPU-seconds * $0.001/GPU-second.
  EXPECT_DOUBLE_EQ(CostPerStepUsd(2.0, 8, 3.60), 0.016);
  EXPECT_DOUBLE_EQ(CostPerStepUsd(0.0, 8, 3.60), 0.0);
}

TEST(FrontierArchiveTest, JsonRoundTripPreservesPointsAndStats) {
  FrontierArchive archive;
  Offer(archive, 4.0, 8 * kGiB, 0xdeadbeefcafe1234ull, false, 0.02);
  Offer(archive, 2.0, 16 * kGiB, 0xffffffffffffffffull, true, 0.01);
  Offer(archive, 3.0, 24 * kGiB, 7);  // dominated
  const std::string json = archive.ToJson("gpt3-0.35b");

  auto parsed = JsonParse(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto restored = FrontierArchive::FromJson(*parsed);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored->size(), archive.size());
  for (size_t i = 0; i < archive.size(); ++i) {
    const FrontierPoint& before = archive.points()[i];
    const FrontierPoint& after = restored->points()[i];
    EXPECT_EQ(after.iteration_time, before.iteration_time);
    EXPECT_EQ(after.peak_memory_bytes, before.peak_memory_bytes);
    EXPECT_EQ(after.cost_per_step_usd, before.cost_per_step_usd);
    EXPECT_EQ(after.semantic_hash, before.semantic_hash);
    EXPECT_EQ(after.feasible, before.feasible);
  }
  EXPECT_EQ(restored->stats().offered, archive.stats().offered);
  EXPECT_EQ(restored->stats().dominated, archive.stats().dominated);

  // Round-trip is a fixed point: serializing the restored archive yields
  // the same document.
  EXPECT_EQ(restored->ToJson("gpt3-0.35b"), json);
}

TEST(FrontierArchiveTest, FromJsonRejectsCorruptDocuments) {
  auto from = [](const std::string& text) {
    auto parsed = JsonParse(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    return FrontierArchive::FromJson(*parsed);
  };
  const std::string point1 =
      "{\"iteration_time\":2.0,\"peak_memory_bytes\":8,"
      "\"cost_per_step_usd\":0.1,\"semantic_hash\":\"1\",\"num_stages\":1,"
      "\"microbatch_size\":1,\"feasible\":true,\"config_text\":\"\"}";
  const std::string dominated =
      "{\"iteration_time\":3.0,\"peak_memory_bytes\":16,"
      "\"cost_per_step_usd\":0.1,\"semantic_hash\":\"2\",\"num_stages\":1,"
      "\"microbatch_size\":1,\"feasible\":true,\"config_text\":\"\"}";
  const std::string dup_hash =
      "{\"iteration_time\":1.0,\"peak_memory_bytes\":16,"
      "\"cost_per_step_usd\":0.1,\"semantic_hash\":\"1\",\"num_stages\":1,"
      "\"microbatch_size\":1,\"feasible\":true,\"config_text\":\"\"}";

  EXPECT_FALSE(from("[]").ok());
  EXPECT_FALSE(from("{}").ok()) << "missing points array";
  EXPECT_TRUE(from("{\"points\":[]}").ok());
  EXPECT_TRUE(from("{\"points\":[" + point1 + "]}").ok());
  // Unsorted / dominated points: the Pareto invariant is enforced.
  EXPECT_FALSE(from("{\"points\":[" + point1 + "," + dominated + "]}").ok());
  EXPECT_FALSE(from("{\"points\":[" + point1 + "," + dup_hash + "]}").ok());
  // Bad counters.
  EXPECT_FALSE(from("{\"points\":[],\"offered\":-1}").ok());
  EXPECT_FALSE(from("{\"points\":[],\"offered\":1.5}").ok());
  // Bad point payloads.
  EXPECT_FALSE(from("{\"points\":[{\"iteration_time\":-2.0}]}").ok());
  EXPECT_FALSE(from("{\"points\":[{}]}").ok());
}

// ---- search integration ----

class FrontierSearchTest : public ::testing::Test {
 protected:
  FrontierSearchTest()
      : graph_(models::Gpt3(0.35)),
        cluster_(ClusterSpec::WithGpuCount(4)),
        db_(cluster_),
        model_(&graph_, cluster_, &db_) {}

  SearchOptions FrontierOptions() {
    SearchOptions options;
    options.time_budget_seconds = 1e9;  // evaluation-budget limited
    options.max_evaluations = 60;
    options.max_hops = 5;
    options.track_frontier = true;
    return options;
  }

  OpGraph graph_;
  ClusterSpec cluster_;
  ProfileDatabase db_;
  PerformanceModel model_;
};

TEST_F(FrontierSearchTest, DisabledByDefaultAndCostsNothing) {
  SearchOptions options = FrontierOptions();
  options.track_frontier = false;
  const SearchResult result = AcesoSearch(model_, options);
  EXPECT_TRUE(result.frontier.empty());
  EXPECT_EQ(result.stats.frontier_offered, 0);
  EXPECT_EQ(result.stats.frontier_admitted, 0);
}

TEST_F(FrontierSearchTest, ArchivesAValidFrontierFromTheWalk) {
  const SearchResult result = AcesoSearch(model_, FrontierOptions());
  ASSERT_TRUE(result.found);
  ASSERT_FALSE(result.frontier.empty());
  EXPECT_GT(result.stats.frontier_offered, 0);
  const std::vector<FrontierPoint>& points = result.frontier.points();
  for (size_t i = 1; i < points.size(); ++i) {
    EXPECT_GT(points[i].peak_memory_bytes, points[i - 1].peak_memory_bytes);
    EXPECT_LT(points[i].iteration_time, points[i - 1].iteration_time);
  }
  // The search's own best is answerable from the archive: at device
  // capacity the frontier's pick is at least as fast as the returned best.
  const FrontierPoint* best =
      result.frontier.BestUnderBudget(cluster_.gpu.memory_bytes);
  ASSERT_NE(best, nullptr);
  EXPECT_LE(best->iteration_time, result.best.perf.iteration_time);
}

TEST_F(FrontierSearchTest, FrontierIsBitIdenticalAcrossThreadCounts) {
  // Each stage count's archive is built by one serial search and the
  // archives merge in stage-count order, so num_threads changes how fast
  // the frontier is built, never its contents.
  auto run = [&](int num_threads) {
    SearchOptions options = FrontierOptions();
    options.num_threads = num_threads;
    return AcesoSearch(model_, options);
  };
  const SearchResult golden = run(1);
  ASSERT_FALSE(golden.frontier.empty());
  for (const int threads : {2, 4}) {
    const SearchResult result = run(threads);
    ASSERT_EQ(result.frontier.size(), golden.frontier.size())
        << "num_threads=" << threads;
    for (size_t i = 0; i < golden.frontier.size(); ++i) {
      const FrontierPoint& g = golden.frontier.points()[i];
      const FrontierPoint& p = result.frontier.points()[i];
      EXPECT_EQ(p.semantic_hash, g.semantic_hash) << "point " << i;
      EXPECT_EQ(p.iteration_time, g.iteration_time) << "point " << i;
      EXPECT_EQ(p.peak_memory_bytes, g.peak_memory_bytes) << "point " << i;
      EXPECT_EQ(p.feasible, g.feasible) << "point " << i;
    }
    EXPECT_EQ(result.stats.frontier_offered, golden.stats.frontier_offered);
  }
}

TEST_F(FrontierSearchTest, ArchivedConfigsSerializeAndRoundTrip) {
  const SearchResult result = AcesoSearch(model_, FrontierOptions());
  ASSERT_FALSE(result.frontier.empty());
  const std::string json = result.frontier.ToJson("gpt3-0.35b");
  auto parsed = JsonParse(json);
  ASSERT_TRUE(parsed.ok());
  auto restored = FrontierArchive::FromJson(*parsed);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->size(), result.frontier.size());
  // Every archived point carried a lowerable config text.
  for (const FrontierPoint& p : restored->points()) {
    EXPECT_FALSE(p.config_text.empty());
  }
}

}  // namespace
}  // namespace aceso
