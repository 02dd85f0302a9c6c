// DpSeedConfig: the PaSE-style DP seed is deterministic, valid, pinned on
// two zoo models, and wired into the search behind seed_mode.

#include "src/core/dp_seeder.h"

#include <gtest/gtest.h>

#include "src/aceso.h"

namespace aceso {
namespace {

TEST(DpSeederTest, SeedIsValidAndDeterministicOnGpt3) {
  const OpGraph graph = *models::BuildByName("gpt3-0.35b");
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(4);
  ProfileDatabase db(cluster);
  PerformanceModel model(&graph, cluster, &db);

  auto first = DpSeedConfig(model, 2, cluster.gpu.memory_bytes);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first->config.Validate(graph, cluster).ok());
  EXPECT_EQ(first->config.num_stages(), 2);
  EXPECT_GT(first->evaluations, 0);
  EXPECT_FALSE(first->perf.oom);

  auto second = DpSeedConfig(model, 2, cluster.gpu.memory_bytes);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->config.SemanticHash(graph),
            second->config.SemanticHash(graph));
  EXPECT_EQ(first->perf.iteration_time, second->perf.iteration_time);
}

// Golden seeds on two zoo models: the DP's solution is a deterministic
// function of the profile database, so the seeded configuration's semantic
// hash is pinned exactly. A legitimate pricing or DP change moves these
// values — regenerate by running the test and copying the reported hashes.
TEST(DpSeederTest, SeededConfigIsPinnedOnGpt3) {
  const OpGraph graph = *models::BuildByName("gpt3-0.35b");
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(4);
  ProfileDatabase db(cluster);
  PerformanceModel model(&graph, cluster, &db);
  auto seed = DpSeedConfig(model, 2, cluster.gpu.memory_bytes);
  ASSERT_TRUE(seed.ok()) << seed.status().ToString();
  EXPECT_EQ(seed->config.SemanticHash(graph), 1633812994793543637ULL);
  EXPECT_DOUBLE_EQ(seed->perf.iteration_time, 23.106789658476192);
}

TEST(DpSeederTest, SeededConfigIsPinnedOnWresnet) {
  const OpGraph graph = *models::BuildByName("wresnet-0.5b");
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(8);
  ProfileDatabase db(cluster);
  PerformanceModel model(&graph, cluster, &db);
  auto seed = DpSeedConfig(model, 2, cluster.gpu.memory_bytes);
  ASSERT_TRUE(seed.ok()) << seed.status().ToString();
  EXPECT_EQ(seed->config.SemanticHash(graph), 12112673595168534270ULL);
  EXPECT_DOUBLE_EQ(seed->perf.iteration_time, 11.941247589686865);
}

TEST(DpSeederTest, CompressedCutsStillProduceAFeasibleSeed) {
  // Boundary compression restricts the DP to the repeated-layer skeleton;
  // it must still find a feasible seed on a deep uniform stack, and the
  // exact (uncompressed) DP can only be at least as good.
  const OpGraph graph = *models::BuildByName("gpt3-1.3b");
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(8);
  ProfileDatabase db(cluster);
  PerformanceModel model(&graph, cluster, &db);

  DpSeedOptions compressed;
  compressed.compress_runs = true;
  auto fast = DpSeedConfig(model, 4, cluster.gpu.memory_bytes, compressed);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  EXPECT_FALSE(fast->perf.oom);

  DpSeedOptions exact;
  exact.compress_runs = false;
  auto full = DpSeedConfig(model, 4, cluster.gpu.memory_bytes, exact);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_LE(full->perf.iteration_time, fast->perf.iteration_time * 1.0 + 1e-12);
}

TEST(DpSeederTest, UnconstructibleStageCountFails) {
  const OpGraph graph = *models::BuildByName("gpt3-0.35b");
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(4);
  ProfileDatabase db(cluster);
  PerformanceModel model(&graph, cluster, &db);
  EXPECT_FALSE(DpSeedConfig(model, 64, cluster.gpu.memory_bytes).ok());
  EXPECT_FALSE(DpSeedConfig(model, 0, cluster.gpu.memory_bytes).ok());
}

TEST(DpSeederTest, SearchChargesSeederEvaluations) {
  const OpGraph graph = *models::BuildByName("gpt3-0.35b");
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(4);
  ProfileDatabase db(cluster);
  PerformanceModel model(&graph, cluster, &db);

  const auto seed = DpSeedConfig(model, 2, cluster.gpu.memory_bytes);
  ASSERT_TRUE(seed.ok());

  model.ResetEvaluationCount();
  SearchOptions options;
  options.seed_mode = SeedMode::kDp;
  options.max_evaluations = seed->evaluations + 1;  // seeder + initial eval
  options.time_budget_seconds = 1e6;
  const SearchResult result = AcesoSearchForStages(model, options, 2);
  ASSERT_TRUE(result.found);
  // The search started from the DP seed...
  EXPECT_EQ(result.convergence.front().best_iteration_time,
            seed->perf.iteration_time);
  // ...and charged the seeder's evaluations to its exploration budget.
  EXPECT_EQ(result.stats.configs_explored, seed->evaluations + 1);
  EXPECT_LE(result.stats.configs_explored, model.NumEvaluations());
}

TEST(DpSeederTest, DpSeedFallsBackWhenNoSolution) {
  // A stage count the splitter cannot produce for this cluster falls back
  // to the heuristic seed inside the search rather than failing the run.
  const OpGraph graph = *models::BuildByName("gpt3-0.35b");
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(4);
  ProfileDatabase db(cluster);
  PerformanceModel model(&graph, cluster, &db);
  SearchOptions options;
  options.seed_mode = SeedMode::kDp;
  options.max_evaluations = 50;
  options.time_budget_seconds = 1e6;
  // 3 stages on 4 GPUs: SplitDevicesPow2 handles it, so this exercises the
  // normal path; the fallback itself is covered by making the DP fail via
  // an unconstructible stage count inside AcesoSearch's range sweep, which
  // must still return a result.
  const SearchResult result = AcesoSearchForStages(model, options, 3);
  EXPECT_TRUE(result.found);
}

}  // namespace
}  // namespace aceso
