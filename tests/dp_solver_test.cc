#include "src/baselines/dp_solver.h"

#include <gtest/gtest.h>

#include "src/core/search.h"
#include "src/ir/models/model_zoo.h"

namespace aceso {
namespace {

class DpSolverTest : public ::testing::Test {
 protected:
  DpSolverTest()
      : graph_(models::Gpt3(0.35)),
        cluster_(ClusterSpec::WithGpuCount(8)),
        db_(cluster_),
        model_(&graph_, cluster_, &db_) {}

  DpSolverOptions FastOptions() {
    DpSolverOptions options;
    options.max_microbatch = 8;
    options.max_stages = 4;
    return options;
  }

  OpGraph graph_;
  ClusterSpec cluster_;
  ProfileDatabase db_;
  PerformanceModel model_;
};

TEST_F(DpSolverTest, FindsFeasibleConfig) {
  const BaselineResult result = DpSolverSearch(model_, FastOptions());
  ASSERT_TRUE(result.found);
  EXPECT_FALSE(result.best.perf.oom);
  EXPECT_TRUE(result.best.config.Validate(graph_, cluster_).ok());
}

TEST_F(DpSolverTest, ExploresManyConfigurations) {
  // The DP's exploration count dwarfs Aceso's (Exp#4's point).
  const BaselineResult result = DpSolverSearch(model_, FastOptions());
  EXPECT_GT(result.configs_explored, 100000);
}

TEST_F(DpSolverTest, RespectsMaxExploredCap) {
  DpSolverOptions options = FastOptions();
  options.max_explored = 1000;
  const BaselineResult result = DpSolverSearch(model_, options);
  // Cap is a loose guard checked between phases: it must stop growth within
  // one stage-count round.
  EXPECT_LT(result.configs_explored, 50'000'000);
}

TEST_F(DpSolverTest, QualityComparableToAceso) {
  // Exp#4/Figure 10(b): the exhaustive DP and Aceso find configurations of
  // similar quality, with Aceso exploring a small fraction of the space.
  const BaselineResult dp = DpSolverSearch(model_, FastOptions());
  // An evaluation budget, not only a wall-clock one: how many configs an
  // anytime search explores in a second grows with the speed of the
  // machine and of the cost model, which says nothing about Exp#4's claim.
  // 2000 evaluations per stage count (8 stage counts on 8 GPUs); the 1 s
  // wall-clock budget stays as a ceiling for slow (sanitizer) builds.
  SearchOptions options;
  options.time_budget_seconds = 1.0;
  options.max_evaluations = 2000;
  const SearchResult aceso = AcesoSearch(model_, options);
  ASSERT_TRUE(dp.found);
  ASSERT_TRUE(aceso.found);
  // Aceso within 15% of (or better than) the DP's predicted quality.
  EXPECT_LT(aceso.best.perf.iteration_time,
            dp.best.perf.iteration_time * 1.15);
  // ...while exploring at least 10x fewer configurations.
  EXPECT_LT(aceso.stats.configs_explored, dp.configs_explored / 10);
}

TEST_F(DpSolverTest, UniformStageMeshes) {
  const BaselineResult result = DpSolverSearch(model_, FastOptions());
  ASSERT_TRUE(result.found);
  const int p = result.best.config.num_stages();
  for (const StageConfig& stage : result.best.config.stages()) {
    EXPECT_EQ(stage.num_devices, cluster_.num_gpus() / p);
  }
}

TEST_F(DpSolverTest, SingleGpu) {
  const ClusterSpec one = ClusterSpec::SingleGpu();
  ProfileDatabase db(one);
  PerformanceModel model(&graph_, one, &db);
  const BaselineResult result = DpSolverSearch(model, FastOptions());
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.best.config.num_stages(), 1);
}

}  // namespace
}  // namespace aceso
