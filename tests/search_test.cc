#include "src/core/search.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/core/finetune.h"
#include "src/ir/models/model_zoo.h"
#include "src/obs/telemetry.h"

namespace aceso {
namespace {

class SearchTest : public ::testing::Test {
 protected:
  SearchTest()
      : graph_(models::Gpt3(0.35)),
        cluster_(ClusterSpec::WithGpuCount(4)),
        db_(cluster_),
        model_(&graph_, cluster_, &db_) {}

  SearchOptions FastOptions() {
    SearchOptions options;
    options.time_budget_seconds = 0.5;
    options.max_hops = 5;
    return options;
  }

  OpGraph graph_;
  ClusterSpec cluster_;
  ProfileDatabase db_;
  PerformanceModel model_;
};

TEST_F(SearchTest, FindsAFeasibleConfiguration) {
  const SearchResult result = AcesoSearch(model_, FastOptions());
  ASSERT_TRUE(result.found);
  EXPECT_FALSE(result.best.perf.oom);
  EXPECT_TRUE(result.best.config.Validate(graph_, cluster_).ok());
  EXPECT_GT(result.stats.configs_explored, 0);
}

TEST_F(SearchTest, ImprovesOnInitialConfiguration) {
  auto initial = MakeEvenConfig(graph_, cluster_, 2, 1);
  ASSERT_TRUE(initial.ok());
  const PerfResult initial_perf = model_.Evaluate(*initial);
  const SearchResult result = AcesoSearchForStages(model_, FastOptions(), 2);
  ASSERT_TRUE(result.found);
  EXPECT_LT(result.best.perf.iteration_time, initial_perf.iteration_time);
}

TEST_F(SearchTest, RespectsTimeBudgetRoughly) {
  SearchOptions options = FastOptions();
  options.time_budget_seconds = 0.3;
  const SearchResult result = AcesoSearch(model_, options);
  // Allow generous slack for the final in-flight iteration.
  EXPECT_LT(result.search_seconds, options.time_budget_seconds + 2.0);
}

TEST_F(SearchTest, ConvergenceTrendIsMonotone) {
  const SearchResult result = AcesoSearch(model_, FastOptions());
  double prev = 1e300;
  for (const ConvergencePoint& point : result.convergence) {
    EXPECT_LE(point.best_iteration_time, prev + 1e-12);
    prev = point.best_iteration_time;
  }
}

TEST_F(SearchTest, TopConfigsSortedAndDistinct) {
  const SearchResult result = AcesoSearch(model_, FastOptions());
  ASSERT_TRUE(result.found);
  EXPECT_LE(result.top_configs.size(), 5u);
  for (size_t i = 1; i < result.top_configs.size(); ++i) {
    EXPECT_LE(result.top_configs[i - 1].perf.iteration_time,
              result.top_configs[i].perf.iteration_time);
    EXPECT_NE(result.top_configs[i - 1].config.SemanticHash(graph_),
              result.top_configs[i].config.SemanticHash(graph_));
  }
  // The best of top_configs matches the reported best.
  if (!result.top_configs.empty()) {
    EXPECT_DOUBLE_EQ(result.top_configs[0].perf.iteration_time,
                     result.best.perf.iteration_time);
  }
}

TEST_F(SearchTest, StatsHistogramsMatchImprovementCount) {
  const SearchResult result = AcesoSearch(model_, FastOptions());
  EXPECT_EQ(result.stats.bottleneck_attempts.size(),
            static_cast<size_t>(result.stats.improvements));
  EXPECT_EQ(result.stats.hops_used.size(),
            static_cast<size_t>(result.stats.improvements));
  for (int hops : result.stats.hops_used) {
    EXPECT_GE(hops, 1);
    EXPECT_LE(hops, FastOptions().max_hops);
  }
  for (int attempts : result.stats.bottleneck_attempts) {
    EXPECT_GE(attempts, 1);
  }
}

TEST_F(SearchTest, SingleStageCountSearchWorks) {
  const SearchResult result = AcesoSearchForStages(model_, FastOptions(), 3);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.best.config.num_stages(), 3);
}

TEST_F(SearchTest, ImpossibleStageCountReturnsNotFound) {
  const SearchResult result = AcesoSearchForStages(model_, FastOptions(), 5);
  EXPECT_FALSE(result.found);  // 5 stages on 4 GPUs
}

TEST_F(SearchTest, MaxHopsOneStillImproves) {
  SearchOptions options = FastOptions();
  options.max_hops = 1;
  const SearchResult result = AcesoSearchForStages(model_, options, 2);
  ASSERT_TRUE(result.found);
  for (int hops : result.stats.hops_used) {
    EXPECT_EQ(hops, 1);
  }
}

TEST_F(SearchTest, RandomSearchWithoutHeuristic2AlsoFindsConfigs) {
  SearchOptions options = FastOptions();
  options.use_heuristic2 = false;
  const SearchResult result = AcesoSearchForStages(model_, options, 2);
  ASSERT_TRUE(result.found);
  EXPECT_FALSE(result.best.perf.oom);
}

TEST_F(SearchTest, Heuristic2ConvergesAtLeastAsFastAsRandom) {
  SearchOptions with = FastOptions();
  with.time_budget_seconds = 0.4;
  SearchOptions without = with;
  without.use_heuristic2 = false;
  const SearchResult guided = AcesoSearchForStages(model_, with, 2);
  const SearchResult random = AcesoSearchForStages(model_, without, 2);
  ASSERT_TRUE(guided.found);
  ASSERT_TRUE(random.found);
  EXPECT_LE(guided.best.perf.iteration_time,
            random.best.perf.iteration_time * 1.10);
}

TEST_F(SearchTest, RobustToInitialConfiguration) {
  // Exp#7: different starts converge to similar quality.
  SearchOptions balanced = FastOptions();
  SearchOptions op_imbalanced = FastOptions();
  op_imbalanced.initial_config = InitialConfigKind::kOpImbalanced;
  SearchOptions gpu_imbalanced = FastOptions();
  gpu_imbalanced.initial_config = InitialConfigKind::kGpuImbalanced;

  const SearchResult a = AcesoSearchForStages(model_, balanced, 4);
  const SearchResult b = AcesoSearchForStages(model_, op_imbalanced, 4);
  const SearchResult c = AcesoSearchForStages(model_, gpu_imbalanced, 4);
  ASSERT_TRUE(a.found);
  ASSERT_TRUE(b.found);
  ASSERT_TRUE(c.found);
  EXPECT_LT(b.best.perf.iteration_time, a.best.perf.iteration_time * 1.3);
  EXPECT_LT(c.best.perf.iteration_time, a.best.perf.iteration_time * 1.3);
}

TEST_F(SearchTest, StatsMergeAccumulates) {
  SearchStats a;
  a.iterations = 3;
  a.improvements = 1;
  a.configs_explored = 10;
  a.bottleneck_attempts = {1};
  a.hops_used = {2};
  SearchStats b;
  b.iterations = 2;
  b.improvements = 2;
  b.configs_explored = 5;
  b.bottleneck_attempts = {1, 2};
  b.hops_used = {1, 3};
  a.Merge(b);
  EXPECT_EQ(a.iterations, 5);
  EXPECT_EQ(a.improvements, 3);
  EXPECT_EQ(a.configs_explored, 15);
  EXPECT_EQ(a.bottleneck_attempts.size(), 3u);
  EXPECT_EQ(a.hops_used.size(), 3u);
}

TEST_F(SearchTest, WorksWithDedupDisabled) {
  SearchOptions options = FastOptions();
  options.enable_dedup = false;
  const SearchResult result = AcesoSearchForStages(model_, options, 2);
  ASSERT_TRUE(result.found);
  EXPECT_FALSE(result.best.perf.oom);
}

TEST_F(SearchTest, InitialConfigEvaluationIsCounted) {
  // With an evaluation budget of 1, the search evaluates the initial
  // configuration and stops before generating any candidate. That single
  // evaluation must appear in configs_explored (it used to be dropped),
  // and it must be the only model evaluation issued.
  SearchOptions options = FastOptions();
  options.time_budget_seconds = 1e6;
  options.max_evaluations = 1;
  const int64_t before = model_.NumEvaluations();
  const SearchResult result = AcesoSearchForStages(model_, options, 2);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.stats.configs_explored, 1);
  EXPECT_EQ(model_.NumEvaluations() - before, 1);
}

TEST_F(SearchTest, FineTuneTrialsAreCounted) {
  // FineTune's only model evaluations are its trial configurations, so its
  // trial counter must match the model's evaluation delta exactly (these
  // used to be invisible to SearchStats).
  auto config = MakeEvenConfig(graph_, cluster_, 2, 1);
  ASSERT_TRUE(config.ok());
  const PerfResult initial = model_.Evaluate(*config);
  const TimeBudget budget(1e6);
  int64_t trials = 0;
  const int64_t before = model_.NumEvaluations();
  FineTune(model_, *config, initial, budget, {}, &trials);
  EXPECT_EQ(trials, model_.NumEvaluations() - before);
  EXPECT_GT(trials, 0);
}

TEST_F(SearchTest, ExploredCountNeverExceedsModelEvaluations) {
  // Whole-search sanity: every counted exploration corresponds to a real
  // model evaluation. (The converse is not exact: the recompute fix-up's
  // scratch evaluations are candidate construction and stay uncounted.)
  const int64_t before = model_.NumEvaluations();
  const SearchResult result = AcesoSearchForStages(model_, FastOptions(), 2);
  const int64_t evaluated = model_.NumEvaluations() - before;
  ASSERT_TRUE(result.found);
  EXPECT_LE(result.stats.configs_explored, evaluated);
  EXPECT_GT(result.stats.configs_explored, 1);
}

TEST_F(SearchTest, EvaluationBudgetStopsTheSearch) {
  SearchOptions options = FastOptions();
  options.time_budget_seconds = 1e6;  // only the evaluation budget binds
  options.max_evaluations = 200;
  const SearchResult result = AcesoSearchForStages(model_, options, 2);
  ASSERT_TRUE(result.found);
  // The budget is checked between candidates; a fine-tuning pass triggered
  // just before the budget binds may overshoot by one bounded pass — at
  // most (8 splits * 2 directions + 16 flips) per stage at default options.
  EXPECT_GE(result.stats.configs_explored, 200);
  EXPECT_LE(result.stats.configs_explored, 200 + 32 * 2);
}

TEST_F(SearchTest, FixedEvaluationBudgetIsBitReproducible) {
  // Golden search trajectory, captured from the pre-copy-on-write
  // implementation: under a pure evaluation budget the search is
  // deterministic, so the CoW + incremental-hash representation must land
  // on the exact same best configuration, iteration time, and iteration
  // count. Any drift here means candidate generation or dedup behavior
  // changed, not just performance.
  SearchOptions options = FastOptions();
  options.time_budget_seconds = 1e6;
  options.max_evaluations = 3000;
  const SearchResult a = AcesoSearchForStages(model_, options, 2);
  ASSERT_TRUE(a.found);
  EXPECT_EQ(a.best.semantic_hash, 1672875804967310438ULL);
  EXPECT_DOUBLE_EQ(a.best.perf.iteration_time, 22.649582163995891);
  EXPECT_EQ(a.stats.configs_explored, 3000);
  EXPECT_EQ(a.stats.iterations, 40);
  // And it reproduces run-to-run in-process.
  const SearchResult b = AcesoSearchForStages(model_, options, 2);
  EXPECT_EQ(b.best.semantic_hash, a.best.semantic_hash);
  EXPECT_DOUBLE_EQ(b.best.perf.iteration_time, a.best.perf.iteration_time);
  EXPECT_EQ(b.stats.configs_explored, a.stats.configs_explored);
}

TEST_F(SearchTest, ConfigSeededSearchIsBitReproducible) {
  // SeedMode::kConfig (DESIGN.md §17): the search starts from a caller-
  // provided configuration — in production an adapted cache neighbor — and
  // must stay on the same deterministic rails as the heuristic init: under a
  // fixed evaluation budget, every run lands on the same golden best. The
  // seed here is the best of a short pre-search, the same kind of artifact
  // the serving layer feeds through seed_config.
  SearchOptions pre = FastOptions();
  pre.time_budget_seconds = 1e6;
  pre.max_evaluations = 300;
  const SearchResult base = AcesoSearchForStages(model_, pre, 2);
  ASSERT_TRUE(base.found);
  const auto seed = std::make_shared<const ParallelConfig>(base.best.config);

  auto run = [&] {
    SearchOptions options = FastOptions();
    options.time_budget_seconds = 1e6;
    options.max_evaluations = 1500;
    options.seed_mode = SeedMode::kConfig;
    options.seed_config = seed;
    return AcesoSearchForStages(model_, options, 2);
  };
  const SearchResult first = run();
  ASSERT_TRUE(first.found);
  // Same golden best the unseeded 3000-eval run pins — reached here in half
  // the budget and 8 iterations instead of 40, which is the whole point of
  // seeding.
  EXPECT_EQ(first.best.semantic_hash, 1672875804967310438ULL);
  EXPECT_DOUBLE_EQ(first.best.perf.iteration_time, 22.649582163995891);
  EXPECT_EQ(first.stats.configs_explored, 1500);
  EXPECT_EQ(first.stats.iterations, 8);
  // A seeded search never finishes worse than the seed it started from.
  EXPECT_LE(first.best.perf.iteration_time, base.best.perf.iteration_time);

  const SearchResult second = run();
  ASSERT_TRUE(second.found);
  EXPECT_EQ(second.best.semantic_hash, first.best.semantic_hash);
  EXPECT_DOUBLE_EQ(second.best.perf.iteration_time,
                   first.best.perf.iteration_time);
  EXPECT_EQ(second.stats.configs_explored, first.stats.configs_explored);
  EXPECT_EQ(second.stats.iterations, first.stats.iterations);
  EXPECT_EQ(second.stats.hops_used, first.stats.hops_used);
}

TEST_F(SearchTest, MismatchedSeedConfigFallsBackToHeuristicInit) {
  // A seed whose stage count does not match the searched count (or that
  // fails Validate) is ignored, not an error: the search degrades to the
  // heuristic init and must reproduce the unseeded golden trajectory
  // exactly.
  auto seed3 = MakeEvenConfig(graph_, cluster_, 3, 1);
  ASSERT_TRUE(seed3.ok());
  SearchOptions options = FastOptions();
  options.time_budget_seconds = 1e6;
  options.max_evaluations = 3000;
  options.seed_mode = SeedMode::kConfig;
  options.seed_config = std::make_shared<const ParallelConfig>(*seed3);
  const SearchResult result = AcesoSearchForStages(model_, options, 2);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.best.semantic_hash, 1672875804967310438ULL);
  EXPECT_DOUBLE_EQ(result.best.perf.iteration_time, 22.649582163995891);
  EXPECT_EQ(result.stats.configs_explored, 3000);
  EXPECT_EQ(result.stats.iterations, 40);
}

TEST_F(SearchTest, SeedConfigFeedsTheOptionsHash) {
  // The hash contract (DESIGN.md §14): any field that can change the answer
  // must feed SearchOptionsSemanticHash. A seeded and an unseeded search
  // can land on different plans, so attaching a seed must change the hash —
  // and different seeds must hash apart.
  SearchOptions options = FastOptions();
  const uint64_t unseeded = SearchOptionsSemanticHash(options);
  auto seed2 = MakeEvenConfig(graph_, cluster_, 2, 1);
  ASSERT_TRUE(seed2.ok());
  options.seed_config = std::make_shared<const ParallelConfig>(*seed2);
  const uint64_t seeded2 = SearchOptionsSemanticHash(options);
  EXPECT_NE(seeded2, unseeded);
  auto seed4 = MakeEvenConfig(graph_, cluster_, 4, 1);
  ASSERT_TRUE(seed4.ok());
  options.seed_config = std::make_shared<const ParallelConfig>(*seed4);
  EXPECT_NE(SearchOptionsSemanticHash(options), seeded2);
}

TEST_F(SearchTest, WorksWithoutRecomputeAttachment) {
  SearchOptions options = FastOptions();
  options.enable_recompute_attachment = false;
  const SearchResult result = AcesoSearchForStages(model_, options, 2);
  ASSERT_TRUE(result.found);
  EXPECT_FALSE(result.best.perf.oom);
}

TEST_F(SearchTest, BudgetHoldsWithUnevenWaves) {
  // 5 stage counts on 4 worker threads serialize into 2 waves. The old
  // budget split (budget * threads / N) granted 0.8*budget per search, so
  // the two waves totalled 1.6x the requested wall-clock. The waves-based
  // split must keep the total within the acceptance bound.
  OpGraph graph = models::Gpt3(0.35);
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(8);
  ProfileDatabase db(cluster);
  PerformanceModel model(&graph, cluster, &db);

  SearchOptions options;
  options.time_budget_seconds = 1.5;
  options.min_stages = 1;
  options.max_stages = 5;
  options.num_threads = 4;
  const SearchResult result = AcesoSearch(model, options);
  ASSERT_TRUE(result.found);
  EXPECT_LE(result.search_seconds, 1.15 * options.time_budget_seconds);
}

TEST_F(SearchTest, MergedConvergenceContainsNoInfeasibleScores) {
  // Under memory pressure every search starts from an OOM configuration
  // whose Score() is 1e12-range. Those sentinel magnitudes used to leak
  // into the merged running-min curve as its first points; merged curves
  // must now carry only feasible, achievable iteration times.
  ClusterSpec tiny = cluster_;
  tiny.gpu.memory_bytes = 6 * kGiB;
  ProfileDatabase tiny_db(tiny);
  PerformanceModel tiny_model(&graph_, tiny, &tiny_db);
  const SearchResult result = AcesoSearch(tiny_model, FastOptions());
  ASSERT_TRUE(result.found);
  ASSERT_FALSE(result.convergence.empty());
  for (const ConvergencePoint& point : result.convergence) {
    EXPECT_TRUE(point.feasible);
    EXPECT_LT(point.best_iteration_time, 1e11);
  }
}

TEST_F(SearchTest, PerStageCountConvergenceFlagsInfeasiblePoints) {
  // Single-stage-count results keep the pre-feasibility phase, but flagged:
  // a point is either feasible with a real time, or marked infeasible.
  ClusterSpec tiny = cluster_;
  tiny.gpu.memory_bytes = 6 * kGiB;
  ProfileDatabase tiny_db(tiny);
  PerformanceModel tiny_model(&graph_, tiny, &tiny_db);
  const SearchResult result =
      AcesoSearchForStages(tiny_model, FastOptions(), 2);
  ASSERT_FALSE(result.convergence.empty());
  for (const ConvergencePoint& point : result.convergence) {
    if (point.feasible) {
      EXPECT_LT(point.best_iteration_time, 1e11);
    }
  }
}

TEST_F(SearchTest, TelemetryEmitsOneEventPerIteration) {
  TelemetrySink sink;
  SearchOptions options = FastOptions();
  options.time_budget_seconds = 1e6;
  options.max_evaluations = 3000;
  options.telemetry = &sink;
  const SearchResult result = AcesoSearchForStages(model_, options, 2);
  ASSERT_TRUE(result.found);

  int64_t begins = 0, ends = 0, iterations = 0, accepted = 0;
  for (const TelemetryEvent& event : sink.Events()) {
    if (event.type() == "search_begin") ++begins;
    if (event.type() == "search_end") ++ends;
    if (event.type() == "iteration") {
      ++iterations;
      accepted += event.GetBool("accepted").value_or(false) ? 1 : 0;
    }
  }
  EXPECT_EQ(begins, 1);
  EXPECT_EQ(ends, 1);
  EXPECT_EQ(iterations, result.stats.iterations);
  EXPECT_EQ(accepted, result.stats.improvements);
  EXPECT_EQ(sink.counter("search.iterations"), result.stats.iterations);
  EXPECT_EQ(sink.counter("search.accepts"), result.stats.improvements);
  EXPECT_EQ(sink.counter("search.accepts") + sink.counter("search.rejects"),
            result.stats.iterations);
  EXPECT_EQ(sink.counter("search.finetune_trials") +
                sink.counter("search.candidates_evaluated") + 1,
            result.stats.configs_explored);
}

TEST_F(SearchTest, TelemetryDoesNotPerturbTheSearchTrajectory) {
  // Instrumentation is observation only: under a fixed evaluation budget
  // the instrumented search must land on the exact trajectory the golden
  // test pins for the uninstrumented one.
  TelemetrySink sink;
  SearchOptions options = FastOptions();
  options.time_budget_seconds = 1e6;
  options.max_evaluations = 3000;
  options.telemetry = &sink;
  const SearchResult result = AcesoSearchForStages(model_, options, 2);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.best.semantic_hash, 1672875804967310438ULL);
  EXPECT_DOUBLE_EQ(result.best.perf.iteration_time, 22.649582163995891);
  EXPECT_EQ(result.stats.configs_explored, 3000);
  EXPECT_EQ(result.stats.iterations, 40);
}

TEST_F(SearchTest, TelemetryStreamIsDeterministicUnderEvaluationBudget) {
  // Two fixed-seed runs under a pure evaluation budget must produce the
  // same event stream, wall-clock fields aside.
  auto run = [&] {
    TelemetrySink sink;
    SearchOptions options = FastOptions();
    options.time_budget_seconds = 1e6;
    options.max_evaluations = 1500;
    options.telemetry = &sink;
    AcesoSearchForStages(model_, options, 2);
    std::vector<std::string> lines;
    for (const TelemetryEvent& event : sink.Events()) {
      lines.push_back(event.ToJsonLineExcluding({"t", "dur"}));
    }
    return lines;
  };
  const std::vector<std::string> first = run();
  const std::vector<std::string> second = run();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST_F(SearchTest, TrajectoryAndEventStreamAreBitReproducible) {
  // Under a fixed evaluation budget two runs land on the golden best
  // configuration and golden stats, with byte-identical telemetry event
  // streams (wall-clock fields aside) and identical convergence curves.
  auto run = [&] {
    TelemetrySink sink;
    SearchOptions options = FastOptions();
    options.time_budget_seconds = 1e6;
    options.max_evaluations = 3000;
    options.telemetry = &sink;
    const SearchResult result = AcesoSearchForStages(model_, options, 2);
    std::vector<std::string> lines;
    for (const TelemetryEvent& event : sink.Events()) {
      lines.push_back(event.ToJsonLineExcluding({"t", "dur"}));
    }
    return std::make_pair(result, lines);
  };
  const auto [first, first_events] = run();
  ASSERT_TRUE(first.found);
  EXPECT_EQ(first.best.semantic_hash, 1672875804967310438ULL);
  EXPECT_DOUBLE_EQ(first.best.perf.iteration_time, 22.649582163995891);
  EXPECT_EQ(first.stats.configs_explored, 3000);
  EXPECT_EQ(first.stats.iterations, 40);
  ASSERT_FALSE(first_events.empty());

  const auto [second, second_events] = run();
  ASSERT_TRUE(second.found);
  EXPECT_EQ(second.best.semantic_hash, first.best.semantic_hash);
  EXPECT_DOUBLE_EQ(second.best.perf.iteration_time,
                   first.best.perf.iteration_time);
  EXPECT_EQ(second.stats.configs_explored, first.stats.configs_explored);
  EXPECT_EQ(second.stats.iterations, first.stats.iterations);
  EXPECT_EQ(second.stats.improvements, first.stats.improvements);
  EXPECT_EQ(second.stats.hops_used, first.stats.hops_used);
  EXPECT_EQ(second_events, first_events);
  // Convergence compares on (best_iteration_time, evaluations, feasible)
  // only: elapsed_seconds is wall-clock.
  ASSERT_EQ(second.convergence.size(), first.convergence.size());
  for (size_t i = 0; i < second.convergence.size(); ++i) {
    EXPECT_DOUBLE_EQ(second.convergence[i].best_iteration_time,
                     first.convergence[i].best_iteration_time);
    EXPECT_EQ(second.convergence[i].evaluations,
              first.convergence[i].evaluations);
    EXPECT_EQ(second.convergence[i].feasible, first.convergence[i].feasible);
  }
}

TEST_F(SearchTest, EveryModelEvaluationIsCharged) {
  // The search evaluates one candidate at a time and stops at the first
  // improvement, so it never scores a candidate it does not charge: every
  // model evaluation of a heuristic-seeded search is an initial config, a
  // generated candidate, or a fine-tune trial, all counted in
  // configs_explored. (The recompute fix-up reads single stage costs, which
  // are not evaluations.) A fresh model makes NumEvaluations() the search's
  // own count.
  SearchOptions options = FastOptions();
  options.time_budget_seconds = 1e6;
  options.max_evaluations = 1500;
  {
    ProfileDatabase db(cluster_);
    PerformanceModel fresh(&graph_, cluster_, &db);
    const SearchResult result = AcesoSearchForStages(fresh, options, 2);
    ASSERT_TRUE(result.found);
    EXPECT_EQ(fresh.NumEvaluations(), result.stats.configs_explored);
  }
  {
    ProfileDatabase db(cluster_);
    PerformanceModel fresh(&graph_, cluster_, &db);
    options.max_evaluations = 400;
    const SearchResult result = AcesoSearch(fresh, options);
    ASSERT_TRUE(result.found);
    EXPECT_EQ(fresh.NumEvaluations(), result.stats.configs_explored);
  }
}

TEST_F(SearchTest, DpSeededSearchTrajectoryIsBitReproducible) {
  // DP seeding intentionally changes the trajectory — so it carries its own
  // golden: the seeded search must be deterministic under a pure evaluation
  // budget and land on the same best config run-to-run.
  SearchOptions options = FastOptions();
  options.time_budget_seconds = 1e6;
  options.max_evaluations = 3000;
  options.seed_mode = SeedMode::kDp;
  const SearchResult a = AcesoSearchForStages(model_, options, 2);
  ASSERT_TRUE(a.found);
  const SearchResult b = AcesoSearchForStages(model_, options, 2);
  ASSERT_TRUE(b.found);
  EXPECT_EQ(a.best.semantic_hash, b.best.semantic_hash);
  EXPECT_DOUBLE_EQ(a.best.perf.iteration_time, b.best.perf.iteration_time);
  EXPECT_EQ(a.stats.configs_explored, b.stats.configs_explored);
  EXPECT_EQ(a.stats.iterations, b.stats.iterations);

  // The DP seed can only start the search at or below the heuristic seed's
  // initial prediction (it prices several DP solutions and keeps the best).
  SearchOptions heuristic = options;
  heuristic.seed_mode = SeedMode::kHeuristic;
  const SearchResult h = AcesoSearchForStages(model_, heuristic, 2);
  ASSERT_TRUE(h.found);
  ASSERT_FALSE(a.convergence.empty());
  ASSERT_FALSE(h.convergence.empty());
  EXPECT_LE(a.convergence.front().best_iteration_time,
            h.convergence.front().best_iteration_time * 1.25);
}

TEST_F(SearchTest, ParallelEvaluationMatchesSerialAcrossStageCounts) {
  // The full AcesoSearch shape: stage counts are evaluated in parallel, one
  // serial search each, and merged in stage-count order. Deterministic
  // per-search budgets make the merged result comparable bit-for-bit
  // (modulo wall-clock) between one worker and several.
  auto run = [&](int num_threads) {
    SearchOptions options = FastOptions();
    options.time_budget_seconds = 1e6;
    options.max_evaluations = 400;
    options.num_threads = num_threads;
    return AcesoSearch(model_, options);
  };
  const SearchResult serial = run(1);
  const SearchResult parallel = run(4);
  ASSERT_TRUE(serial.found);
  ASSERT_TRUE(parallel.found);
  EXPECT_EQ(parallel.best.semantic_hash, serial.best.semantic_hash);
  EXPECT_DOUBLE_EQ(parallel.best.perf.iteration_time,
                   serial.best.perf.iteration_time);
  EXPECT_EQ(parallel.stats.configs_explored, serial.stats.configs_explored);
  EXPECT_EQ(parallel.stats.iterations, serial.stats.iterations);
  ASSERT_EQ(parallel.top_configs.size(), serial.top_configs.size());
  for (size_t i = 0; i < parallel.top_configs.size(); ++i) {
    EXPECT_EQ(parallel.top_configs[i].semantic_hash,
              serial.top_configs[i].semantic_hash);
  }
}

TEST_F(SearchTest, MemoryPressureTriggersRecomputation) {
  // On a memory-starved device, the found configuration must use
  // recomputation (or very high parallelism) to become feasible.
  ClusterSpec tiny = cluster_;
  tiny.gpu.memory_bytes = 6 * kGiB;
  ProfileDatabase tiny_db(tiny);
  PerformanceModel tiny_model(&graph_, tiny, &tiny_db);
  const SearchResult result = AcesoSearch(tiny_model, FastOptions());
  ASSERT_TRUE(result.found);
  EXPECT_FALSE(result.best.perf.oom);
}

}  // namespace
}  // namespace aceso
