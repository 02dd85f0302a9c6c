// Property/fuzz tests over synthetic random models: the validator, cost
// model, primitive applications, search, plan lowering, and runtime must
// hold their invariants on arbitrary (structurally valid) operator chains,
// not just the zoo's regular transformers and CNNs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/aceso.h"
#include "src/ir/models/synthetic.h"

namespace aceso {
namespace {

class FuzzTest : public ::testing::TestWithParam<int> {
 protected:
  FuzzTest() : rng_(static_cast<uint64_t>(GetParam()) * 0x9E37 + 17) {}

  Rng rng_;
};

TEST_P(FuzzTest, EvenConfigsValidateAndEvaluate) {
  const OpGraph graph = models::SyntheticModel(rng_);
  const int gpus = 1 << rng_.NextInt(0, 4);  // 1..16 (one node block is 8)
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(gpus == 16 ? 16 : gpus);
  ProfileDatabase db(cluster, /*seed=*/GetParam());
  PerformanceModel model(&graph, cluster, &db);
  for (int stages = 1; stages <= std::min(cluster.num_gpus(), 4); ++stages) {
    auto config = MakeEvenConfig(graph, cluster, stages, 1);
    if (!config.ok()) {
      continue;  // stage count not constructible for this model
    }
    ASSERT_TRUE(config->Validate(graph, cluster).ok());
    const PerfResult perf = model.Evaluate(*config);
    EXPECT_TRUE(std::isfinite(perf.iteration_time));
    EXPECT_GT(perf.iteration_time, 0.0);
    for (const StageUsage& usage : perf.stages) {
      EXPECT_GE(usage.fwd_time, 0.0);
      EXPECT_GE(usage.comm_time, 0.0);
      EXPECT_GT(usage.memory_bytes, 0);
    }
  }
}

TEST_P(FuzzTest, AllPrimitiveCandidatesStayValid) {
  const OpGraph graph = models::SyntheticModel(rng_);
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(8);
  ProfileDatabase db(cluster, /*seed=*/GetParam());
  PerformanceModel model(&graph, cluster, &db);
  auto config = MakeEvenConfig(graph, cluster, std::min(4, graph.num_ops()),
                               1);
  if (!config.ok()) {
    GTEST_SKIP() << config.status().ToString();
  }
  const PerfResult perf = model.Evaluate(*config);
  for (int kind = 0; kind < kNumPrimitives; ++kind) {
    for (int stage = 0; stage < config->num_stages(); ++stage) {
      for (const Candidate& candidate : GeneratePrimitiveCandidates(
               model, *config, perf, static_cast<PrimitiveKind>(kind),
               stage)) {
        EXPECT_TRUE(candidate.config.Validate(graph, cluster).ok())
            << candidate.description;
        EXPECT_EQ(candidate.config.TotalDevices(), cluster.num_gpus());
      }
    }
  }
}

TEST_P(FuzzTest, SearchProducesValidFeasibleOrNothing) {
  const OpGraph graph = models::SyntheticModel(rng_);
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(4);
  ProfileDatabase db(cluster, /*seed=*/GetParam());
  PerformanceModel model(&graph, cluster, &db);
  SearchOptions options;
  options.time_budget_seconds = 0.15;
  options.max_stages = 4;
  const SearchResult result = AcesoSearch(model, options);
  if (result.found) {
    EXPECT_TRUE(result.best.config.Validate(graph, cluster).ok());
    for (const ScoredConfig& top : result.top_configs) {
      EXPECT_FALSE(top.perf.oom);
      EXPECT_TRUE(top.config.Validate(graph, cluster).ok());
    }
  }
}

TEST_P(FuzzTest, PlanLowersAndVerifies) {
  const OpGraph graph = models::SyntheticModel(rng_);
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(8);
  for (int stages = 1; stages <= 4; ++stages) {
    auto config = MakeEvenConfig(graph, cluster, stages, 2);
    if (!config.ok()) {
      continue;
    }
    const ExecutionPlan plan = ExecutionPlan::Lower(graph, *config);
    EXPECT_EQ(plan.num_devices(), cluster.num_gpus());
    EXPECT_TRUE(plan.Verify().ok()) << "stages=" << stages;
  }
}

TEST_P(FuzzTest, RuntimeAgreesWithModelWithinBand) {
  const OpGraph graph = models::SyntheticModel(rng_);
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(4);
  ProfileDatabase db(cluster, /*seed=*/GetParam());
  PerformanceModel model(&graph, cluster, &db);
  PipelineExecutor executor(&model);
  auto config = MakeEvenConfig(graph, cluster, 2, 2);
  if (!config.ok()) {
    GTEST_SKIP() << config.status().ToString();
  }
  const PerfResult predicted = model.Evaluate(*config);
  ExecutionOptions exec;
  exec.simulate_memory = false;  // synthetic models may not fit 30 GB
  const ExecutionResult actual = executor.Execute(*config, exec);
  EXPECT_GT(actual.iteration_seconds, predicted.iteration_time * 0.5);
  EXPECT_LT(actual.iteration_seconds, predicted.iteration_time * 2.0);
}

TEST_P(FuzzTest, RandomZeroFlagsNeverIncreaseMemory) {
  const OpGraph graph = models::SyntheticModel(rng_);
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(8);
  ProfileDatabase db(cluster, /*seed=*/GetParam());
  PerformanceModel model(&graph, cluster, &db);
  auto config = MakeEvenConfig(graph, cluster, 2, 8);
  if (!config.ok()) {
    GTEST_SKIP() << config.status().ToString();
  }
  const PerfResult plain = model.Evaluate(*config);
  ParallelConfig flagged = *config;
  for (int i = 0; i < graph.num_ops(); ++i) {
    flagged.MutableOpSettings(i).zero_opt = rng_.NextBool(0.5);
  }
  const PerfResult sharded = model.Evaluate(flagged);
  EXPECT_LE(sharded.MaxMemory(), plain.MaxMemory());
  EXPECT_TRUE(std::isfinite(sharded.iteration_time));
}

// Applies one random config mutation through the copy-on-write mutator API,
// exercising every kind of write the search performs: recompute toggles,
// tp_dim flips, tp/dp retargeting, ZeRO flags, and microbatch changes.
void MutateRandomly(const OpGraph& graph, ParallelConfig& config, Rng& rng) {
  const int s = rng.NextInt(0, config.num_stages() - 1);
  switch (rng.NextInt(0, 4)) {
    case 0: {
      StageConfig& stage = config.MutableStage(s);
      OpParallel& setting =
          stage.ops[static_cast<size_t>(rng.NextInt(0, stage.num_ops - 1))];
      setting.recompute = !setting.recompute;
      break;
    }
    case 1: {
      StageConfig& stage = config.MutableStage(s);
      OpParallel& setting =
          stage.ops[static_cast<size_t>(rng.NextInt(0, stage.num_ops - 1))];
      setting.tp_dim =
          setting.tp_dim == TpDim::kColumn ? TpDim::kRow : TpDim::kColumn;
      break;
    }
    case 2: {
      // Halve tp / double dp (or back) for the whole stage where possible.
      StageConfig& stage = config.MutableStage(s);
      const bool increase = rng.NextBool(0.5);
      for (int i = 0; i < stage.num_ops; ++i) {
        OpParallel& setting = stage.ops[static_cast<size_t>(i)];
        const int new_tp = increase ? setting.tp * 2 : setting.tp / 2;
        if (new_tp < 1 || new_tp > stage.num_devices) {
          continue;
        }
        const int clamped = ClampOpTp(graph.op(stage.first_op + i), new_tp);
        setting.tp = clamped;
        setting.dp = stage.num_devices / clamped;
      }
      break;
    }
    case 3: {
      const int op = rng.NextInt(0, graph.num_ops() - 1);
      config.MutableOpSettings(op).zero_opt = rng.NextBool(0.5);
      break;
    }
    default:
      config.set_microbatch_size(1 << rng.NextInt(0, 3));
      break;
  }
}

TEST_P(FuzzTest, CowMutationNeverAliasesParentState) {
  // Copying a config shares stage blocks; mutating the copy must never leak
  // into the parent's observable state. Checked against a deep copy taken
  // before any sharing, field by field and hash by hash.
  const OpGraph graph = models::SyntheticModel(rng_);
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(8);
  auto made = MakeEvenConfig(graph, cluster, std::min(4, graph.num_ops()), 4);
  if (!made.ok()) {
    GTEST_SKIP() << made.status().ToString();
  }
  ParallelConfig parent = *std::move(made);
  const ParallelConfig snapshot = parent.DeepCopy();
  const uint64_t parent_hash = parent.SemanticHash(graph);

  for (int round = 0; round < 20; ++round) {
    ParallelConfig child = parent;  // shares all stage blocks
    for (int m = 0; m < 3; ++m) {
      MutateRandomly(graph, child, rng_);
    }
    // The parent still matches the pre-sharing snapshot exactly.
    ASSERT_EQ(parent.num_stages(), snapshot.num_stages());
    ASSERT_EQ(parent.microbatch_size(), snapshot.microbatch_size());
    for (int s = 0; s < parent.num_stages(); ++s) {
      const StageConfig& got = parent.stage(s);
      const StageConfig& want = snapshot.stage(s);
      ASSERT_EQ(got.first_op, want.first_op);
      ASSERT_EQ(got.num_ops, want.num_ops);
      ASSERT_EQ(got.num_devices, want.num_devices);
      ASSERT_EQ(got.ops.size(), want.ops.size());
      for (size_t i = 0; i < got.ops.size(); ++i) {
        ASSERT_TRUE(got.ops[i] == want.ops[i]) << "stage " << s << " op " << i;
      }
    }
    ASSERT_EQ(parent.SemanticHash(graph), parent_hash);
  }
}

TEST_P(FuzzTest, IncrementalHashesMatchUncachedUnderMutationSequences) {
  // The cached/incremental hash paths must agree bit-for-bit with the
  // from-scratch reference implementations at every point of a random
  // mutation/copy sequence — the exact access pattern of candidate
  // generation (copy, mutate one or two stages, re-hash).
  const OpGraph graph = models::SyntheticModel(rng_);
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(8);
  auto made = MakeEvenConfig(graph, cluster, std::min(4, graph.num_ops()), 4);
  if (!made.ok()) {
    GTEST_SKIP() << made.status().ToString();
  }
  ParallelConfig config = *std::move(made);
  auto check_all = [&](const ParallelConfig& c) {
    ASSERT_EQ(c.SemanticHash(graph), c.SemanticHashUncached(graph));
    for (int s = 0; s < c.num_stages(); ++s) {
      ASSERT_EQ(c.StageSemanticHash(graph, cluster, s),
                c.StageSemanticHashUncached(graph, cluster, s))
          << "stage " << s;
    }
    // Hashing is idempotent (the second call is fully cached).
    ASSERT_EQ(c.SemanticHash(graph), c.SemanticHashUncached(graph));
  };

  check_all(config);
  for (int round = 0; round < 40; ++round) {
    ParallelConfig candidate = config;  // CoW copy, warm caches
    MutateRandomly(graph, candidate, rng_);
    if (rng_.NextBool(0.5)) {
      MutateRandomly(graph, candidate, rng_);
    }
    check_all(candidate);
    check_all(config);  // the base config's caches stay correct too
    if (rng_.NextBool(0.3)) {
      config = std::move(candidate);  // walk, like the search does
    }
  }
}

// Bit-exact StageCost comparison: the memoized/run-compressed path must
// reproduce the direct walk in every field, doubles included (IEEE-exact,
// not approximately — golden search hashes depend on it).
void ExpectStageCostBitEqual(const StageCost& fast, const StageCost& direct,
                             int stage, int round) {
  ASSERT_EQ(fast.fwd_time, direct.fwd_time) << "stage " << stage << " round "
                                            << round;
  ASSERT_EQ(fast.bwd_time, direct.bwd_time) << "stage " << stage;
  ASSERT_EQ(fast.comp_time, direct.comp_time) << "stage " << stage;
  ASSERT_EQ(fast.comm_time, direct.comm_time) << "stage " << stage;
  ASSERT_EQ(fast.recompute_time, direct.recompute_time) << "stage " << stage;
  ASSERT_EQ(fast.dp_sync_time, direct.dp_sync_time) << "stage " << stage;
  ASSERT_EQ(fast.param_bytes, direct.param_bytes) << "stage " << stage;
  ASSERT_EQ(fast.optimizer_bytes, direct.optimizer_bytes) << "stage " << stage;
  ASSERT_EQ(fast.activation_bytes_per_mb, direct.activation_bytes_per_mb)
      << "stage " << stage;
  ASSERT_EQ(fast.reserved_bytes, direct.reserved_bytes) << "stage " << stage;
}

TEST_P(FuzzTest, MemoizedStageCostBitIdenticalToDirectWalk) {
  // ComputeStageCost (op memo + run compression) against the direct per-op
  // walk, across random mutation sequences that mix recompute flags, tp_dim
  // flips, mid-stage tp/dp retargets (dp-reshard boundaries), ZeRO flags,
  // and microbatch changes — on stages the mutations make non-uniform.
  const OpGraph graph = models::SyntheticModel(rng_);
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(8);
  ProfileDatabase db(cluster, /*seed=*/GetParam());
  PerformanceModel model(&graph, cluster, &db);
  auto made = MakeEvenConfig(graph, cluster, std::min(4, graph.num_ops()), 4);
  if (!made.ok()) {
    GTEST_SKIP() << made.status().ToString();
  }
  ParallelConfig config = *std::move(made);
  for (int round = 0; round < 25; ++round) {
    for (int s = 0; s < config.num_stages(); ++s) {
      const StageCost direct = AggregateStageCost(model.WalkStage(config, s));
      const StageCost fast = model.ComputeStageCost(config, s);
      ExpectStageCostBitEqual(fast, direct, s, round);
    }
    MutateRandomly(graph, config, rng_);
  }
  // The memo actually engaged (repeat rounds re-walk identical contexts).
  EXPECT_GT(model.op_memo().stats().hits, 0);
}

TEST_P(FuzzTest, EvaluateBitIdenticalWithMemoAndCompressionOff) {
  // End-to-end Evaluate() with every op-level optimization on vs off, over
  // one shared profile database (published measurements are immutable, so
  // sharing cannot leak one model's path into the other's values).
  const OpGraph graph = models::SyntheticModel(rng_);
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(8);
  ProfileDatabase db(cluster, /*seed=*/GetParam());
  PerformanceModel fast(&graph, cluster, &db);
  PerformanceModel plain(&graph, cluster, &db);
  plain.set_op_memo_enabled(false);
  plain.set_run_compression_enabled(false);
  auto made = MakeEvenConfig(graph, cluster, std::min(4, graph.num_ops()), 4);
  if (!made.ok()) {
    GTEST_SKIP() << made.status().ToString();
  }
  ParallelConfig config = *std::move(made);
  for (int round = 0; round < 20; ++round) {
    const PerfResult a = fast.Evaluate(config);
    const PerfResult b = plain.Evaluate(config);
    ASSERT_EQ(a.iteration_time, b.iteration_time) << "round " << round;
    ASSERT_EQ(a.oom, b.oom);
    ASSERT_EQ(a.slowest_stage, b.slowest_stage);
    ASSERT_EQ(a.max_memory_stage, b.max_memory_stage);
    ASSERT_EQ(a.stages.size(), b.stages.size());
    for (size_t s = 0; s < a.stages.size(); ++s) {
      ASSERT_EQ(a.stages[s].stage_time, b.stages[s].stage_time) << s;
      ASSERT_EQ(a.stages[s].memory_bytes, b.stages[s].memory_bytes) << s;
      ASSERT_EQ(a.stages[s].fwd_time, b.stages[s].fwd_time) << s;
      ASSERT_EQ(a.stages[s].bwd_time, b.stages[s].bwd_time) << s;
      ASSERT_EQ(a.stages[s].dp_sync_time, b.stages[s].dp_sync_time) << s;
    }
    MutateRandomly(graph, config, rng_);
  }
}

TEST_P(FuzzTest, AdaptedSeedConfigsAreValidOrRejected) {
  // The seed-adaptation property (DESIGN.md §17): adapting ANY valid config
  // — built for a different random model and a different cluster size, then
  // scrambled by random mutations — either fails cleanly (NotFound) or
  // produces a config that fully validates against the target, covers every
  // target op, fills the target cluster exactly, and carries a memory
  // verdict consistent with re-evaluating the adapted config from scratch.
  const OpGraph source_graph = models::SyntheticModel(rng_);
  const ClusterSpec source_cluster =
      ClusterSpec::WithGpuCount(1 << rng_.NextInt(1, 3));  // 2..8
  auto made = MakeEvenConfig(
      source_graph, source_cluster,
      std::min({4, source_graph.num_ops(), source_cluster.num_gpus()}),
      1 << rng_.NextInt(0, 2));
  if (!made.ok()) {
    GTEST_SKIP() << made.status().ToString();
  }
  ParallelConfig seed = *std::move(made);
  // The mutations may even break the source's own divisibility invariants
  // (random microbatch sizes): adaptation must still reject-or-produce-valid
  // — it never trusts the seed, only the target-side Validate.
  for (int m = 0; m < 5; ++m) {
    MutateRandomly(source_graph, seed, rng_);
  }

  // A structurally different target: fresh random model, different size.
  Rng target_rng(rng_.NextU64());
  const OpGraph target_graph = models::SyntheticModel(target_rng);
  const ClusterSpec target_cluster =
      ClusterSpec::WithGpuCount(1 << rng_.NextInt(0, 4));  // 1..16
  ProfileDatabase db(target_cluster, /*seed=*/GetParam());
  PerformanceModel model(&target_graph, target_cluster, &db);

  SeedAdaptOptions adapt_options;
  if (rng_.NextBool(0.3)) {
    adapt_options.memory_limit_bytes = 16 * kGiB;
  }
  auto adapted = AdaptSeedConfig(model, seed, adapt_options);
  if (!adapted.ok()) {
    EXPECT_EQ(adapted.status().code(), StatusCode::kNotFound)
        << adapted.status().ToString();
    return;  // clean rejection is an allowed outcome
  }
  const ParallelConfig& config = adapted->config;
  EXPECT_TRUE(config.Validate(target_graph, target_cluster).ok());
  EXPECT_EQ(config.num_stages(), seed.num_stages());
  EXPECT_EQ(config.TotalDevices(), target_cluster.num_gpus());
  // Full positional coverage of the target's ops.
  int next_op = 0;
  for (int s = 0; s < config.num_stages(); ++s) {
    EXPECT_EQ(config.stage(s).first_op, next_op);
    next_op += config.stage(s).num_ops;
  }
  EXPECT_EQ(next_op, target_graph.num_ops());
  // The reported verdict is exactly a fresh evaluation under the same limit.
  PerfResult fresh = model.Evaluate(config);
  fresh.ApplyMemoryLimit(adapt_options.memory_limit_bytes > 0
                             ? adapt_options.memory_limit_bytes
                             : target_cluster.gpu.memory_bytes);
  EXPECT_EQ(adapted->perf.iteration_time, fresh.iteration_time);
  EXPECT_EQ(adapted->perf.oom, fresh.oom);
}

TEST_P(FuzzTest, ConfigIoRoundTripsOnRandomModels) {
  const OpGraph graph = models::SyntheticModel(rng_);
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(8);
  auto config = MakeEvenConfig(graph, cluster, 2, 4);
  if (!config.ok()) {
    GTEST_SKIP() << config.status().ToString();
  }
  // Random recompute flags.
  for (int i = 0; i < graph.num_ops(); ++i) {
    config->MutableOpSettings(i).recompute = rng_.NextBool(0.3);
  }
  auto parsed = ParseConfig(SerializeConfig(*config, graph.name()), graph);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->SemanticHash(graph), config->SemanticHash(graph));
}

// ----- Candidate construction -----

TEST_P(FuzzTest, StageOnlyMemoryMatchesEvaluate) {
  // The recompute fix-up reads one stage's Eq. 1 memory from that stage's
  // own cost; it must equal the whole-config evaluation's figure bit for
  // bit, with the stage-cost cache on and off, along a random mutation walk.
  const OpGraph graph = models::SyntheticModel(rng_);
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(8);
  ProfileDatabase db(cluster, /*seed=*/GetParam());
  PerformanceModel cached(&graph, cluster, &db);
  PerformanceModel uncached(&graph, cluster, &db);
  uncached.set_stage_cache_enabled(false);
  auto made = MakeEvenConfig(graph, cluster, std::min(4, graph.num_ops()), 4);
  if (!made.ok()) {
    GTEST_SKIP() << made.status().ToString();
  }
  ParallelConfig config = *std::move(made);
  for (int round = 0; round < 20; ++round) {
    const int p = config.num_stages();
    for (const PerformanceModel* model : {&cached, &uncached}) {
      const PerfResult perf = model->Evaluate(config);
      for (int s = 0; s < p; ++s) {
        ASSERT_EQ(StageMemoryBytes(*model->ResolveStageCost(config, s), p, s),
                  perf.stages[static_cast<size_t>(s)].memory_bytes)
            << "stage " << s << " round " << round;
      }
    }
    MutateRandomly(graph, config, rng_);
  }
}

// The recompute fix-up as it was before it read one stage: a whole-config
// Evaluate() for the stage's memory, then the same greedy passes. Kept here
// as the reference the stage-only version must reproduce exactly.
int64_t ReferenceStoredBytes(const Operator& op, const OpParallel& setting,
                             int mbs) {
  int shards = 1;
  if (op.tp_class == TpClass::kPartitioned &&
      setting.tp_dim == TpDim::kColumn) {
    shards = setting.tp;
  } else if (op.tp_class == TpClass::kShardFollower) {
    shards = EffectiveShards(op, setting.tp);
  }
  return op.out_bytes * static_cast<int64_t>(mbs / setting.dp) / shards;
}

void ReferenceFixRecompute(const PerformanceModel& model,
                           ParallelConfig& config, int stage_index) {
  const PerfResult perf = model.Evaluate(config);
  const int64_t limit = model.cluster().gpu.memory_bytes;
  const StageUsage& usage = perf.stages[static_cast<size_t>(stage_index)];
  StageConfig& stage = config.MutableStage(stage_index);
  const int64_t in_flight = std::max(1, config.num_stages() - stage_index);
  const int mbs = config.microbatch_size();
  if (usage.memory_bytes > limit) {
    int64_t need = usage.memory_bytes - limit;
    std::vector<std::pair<int64_t, int>> by_size;
    for (int i = 0; i < stage.num_ops; ++i) {
      const OpParallel& setting = stage.ops[static_cast<size_t>(i)];
      if (!setting.recompute) {
        const int64_t stored = ReferenceStoredBytes(
            model.graph().op(stage.first_op + i), setting, mbs);
        if (stored > 0) {
          by_size.emplace_back(stored, i);
        }
      }
    }
    std::sort(by_size.begin(), by_size.end(),
              std::greater<std::pair<int64_t, int>>());
    for (const auto& [stored, i] : by_size) {
      if (need <= 0) {
        break;
      }
      stage.ops[static_cast<size_t>(i)].recompute = true;
      need -= stored * in_flight;
    }
  } else {
    int64_t slack = limit - usage.memory_bytes;
    std::vector<std::pair<double, int>> by_cost;
    for (int i = 0; i < stage.num_ops; ++i) {
      const OpParallel& setting = stage.ops[static_cast<size_t>(i)];
      if (setting.recompute) {
        const Operator& op = model.graph().op(stage.first_op + i);
        const OpMeasurement m = model.db().OpTime(
            op, model.graph().precision(), EffectiveShards(op, setting.tp),
            std::max(1, mbs / setting.dp));
        by_cost.emplace_back(m.fwd_seconds, i);
      }
    }
    std::sort(by_cost.begin(), by_cost.end(),
              std::greater<std::pair<double, int>>());
    for (const auto& [cost, i] : by_cost) {
      const Operator& op = model.graph().op(stage.first_op + i);
      const int64_t added =
          ReferenceStoredBytes(op, stage.ops[static_cast<size_t>(i)], mbs) *
          in_flight;
      if (added <= slack) {
        stage.ops[static_cast<size_t>(i)].recompute = false;
        slack -= added;
      }
    }
  }
}

TEST_P(FuzzTest, FixRecomputeMatchesEvaluateBasedReference) {
  // A device capacity drawn around the base config's peak memory sends the
  // fix-up down both its paths (add recompute to fit, release it into
  // slack) across a random walk of recompute flags and parallelism.
  const OpGraph graph = models::SyntheticModel(rng_);
  ClusterSpec cluster = ClusterSpec::WithGpuCount(8);
  auto made = MakeEvenConfig(graph, cluster, std::min(4, graph.num_ops()), 4);
  if (!made.ok()) {
    GTEST_SKIP() << made.status().ToString();
  }
  ParallelConfig config = *std::move(made);
  {
    ProfileDatabase probe_db(cluster, /*seed=*/GetParam());
    const PerformanceModel probe(&graph, cluster, &probe_db);
    const double scale = 0.3 + 1.2 * rng_.NextDouble();
    cluster.gpu.memory_bytes = std::max<int64_t>(
        1, static_cast<int64_t>(
               static_cast<double>(probe.Evaluate(config).MaxMemory()) *
               scale));
  }
  ProfileDatabase db(cluster, /*seed=*/GetParam());
  PerformanceModel cached(&graph, cluster, &db);
  PerformanceModel uncached(&graph, cluster, &db);
  uncached.set_stage_cache_enabled(false);
  for (int round = 0; round < 15; ++round) {
    for (int s = 0; s < config.num_stages(); ++s) {
      ParallelConfig want = config;
      ReferenceFixRecompute(cached, want, s);
      for (const PerformanceModel* model : {&cached, &uncached}) {
        ParallelConfig got = config;
        FixRecompute(*model, got, s);
        ASSERT_EQ(got.SemanticHash(graph), want.SemanticHash(graph))
            << "stage " << s << " round " << round;
      }
    }
    MutateRandomly(graph, config, rng_);
  }
}

// The primitive kinds whose candidates all list their target stage as
// touched (op moves, microbatch changes, tp/dp conversions and device
// migrations) — every kind except the rc and ZeRO flag flips.
bool TouchesTargetStage(PrimitiveKind kind) {
  switch (kind) {
    case PrimitiveKind::kIncRc:
    case PrimitiveKind::kDecRc:
    case PrimitiveKind::kIncZero:
    case PrimitiveKind::kDecZero:
      return false;
    default:
      return true;
  }
}

TEST_P(FuzzTest, StageFilteredCandidatesPassFullValidate) {
  // Candidates re-check only the stages they touched. Along a random walk
  // of valid bases (each the previous step's candidate), every emitted
  // candidate must still pass the full, unfiltered Validate.
  const OpGraph graph = models::SyntheticModel(rng_);
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(8);
  ProfileDatabase db(cluster, /*seed=*/GetParam());
  PerformanceModel model(&graph, cluster, &db);
  auto made = MakeEvenConfig(graph, cluster, std::min(4, graph.num_ops()), 1);
  if (!made.ok()) {
    GTEST_SKIP() << made.status().ToString();
  }
  ParallelConfig base = *std::move(made);
  int emitted = 0;
  for (int step = 0; step < 12; ++step) {
    ASSERT_TRUE(base.Validate(graph, cluster).ok());
    const PerfResult perf = model.Evaluate(base);
    std::vector<Candidate> pool;
    for (int kind = 0; kind < kNumPrimitives; ++kind) {
      const int stage = rng_.NextInt(0, base.num_stages() - 1);
      for (Candidate& candidate : GeneratePrimitiveCandidates(
               model, base, perf, static_cast<PrimitiveKind>(kind), stage)) {
        ASSERT_TRUE(candidate.config.Validate(graph, cluster).ok())
            << candidate.description << " at step " << step;
        pool.push_back(std::move(candidate));
      }
    }
    emitted += static_cast<int>(pool.size());
    if (pool.empty()) {
      break;
    }
    base = pool[static_cast<size_t>(
                    rng_.NextInt(0, static_cast<int>(pool.size()) - 1))]
               .config;
  }
  EXPECT_GT(emitted, 0);
}

TEST_P(FuzzTest, ViolationInTouchedStageIsRejected) {
  // Plant a per-op violation (tp*dp != stage devices) in one stage of a
  // valid base. Every primitive that touches that stage must reject each
  // candidate still carrying it, so whatever survives is fully valid; the
  // ones that keep the stage's ops as they are (pulling ops in, changing
  // the microbatch size) must emit nothing.
  const OpGraph graph = models::SyntheticModel(rng_);
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(8);
  ProfileDatabase db(cluster, /*seed=*/GetParam());
  PerformanceModel model(&graph, cluster, &db);
  auto made = MakeEvenConfig(graph, cluster, std::min(4, graph.num_ops()), 2);
  if (!made.ok()) {
    GTEST_SKIP() << made.status().ToString();
  }
  const ParallelConfig valid = *std::move(made);
  const PerfResult perf = model.Evaluate(valid);
  for (int stage = 0; stage < valid.num_stages(); ++stage) {
    ParallelConfig planted = valid;
    const StageConfig& target = planted.stage(stage);
    const int op = target.first_op + rng_.NextInt(0, target.num_ops - 1);
    planted.MutableOpSettings(op).dp *= 2;
    ASSERT_FALSE(planted.Validate(graph, cluster).ok());
    for (int kind = 0; kind < kNumPrimitives; ++kind) {
      const auto k = static_cast<PrimitiveKind>(kind);
      if (!TouchesTargetStage(k)) {
        continue;
      }
      const std::vector<Candidate> candidates =
          GeneratePrimitiveCandidates(model, planted, perf, k, stage);
      for (const Candidate& candidate : candidates) {
        EXPECT_TRUE(candidate.config.Validate(graph, cluster).ok())
            << candidate.description;
      }
      if (k == PrimitiveKind::kIncOpCount || k == PrimitiveKind::kIncMbs ||
          k == PrimitiveKind::kDecMbs) {
        EXPECT_TRUE(candidates.empty())
            << PrimitiveName(k) << " at stage " << stage;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range(1, 13));

}  // namespace
}  // namespace aceso
