// Property/fuzz tests over synthetic random models: the validator, cost
// model, primitive applications, search, plan lowering, and runtime must
// hold their invariants on arbitrary (structurally valid) operator chains,
// not just the zoo's regular transformers and CNNs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "src/aceso.h"
#include "src/ir/models/model_zoo.h"
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

  const int64_t limit =
      rng_.NextBool(0.3) ? 16 * kGiB : target_cluster.gpu.memory_bytes;
  auto adapted = AdaptSeedConfig(model, seed, limit);
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
  fresh.ApplyMemoryLimit(limit);
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

// The greedy passes of the reference fix-up, given the stage's Eq. 1
// memory: full sorts of every candidate op, as the fix-up once did.
void ReferenceGreedyFix(const PerformanceModel& model, ParallelConfig& config,
                        int stage_index, int64_t memory) {
  const int64_t limit = model.cluster().gpu.memory_bytes;
  StageConfig& stage = config.MutableStage(stage_index);
  const int64_t in_flight = std::max(1, config.num_stages() - stage_index);
  const int mbs = config.microbatch_size();
  if (memory > limit) {
    int64_t need = memory - limit;
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
    int64_t slack = limit - memory;
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

void ReferenceFixRecompute(const PerformanceModel& model,
                           ParallelConfig& config, int stage_index) {
  const PerfResult perf = model.Evaluate(config);
  const StageUsage& usage = perf.stages[static_cast<size_t>(stage_index)];
  ReferenceGreedyFix(model, config, stage_index, usage.memory_bytes);
}

// The fix-up as it was before it went walk-free: the stage's memory from
// its resolved stage cost (a walk on a stage-cache miss), then full sorts.
void WalkAndSortFixRecompute(const PerformanceModel& model,
                             ParallelConfig& config, int stage_index) {
  ReferenceGreedyFix(
      model, config, stage_index,
      StageMemoryBytes(*model.ResolveStageCost(config, stage_index),
                       config.num_stages(), stage_index));
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
        FixRecompute(*model, got, s, cluster.gpu.memory_bytes);
        ASSERT_EQ(got.SemanticHash(graph), want.SemanticHash(graph))
            << "stage " << s << " round " << round;
      }
    }
    MutateRandomly(graph, config, rng_);
  }
}

// ----- Walk-free recompute fix-up -----

// A zoo model chosen by the seed: decoder, CNN, encoder-decoder and deep
// stacks mix tp classes, work buffers and parameter sizes differently.
OpGraph ZooModelForSeed(int seed) {
  switch (seed % 4) {
    case 0:
      return models::Gpt3(0.35);
    case 1:
      return models::WideResnet(0.5);
    case 2:
      return models::T5(0.77);
    default:
      return models::DeepTransformer(12);
  }
}

// An even zoo config with random recompute (probability `recompute_p`),
// ZeRO and tp-dim flags on every op, then a few random mutations (tp/dp
// retargets, microbatch changes). Fails only when the even config cannot
// be built.
StatusOr<ParallelConfig> ScrambledZooConfig(const OpGraph& graph,
                                            const ClusterSpec& cluster,
                                            double recompute_p, Rng& rng) {
  auto made = MakeEvenConfig(graph, cluster, 1 << rng.NextInt(0, 2),
                             1 << rng.NextInt(0, 3));
  if (!made.ok()) {
    return made.status();
  }
  ParallelConfig config = *std::move(made);
  for (int s = 0; s < config.num_stages(); ++s) {
    for (OpParallel& setting : config.MutableStage(s).ops) {
      setting.recompute = rng.NextBool(recompute_p);
      setting.zero_opt = rng.NextBool(0.3);
      if (rng.NextBool(0.2)) {
        setting.tp_dim =
            setting.tp_dim == TpDim::kColumn ? TpDim::kRow : TpDim::kColumn;
      }
    }
  }
  for (int m = rng.NextInt(0, 3); m > 0; --m) {
    MutateRandomly(graph, config, rng);
  }
  return config;
}

TEST_P(FuzzTest, WalkFreeStageMemoryMatchesResolvedStageCost) {
  // PerformanceModel::StageMemory (integer-only, no walk) against the Eq. 1
  // memory of the stage cost Evaluate() resolves, bit for bit, with the
  // stage cache on and off and run compression on and off.
  const OpGraph graph = ZooModelForSeed(GetParam());
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(8);
  ProfileDatabase db(cluster, /*seed=*/GetParam());
  std::vector<std::unique_ptr<PerformanceModel>> models;
  for (int mode = 0; mode < 4; ++mode) {
    models.push_back(std::make_unique<PerformanceModel>(&graph, cluster, &db));
    models.back()->set_stage_cache_enabled((mode & 1) != 0);
    models.back()->set_run_compression_enabled((mode & 2) != 0);
  }
  int checked = 0;
  for (int round = 0; round < 10; ++round) {
    auto config = ScrambledZooConfig(graph, cluster, 0.3, rng_);
    if (!config.ok()) {
      continue;
    }
    const int p = config->num_stages();
    for (int s = 0; s < p; ++s) {
      for (const auto& model : models) {
        ASSERT_EQ(model->StageMemory(*config, s),
                  StageMemoryBytes(*model->ResolveStageCost(*config, s), p, s))
            << graph.name() << " stage " << s << " round " << round;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0);
}

// Device capacities that send FixRecompute down every branch edge for
// stage `s`: over memory by exactly the fattest activation (one op flips,
// the higher index of a tie), by one byte more (its tie partner flips
// too), by a quarter and by all of it (many ops flip); no slack at all;
// and release slack equal to, one byte under, and one byte over what
// releasing single recompute ops adds back.
std::vector<int64_t> FixLimits(const PerformanceModel& model,
                               const ParallelConfig& config, int s) {
  const int64_t memory = StageMemoryBytes(*model.ResolveStageCost(config, s),
                                          config.num_stages(), s);
  const int64_t in_flight = std::max(1, config.num_stages() - s);
  const StageConfig& stage = config.stage(s);
  int64_t fattest = 0;
  std::vector<int64_t> released;
  for (int i = 0; i < stage.num_ops; ++i) {
    const OpParallel& setting = stage.ops[static_cast<size_t>(i)];
    const int64_t bytes =
        ReferenceStoredBytes(model.graph().op(stage.first_op + i), setting,
                             config.microbatch_size()) *
        in_flight;
    if (setting.recompute) {
      released.push_back(bytes);
    } else {
      fattest = std::max(fattest, bytes);
    }
  }
  std::vector<int64_t> limits = {memory - fattest, memory - fattest - 1,
                                 memory - memory / 4, 1, memory};
  std::sort(released.begin(), released.end());
  for (size_t k = 0; k < released.size(); k += 1 + released.size() / 4) {
    for (int64_t delta : {-1, 0, 1}) {
      limits.push_back(memory + released[k] + delta);
    }
  }
  return limits;
}

TEST_P(FuzzTest, FixRecomputeMatchesWalkAndSortReference) {
  // The walk-free, sort-free fix-up against a copy of the walk-and-sort
  // one, at capacities planted on the edges of both greedy passes. A fix
  // never probes the stage-cost cache.
  const OpGraph graph = ZooModelForSeed(GetParam());
  const ClusterSpec base = ClusterSpec::WithGpuCount(8);
  ProfileDatabase db(base, /*seed=*/GetParam());
  const PerformanceModel probe(&graph, base, &db);
  OpMemoOptions small_memo;
  small_memo.capacity = 1 << 10;
  int checked = 0;
  for (int round = 0; round < 6; ++round) {
    // Odd rounds recompute nearly everything: the release pass's turn.
    const double recompute_p = round % 2 == 0 ? 0.2 : 0.9;
    auto config = ScrambledZooConfig(graph, base, recompute_p, rng_);
    if (!config.ok()) {
      continue;
    }
    for (int s = 0; s < config->num_stages(); ++s) {
      for (const int64_t limit : FixLimits(probe, *config, s)) {
        ClusterSpec cluster = base;
        cluster.gpu.memory_bytes = std::max<int64_t>(1, limit);
        const PerformanceModel model(&graph, cluster, &db, {}, small_memo);
        ParallelConfig want = *config;
        WalkAndSortFixRecompute(model, want, s);
        ParallelConfig got = *config;
        const StageCacheStats before = model.stage_cache().stats();
        FixRecompute(model, got, s, cluster.gpu.memory_bytes);
        const StageCacheStats after = model.stage_cache().stats();
        ASSERT_EQ(after.hits, before.hits);
        ASSERT_EQ(after.misses, before.misses);
        const StageConfig& got_stage = got.stage(s);
        const StageConfig& want_stage = want.stage(s);
        for (int i = 0; i < got_stage.num_ops; ++i) {
          ASSERT_EQ(got_stage.ops[static_cast<size_t>(i)].recompute,
                    want_stage.ops[static_cast<size_t>(i)].recompute)
              << graph.name() << " stage " << s << " op " << i << " limit "
              << limit << " round " << round;
        }
        ASSERT_EQ(got.SemanticHash(graph), want.SemanticHash(graph));
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0);
}

// ----- Periodic stage segmentation -----

// A model for the seed: deep stacks of 16, 256 and 1000 layers, a decoder,
// an encoder-decoder and a CNN.
OpGraph SegmentModelForSeed(int seed) {
  switch (seed % 6) {
    case 0:
      return models::DeepTransformer(16);
    case 1:
      return models::DeepTransformer(256);
    case 2:
      return models::DeepTransformer(1000);
    case 3:
      return models::Gpt3(0.35);
    case 4:
      return models::T5(0.77);
    default:
      return models::WideResnet(0.5);
  }
}

// Sets op `g` of `config` to tp `tp` (clamped to the op and its stage).
void SetOpTp(const OpGraph& graph, ParallelConfig& config, int g, int tp) {
  const int devices = config.stage(config.StageOfOp(g)).num_devices;
  OpParallel& setting = config.MutableOpSettings(g);
  setting.tp = ClampOpTp(graph.op(g), std::min(tp, devices));
  setting.dp = devices / setting.tp;
}

// An even config whose settings repeat with the graph's layer period, as
// searched deep stages do: each position in the period draws a tp (1, 2 or
// 4), a tp dim, a recompute and a ZeRO flag. A stage's first repetition
// enters replicated and without a dp-reshard, so positions whose tp or dim
// differ make later repetitions enter in another layout or dp than the
// first. Then up to four random ops break the period (a recompute toggle, a
// dim flip or a new tp). Microbatch 8 keeps every dp on 8 GPUs valid.
ParallelConfig PeriodicZooConfig(const OpGraph& graph,
                                 const ClusterSpec& cluster, Rng& rng) {
  ParallelConfig config =
      *MakeEvenConfig(graph, cluster, 1 << rng.NextInt(0, 2), 8);
  const int period = std::max(1, graph.period_table().period);
  struct Pattern {
    int tp;
    bool flip_dim;
    bool recompute;
    bool zero;
  };
  std::vector<Pattern> patterns;
  for (int j = 0; j < period; ++j) {
    patterns.push_back(Pattern{1 << rng.NextInt(0, 2), rng.NextBool(0.3),
                               rng.NextBool(0.25), rng.NextBool(0.2)});
  }
  for (int g = 0; g < graph.num_ops(); ++g) {
    const Pattern& pattern = patterns[static_cast<size_t>(g % period)];
    SetOpTp(graph, config, g, pattern.tp);
    OpParallel& setting = config.MutableOpSettings(g);
    if (pattern.flip_dim) {
      setting.tp_dim =
          setting.tp_dim == TpDim::kColumn ? TpDim::kRow : TpDim::kColumn;
    }
    setting.recompute = pattern.recompute;
    setting.zero_opt = pattern.zero;
  }
  for (int k = rng.NextInt(0, 4); k > 0; --k) {
    const int g = rng.NextInt(0, graph.num_ops() - 1);
    OpParallel& setting = config.MutableOpSettings(g);
    switch (rng.NextInt(0, 2)) {
      case 0:
        setting.recompute = !setting.recompute;
        break;
      case 1:
        setting.tp_dim =
            setting.tp_dim == TpDim::kColumn ? TpDim::kRow : TpDim::kColumn;
        break;
      default:
        SetOpTp(graph, config, g, 1 << rng.NextInt(0, 3));
        break;
    }
  }
  return config;
}

// The number of stages of `config` whose segmentation replays a run.
int CompressedStages(const OpGraph& graph, const ParallelConfig& config) {
  int compressed = 0;
  for (int s = 0; s < config.num_stages(); ++s) {
    for (const StageRun& run : config.StageRuns(graph, s)) {
      if (run.reps >= 2) {
        ++compressed;
        break;
      }
    }
  }
  return compressed;
}

// Validate's per-op checks, op by op over every stage, with its messages:
// the reference for configs whose stage headers are valid.
std::string ReferenceOpCheckMessage(const OpGraph& graph,
                                    const ParallelConfig& config) {
  for (int s = 0; s < config.num_stages(); ++s) {
    const StageConfig& stage = config.stage(s);
    for (int i = 0; i < stage.num_ops; ++i) {
      const Operator& op = graph.op(stage.first_op + i);
      const OpParallel& setting = stage.ops[static_cast<size_t>(i)];
      const std::string tag =
          "stage " + std::to_string(s) + " op " + op.name + ": ";
      if (!IsPow2(setting.tp) || !IsPow2(setting.dp)) {
        return tag + "tp/dp must be powers of two";
      }
      if (setting.tp * setting.dp != stage.num_devices) {
        return tag + "tp*dp=" + std::to_string(setting.tp * setting.dp) +
               " != stage devices " + std::to_string(stage.num_devices);
      }
      int limit = 1;
      while (limit * 2 <= std::max(op.max_tp, 1)) {
        limit *= 2;
      }
      if (op.tp_class == TpClass::kPartitioned && setting.tp > limit) {
        return tag + "tp " + std::to_string(setting.tp) +
               " exceeds op limit " + std::to_string(op.max_tp);
      }
      if (config.microbatch_size() % setting.dp != 0) {
        return tag + "dp " + std::to_string(setting.dp) +
               " does not divide microbatch size " +
               std::to_string(config.microbatch_size());
      }
    }
  }
  return "";
}

TEST_P(FuzzTest, SegmentedValidateMatchesPerOpReference) {
  // Violations planted at random ops — often in a later repetition of a
  // layer, sometimes repeated one period later too — are reported exactly
  // as the op-by-op checks report them.
  const OpGraph graph = SegmentModelForSeed(GetParam());
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(8);
  const int period = graph.period_table().period;
  int compressed = 0;
  for (int round = 0; round < 8; ++round) {
    ParallelConfig config = PeriodicZooConfig(graph, cluster, rng_);
    compressed += CompressedStages(graph, config);
    for (int k = rng_.NextInt(0, 2); k > 0; --k) {
      const int g = rng_.NextInt(0, graph.num_ops() - 1);
      const int kind = rng_.NextInt(0, 3);
      for (const int target : {g, g + period}) {
        if (target >= graph.num_ops() || (target != g && rng_.NextBool(0.5))) {
          continue;
        }
        OpParallel& setting = config.MutableOpSettings(target);
        switch (kind) {
          case 0:
            setting.tp = 3;
            break;
          case 1:
            setting.dp *= 2;
            break;
          case 2:
            setting.tp = 64;
            setting.dp = 1;
            break;
          default:
            setting.dp = 16;
            setting.tp = 1;
            break;
        }
      }
    }
    const std::string want = ReferenceOpCheckMessage(graph, config);
    const Status got = config.Validate(graph, cluster);
    ASSERT_EQ(got.ok(), want.empty()) << got.ToString() << " round " << round;
    if (!want.empty()) {
      ASSERT_EQ(got.message(), want) << graph.name() << " round " << round;
    }
  }
  if (period > 0) {
    EXPECT_GT(compressed, 0);
  }
}

// One stage's Eq. 1 memory, op by op from the direct walk's breakdowns.
int64_t ReferenceStageMemory(const PerformanceModel& model,
                             const ParallelConfig& config, int s) {
  const StageWalk walk = model.WalkStage(config, s);
  int64_t activation = RoundUpAllocSize(walk.boundary_bytes);
  int64_t param = 0;
  int64_t optimizer = 0;
  int64_t reserved = 0;
  for (const OpBreakdown& op : walk.ops) {
    if (op.stored_bytes > 0) {
      activation += RoundUpAllocSize(op.stored_bytes);
    }
    param += op.param_bytes;
    optimizer += op.optimizer_bytes;
    reserved = std::max(reserved, op.workspace_bytes);
  }
  const int64_t in_flight = std::max(1, config.num_stages() - s);
  return param + optimizer + activation * in_flight + reserved;
}

// One stage's cost, op by op in the direct walk's addition order.
StageCost ReferenceStageCost(const PerformanceModel& model,
                             const ParallelConfig& config, int s) {
  const StageWalk walk = model.WalkStage(config, s);
  StageCost cost;
  cost.activation_bytes_per_mb = RoundUpAllocSize(walk.boundary_bytes);
  for (const OpBreakdown& op : walk.ops) {
    cost.fwd_time += op.fwd_kernel + op.fwd_comm;
    cost.bwd_time += op.bwd_kernel + op.bwd_comm;
    cost.comp_time += op.fwd_kernel + op.bwd_kernel;
    cost.comm_time += op.fwd_comm + op.bwd_comm;
    if (op.recompute) {
      cost.bwd_time += op.fwd_kernel;
      cost.recompute_time += op.fwd_kernel;
    }
    cost.dp_sync_time += op.dp_sync;
    if (op.stored_bytes > 0) {
      cost.activation_bytes_per_mb += RoundUpAllocSize(op.stored_bytes);
    }
    cost.param_bytes += op.param_bytes;
    cost.optimizer_bytes += op.optimizer_bytes;
    cost.reserved_bytes = std::max(cost.reserved_bytes, op.workspace_bytes);
  }
  cost.fwd_time += walk.p2p_fwd;
  cost.bwd_time += walk.p2p_bwd;
  cost.comm_time += walk.p2p_fwd + walk.p2p_bwd;
  return cost;
}

TEST_P(FuzzTest, SegmentedStageMemoryAndCostMatchPerOpReference) {
  // StageMemory and ComputeStageCost replay one block per run; both must
  // equal the op-by-op figures bit for bit, with run compression and the
  // op memo each on and off.
  const OpGraph graph = SegmentModelForSeed(GetParam());
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(8);
  ProfileDatabase db(cluster, /*seed=*/GetParam());
  std::vector<std::unique_ptr<PerformanceModel>> models;
  for (int mode = 0; mode < 4; ++mode) {
    models.push_back(std::make_unique<PerformanceModel>(&graph, cluster, &db));
    models.back()->set_run_compression_enabled((mode & 1) == 0);
    models.back()->set_op_memo_enabled((mode & 2) == 0);
  }
  int compressed = 0;
  for (int round = 0; round < 5; ++round) {
    const ParallelConfig config = PeriodicZooConfig(graph, cluster, rng_);
    ASSERT_TRUE(config.Validate(graph, cluster).ok());
    compressed += CompressedStages(graph, config);
    for (int s = 0; s < config.num_stages(); ++s) {
      const int64_t memory = ReferenceStageMemory(*models[0], config, s);
      const StageCost want = ReferenceStageCost(*models[0], config, s);
      for (const auto& model : models) {
        ASSERT_EQ(model->StageMemory(config, s), memory)
            << graph.name() << " stage " << s << " round " << round;
        const StageCost got = model->ComputeStageCost(config, s);
        ASSERT_EQ(got.fwd_time, want.fwd_time) << s;
        ASSERT_EQ(got.bwd_time, want.bwd_time) << s;
        ASSERT_EQ(got.comp_time, want.comp_time) << s;
        ASSERT_EQ(got.comm_time, want.comm_time) << s;
        ASSERT_EQ(got.recompute_time, want.recompute_time) << s;
        ASSERT_EQ(got.dp_sync_time, want.dp_sync_time) << s;
        ASSERT_EQ(got.param_bytes, want.param_bytes) << s;
        ASSERT_EQ(got.optimizer_bytes, want.optimizer_bytes) << s;
        ASSERT_EQ(got.activation_bytes_per_mb, want.activation_bytes_per_mb)
            << s;
        ASSERT_EQ(got.reserved_bytes, want.reserved_bytes) << s;
      }
    }
  }
  if (graph.period_table().period > 0) {
    EXPECT_GT(compressed, 0);
  }
}

TEST_P(FuzzTest, SegmentedFixRecomputeMatchesPerOpReference) {
  // The fix-up ranks one op per block and selects replayed ops by count;
  // at capacities planted on the edges of both greedy passes it must flip
  // exactly the flags the op-by-op sort-based passes flip, with run
  // compression on and off.
  const OpGraph graph = SegmentModelForSeed(GetParam());
  const ClusterSpec base = ClusterSpec::WithGpuCount(8);
  ProfileDatabase db(base, /*seed=*/GetParam());
  const PerformanceModel probe(&graph, base, &db);
  int checked = 0;
  for (int round = 0; round < 3; ++round) {
    const ParallelConfig config = PeriodicZooConfig(graph, base, rng_);
    for (int s = 0; s < config.num_stages(); ++s) {
      for (const int64_t limit : FixLimits(probe, config, s)) {
        ClusterSpec cluster = base;
        cluster.gpu.memory_bytes = std::max<int64_t>(1, limit);
        PerformanceModel model(&graph, cluster, &db);
        ParallelConfig want = config;
        WalkAndSortFixRecompute(model, want, s);
        for (const bool compress : {true, false}) {
          model.set_run_compression_enabled(compress);
          ParallelConfig got = config;
          FixRecompute(model, got, s, cluster.gpu.memory_bytes);
          const StageConfig& got_stage = got.stage(s);
          const StageConfig& want_stage = want.stage(s);
          for (int i = 0; i < got_stage.num_ops; ++i) {
            ASSERT_EQ(got_stage.ops[static_cast<size_t>(i)].recompute,
                      want_stage.ops[static_cast<size_t>(i)].recompute)
                << graph.name() << " stage " << s << " op " << i << " limit "
                << limit << " round " << round << " compress " << compress;
          }
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(SegmentedFixRecomputeTest, TiesAcrossRunsOfEqualLength) {
  // A one-stage deep plan broken by one recompute flag so that its
  // segmentation holds two runs of equal length around that op: their ops
  // tie on bytes op for op but lie more than a period apart, so the fix-up
  // must merge them by index, not repetition by repetition.
  const ClusterSpec base = ClusterSpec::WithGpuCount(8);
  OpGraph graph;
  ParallelConfig config;
  bool found = false;
  for (int layers = 20; layers <= 40 && !found; ++layers) {
    graph = models::DeepTransformer(layers);
    const ParallelConfig even = *MakeEvenConfig(graph, base, 1, 8);
    for (int g = 0; g < graph.num_ops() && !found; ++g) {
      ParallelConfig broken = even;
      broken.MutableOpSettings(g).recompute = true;
      // Two equal runs around the flagged op alone, so their groups are
      // the only ones of their levels.
      const StageRunList list = broken.StageRuns(graph, 0);
      const std::vector<StageRun> runs(list.begin(), list.end());
      for (size_t k = 0; k + 2 < runs.size() && !found; ++k) {
        if (runs[k].reps >= 2 && runs[k + 1].start == g &&
            runs[k + 1].period == 1 && runs[k + 2].reps == runs[k].reps) {
          config = broken;
          found = true;
        }
      }
      // Recompute every op outside the two runs (it stays outside), so the
      // add pass ranks the runs' groups alone.
      for (size_t k = 0; found && k < runs.size(); ++k) {
        for (int i = runs[k].start; runs[k].reps == 1 && i < runs[k].end();
             ++i) {
          config.MutableOpSettings(i).recompute = true;
        }
      }
    }
  }
  ASSERT_TRUE(found);
  ProfileDatabase db(base);
  const PerformanceModel probe(&graph, base, &db);
  // Besides the usual edges, needs of 2..16 times the fattest activation
  // stop the add pass inside the top level, where the two runs tie.
  std::vector<int64_t> limits = FixLimits(probe, config, 0);
  const int64_t memory = probe.StageMemory(config, 0);
  int64_t fattest = 0;
  for (int i = 0; i < graph.num_ops(); ++i) {
    fattest = std::max(fattest, ReferenceStoredBytes(
                                    graph.op(i), config.stage(0).ops[i], 8));
  }
  for (int j = 2; j <= 16; ++j) {
    limits.push_back(memory - j * fattest);
  }
  for (const int64_t limit : limits) {
    ClusterSpec cluster = base;
    cluster.gpu.memory_bytes = std::max<int64_t>(1, limit);
    const PerformanceModel model(&graph, cluster, &db);
    ParallelConfig want = config;
    WalkAndSortFixRecompute(model, want, 0);
    ParallelConfig got = config;
    FixRecompute(model, got, 0, cluster.gpu.memory_bytes);
    for (int i = 0; i < graph.num_ops(); ++i) {
      ASSERT_EQ(got.stage(0).ops[static_cast<size_t>(i)].recompute,
                want.stage(0).ops[static_cast<size_t>(i)].recompute)
          << "op " << i << " limit " << limit;
    }
  }
}

TEST(SegmentationTest, ManyBreaksKeepAtMostMaxBlocksAndStayExact) {
  // A recompute flag every 30 ops of a one-stage deepnet-256 plan leaves
  // dozens of short runs; the segmentation keeps kMaxStageRuns blocks that
  // tile the stage, and the passes over them stay exact.
  const OpGraph graph = models::DeepTransformer(256);
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(8);
  ParallelConfig config = *MakeEvenConfig(graph, cluster, 1, 8);
  for (int g = 0; g < graph.num_ops(); g += 30) {
    config.MutableOpSettings(g).recompute = true;
  }
  int blocks = 0;
  int next = 0;
  for (const StageRun& run : config.StageRuns(graph, 0)) {
    EXPECT_EQ(run.start, next);
    next = run.end();
    ++blocks;
  }
  EXPECT_EQ(next, graph.num_ops());
  // The cap engaged: without it these breaks make dozens of blocks.
  EXPECT_LE(blocks, kMaxStageRuns);
  EXPECT_GE(blocks, kMaxStageRuns - 1);
  ProfileDatabase db(cluster);
  const PerformanceModel model(&graph, cluster, &db);
  EXPECT_EQ(model.StageMemory(config, 0),
            ReferenceStageMemory(model, config, 0));
  const StageCost got = model.ComputeStageCost(config, 0);
  const StageCost want = ReferenceStageCost(model, config, 0);
  EXPECT_EQ(got.fwd_time, want.fwd_time);
  EXPECT_EQ(got.bwd_time, want.bwd_time);
  EXPECT_EQ(got.activation_bytes_per_mb, want.activation_bytes_per_mb);
  EXPECT_EQ(got.reserved_bytes, want.reserved_bytes);
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
