#include "src/core/apply.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/ir/models/model_zoo.h"

namespace aceso {
namespace {

class ApplyTest : public ::testing::Test {
 protected:
  ApplyTest()
      : graph_(models::Gpt3(0.35)),
        cluster_(ClusterSpec::WithGpuCount(8)),
        db_(cluster_),
        model_(&graph_, cluster_, &db_) {}

  ParallelConfig Even(int stages, int mbs = 1) {
    auto config = MakeEvenConfig(graph_, cluster_, stages, mbs);
    EXPECT_TRUE(config.ok());
    return *std::move(config);
  }

  OpGraph graph_;
  ClusterSpec cluster_;
  ProfileDatabase db_;
  PerformanceModel model_;
};

TEST_F(ApplyTest, MoveOpsToEarlierStage) {
  ParallelConfig config = Even(4);
  const int src_ops = config.stage(1).num_ops;
  const int dst_ops = config.stage(0).num_ops;
  ASSERT_TRUE(MoveOps(model_, config, 1, 0, 3));
  EXPECT_EQ(config.stage(1).num_ops, src_ops - 3);
  EXPECT_EQ(config.stage(0).num_ops, dst_ops + 3);
  EXPECT_TRUE(config.Validate(graph_, cluster_).ok());
}

TEST_F(ApplyTest, MoveOpsToLaterStage) {
  ParallelConfig config = Even(4);
  const int src_ops = config.stage(1).num_ops;
  ASSERT_TRUE(MoveOps(model_, config, 1, 2, 2));
  EXPECT_EQ(config.stage(1).num_ops, src_ops - 2);
  EXPECT_TRUE(config.Validate(graph_, cluster_).ok());
}

TEST_F(ApplyTest, MoveOpsRefusesToEmptyStage) {
  ParallelConfig config = Even(4);
  const int n = config.stage(1).num_ops;
  EXPECT_FALSE(MoveOps(model_, config, 1, 0, n));
  EXPECT_TRUE(config.Validate(graph_, cluster_).ok());  // untouched
}

TEST_F(ApplyTest, MoveOpsRejectsNonAdjacent) {
  ParallelConfig config = Even(4);
  EXPECT_FALSE(MoveOps(model_, config, 0, 2, 1));
  EXPECT_FALSE(MoveOps(model_, config, 3, 1, 1));
}

TEST_F(ApplyTest, MoveOpsPreservesRecomputeFlags) {
  ParallelConfig config = Even(4);
  // Flag the last op of stage 1.
  const int last = config.stage(1).num_ops - 1;
  config.MutableStage(1).ops[static_cast<size_t>(last)].recompute = true;
  ASSERT_TRUE(MoveOps(model_, config, 1, 2, 1));
  EXPECT_TRUE(config.stage(2).ops[0].recompute);
}

TEST_F(ApplyTest, MovedOpsAdoptDestinationParallelism) {
  // Give stage 0 two devices per op via a 3-stage config where device
  // counts differ.
  auto maybe = MakeEvenConfig(graph_, cluster_, 3, 1);
  ASSERT_TRUE(maybe.ok());
  ParallelConfig config = *maybe;
  const int dst_devices = config.stage(0).num_devices;
  ASSERT_TRUE(MoveOps(model_, config, 1, 0, 1));
  const StageConfig& dst = config.stage(0);
  const OpParallel& moved = dst.ops.back();
  EXPECT_EQ(moved.tp * moved.dp, dst_devices);
}

TEST_F(ApplyTest, FixRecomputeResolvesOom) {
  // A 1-stage config on a small-memory device is OOM without recompute.
  ClusterSpec tiny = cluster_;
  tiny.gpu.memory_bytes = 4 * kGiB;
  ProfileDatabase tiny_db(tiny);
  PerformanceModel tiny_model(&graph_, tiny, &tiny_db);
  auto maybe = MakeEvenConfig(graph_, tiny, 2, 8);
  ASSERT_TRUE(maybe.ok());
  ParallelConfig config = *maybe;
  const PerfResult before = tiny_model.Evaluate(config);
  ASSERT_TRUE(before.oom);
  FixRecompute(tiny_model, config, before.max_memory_stage,
               before.memory_limit);
  const PerfResult after = tiny_model.Evaluate(config);
  EXPECT_LT(after.MaxMemory(), before.MaxMemory());
  EXPECT_GT(config.stage(before.max_memory_stage).NumRecomputed(), 0);
}

TEST_F(ApplyTest, FixRecomputeReleasesUnneededRecompute) {
  ParallelConfig config = Even(2);
  for (int i = 0; i < graph_.num_ops(); ++i) {
    config.MutableOpSettings(i).recompute = true;
  }
  // Plenty of memory: the fix should drop (some) recomputation.
  const int before = config.stage(0).NumRecomputed();
  FixRecompute(model_, config, 0, cluster_.gpu.memory_bytes);
  EXPECT_LT(config.stage(0).NumRecomputed(), before);
}

TEST_F(ApplyTest, EstimateOpTimePositiveAndRecomputeAware) {
  OpParallel setting;
  setting.tp = 1;
  setting.dp = 1;
  const double plain = EstimateOpTime(model_, 5, setting, 4);
  setting.recompute = true;
  const double with_rc = EstimateOpTime(model_, 5, setting, 4);
  EXPECT_GT(plain, 0.0);
  EXPECT_GT(with_rc, plain);
}

// ---- candidate generation ----

class CandidateTest : public ApplyTest {
 protected:
  std::vector<Candidate> Generate(const ParallelConfig& config,
                                  PrimitiveKind kind, int stage) {
    const PerfResult perf = model_.Evaluate(config);
    return GeneratePrimitiveCandidates(model_, config, perf, kind, stage);
  }
};

TEST_F(CandidateTest, AllCandidatesValidate) {
  const ParallelConfig config = Even(4, 4);
  for (int kind = 0; kind < kNumPrimitives; ++kind) {
    for (const Candidate& c :
         Generate(config, static_cast<PrimitiveKind>(kind), 1)) {
      EXPECT_TRUE(c.config.Validate(graph_, cluster_).ok())
          << PrimitiveName(c.primitive) << ": " << c.description;
    }
  }
}

TEST_F(CandidateTest, CandidatesPreserveTotalDevices) {
  const ParallelConfig config = Even(4, 4);
  for (int kind = 0; kind < kNumPrimitives; ++kind) {
    for (const Candidate& c :
         Generate(config, static_cast<PrimitiveKind>(kind), 2)) {
      EXPECT_EQ(c.config.TotalDevices(), cluster_.num_gpus())
          << c.description;
    }
  }
}

TEST_F(CandidateTest, CandidatesPreserveOpCoverage) {
  const ParallelConfig config = Even(4, 4);
  for (int kind = 0; kind < kNumPrimitives; ++kind) {
    for (const Candidate& c :
         Generate(config, static_cast<PrimitiveKind>(kind), 1)) {
      int ops = 0;
      for (const StageConfig& s : c.config.stages()) {
        ops += s.num_ops;
      }
      EXPECT_EQ(ops, graph_.num_ops()) << c.description;
    }
  }
}

TEST_F(CandidateTest, IncMbsDoublesMicrobatch) {
  const ParallelConfig config = Even(2, 2);
  const auto candidates = Generate(config, PrimitiveKind::kIncMbs, 0);
  ASSERT_FALSE(candidates.empty());
  EXPECT_EQ(candidates[0].config.microbatch_size(), 4);
}

TEST_F(CandidateTest, DecMbsHalvesMicrobatch) {
  const ParallelConfig config = Even(2, 4);
  const auto candidates = Generate(config, PrimitiveKind::kDecMbs, 0);
  ASSERT_FALSE(candidates.empty());
  EXPECT_EQ(candidates[0].config.microbatch_size(), 2);
}

TEST_F(CandidateTest, DecMbsAtMinimumYieldsNothing) {
  const ParallelConfig config = Even(8, 1);
  EXPECT_TRUE(Generate(config, PrimitiveKind::kDecMbs, 0).empty());
}

TEST_F(CandidateTest, DecOpMovesOpsOutOfBottleneck) {
  const ParallelConfig config = Even(4, 4);
  const auto candidates = Generate(config, PrimitiveKind::kDecOpCount, 1);
  ASSERT_FALSE(candidates.empty());
  bool some_shrink = false;
  for (const Candidate& c : candidates) {
    if (c.config.stage(1).num_ops < config.stage(1).num_ops) {
      some_shrink = true;
    }
  }
  EXPECT_TRUE(some_shrink);
}

TEST_F(CandidateTest, IncTpProducesDeviceMigrationOrSwap) {
  ParallelConfig config = Even(2, 8);
  // Stage 0 at tp4/dp... make sure both stages have dp head-room.
  config.MutableStage(0).SetUniformParallelism(graph_, 2, 2);
  config.MutableStage(1).SetUniformParallelism(graph_, 2, 2);
  ASSERT_TRUE(config.Validate(graph_, cluster_).ok());
  const auto candidates = Generate(config, PrimitiveKind::kIncTp, 0);
  ASSERT_FALSE(candidates.empty());
  // At least one candidate raises the modal tp of stage 0.
  bool raised = false;
  for (const Candidate& c : candidates) {
    int tp = 1;
    for (const OpParallel& setting : c.config.stage(0).ops) {
      tp = std::max(tp, setting.tp);
    }
    if (tp > 2) {
      raised = true;
    }
  }
  EXPECT_TRUE(raised);
}

TEST_F(CandidateTest, IncRcFlagsLargestActivations) {
  const ParallelConfig config = Even(2, 4);
  const auto candidates = Generate(config, PrimitiveKind::kIncRc, 0);
  ASSERT_FALSE(candidates.empty());
  bool some_recompute = false;
  for (const Candidate& c : candidates) {
    if (c.config.stage(0).NumRecomputed() > 0) {
      some_recompute = true;
    }
  }
  EXPECT_TRUE(some_recompute);
}

TEST_F(CandidateTest, DecRcUnflagsOps) {
  ParallelConfig config = Even(2, 4);
  for (int i = 0; i < graph_.num_ops(); ++i) {
    config.MutableOpSettings(i).recompute = true;
  }
  const auto candidates = Generate(config, PrimitiveKind::kDecRc, 0);
  ASSERT_FALSE(candidates.empty());
  bool some_released = false;
  for (const Candidate& c : candidates) {
    if (c.config.stage(0).NumRecomputed() <
        config.stage(0).NumRecomputed()) {
      some_released = true;
    }
  }
  EXPECT_TRUE(some_released);
}

TEST_F(CandidateTest, DescriptionsArePinned) {
  // Descriptions are concatenated without streams; the bytes are the ones
  // the stream-formatted descriptions had, multi-digit counts and device
  // migrations included.
  const ParallelConfig config = Even(3, 4);
  std::vector<std::string> got;
  for (int kind = 0; kind < kNumPrimitives; ++kind) {
    for (const Candidate& c :
         Generate(config, static_cast<PrimitiveKind>(kind), 1)) {
      got.push_back(c.description);
    }
  }
  const std::vector<std::string> want = {
      "inc-op#(s1) 1ops <- s0",
      "inc-op#(s1) 1ops <- s2",
      "dec-op#(s1) 1ops -> s0",
      "dec-op#(s1) 16ops -> s0",
      "dec-op#(s1) 30ops -> s0",
      "dec-op#(s1) 1op -> s2",
      "inc-mbs(s1) mbs=8",
      "dec-mbs(s1) mbs=2",
      "inc-dp(s1) swap tp->dp",
      "inc-dp(s1) +2gpu from s0 partner dec-tp",
      "inc-dp(s1) +2gpu from s0 partner dec-dp",
      "inc-tp(s1) +2gpu from s0 partner dec-tp",
      "inc-tp(s1) +2gpu from s0 partner dec-dp",
      "dec-tp(s1) swap tp->dp",
      "inc-rc(s1) +1op",
      "dec-rc(s1) relax",
  };
  EXPECT_EQ(got, want);
}

TEST_F(CandidateTest, SingleStageHasNoOpMoves) {
  const ParallelConfig config = Even(1, 8);
  EXPECT_TRUE(Generate(config, PrimitiveKind::kDecOpCount, 0).empty());
  EXPECT_TRUE(Generate(config, PrimitiveKind::kIncOpCount, 0).empty());
}

}  // namespace
}  // namespace aceso
