#include "src/config/parallel_config.h"

#include <gtest/gtest.h>

#include "src/ir/models/model_zoo.h"

namespace aceso {
namespace {

TEST(IsPow2Test, Basics) {
  EXPECT_TRUE(IsPow2(1));
  EXPECT_TRUE(IsPow2(2));
  EXPECT_TRUE(IsPow2(1024));
  EXPECT_FALSE(IsPow2(0));
  EXPECT_FALSE(IsPow2(3));
  EXPECT_FALSE(IsPow2(-4));
}

TEST(SplitDevicesPow2Test, EqualSplit) {
  auto split = SplitDevicesPow2(32, 4);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(*split, (std::vector<int>{8, 8, 8, 8}));
}

TEST(SplitDevicesPow2Test, UnevenSplitUsesPow2Parts) {
  auto split = SplitDevicesPow2(32, 3);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(*split, (std::vector<int>{16, 8, 8}));
}

TEST(SplitDevicesPow2Test, SinglePart) {
  auto split = SplitDevicesPow2(8, 1);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(*split, std::vector<int>{8});
}

TEST(SplitDevicesPow2Test, MaximalSplit) {
  auto split = SplitDevicesPow2(8, 8);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(*split, std::vector<int>(8, 1));
}

TEST(SplitDevicesPow2Test, TooManyPartsFails) {
  EXPECT_FALSE(SplitDevicesPow2(4, 5).ok());
}

TEST(SplitDevicesPow2Test, NonPow2TotalFails) {
  EXPECT_FALSE(SplitDevicesPow2(12, 2).ok());
}

// Property sweep: every (total, parts) split sums to the total and consists
// of powers of two.
class SplitSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SplitSweepTest, SumsAndPow2) {
  const auto [total, parts] = GetParam();
  auto split = SplitDevicesPow2(total, parts);
  if (parts > total) {
    EXPECT_FALSE(split.ok());
    return;
  }
  ASSERT_TRUE(split.ok());
  ASSERT_EQ(static_cast<int>(split->size()), parts);
  int sum = 0;
  for (int v : *split) {
    EXPECT_TRUE(IsPow2(v));
    sum += v;
  }
  EXPECT_EQ(sum, total);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SplitSweepTest,
    ::testing::Combine(::testing::Values(1, 2, 4, 8, 16, 32),
                       ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8)));

class ConfigTest : public ::testing::Test {
 protected:
  OpGraph graph_ = models::Gpt3(0.35);
  ClusterSpec cluster_ = ClusterSpec::WithGpuCount(8);
};

TEST_F(ConfigTest, EvenConfigValidates) {
  auto config = MakeEvenConfig(graph_, cluster_, 4, 1);
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_TRUE(config->Validate(graph_, cluster_).ok());
  EXPECT_EQ(config->num_stages(), 4);
  EXPECT_EQ(config->TotalDevices(), 8);
}

TEST_F(ConfigTest, EvenConfigCoversAllOps) {
  auto config = MakeEvenConfig(graph_, cluster_, 3, 1);
  ASSERT_TRUE(config.ok());
  int ops = 0;
  for (const StageConfig& s : config->stages()) {
    ops += s.num_ops;
  }
  EXPECT_EQ(ops, graph_.num_ops());
}

TEST_F(ConfigTest, StageOfOpConsistent) {
  auto config = MakeEvenConfig(graph_, cluster_, 4, 1);
  ASSERT_TRUE(config.ok());
  for (int i = 0; i < graph_.num_ops(); ++i) {
    const int s = config->StageOfOp(i);
    const StageConfig& stage = config->stage(s);
    EXPECT_GE(i, stage.first_op);
    EXPECT_LT(i, stage.end_op());
  }
}

TEST_F(ConfigTest, StageFirstDeviceCumulative) {
  auto config = MakeEvenConfig(graph_, cluster_, 4, 1);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->StageFirstDevice(0), 0);
  int expected = 0;
  for (int s = 0; s < config->num_stages(); ++s) {
    EXPECT_EQ(config->StageFirstDevice(s), expected);
    expected += config->stage(s).num_devices;
  }
}

TEST_F(ConfigTest, NumMicrobatches) {
  auto config = MakeEvenConfig(graph_, cluster_, 2, 1);
  ASSERT_TRUE(config.ok());
  config->set_microbatch_size(4);
  EXPECT_EQ(config->NumMicrobatches(graph_), 256);  // batch 1024 / 4
}

TEST_F(ConfigTest, ValidateRejectsBadMicrobatch) {
  auto config = MakeEvenConfig(graph_, cluster_, 2, 1);
  ASSERT_TRUE(config.ok());
  config->set_microbatch_size(3);  // does not divide 1024
  EXPECT_FALSE(config->Validate(graph_, cluster_).ok());
}

TEST_F(ConfigTest, ValidateRejectsDeviceMismatch) {
  auto config = MakeEvenConfig(graph_, cluster_, 2, 1);
  ASSERT_TRUE(config.ok());
  config->MutableStage(0).num_devices = 2;  // total now 6 != 8
  EXPECT_FALSE(config->Validate(graph_, cluster_).ok());
}

TEST_F(ConfigTest, ValidateRejectsGapInOpCoverage) {
  auto config = MakeEvenConfig(graph_, cluster_, 2, 1);
  ASSERT_TRUE(config.ok());
  config->MutableStage(1).first_op += 1;
  EXPECT_FALSE(config->Validate(graph_, cluster_).ok());
}

TEST_F(ConfigTest, ValidateRejectsNonPow2Tp) {
  auto config = MakeEvenConfig(graph_, cluster_, 1, 1);
  ASSERT_TRUE(config.ok());
  // Force an invalid tp on some partitioned op.
  for (int i = 0; i < graph_.num_ops(); ++i) {
    if (graph_.op(i).tp_class == TpClass::kPartitioned) {
      config->MutableOpSettings(i).tp = 3;
      break;
    }
  }
  EXPECT_FALSE(config->Validate(graph_, cluster_).ok());
}

TEST_F(ConfigTest, ValidateRejectsTpTimesDpMismatch) {
  auto config = MakeEvenConfig(graph_, cluster_, 1, 1);
  ASSERT_TRUE(config.ok());
  config->MutableOpSettings(0).tp = 1;
  config->MutableOpSettings(0).dp = 1;  // 1*1 != 8 devices
  EXPECT_FALSE(config->Validate(graph_, cluster_).ok());
}

TEST_F(ConfigTest, ValidateRejectsDpNotDividingMbs) {
  auto config = MakeEvenConfig(graph_, cluster_, 1, 1);
  ASSERT_TRUE(config.ok());
  // dp = 8 on some op while mbs = 1.
  config->MutableOpSettings(0).tp = 1;
  config->MutableOpSettings(0).dp = 8;
  config->set_microbatch_size(1);
  EXPECT_FALSE(config->Validate(graph_, cluster_).ok());
}

// ----- Validate's error text -----
//
// aceso_plan prints these messages to users, so each failure kind pins its
// exact text (one test per kind, in Validate's check order).

class ValidateMessageTest : public ConfigTest {
 protected:
  // A two-stage, four-devices-per-stage config on the 8-GPU cluster.
  ParallelConfig Even2() { return *MakeEvenConfig(graph_, cluster_, 2, 1); }

  std::string Message(const ParallelConfig& config) {
    const Status status = config.Validate(graph_, cluster_);
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    return status.message();
  }

  // The first op of stage `s` with tp class `tp_class`, as a global index.
  int FirstOpOfClass(const ParallelConfig& config, int s, TpClass tp_class) {
    const StageConfig& stage = config.stage(s);
    for (int i = stage.first_op; i < stage.end_op(); ++i) {
      if (graph_.op(i).tp_class == tp_class) {
        return i;
      }
    }
    ADD_FAILURE() << "stage " << s << " has no op of the requested class";
    return stage.first_op;
  }
  // The last op of stage `s` with tp class `tp_class` that repeats the op
  // one layer period earlier within the same stage (global index).
  int LaterRepetition(const ParallelConfig& config, int s, TpClass tp_class) {
    const OpGraph::PeriodTable& table = graph_.period_table();
    const StageConfig& stage = config.stage(s);
    for (int i = stage.end_op() - 1; i >= stage.first_op + table.period;
         --i) {
      if (table.repeats[static_cast<size_t>(i)] != 0 &&
          graph_.op(i).tp_class == tp_class) {
        return i;
      }
    }
    ADD_FAILURE() << "stage " << s << " has no repeating op of the class";
    return stage.first_op;
  }
};

TEST_F(ValidateMessageTest, NoStages) {
  EXPECT_EQ(Message(ParallelConfig()), "configuration has no stages");
}

TEST_F(ValidateMessageTest, MicrobatchBelowOne) {
  ParallelConfig config = Even2();
  config.set_microbatch_size(0);
  EXPECT_EQ(Message(config), "microbatch size must be >= 1");
}

TEST_F(ValidateMessageTest, MicrobatchNotDividingBatch) {
  ParallelConfig config = Even2();
  config.set_microbatch_size(3);
  EXPECT_EQ(Message(config), "microbatch size 3 does not divide batch 1024");
}

TEST_F(ValidateMessageTest, DeviceSum) {
  ParallelConfig config = Even2();
  config.MutableStage(0).num_devices = 2;
  EXPECT_EQ(Message(config), "stage devices sum to 6, cluster has 8");
}

TEST_F(ValidateMessageTest, OpCoverageGap) {
  ParallelConfig config = Even2();
  const int boundary = config.stage(1).first_op;
  config.MutableStage(1).first_op += 1;
  EXPECT_EQ(Message(config), "stage 1 starts at op " +
                                 std::to_string(boundary + 1) + ", expected " +
                                 std::to_string(boundary));
}

TEST_F(ValidateMessageTest, EmptyStage) {
  ParallelConfig config = Even2();
  StageConfig& stage = config.MutableStage(1);
  stage.num_ops = 0;
  stage.ops.clear();
  EXPECT_EQ(Message(config), "stage 1 is empty");
}

TEST_F(ValidateMessageTest, NonPow2Devices) {
  ParallelConfig config = Even2();
  config.MutableStage(0).num_devices = 5;
  config.MutableStage(1).num_devices = 3;
  EXPECT_EQ(Message(config), "stage 0 device count 5 is not a power of two");
}

TEST_F(ValidateMessageTest, SettingsCount) {
  ParallelConfig config = Even2();
  const int num_ops = config.stage(0).num_ops;
  config.MutableStage(0).ops.pop_back();
  EXPECT_EQ(Message(config), "stage 0 has " + std::to_string(num_ops - 1) +
                                 " op settings for " +
                                 std::to_string(num_ops) + " ops");
}

TEST_F(ValidateMessageTest, TpDpNotPow2) {
  ParallelConfig config = Even2();
  const int op = FirstOpOfClass(config, 1, TpClass::kPartitioned);
  config.MutableOpSettings(op).tp = 3;
  EXPECT_EQ(Message(config), "stage 1 op " + graph_.op(op).name +
                                 ": tp/dp must be powers of two");
}

TEST_F(ValidateMessageTest, TpTimesDpMismatch) {
  ParallelConfig config = Even2();
  config.MutableOpSettings(0).tp = 1;
  config.MutableOpSettings(0).dp = 2;
  EXPECT_EQ(Message(config), "stage 0 op " + graph_.op(0).name +
                                 ": tp*dp=2 != stage devices 4");
}

TEST_F(ValidateMessageTest, TpOverOpLimit) {
  // 64-way tp exceeds the head count of gpt3-0.35b's attention ops.
  const ClusterSpec wide = ClusterSpec::WithGpuCount(64);
  ParallelConfig config = *MakeEvenConfig(graph_, wide, 1, 1);
  int op = 0;
  while (op < graph_.num_ops() &&
         !(graph_.op(op).tp_class == TpClass::kPartitioned &&
           graph_.op(op).max_tp < 64)) {
    ++op;
  }
  ASSERT_LT(op, graph_.num_ops());
  config.MutableOpSettings(op).tp = 64;
  config.MutableOpSettings(op).dp = 1;
  const Status status = config.Validate(graph_, wide);
  EXPECT_EQ(status.message(),
            "stage 0 op " + graph_.op(op).name + ": tp 64 exceeds op limit " +
                std::to_string(graph_.op(op).max_tp));
}

TEST_F(ValidateMessageTest, DpNotDividingMicrobatch) {
  ParallelConfig config = Even2();
  config.MutableOpSettings(0).tp = 1;
  config.MutableOpSettings(0).dp = 4;
  config.set_microbatch_size(2);
  EXPECT_EQ(Message(config), "stage 0 op " + graph_.op(0).name +
                                 ": dp 4 does not divide microbatch size 2");
}

// The per-op violations again, each placed in a later repetition of a
// layer: Validate checks one layer period per repeating run and replays
// the rest, so a violating op (which no longer repeats its predecessor)
// must still be found and reported with the same text and the same op.
TEST_F(ValidateMessageTest, TpDpNotPow2InLaterRepetition) {
  ParallelConfig config = Even2();
  const int op = LaterRepetition(config, 1, TpClass::kPartitioned);
  config.MutableOpSettings(op).tp = 3;
  EXPECT_EQ(Message(config), "stage 1 op " + graph_.op(op).name +
                                 ": tp/dp must be powers of two");
}

TEST_F(ValidateMessageTest, TpTimesDpMismatchInLaterRepetition) {
  ParallelConfig config = Even2();
  const int op = LaterRepetition(config, 0, TpClass::kReplicated);
  config.MutableOpSettings(op).tp = 1;
  config.MutableOpSettings(op).dp = 2;
  EXPECT_EQ(Message(config), "stage 0 op " + graph_.op(op).name +
                                 ": tp*dp=2 != stage devices 4");
}

TEST_F(ValidateMessageTest, TpOverOpLimitInLaterRepetition) {
  const ClusterSpec wide = ClusterSpec::WithGpuCount(64);
  ParallelConfig config = *MakeEvenConfig(graph_, wide, 1, 1);
  // The last repeating partitioned op whose limit is below 64.
  int op = config.stage(0).end_op() - 1;
  while (graph_.op(op).tp_class != TpClass::kPartitioned ||
         graph_.op(op).max_tp >= 64 ||
         graph_.period_table().repeats[static_cast<size_t>(op)] == 0) {
    --op;
  }
  config.MutableOpSettings(op).tp = 64;
  config.MutableOpSettings(op).dp = 1;
  EXPECT_EQ(config.Validate(graph_, wide).message(),
            "stage 0 op " + graph_.op(op).name + ": tp 64 exceeds op limit " +
                std::to_string(graph_.op(op).max_tp));
}

TEST_F(ValidateMessageTest, DpNotDividingMicrobatchInLaterRepetition) {
  // Every op at tp 2 / dp 2 divides microbatch size 2; one op of a later
  // layer at dp 4 does not.
  ParallelConfig config = Even2();
  for (int i = 0; i < graph_.num_ops(); ++i) {
    OpParallel& setting = config.MutableOpSettings(i);
    setting.tp = 2;
    setting.dp = 2;
  }
  config.set_microbatch_size(2);
  ASSERT_TRUE(config.Validate(graph_, cluster_).ok());
  const int op = LaterRepetition(config, 1, TpClass::kShardFollower);
  config.MutableOpSettings(op).tp = 1;
  config.MutableOpSettings(op).dp = 4;
  EXPECT_EQ(Message(config), "stage 1 op " + graph_.op(op).name +
                                 ": dp 4 does not divide microbatch size 2");
}

TEST_F(ValidateMessageTest, FirstOfTwoRepeatedViolationsIsReported) {
  // The same violation one period apart: the earlier op is reported.
  ParallelConfig config = Even2();
  const int later = LaterRepetition(config, 1, TpClass::kPartitioned);
  const int earlier = later - graph_.period_table().period;
  ASSERT_GE(earlier, config.stage(1).first_op);
  config.MutableOpSettings(earlier).tp = 3;
  config.MutableOpSettings(later).tp = 3;
  EXPECT_EQ(Message(config), "stage 1 op " + graph_.op(earlier).name +
                                 ": tp/dp must be powers of two");
}

// The stage filter limits only the per-op checks: a violation in a listed
// stage is reported with the same text, one in an unlisted stage is not
// looked at, and header and coverage checks run on every stage regardless.
TEST_F(ValidateMessageTest, StageFilterScopesOnlyPerOpChecks) {
  ParallelConfig config = Even2();
  const int op = config.stage(1).first_op;
  config.MutableOpSettings(op).tp = 3;
  const std::string expected =
      "stage 1 op " + graph_.op(op).name + ": tp/dp must be powers of two";

  const std::vector<int> touched{1};
  const std::vector<int> untouched{0};
  const std::vector<int> none;
  EXPECT_EQ(config.Validate(graph_, cluster_, &touched).message(), expected);
  EXPECT_TRUE(config.Validate(graph_, cluster_, &untouched).ok());
  EXPECT_TRUE(config.Validate(graph_, cluster_, &none).ok());

  ParallelConfig header = Even2();
  header.MutableStage(0).num_devices = 2;
  EXPECT_EQ(header.Validate(graph_, cluster_, &none).message(),
            "stage devices sum to 6, cluster has 8");
  ParallelConfig gap = Even2();
  gap.MutableStage(1).first_op += 1;
  EXPECT_FALSE(gap.Validate(graph_, cluster_, &none).ok());
}

TEST_F(ConfigTest, SemanticHashStableAcrossCopies) {
  auto config = MakeEvenConfig(graph_, cluster_, 4, 1);
  ASSERT_TRUE(config.ok());
  const ParallelConfig copy = *config;
  EXPECT_EQ(config->SemanticHash(graph_), copy.SemanticHash(graph_));
}

TEST_F(ConfigTest, SemanticHashSensitiveToSettings) {
  auto config = MakeEvenConfig(graph_, cluster_, 4, 1);
  ASSERT_TRUE(config.ok());
  const uint64_t base = config->SemanticHash(graph_);

  ParallelConfig mbs_changed = *config;
  mbs_changed.set_microbatch_size(2);
  EXPECT_NE(base, mbs_changed.SemanticHash(graph_));

  ParallelConfig rc_changed = *config;
  rc_changed.MutableOpSettings(1).recompute = true;
  EXPECT_NE(base, rc_changed.SemanticHash(graph_));
}

TEST_F(ConfigTest, SemanticHashIgnoresDimWhenTpIsOne) {
  auto config = MakeEvenConfig(graph_, cluster_, 8, 1);
  ASSERT_TRUE(config.ok());
  // With 1-device stages every op has tp=1; flipping dims must not change
  // the hash (the configurations are semantically identical).
  const uint64_t base = config->SemanticHash(graph_);
  ParallelConfig flipped = *config;
  for (int i = 0; i < graph_.num_ops(); ++i) {
    OpParallel& setting = flipped.MutableOpSettings(i);
    if (setting.tp == 1) {
      setting.tp_dim =
          setting.tp_dim == TpDim::kColumn ? TpDim::kRow : TpDim::kColumn;
    }
  }
  EXPECT_EQ(base, flipped.SemanticHash(graph_));
}

TEST_F(ConfigTest, ImbalancedGeneratorsValidate) {
  auto op_imbalanced = MakeOpImbalancedConfig(graph_, cluster_, 4, 1);
  ASSERT_TRUE(op_imbalanced.ok());
  EXPECT_TRUE(op_imbalanced->Validate(graph_, cluster_).ok());

  auto gpu_imbalanced = MakeGpuImbalancedConfig(graph_, cluster_, 3, 1);
  ASSERT_TRUE(gpu_imbalanced.ok());
  EXPECT_TRUE(gpu_imbalanced->Validate(graph_, cluster_).ok());
}

TEST_F(ConfigTest, OpImbalancedSkewsOpCounts) {
  auto even = MakeEvenConfig(graph_, cluster_, 4, 1);
  auto skewed = MakeOpImbalancedConfig(graph_, cluster_, 4, 1);
  ASSERT_TRUE(even.ok());
  ASSERT_TRUE(skewed.ok());
  // The skewed config's first stage has fewer ops than the even one's.
  EXPECT_LT(skewed->stage(0).num_ops, even->stage(0).num_ops);
}

TEST_F(ConfigTest, TooManyStagesFails) {
  EXPECT_FALSE(MakeEvenConfig(graph_, cluster_, 9, 1).ok());  // > 8 GPUs
}

TEST_F(ConfigTest, SetUniformParallelismClampsPerOp) {
  auto config = MakeEvenConfig(graph_, cluster_, 1, 1);
  ASSERT_TRUE(config.ok());
  StageConfig& stage = config->MutableStage(0);
  stage.SetUniformParallelism(graph_, 8, 1);
  for (int i = 0; i < stage.num_ops; ++i) {
    const Operator& op = graph_.op(i);
    const OpParallel& setting = stage.ops[static_cast<size_t>(i)];
    EXPECT_EQ(setting.tp * setting.dp, 8) << op.name;
    if (op.tp_class == TpClass::kPartitioned) {
      EXPECT_LE(setting.tp, std::max(op.max_tp, 1)) << op.name;
    }
  }
}

TEST_F(ConfigTest, ShortStringMentionsStages) {
  auto config = MakeEvenConfig(graph_, cluster_, 2, 1);
  ASSERT_TRUE(config.ok());
  const std::string s = config->ShortString();
  EXPECT_NE(s.find("s0["), std::string::npos);
  EXPECT_NE(s.find("s1["), std::string::npos);
}

// Property sweep: even configs across models/stage counts validate and
// respect the minimum-microbatch invariant.
class EvenConfigSweep
    : public ::testing::TestWithParam<std::tuple<std::string, int, int>> {};

TEST_P(EvenConfigSweep, ValidatesEverywhere) {
  const auto& [model_name, gpus, stages] = GetParam();
  auto graph = models::BuildByName(model_name);
  ASSERT_TRUE(graph.ok());
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(gpus);
  auto config = MakeEvenConfig(*graph, cluster, stages, 1);
  if (stages > gpus) {
    EXPECT_FALSE(config.ok());
    return;
  }
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_TRUE(config->Validate(*graph, cluster).ok());
  // mbs is the minimum feasible: every op's dp divides it.
  for (const StageConfig& stage : config->stages()) {
    for (const OpParallel& setting : stage.ops) {
      EXPECT_EQ(config->microbatch_size() % setting.dp, 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EvenConfigSweep,
    ::testing::Combine(::testing::Values("gpt3-0.35b", "t5-0.77b",
                                         "wresnet-0.5b"),
                       ::testing::Values(4, 8, 16),
                       ::testing::Values(1, 2, 3, 4, 6, 8)));

}  // namespace
}  // namespace aceso
