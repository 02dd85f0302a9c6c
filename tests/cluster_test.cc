#include "src/hw/cluster.h"

#include <gtest/gtest.h>

#include <string>

namespace aceso {
namespace {

TEST(ClusterTest, PaperClusterIs32Gpus) {
  const ClusterSpec c = ClusterSpec::PaperCluster();
  EXPECT_EQ(c.num_nodes, 4);
  EXPECT_EQ(c.gpus_per_node, 8);
  EXPECT_EQ(c.num_gpus(), 32);
}

TEST(ClusterTest, SingleGpu) {
  const ClusterSpec c = ClusterSpec::SingleGpu();
  EXPECT_EQ(c.num_gpus(), 1);
}

TEST(ClusterTest, WithGpuCountSmall) {
  for (int g : {1, 2, 4, 8}) {
    const ClusterSpec c = ClusterSpec::WithGpuCount(g);
    EXPECT_EQ(c.num_gpus(), g);
    EXPECT_EQ(c.num_nodes, 1);
  }
}

TEST(ClusterTest, WithGpuCountMultiNode) {
  const ClusterSpec c = ClusterSpec::WithGpuCount(16);
  EXPECT_EQ(c.num_nodes, 2);
  EXPECT_EQ(c.gpus_per_node, 8);
}

TEST(ClusterTest, NodeOf) {
  const ClusterSpec c = ClusterSpec::WithGpuCount(16);
  EXPECT_EQ(c.NodeOf(0), 0);
  EXPECT_EQ(c.NodeOf(7), 0);
  EXPECT_EQ(c.NodeOf(8), 1);
  EXPECT_EQ(c.NodeOf(15), 1);
}

TEST(ClusterTest, GroupCrossesNodesContiguous) {
  const ClusterSpec c = ClusterSpec::WithGpuCount(16);
  EXPECT_FALSE(c.GroupCrossesNodes(0, 8, 1));   // exactly one node
  EXPECT_TRUE(c.GroupCrossesNodes(4, 8, 1));    // straddles the boundary
  EXPECT_TRUE(c.GroupCrossesNodes(0, 16, 1));   // spans both
  EXPECT_FALSE(c.GroupCrossesNodes(8, 8, 1));   // second node only
}

TEST(ClusterTest, GroupCrossesNodesStrided) {
  const ClusterSpec c = ClusterSpec::WithGpuCount(16);
  // dp group of 2 with stride 8 hits devices 0 and 8 -> crosses.
  EXPECT_TRUE(c.GroupCrossesNodes(0, 2, 8));
  // dp group of 2 with stride 4 hits devices 0 and 4 -> same node.
  EXPECT_FALSE(c.GroupCrossesNodes(0, 2, 4));
}

TEST(ClusterTest, SingleMemberGroupNeverCrosses) {
  const ClusterSpec c = ClusterSpec::WithGpuCount(32);
  EXPECT_FALSE(c.GroupCrossesNodes(7, 1, 8));
}

TEST(ClusterTest, ToStringMentionsShape) {
  const ClusterSpec c = ClusterSpec::PaperCluster();
  EXPECT_NE(c.ToString().find("4x8"), std::string::npos);
}

TEST(ClusterTest, CheckGpuCountStatesWithGpuCountsRule) {
  for (int g : {1, 2, 5, 8, 16, 24, 64}) {
    EXPECT_TRUE(ClusterSpec::CheckGpuCount(g).ok()) << g;
  }
  for (int g : {0, -8, 9, 12, 20}) {
    const Status st = ClusterSpec::CheckGpuCount(g);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << g;
    EXPECT_NE(st.message().find(std::to_string(g)), std::string::npos)
        << st.message();
  }
}

TEST(ClusterDeathTest, NonMultipleOf8Rejected) {
  EXPECT_DEATH(ClusterSpec::WithGpuCount(12), "8 GPUs/node");
}

}  // namespace
}  // namespace aceso
