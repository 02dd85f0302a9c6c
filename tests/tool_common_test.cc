// The CLI tools' shared model/cluster loader (tools/tool_common): a bad
// flag value comes back as a Status the tool prints, never as an abort.

#include "tools/tool_common.h"

#include <gtest/gtest.h>

#include <string>

namespace aceso {
namespace tools {
namespace {

TEST(LoadModelAndClusterTest, BuildsModelAndCluster) {
  auto loaded = LoadModelAndCluster("gpt3-0.35b", 16);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->cluster.num_gpus(), 16);
  EXPECT_GT(loaded->graph.num_ops(), 0);
}

TEST(LoadModelAndClusterTest, UnbuildableGpuCountIsAnErrorNotAnAbort) {
  auto loaded = LoadModelAndCluster("gpt3-0.35b", 12);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("12"), std::string::npos)
      << loaded.status().message();
}

TEST(LoadModelAndClusterTest, UnknownModelListsTheZoo) {
  auto loaded = LoadModelAndCluster("gpt5", 8);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("known models"),
            std::string::npos);
}

}  // namespace
}  // namespace tools
}  // namespace aceso
