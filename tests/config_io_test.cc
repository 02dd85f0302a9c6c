#include "src/config/config_io.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "src/ir/models/model_zoo.h"

namespace aceso {
namespace {

class ConfigIoTest : public ::testing::Test {
 protected:
  ConfigIoTest()
      : graph_(models::Gpt3(0.35)), cluster_(ClusterSpec::WithGpuCount(8)) {}

  OpGraph graph_;
  ClusterSpec cluster_;
};

TEST_F(ConfigIoTest, RoundTripPreservesSemantics) {
  auto config = MakeEvenConfig(graph_, cluster_, 4, 2);
  ASSERT_TRUE(config.ok());
  // Make it interesting: recompute flags and a flipped dim.
  config->MutableOpSettings(3).recompute = true;
  config->MutableOpSettings(10).recompute = true;
  const std::string text = SerializeConfig(*config, graph_.name());
  auto parsed = ParseConfig(text, graph_);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->SemanticHash(graph_), config->SemanticHash(graph_));
  EXPECT_TRUE(parsed->Validate(graph_, cluster_).ok());
}

TEST_F(ConfigIoTest, RoundTripHeterogeneousStage) {
  auto config = MakeEvenConfig(graph_, cluster_, 1, 8);
  ASSERT_TRUE(config.ok());
  // Mixed settings inside the stage.
  StageConfig& stage = config->MutableStage(0);
  for (int i = 0; i < stage.num_ops / 2; ++i) {
    const Operator& op = graph_.op(i);
    if (op.tp_class == TpClass::kPartitioned) {
      stage.ops[static_cast<size_t>(i)].tp_dim = TpDim::kRow;
    }
  }
  const std::string text = SerializeConfig(*config, graph_.name());
  auto parsed = ParseConfig(text, graph_);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->SemanticHash(graph_), config->SemanticHash(graph_));
}

TEST_F(ConfigIoTest, RejectsWrongModel) {
  auto config = MakeEvenConfig(graph_, cluster_, 2, 2);
  ASSERT_TRUE(config.ok());
  const std::string text = SerializeConfig(*config, "gpt3-13b");
  auto parsed = ParseConfig(text, graph_);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ConfigIoTest, RejectsGarbage) {
  EXPECT_FALSE(ParseConfig("not a config", graph_).ok());
  EXPECT_FALSE(ParseConfig("record {\n  type = something_else\n}\n", graph_)
                   .ok());
  EXPECT_FALSE(ParseConfig("", graph_).ok());
}

TEST_F(ConfigIoTest, RejectsTruncatedOps) {
  auto config = MakeEvenConfig(graph_, cluster_, 2, 2);
  ASSERT_TRUE(config.ok());
  std::string text = SerializeConfig(*config, graph_.name());
  // Corrupt a run length.
  const size_t star = text.find('*');
  ASSERT_NE(star, std::string::npos);
  text[star + 1] = '1';
  text[star + 2] = ' ';
  auto parsed = ParseConfig(text, graph_);
  EXPECT_FALSE(parsed.ok());
}

TEST_F(ConfigIoTest, FileRoundTrip) {
  auto config = MakeEvenConfig(graph_, cluster_, 3, 2);
  ASSERT_TRUE(config.ok());
  const std::string path = ::testing::TempDir() + "/config_io_test.txt";
  ASSERT_TRUE(SaveConfigToFile(path, *config, graph_.name()).ok());
  auto loaded = LoadConfigFromFile(path, graph_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->SemanticHash(graph_), config->SemanticHash(graph_));
  std::remove(path.c_str());
}

TEST_F(ConfigIoTest, MissingFileIsNotFound) {
  auto loaded = LoadConfigFromFile("/does/not/exist", graph_);
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

// ----- Bounded, non-truncating parse (DESIGN.md §19) -----

// A one-stage, one-run config of graph_: "1,1,col,0,0*N;" with N = all ops.
class ConfigIoStrictTest : public ConfigIoTest {
 protected:
  ConfigIoStrictTest() {
    auto config = MakeEvenConfig(graph_, ClusterSpec::WithGpuCount(1), 1, 1);
    for (OpParallel& op : config->MutableStage(0).ops) {
      op.tp_dim = TpDim::kColumn;  // the even config mixes dims at tp 1
    }
    text_ = SerializeConfig(*config, graph_.name());
    run_ = "1,1,col,0,0*" + std::to_string(graph_.num_ops());
  }

  // text_ with the first `from` replaced by `to`.
  std::string With(const std::string& from, const std::string& to) const {
    std::string text = text_;
    const size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return text.replace(at, from.size(), to);
  }

  std::string ErrorOf(const std::string& text) const {
    auto parsed = ParseConfig(text, graph_);
    EXPECT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    return parsed.status().message();
  }

  std::string text_;
  std::string run_;
};

TEST_F(ConfigIoStrictTest, BaseTextIsOneRun) {
  EXPECT_NE(text_.find("ops = " + run_ + ";\n"), std::string::npos) << text_;
  EXPECT_TRUE(ParseConfig(text_, graph_).ok());
}

TEST_F(ConfigIoStrictTest, RejectsHugeRunCountBeforeAllocating) {
  EXPECT_EQ(ErrorOf(With(run_, "1,1,col,0,0*2000000000")),
            "stage 0 op run count exceeds the " +
                std::to_string(graph_.num_ops()) +
                " ops still unfilled: 1,1,col,0,0*2000000000");
}

TEST_F(ConfigIoStrictTest, RejectsRunCountBeyondUnfilledOps) {
  EXPECT_EQ(ErrorOf(With(run_ + ";", run_ + ";1,1,col,0,0*1;")),
            "stage 0 op run count exceeds the 0 ops still unfilled: "
            "1,1,col,0,0*1");
}

TEST_F(ConfigIoStrictTest, RejectsRunCountBelowOne) {
  EXPECT_EQ(ErrorOf(With(run_ + ";", "1,1,col,0,0*0;" + run_ + ";")),
            "stage 0 op run count is below 1: 1,1,col,0,0*0");
  EXPECT_EQ(ErrorOf(With(run_ + ";", "1,1,col,0,0*-3;" + run_ + ";")),
            "stage 0 op run count is below 1: 1,1,col,0,0*-3");
}

TEST_F(ConfigIoStrictTest, RejectsStageIntegerBeyondInt) {
  // Cast to int, 4294967296 would be 0, the right value for this config.
  EXPECT_EQ(ErrorOf(With("first_op = 0", "first_op = 4294967296")),
            "stage 0 field 'first_op' is out of range [0, 2147483647]: "
            "4294967296");
  EXPECT_EQ(ErrorOf(With("num_devices = 1", "num_devices = -1")),
            "stage 0 field 'num_devices' is out of range [0, 2147483647]: -1");
}

TEST_F(ConfigIoStrictTest, RejectsHeaderIntegerOutOfRange) {
  EXPECT_EQ(ErrorOf(With("num_stages = 1", "num_stages = 4294967297")),
            "config header field 'num_stages' is out of range "
            "[0, 2147483647]: 4294967297");
  EXPECT_EQ(ErrorOf(With("microbatch_size = 1", "microbatch_size = -2")),
            "config header field 'microbatch_size' is out of range "
            "[0, 2147483647]: -2");
}

TEST_F(ConfigIoStrictTest, RejectsRunIntegerOutOfRange) {
  const std::string run = "2147483648,1,col,0,0*" +
                          std::to_string(graph_.num_ops());
  EXPECT_EQ(ErrorOf(With(run_, run)),
            "stage 0 op run field 'tp' is out of range [0, 2147483647]: " +
                run);
}

TEST_F(ConfigIoStrictTest, RejectsStageLargerThanModel) {
  const std::string ops = std::to_string(graph_.num_ops());
  const std::string more = std::to_string(graph_.num_ops() + 1);
  EXPECT_EQ(ErrorOf(With("num_ops = " + ops, "num_ops = " + more)),
            "stage 0 field 'num_ops' exceeds the model's " + ops +
                " ops: " + more);
}

TEST_F(ConfigIoStrictTest, RejectsBytesAfterRunCount) {
  EXPECT_EQ(ErrorOf(With(run_ + ";", run_ + "x;")),
            "stage 0 op run has bytes after its count: " + run_ + "x");
}

TEST_F(ConfigIoStrictTest, AcceptsTheWhitespaceAndSignsOfTheOldGrammar) {
  const std::string count = std::to_string(graph_.num_ops());
  auto loose = ParseConfig(
      With(run_ + ";", " 1,\t+1,col, 0,-0* " + count + " ;;"), graph_);
  ASSERT_TRUE(loose.ok()) << loose.status().ToString();
  auto strict = ParseConfig(text_, graph_);
  ASSERT_TRUE(strict.ok());
  EXPECT_EQ(loose->stage(0).ops, strict->stage(0).ops);
  EXPECT_TRUE(ParseConfig(With("first_op = 0", "first_op = +0"), graph_).ok());
}

TEST_F(ConfigIoStrictTest, KeepsTheOldMessagesForMalformedRuns) {
  const std::string count = std::to_string(graph_.num_ops());
  // A space before a separator, a dim tag longer than 7 bytes, a missing
  // count: all are sscanf matching failures.
  EXPECT_EQ(ErrorOf(With(run_, "1 ,1,col,0,0*" + count)),
            "malformed op run: 1 ,1,col,0,0*" + count);
  EXPECT_EQ(ErrorOf(With(run_, "1,1,columnar,0,0*" + count)),
            "malformed op run: 1,1,columnar,0,0*" + count);
  EXPECT_EQ(ErrorOf(With(run_, "1,1,col,0,0*")),
            "malformed op run: 1,1,col,0,0*");
  EXPECT_EQ(ErrorOf(With(run_, "1,1,cols,0,0*" + count)),
            "unknown tp dim: cols");
  EXPECT_EQ(ErrorOf(With("first_op = 0", "first_op = 0x")),
            "malformed stage record");
}

TEST_F(ConfigIoStrictTest, RepeatedKeyKeepsItsLastValueAndCrlfLoads) {
  // The first num_ops line is wrong; the repeat after it wins.
  auto repeated = ParseConfig(With("  num_ops", "  num_ops = 3\n  num_ops"),
                              graph_);
  EXPECT_TRUE(repeated.ok()) << repeated.status().ToString();
  std::string crlf;
  for (char c : text_) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  EXPECT_TRUE(ParseConfig(crlf, graph_).ok());
}

}  // namespace
}  // namespace aceso
