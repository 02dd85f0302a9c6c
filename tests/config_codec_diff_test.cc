// Differential tests of the saved-plan text codec (DESIGN.md §19) against
// test-local copies of the stream-based codec it replaced: the
// ostringstream serializer must produce the same bytes, and the
// istringstream/sscanf parser must give the same verdict, status and config
// on a mutation corpus, except for the stricter rejections enumerated below.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "src/aceso.h"
#include "src/common/rng.h"
#include "src/common/text_record.h"

namespace aceso {
namespace {

// ---------------------------------------------------------------------------
// The replaced codec, verbatim except for the allocation guard marked below.

namespace legacy {

constexpr char kHeaderType[] = "aceso_config";

std::string Trim(const std::string& s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::string SerializeRecords(const std::vector<TextRecord>& records) {
  std::ostringstream oss;
  for (const TextRecord& record : records) {
    oss << "record {\n";
    for (const auto& [key, value] : record.fields()) {
      oss << "  " << key << " = " << value << "\n";
    }
    oss << "}\n";
  }
  return oss.str();
}

StatusOr<std::vector<TextRecord>> ParseRecords(const std::string& text) {
  std::vector<TextRecord> records;
  std::istringstream iss(text);
  std::string line;
  bool in_record = false;
  TextRecord current;
  int line_no = 0;
  while (std::getline(iss, line)) {
    ++line_no;
    const std::string trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') {
      continue;
    }
    if (trimmed == "record {") {
      if (in_record) {
        return InvalidArgument("nested record at line " +
                               std::to_string(line_no));
      }
      in_record = true;
      current = TextRecord();
      continue;
    }
    if (trimmed == "}") {
      if (!in_record) {
        return InvalidArgument("stray '}' at line " + std::to_string(line_no));
      }
      in_record = false;
      records.push_back(current);
      continue;
    }
    const size_t eq = trimmed.find('=');
    if (!in_record || eq == std::string::npos) {
      return InvalidArgument("malformed line " + std::to_string(line_no) +
                             ": " + trimmed);
    }
    const std::string key = Trim(trimmed.substr(0, eq));
    const std::string value = Trim(trimmed.substr(eq + 1));
    if (key.empty()) {
      return InvalidArgument("empty key at line " + std::to_string(line_no));
    }
    current.Set(key, value);
  }
  if (in_record) {
    return InvalidArgument("unterminated record at end of input");
  }
  return records;
}

const char* TpDimTag(TpDim dim) {
  switch (dim) {
    case TpDim::kColumn:
      return "col";
    case TpDim::kRow:
      return "row";
    case TpDim::kNone:
      return "none";
  }
  return "none";
}

StatusOr<TpDim> ParseTpDim(const std::string& tag) {
  if (tag == "col") return TpDim::kColumn;
  if (tag == "row") return TpDim::kRow;
  if (tag == "none") return TpDim::kNone;
  return InvalidArgument("unknown tp dim: " + tag);
}

std::string SerializeConfig(const ParallelConfig& config,
                            const std::string& model_name) {
  std::vector<TextRecord> records;
  {
    TextRecord header;
    header.Set("type", kHeaderType);
    header.Set("model", model_name);
    header.SetInt("microbatch_size", config.microbatch_size());
    header.SetInt("num_stages", config.num_stages());
    records.push_back(std::move(header));
  }
  for (int s = 0; s < config.num_stages(); ++s) {
    const StageConfig& stage = config.stage(s);
    TextRecord rec;
    rec.Set("type", "stage");
    rec.SetInt("index", s);
    rec.SetInt("first_op", stage.first_op);
    rec.SetInt("num_ops", stage.num_ops);
    rec.SetInt("num_devices", stage.num_devices);
    std::ostringstream ops;
    int run = 0;
    auto flush = [&](const OpParallel& setting, int count) {
      if (count == 0) {
        return;
      }
      ops << setting.tp << "," << setting.dp << "," << TpDimTag(setting.tp_dim)
          << "," << (setting.recompute ? 1 : 0) << ","
          << (setting.zero_opt ? 1 : 0) << "*" << count << ";";
    };
    for (int i = 0; i < stage.num_ops; ++i) {
      if (i > 0 && stage.ops[static_cast<size_t>(i)] ==
                       stage.ops[static_cast<size_t>(i - 1)]) {
        ++run;
        continue;
      }
      if (i > 0) {
        flush(stage.ops[static_cast<size_t>(i - 1)], run);
      }
      run = 1;
    }
    if (stage.num_ops > 0) {
      flush(stage.ops[static_cast<size_t>(stage.num_ops - 1)], run);
    }
    rec.Set("ops", ops.str());
    records.push_back(std::move(rec));
  }
  return legacy::SerializeRecords(records);
}

// Guard added for the test: the replaced parser would push_back `count` ops
// here, up to 2^31 of them, so it stops first with this marker instead.
constexpr int kAllocationGuard = 1 << 20;
constexpr char kGuardMessage[] = "legacy parser would allocate a huge run";

StatusOr<ParallelConfig> ParseConfig(const std::string& text,
                                     const OpGraph& graph) {
  auto records = ParseRecords(text);
  if (!records.ok()) {
    return records.status();
  }
  if (records->empty()) {
    return InvalidArgument("empty configuration file");
  }
  const TextRecord& header = (*records)[0];
  auto type = header.Get("type");
  if (!type.ok() || *type != kHeaderType) {
    return InvalidArgument("not an aceso_config file");
  }
  auto model = header.Get("model");
  if (!model.ok()) {
    return model.status();
  }
  if (*model != graph.name()) {
    return FailedPrecondition("config was saved for model '" + *model +
                              "', not '" + graph.name() + "'");
  }
  auto mbs = header.GetInt("microbatch_size");
  auto num_stages = header.GetInt("num_stages");
  if (!mbs.ok() || !num_stages.ok()) {
    return InvalidArgument("malformed config header");
  }

  ParallelConfig config;
  config.set_microbatch_size(static_cast<int>(*mbs));
  for (size_t r = 1; r < records->size(); ++r) {
    const TextRecord& rec = (*records)[r];
    auto first_op = rec.GetInt("first_op");
    auto num_ops = rec.GetInt("num_ops");
    auto num_devices = rec.GetInt("num_devices");
    auto ops = rec.Get("ops");
    if (!first_op.ok() || !num_ops.ok() || !num_devices.ok() || !ops.ok()) {
      return InvalidArgument("malformed stage record");
    }
    StageConfig stage;
    stage.first_op = static_cast<int>(*first_op);
    stage.num_ops = static_cast<int>(*num_ops);
    stage.num_devices = static_cast<int>(*num_devices);

    std::istringstream iss(*ops);
    std::string token;
    while (std::getline(iss, token, ';')) {
      if (token.empty()) {
        continue;
      }
      int tp = 0;
      int dp = 0;
      char dim_buf[8] = {0};
      int rc = 0;
      int zero = 0;
      int count = 0;
      if (std::sscanf(token.c_str(), "%d,%d,%7[^,],%d,%d*%d", &tp, &dp,
                      dim_buf, &rc, &zero, &count) != 6) {
        return InvalidArgument("malformed op run: " + token);
      }
      auto dim = ParseTpDim(dim_buf);
      if (!dim.ok()) {
        return dim.status();
      }
      OpParallel setting;
      setting.tp = tp;
      setting.dp = dp;
      setting.tp_dim = *dim;
      setting.recompute = rc != 0;
      setting.zero_opt = zero != 0;
      if (count > kAllocationGuard) {
        return Internal(kGuardMessage);
      }
      for (int i = 0; i < count; ++i) {
        stage.ops.push_back(setting);
      }
    }
    if (static_cast<int>(stage.ops.size()) != stage.num_ops) {
      return InvalidArgument("op run-length total mismatch in stage " +
                             std::to_string(config.num_stages()));
    }
    config.AddStage(std::move(stage));
  }
  if (config.num_stages() != static_cast<int>(*num_stages)) {
    return InvalidArgument("stage count mismatch");
  }
  return config;
}

}  // namespace legacy

// ---------------------------------------------------------------------------
// Inputs the new codec rejects on purpose where the replaced one accepted
// them (by truncating, skipping or allocating) or failed later with another
// message. Each class is identified by a fragment of the new message; the
// exact texts are pinned in config_io_test.cc.
struct StricterRejection {
  const char* fragment;
  const char* what;
};
constexpr StricterRejection kStricterRejections[] = {
    {" is out of range [0, 2147483647]: ",
     "an integer outside [0, INT_MAX]: the old parser cast int64 to int or "
     "overflowed %d"},
    {" op run count is below 1: ",
     "a run count below 1: the old parser skipped the run"},
    {" ops still unfilled: ",
     "a run longer than its stage's unfilled ops: the old parser allocated "
     "it before checking the total"},
    {" field 'num_ops' exceeds the model's ",
     "a stage with more ops than the model: the old parser parsed it and "
     "allocated its runs"},
    {" op run has bytes after its count: ",
     "bytes after a run's count: sscanf ignored them"},
};
// One more class has no message of its own: text with a NUL byte. The old
// parser scanned C strings and stopped at the NUL; the new one treats it as
// an ordinary byte, so such text may only be rejected more often.

int StricterRejectionClass(const Status& status) {
  for (size_t i = 0; i < std::size(kStricterRejections); ++i) {
    if (status.message().find(kStricterRejections[i].fragment) !=
        std::string::npos) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

bool SameConfig(const ParallelConfig& a, const ParallelConfig& b) {
  if (a.microbatch_size() != b.microbatch_size() ||
      a.num_stages() != b.num_stages()) {
    return false;
  }
  for (int s = 0; s < a.num_stages(); ++s) {
    const StageConfig& x = a.stage(s);
    const StageConfig& y = b.stage(s);
    if (x.first_op != y.first_op || x.num_ops != y.num_ops ||
        x.num_devices != y.num_devices || x.ops != y.ops) {
      return false;
    }
  }
  return true;
}

// Whether every stage's op range lies inside `graph`, which SemanticHash
// needs; a parsed config need not pass Validate.
bool OpsInGraph(const ParallelConfig& config, const OpGraph& graph) {
  for (const StageConfig& stage : config.stages()) {
    if (stage.first_op < 0 || stage.num_ops < 0 ||
        int64_t{stage.first_op} + stage.num_ops > graph.num_ops()) {
      return false;
    }
  }
  return true;
}

// A heterogeneous config: an even start whose op settings are overwritten
// range by range with random tp/dp splits, dims, recompute and ZeRO flags,
// so stages hold many runs of different lengths. Validity is not needed:
// the codec stores whatever the config holds.
ParallelConfig RandomConfig(const OpGraph& graph, Rng& rng,
                            bool extreme_values) {
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(8);
  ParallelConfig config;
  for (int attempt = 0; attempt < 8; ++attempt) {
    auto even = MakeEvenConfig(graph, cluster,
                               static_cast<int>(rng.NextInt(1, 4)),
                               static_cast<int>(1 << rng.NextInt(0, 2)));
    if (even.ok()) {
      config = *even;
      break;
    }
  }
  if (config.num_stages() == 0) {
    config = *MakeEvenConfig(graph, cluster, 1, 1);
  }
  const TpDim kDims[] = {TpDim::kColumn, TpDim::kRow, TpDim::kNone};
  const int kExtremes[] = {0, -1, 2147483647, -2147483647 - 1, 1000000007};
  const int ranges = static_cast<int>(rng.NextInt(1, 40));
  for (int r = 0; r < ranges; ++r) {
    const int s = static_cast<int>(rng.NextBelow(config.num_stages()));
    StageConfig& stage = config.MutableStage(s);
    const int begin = static_cast<int>(rng.NextBelow(stage.num_ops));
    const int end = static_cast<int>(
        rng.NextInt(begin + 1, std::min(stage.num_ops, begin + 24)));
    const int tp = 1 << rng.NextInt(0, 3);
    OpParallel setting;
    setting.tp = tp;
    setting.dp = std::max(1, stage.num_devices / tp);
    setting.tp_dim = kDims[rng.NextBelow(3)];
    setting.recompute = rng.NextBool();
    setting.zero_opt = rng.NextBool(0.3);
    if (extreme_values && rng.NextBool(0.2)) {
      setting.tp = kExtremes[rng.NextBelow(std::size(kExtremes))];
      setting.dp = kExtremes[rng.NextBelow(std::size(kExtremes))];
    }
    for (int i = begin; i < end; ++i) {
      // Every other op keeps its own recompute flag now and then, which
      // breaks the range into short runs.
      OpParallel& op = stage.ops[static_cast<size_t>(i)];
      const bool keep_flag = rng.NextBool(0.2);
      const bool flag = op.recompute;
      op = setting;
      if (keep_flag) {
        op.recompute = flag;
      }
    }
  }
  return config;
}

const char* const kModels[] = {"gpt3-0.35b", "t5-0.77b", "wresnet-0.5b",
                               "deepnet-24"};

TEST(ConfigCodecDiffTest, SerializationIsByteIdenticalToStreamSerializer) {
  Rng rng(20240422);
  int compared = 0;
  for (const char* name : kModels) {
    const OpGraph graph = *models::BuildByName(name);
    for (int i = 0; i < 40; ++i) {
      const ParallelConfig config = RandomConfig(graph, rng, i % 4 == 3);
      for (const std::string& model_name :
           {graph.name(), std::string("a model = with spaces"),
            std::string()}) {
        ASSERT_EQ(SerializeConfig(config, model_name),
                  legacy::SerializeConfig(config, model_name))
            << name << " config " << i;
        ++compared;
      }
    }
  }
  // An empty config and one empty stage serialize the same way too.
  ParallelConfig empty;
  EXPECT_EQ(SerializeConfig(empty, "m"), legacy::SerializeConfig(empty, "m"));
  empty.AddStage(StageConfig());
  EXPECT_EQ(SerializeConfig(empty, "m"), legacy::SerializeConfig(empty, "m"));
  EXPECT_EQ(compared, 4 * 40 * 3);
}

TEST(ConfigCodecDiffTest, SerializeRecordsIsByteIdenticalToStreamWriter) {
  TextRecord a;
  a.Set("zeta", "last");
  a.SetInt("alpha", -42);
  a.SetDouble("mid", 0.1);
  a.Set("", "");
  TextRecord b;
  b.Set("k", "v = w");
  EXPECT_EQ(SerializeRecords({a, b}), legacy::SerializeRecords({a, b}));
  EXPECT_EQ(SerializeRecords({}), legacy::SerializeRecords({}));
}

// ----- Mutation corpus -----------------------------------------------------

std::vector<size_t> LineStarts(const std::string& text) {
  std::vector<size_t> starts = {0};
  for (size_t i = 0; i + 1 < text.size(); ++i) {
    if (text[i] == '\n') {
      starts.push_back(i + 1);
    }
  }
  return starts;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string line;
  std::istringstream iss(text);
  while (std::getline(iss, line)) {
    lines.push_back(line);
  }
  return lines;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

// Applies one random mutation to `text`.
std::string Mutate(std::string text, Rng& rng) {
  if (text.empty()) {
    return text;
  }
  static const std::string kInteresting =
      std::string("0123456789,;*=#{}-+ \t\r\nabcolrwnex") + '\0';
  static const char* const kNumbers[] = {
      "0",          "-1",         "+3",         " 7",
      "-0",         "007",        "2147483647", "2147483648",
      "4294967296", "4294967297", "2000000000", "99999999999999999999",
      "1",          "12x",        "-2147483648"};
  static const char* const kTags[] = {"col",  "row",     "none",    "cols",
                                      "co l", " col",    "column",  "columns",
                                      "",     "nonenone", "row\t"};
  const size_t pos = rng.NextBelow(text.size());
  switch (rng.NextBelow(12)) {
    case 0:  // substitute one byte with an interesting one
      text[pos] = kInteresting[rng.NextBelow(kInteresting.size())];
      return text;
    case 1:  // flip bits of one byte
      text[pos] = static_cast<char>(text[pos] ^ (1 + rng.NextBelow(255)));
      return text;
    case 2:  // truncate
      return text.substr(0, pos);
    case 3:  // insert spaces or tabs
      return text.insert(pos, rng.NextBool() ? " " : "\t \t");
    case 4: {  // CRLF line endings
      std::string out;
      for (char c : text) {
        if (c == '\n') out += '\r';
        out += c;
      }
      return out;
    }
    case 5: {  // a comment line, possibly indented
      const std::vector<size_t> starts = LineStarts(text);
      return text.insert(starts[rng.NextBelow(starts.size())],
                         rng.NextBool() ? "# a comment\n" : "   # x = 1\n");
    }
    case 6:
    case 7: {  // duplicate a line, or insert an unknown key
      std::vector<std::string> lines = SplitLines(text);
      const size_t from = rng.NextBelow(lines.size());
      const size_t to = rng.NextBelow(lines.size() + 1);
      const std::string line = rng.NextBool() ? lines[from] : "  extra = 7";
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(to), line);
      return JoinLines(lines);
    }
    case 8: {  // reorder the fields of one record
      std::vector<std::string> lines = SplitLines(text);
      std::vector<size_t> opens;
      for (size_t i = 0; i < lines.size(); ++i) {
        if (lines[i] == "record {") opens.push_back(i);
      }
      if (opens.empty()) return text;
      const size_t begin = opens[rng.NextBelow(opens.size())] + 1;
      size_t end = begin;
      while (end < lines.size() && lines[end] != "}") ++end;
      for (size_t i = end; i > begin + 1; --i) {
        std::swap(lines[i - 1],
                  lines[begin + rng.NextBelow(i - begin)]);
      }
      return JoinLines(lines);
    }
    case 9: {  // delete a line
      std::vector<std::string> lines = SplitLines(text);
      lines.erase(lines.begin() +
                  static_cast<std::ptrdiff_t>(rng.NextBelow(lines.size())));
      return JoinLines(lines);
    }
    case 10: {  // replace a dim tag
      const size_t begin = text.find_first_of("cnr", pos);
      if (begin == std::string::npos) return text;
      const size_t end = text.find_first_of(",\n", begin);
      if (end == std::string::npos) return text;
      return text.replace(begin, end - begin,
                          kTags[rng.NextBelow(std::size(kTags))]);
    }
    default: {  // replace a number with an edge value
      size_t begin = text.find_first_of("0123456789", pos);
      if (begin == std::string::npos) return text;
      size_t end = text.find_first_not_of("0123456789", begin);
      if (end == std::string::npos) end = text.size();
      return text.replace(begin, end - begin,
                          kNumbers[rng.NextBelow(std::size(kNumbers))]);
    }
  }
}

TEST(ConfigCodecDiffTest, ParserAgreesWithStreamParserOnMutationCorpus) {
  Rng rng(7);
  int both_ok = 0;
  int hashed = 0;
  int same_error = 0;
  int stricter[std::size(kStricterRejections)] = {};
  int nul_stricter = 0;
  for (const char* name : kModels) {
    const OpGraph graph = *models::BuildByName(name);
    for (int c = 0; c < 25; ++c) {
      const std::string base =
          SerializeConfig(RandomConfig(graph, rng, false), graph.name());
      for (int m = 0; m < 60; ++m) {
        std::string text = base;
        const int mutations = static_cast<int>(rng.NextInt(0, 3));
        for (int k = 0; k < mutations; ++k) {
          text = Mutate(text, rng);
        }
        const auto old_result = legacy::ParseConfig(text, graph);
        const auto new_result = ParseConfig(text, graph);
        if (old_result.ok() && new_result.ok()) {
          ASSERT_TRUE(SameConfig(*old_result, *new_result)) << text;
          if (OpsInGraph(*new_result, graph)) {  // what hashing reads
            ASSERT_EQ(old_result->SemanticHash(graph),
                      new_result->SemanticHash(graph));
            ++hashed;
          }
          ++both_ok;
          continue;
        }
        if (!old_result.ok() && !new_result.ok() &&
            old_result.status().code() == new_result.status().code() &&
            old_result.status().message() == new_result.status().message()) {
          ++same_error;
          continue;
        }
        // Verdicts differ: only a stricter rejection by the new parser is
        // allowed.
        ASSERT_FALSE(new_result.ok())
            << "new parser accepts text the old one rejected ("
            << old_result.status().ToString() << "):\n"
            << text;
        const int cls = StricterRejectionClass(new_result.status());
        if (cls >= 0) {
          ++stricter[cls];
        } else {
          ASSERT_NE(text.find('\0'), std::string::npos)
              << "old: "
              << (old_result.ok() ? "ok" : old_result.status().ToString())
              << "\nnew: " << new_result.status().ToString() << "\n"
              << text;
          ++nul_stricter;
        }
      }
    }
  }
  // The corpus exercises agreement on both verdicts and most stricter
  // classes, not just one of them.
  EXPECT_GT(both_ok, 500);
  EXPECT_GT(hashed, 500);
  EXPECT_GT(same_error, 1000);
  EXPECT_GT(stricter[0], 0);  // out of range
  EXPECT_GT(stricter[2], 0);  // overfilled stage
  EXPECT_GT(stricter[4], 0);  // bytes after the count
  for (size_t i = 0; i < std::size(kStricterRejections); ++i) {
    std::printf("stricter rejection %-60s %d\n", kStricterRejections[i].what,
                stricter[i]);
  }
  std::printf("both ok %d (hashed %d), same error %d, NUL-only %d\n", both_ok,
              hashed, same_error, nul_stricter);
}

}  // namespace
}  // namespace aceso
