#include "src/config/config_io.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <limits>
#include <span>
#include <string>

#include "src/common/text_record.h"

namespace aceso {
namespace {

constexpr char kHeaderType[] = "aceso_config";
constexpr int64_t kIntMax = std::numeric_limits<int>::max();

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

bool ParseTpDim(std::string_view tag, TpDim* dim) {
  if (tag == "col") {
    *dim = TpDim::kColumn;
  } else if (tag == "row") {
    *dim = TpDim::kRow;
  } else if (tag == "none") {
    *dim = TpDim::kNone;
  } else {
    return false;
  }
  return true;
}

// Scans an optional sign and one or more decimal digits at `p` — the
// grammar strtoll and scanf's %d accept once leading space is skipped — and
// returns the position after them, or nullptr when there are no digits.
// Magnitudes above INT_MAX saturate at INT_MAX + 1, so every value the
// codec does not accept stays out of range instead of wrapping.
const char* ScanDecimal(const char* p, const char* end, int64_t* value) {
  const bool negative = p < end && *p == '-';
  if (p < end && (*p == '-' || *p == '+')) {
    ++p;
  }
  const char* digits = p;
  int64_t magnitude = 0;
  for (; p < end && static_cast<unsigned char>(*p - '0') <= 9; ++p) {
    magnitude = std::min(magnitude * 10 + (*p - '0'), kIntMax + 1);
  }
  *value = negative ? -magnitude : magnitude;
  return p == digits ? nullptr : p;
}

// An integer field and the text it names in errors: its value for a header
// or stage field, the whole run for a run field.
struct ParsedInt {
  const char* key;
  std::string_view text = {};
  int64_t value = 0;
};

// Reads every field of `fields` from `record`: false when one is missing or
// is not a whole integer (sign and digits; values arrive trimmed). This is
// the record's one "malformed" verdict, given before any range check.
bool ReadIntFields(const TextRecordView& record,
                   std::span<ParsedInt> fields) {
  for (ParsedInt& field : fields) {
    const auto text = record.Find(field.key);
    if (!text) {
      return false;
    }
    const char* end = text->data() + text->size();
    if (ScanDecimal(text->data(), end, &field.value) != end) {
      return false;
    }
    field.text = *text;
  }
  return true;
}

// The first field of `fields` outside [0, INT_MAX], as an error naming
// `where` and the field.
Status CheckIntRange(const std::string& where,
                     std::span<const ParsedInt> fields) {
  for (const ParsedInt& field : fields) {
    if (field.value < 0 || field.value > kIntMax) {
      return InvalidArgument(where + " field '" + field.key +
                             "' is out of range [0, 2147483647]: " +
                             std::string(field.text));
    }
  }
  return OkStatus();
}

// One "tp,dp,dim,rc,zero*count" op run, scanned with the grammar of
// sscanf("%d,%d,%7[^,],%d,%d*%d"): space may precede each integer but not a
// separator, and the dim tag is 1-7 bytes other than ','. `rest` is what
// follows the count.
struct OpRun {
  int64_t tp = 0;
  int64_t dp = 0;
  std::string_view dim;
  int64_t rc = 0;
  int64_t zero = 0;
  int64_t count = 0;
  std::string_view rest;
};

bool ScanOpRun(std::string_view token, OpRun* run) {
  const char* p = token.data();
  const char* const end = p + token.size();
  // Each step advances `p` past what it matched or returns false; the &&
  // chain below stops at the first mismatch, as sscanf does.
  auto integer = [&](int64_t* value) {
    while (p < end && IsTextSpace(*p)) {
      ++p;
    }
    const char* next = ScanDecimal(p, end, value);
    if (next == nullptr) {
      return false;
    }
    p = next;
    return true;
  };
  auto literal = [&](char c) {
    if (p == end || *p != c) {
      return false;
    }
    ++p;
    return true;
  };
  auto tag = [&] {
    const char* begin = p;
    while (p < end && *p != ',' && p - begin <= 7) {
      ++p;
    }
    run->dim = std::string_view(begin, static_cast<size_t>(p - begin));
    return !run->dim.empty() && run->dim.size() <= 7;
  };
  if (!(integer(&run->tp) && literal(',') && integer(&run->dp) &&
        literal(',') && tag() && literal(',') && integer(&run->rc) &&
        literal(',') && integer(&run->zero) && literal('*') &&
        integer(&run->count))) {
    return false;
  }
  run->rest = std::string_view(p, static_cast<size_t>(end - p));
  return true;
}

// Parses the run-length op string of the stage `where` names into
// `stage->ops`, which holds no ops yet and has room for `stage->num_ops`.
// Every run is bounded by the ops the stage still has unfilled before it is
// added.
Status ParseOpRuns(std::string_view ops, const std::string& where,
                   StageConfig* stage) {
  const std::string run_where = where + " op run";
  size_t pos = 0;
  while (pos < ops.size()) {
    size_t semi = ops.find(';', pos);
    if (semi == std::string_view::npos) {
      semi = ops.size();
    }
    const std::string_view token = ops.substr(pos, semi - pos);
    pos = semi + 1;
    if (token.empty()) {
      continue;
    }
    OpRun run;
    if (!ScanOpRun(token, &run)) {
      return InvalidArgument("malformed op run: " + std::string(token));
    }
    OpParallel setting;
    if (!ParseTpDim(run.dim, &setting.tp_dim)) {
      return InvalidArgument("unknown tp dim: " + std::string(run.dim));
    }
    for (char c : run.rest) {
      if (!IsTextSpace(c)) {
        return InvalidArgument(run_where + " has bytes after its count: " +
                               std::string(token));
      }
    }
    const ParsedInt fields[] = {{"tp", token, run.tp},
                               {"dp", token, run.dp},
                               {"rc", token, run.rc},
                               {"zero", token, run.zero}};
    Status range = CheckIntRange(run_where, fields);
    if (!range.ok()) {
      return range;
    }
    const int64_t unfilled =
        stage->num_ops - static_cast<int64_t>(stage->ops.size());
    if (run.count < 1) {
      return InvalidArgument(run_where + " count is below 1: " +
                             std::string(token));
    }
    if (run.count > unfilled) {
      return InvalidArgument(run_where + " count exceeds the " +
                             std::to_string(unfilled) +
                             " ops still unfilled: " + std::string(token));
    }
    setting.tp = static_cast<int>(run.tp);
    setting.dp = static_cast<int>(run.dp);
    setting.recompute = run.rc != 0;
    setting.zero_opt = run.zero != 0;
    stage->ops.insert(stage->ops.end(), static_cast<size_t>(run.count),
                      setting);
  }
  if (static_cast<int>(stage->ops.size()) != stage->num_ops) {
    return InvalidArgument("op run-length total mismatch in " + where);
  }
  return OkStatus();
}

// Calls fn(setting, count) for each maximal run of equal settings.
template <typename Fn>
void ForEachOpRun(const StageConfig& stage, Fn&& fn) {
  size_t begin = 0;
  for (size_t i = 1; i <= stage.ops.size(); ++i) {
    if (i == stage.ops.size() || !(stage.ops[i] == stage.ops[begin])) {
      fn(stage.ops[begin], i - begin);
      begin = i;
    }
  }
}

// Bound on one "tp,dp,dim,rc,zero*count;" run: three integers of at most
// 20 bytes each, a tag of at most 4 and eight one-byte flags and separators.
constexpr size_t kMaxDecimalBytes = 20;
constexpr size_t kMaxRunBytes = 3 * kMaxDecimalBytes + 4 + 8;

// Appends one run to `out`, formatted in a stack buffer first.
void AppendOpRun(std::string* out, const OpParallel& setting, size_t count) {
  char buf[kMaxRunBytes];
  char* p = std::to_chars(buf, buf + kMaxDecimalBytes, setting.tp).ptr;
  *p++ = ',';
  p = std::to_chars(p, p + kMaxDecimalBytes, setting.dp).ptr;
  *p++ = ',';
  const char* tag = TpDimTag(setting.tp_dim);
  const size_t tag_len = std::strlen(tag);
  std::memcpy(p, tag, tag_len);
  p += tag_len;
  *p++ = ',';
  *p++ = setting.recompute ? '1' : '0';
  *p++ = ',';
  *p++ = setting.zero_opt ? '1' : '0';
  *p++ = '*';
  p = std::to_chars(p, p + kMaxDecimalBytes, count).ptr;
  *p++ = ';';
  out->append(buf, static_cast<size_t>(p - buf));
}

}  // namespace

std::string SerializeConfig(const ParallelConfig& config,
                            const std::string& model_name) {
  // Size the output once: fixed record overhead plus the longest form of
  // every run.
  size_t runs = 0;
  for (const StageConfig& stage : config.stages()) {
    ForEachOpRun(stage, [&](const OpParallel&, size_t) { ++runs; });
  }
  std::string out;
  out.reserve(128 + model_name.size() + 160 * config.stages().size() +
              kMaxRunBytes * runs);
  // Keys go out in sorted order, the order SerializeRecords takes from its
  // std::map, so the bytes match a TextRecord-built file exactly.
  TextRecordWriter writer(&out);
  writer.BeginRecord();
  writer.IntField("microbatch_size", config.microbatch_size());
  writer.Field("model", model_name);
  writer.IntField("num_stages", config.num_stages());
  writer.Field("type", kHeaderType);
  writer.EndRecord();
  for (int s = 0; s < config.num_stages(); ++s) {
    const StageConfig& stage = config.stage(s);
    writer.BeginRecord();
    writer.IntField("first_op", stage.first_op);
    writer.IntField("index", s);
    writer.IntField("num_devices", stage.num_devices);
    writer.IntField("num_ops", stage.num_ops);
    // Per-op settings as a compact run-length string:
    // "tp,dp,dim,rc,zero*count;..."
    std::string& ops = writer.BeginField("ops");
    ForEachOpRun(stage, [&](const OpParallel& setting, size_t count) {
      AppendOpRun(&ops, setting, count);
    });
    writer.EndField();
    writer.Field("type", "stage");
    writer.EndRecord();
  }
  return out;
}

StatusOr<ParallelConfig> ParseConfig(std::string_view text,
                                     const OpGraph& graph) {
  auto records = ScanRecords(text);
  if (!records.ok()) {
    return records.status();
  }
  if (records->empty()) {
    return InvalidArgument("empty configuration file");
  }
  const TextRecordView& header = (*records)[0];
  const auto type = header.Find("type");
  if (!type || *type != kHeaderType) {
    return InvalidArgument("not an aceso_config file");
  }
  const auto model = header.Find("model");
  if (!model) {
    return NotFound("missing field: model");
  }
  if (*model != graph.name()) {
    return FailedPrecondition("config was saved for model '" +
                              std::string(*model) + "', not '" + graph.name() +
                              "'");
  }
  ParsedInt header_fields[] = {{"microbatch_size"}, {"num_stages"}};
  if (!ReadIntFields(header, header_fields)) {
    return InvalidArgument("malformed config header");
  }
  Status status = CheckIntRange("config header", header_fields);
  if (!status.ok()) {
    return status;
  }

  ParallelConfig config;
  config.set_microbatch_size(static_cast<int>(header_fields[0].value));
  for (size_t r = 1; r < records->size(); ++r) {
    const TextRecordView& rec = (*records)[r];
    ParsedInt fields[] = {{"first_op"}, {"num_ops"}, {"num_devices"}};
    const auto ops = rec.Find("ops");
    if (!ReadIntFields(rec, fields) || !ops) {
      return InvalidArgument("malformed stage record");
    }
    const std::string where = "stage " + std::to_string(config.num_stages());
    status = CheckIntRange(where, fields);
    if (!status.ok()) {
      return status;
    }
    if (fields[1].value > graph.num_ops()) {
      return InvalidArgument(where + " field 'num_ops' exceeds the model's " +
                             std::to_string(graph.num_ops()) +
                             " ops: " + std::string(fields[1].text));
    }
    StageConfig stage;
    stage.first_op = static_cast<int>(fields[0].value);
    stage.num_ops = static_cast<int>(fields[1].value);
    stage.num_devices = static_cast<int>(fields[2].value);
    stage.ops.reserve(static_cast<size_t>(stage.num_ops));
    status = ParseOpRuns(*ops, where, &stage);
    if (!status.ok()) {
      return status;
    }
    config.AddStage(std::move(stage));
  }
  if (config.num_stages() != header_fields[1].value) {
    return InvalidArgument("stage count mismatch");
  }
  return config;
}

Status SaveConfigToFile(const std::string& path, const ParallelConfig& config,
                        const std::string& model_name) {
  return WriteTextFile(path, SerializeConfig(config, model_name));
}

StatusOr<ParallelConfig> LoadConfigFromFile(const std::string& path,
                                            const OpGraph& graph) {
  auto text = ReadTextFile(path);
  if (!text.ok()) {
    return text.status();
  }
  return ParseConfig(*text, graph);
}

}  // namespace aceso
