#include "src/config/parallel_config.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <sstream>

#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/config/stage_segments.h"

namespace aceso {
namespace {

// The largest power of two <= n (n >= 1).
int FloorPow2(int n) {
  return static_cast<int>(std::bit_floor(static_cast<unsigned>(n)));
}

}  // namespace

bool IsPow2(int v) { return v >= 1 && (v & (v - 1)) == 0; }

int ClampOpTp(const Operator& op, int tp) {
  if (op.tp_class == TpClass::kPartitioned) {
    return std::min(tp, FloorPow2(std::max(op.max_tp, 1)));
  }
  return tp;
}

void StageConfig::SetUniformParallelism(const OpGraph& graph, int tp, int dp) {
  ACESO_CHECK_EQ(tp * dp, num_devices);
  ops.resize(static_cast<size_t>(num_ops));
  for (int i = 0; i < num_ops; ++i) {
    const Operator& op = graph.op(first_op + i);
    OpParallel& setting = ops[static_cast<size_t>(i)];
    setting.tp = ClampOpTp(op, tp);
    setting.dp = num_devices / setting.tp;
    setting.tp_dim =
        op.default_tp_dim == TpDim::kNone ? TpDim::kColumn : op.default_tp_dim;
  }
}

int StageConfig::NumRecomputed() const {
  int count = 0;
  for (const OpParallel& op : ops) {
    if (op.recompute) {
      ++count;
    }
  }
  return count;
}

uint64_t PackOpSemanticWord(const Operator& op, const OpParallel& setting) {
  // The partition dimension only matters for sharded partitioned ops.
  const bool dim_matters =
      setting.tp > 1 && op.tp_class == TpClass::kPartitioned;
  const uint64_t dim =
      dim_matters ? static_cast<uint64_t>(setting.tp_dim) + 1 : 0;
  // ZeRO only changes semantics for data-parallel ops.
  const bool zero = setting.dp > 1 && setting.zero_opt;
  // tp and dp are device counts (< 2^16 for any plausible cluster).
  return static_cast<uint64_t>(setting.tp) |
         static_cast<uint64_t>(setting.dp) << 16 | dim << 32 |
         static_cast<uint64_t>(setting.recompute) << 35 |
         static_cast<uint64_t>(zero) << 36;
}

// ----- StageBlock -----

StageBlock::~StageBlock() {
  delete runs_.load(std::memory_order_acquire);
  delete words_.load(std::memory_order_acquire);
  delete spare_.load(std::memory_order_acquire);
}

StageConfig& StageBlock::BeginMutation() {
  // The caller holds this block uniquely (CoW guarantees it), so no reader
  // can be folding the cache we unpublish here. Park it for buffer reuse
  // instead of freeing: candidate construction mutates and re-hashes in a
  // tight loop, and the parked buffer saves an allocation per rehash.
  WordCache* old = const_cast<WordCache*>(
      words_.exchange(nullptr, std::memory_order_acq_rel));
  if (old != nullptr) {
    delete spare_.exchange(old, std::memory_order_acq_rel);
  }
  delete runs_.exchange(nullptr, std::memory_order_acq_rel);
  return config_;
}

StageRunList StageBlock::Runs(const OpGraph& graph) const {
  const RunCache* cache = runs_.load(std::memory_order_acquire);
  if (cache == nullptr) {
    if (!MayHoldRuns(graph, config_)) {
      return StageRunList(config_.num_ops);
    }
    auto* fresh = new RunCache;
    fresh->graph = &graph;
    fresh->size = SegmentStage(graph, config_, fresh->runs, kMaxStageRuns);
    // Publish-once, as for the word cache: a loser reads the winner's.
    if (runs_.compare_exchange_strong(cache, fresh,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      cache = fresh;
    } else {
      delete fresh;
    }
  }
  if (cache->graph != &graph) {
    return StageRunList(config_.num_ops);
  }
  return StageRunList(cache->runs, static_cast<size_t>(cache->size));
}

void StageBlock::ComputeWords(const OpGraph& graph, const StageConfig& config,
                              std::vector<uint64_t>& words) {
  words.resize(static_cast<size_t>(config.num_ops));
  for (int i = 0; i < config.num_ops; ++i) {
    words[static_cast<size_t>(i)] =
        PackOpSemanticWord(graph.op(config.first_op + i),
                           config.ops[static_cast<size_t>(i)]);
  }
}

namespace {

uint64_t FoldWords(uint64_t state, const std::vector<uint64_t>& words) {
  for (const uint64_t word : words) {
    state = HashCombine(state, word);
  }
  return state;
}

}  // namespace

const StageBlock::WordCache* StageBlock::Cache(const OpGraph& graph) const {
  const WordCache* cache = words_.load(std::memory_order_acquire);
  if (cache != nullptr) {
    // A cache for a different graph cannot be swapped out safely under
    // concurrent readers, so it stays published and this graph reads as
    // uncached. (In practice a config is only ever hashed against one
    // graph; this path exists for correctness, not speed.)
    return cache->graph == &graph ? cache : nullptr;
  }
  // Miss: recompute into the parked buffer if this thread wins it, a fresh
  // one otherwise (concurrent post-mutation readers may race here).
  WordCache* fresh = spare_.exchange(nullptr, std::memory_order_acq_rel);
  if (fresh == nullptr) {
    fresh = new WordCache;
  }
  fresh->graph = &graph;
  ComputeWords(graph, config_, fresh->words);
  fresh->digest = FoldWords(kFnvOffsetBasis, fresh->words);
  // Publish-once: the winner's cache lives until mutation or destruction,
  // so concurrent readers never see it freed; losers park their copy and
  // read the winner's (which, racing on the same graph, holds the same
  // words; on a different graph the fallback applies).
  const WordCache* expected = nullptr;
  if (words_.compare_exchange_strong(expected, fresh,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
    return fresh;
  }
  delete spare_.exchange(fresh, std::memory_order_acq_rel);
  return expected->graph == &graph ? expected : nullptr;
}

const std::vector<uint64_t>* StageBlock::OpWords(const OpGraph& graph) const {
  const WordCache* cache = Cache(graph);
  return cache != nullptr ? &cache->words : nullptr;
}

uint64_t StageBlock::OpWordsDigest(const OpGraph& graph) const {
  if (const WordCache* cache = Cache(graph)) {
    return cache->digest;
  }
  // Different-graph fallback (see Cache()).
  std::vector<uint64_t> words;
  ComputeWords(graph, config_, words);
  return FoldWords(kFnvOffsetBasis, words);
}

uint64_t StageBlock::FoldOpWords(const OpGraph& graph, uint64_t state) const {
  if (const std::vector<uint64_t>* words = OpWords(graph)) {
    return FoldWords(state, *words);
  }
  // Different-graph fallback: fold freshly packed words without touching
  // the published cache.
  std::vector<uint64_t> words;
  ComputeWords(graph, config_, words);
  return FoldWords(state, words);
}

// ----- ParallelConfig: mutation -----

StageConfig& ParallelConfig::MutableStage(int i) {
  std::shared_ptr<StageBlock>& block = stages_.at(static_cast<size_t>(i));
  if (block.use_count() > 1) {
    // Shared with another config: clone before writing (copy-on-write).
    block = std::make_shared<StageBlock>(*block);
  }
  return block->BeginMutation();
}

void ParallelConfig::AddStage(StageConfig stage) {
  stages_.push_back(std::make_shared<StageBlock>(std::move(stage)));
}

ParallelConfig ParallelConfig::DeepCopy() const {
  ParallelConfig copy;
  copy.microbatch_size_ = microbatch_size_;
  copy.stages_.reserve(stages_.size());
  for (const std::shared_ptr<StageBlock>& block : stages_) {
    copy.stages_.push_back(std::make_shared<StageBlock>(*block));
  }
  return copy;
}

// ----- ParallelConfig: queries -----

int ParallelConfig::StageFirstDevice(int stage_index) const {
  int first = 0;
  for (int i = 0; i < stage_index; ++i) {
    first += stages_[static_cast<size_t>(i)]->config().num_devices;
  }
  return first;
}

int ParallelConfig::TotalDevices() const {
  int total = 0;
  for (const StageConfig& stage : stages()) {
    total += stage.num_devices;
  }
  return total;
}

const OpParallel& ParallelConfig::OpSettings(int op_index) const {
  const int stage_index = StageOfOp(op_index);
  const StageConfig& st = stage(stage_index);
  return st.ops[static_cast<size_t>(op_index - st.first_op)];
}

OpParallel& ParallelConfig::MutableOpSettings(int op_index) {
  const int stage_index = StageOfOp(op_index);
  StageConfig& st = MutableStage(stage_index);
  return st.ops[static_cast<size_t>(op_index - st.first_op)];
}

int ParallelConfig::StageOfOp(int op_index) const {
  for (size_t s = 0; s < stages_.size(); ++s) {
    const StageConfig& stage = stages_[s]->config();
    if (op_index >= stage.first_op && op_index < stage.end_op()) {
      return static_cast<int>(s);
    }
  }
  ACESO_CHECK(false) << "op " << op_index << " not in any stage";
  return -1;
}

int64_t ParallelConfig::NumMicrobatches(const OpGraph& graph) const {
  return graph.global_batch_size() / microbatch_size_;
}

namespace {

// Error-message prefixes, built only once a check has failed: Validate runs
// on every candidate the search constructs, so its success path must not
// allocate.
std::string StageTag(size_t stage_index) {
  return "stage " + std::to_string(stage_index);
}

std::string OpTag(size_t stage_index, const Operator& op) {
  return StageTag(stage_index) + " op " + op.name;
}

}  // namespace

Status ParallelConfig::Validate(const OpGraph& graph,
                                const ClusterSpec& cluster,
                                const std::vector<int>* op_check_stages) const {
  if (stages_.empty()) {
    return InvalidArgument("configuration has no stages");
  }
  if (microbatch_size_ < 1) {
    return InvalidArgument("microbatch size must be >= 1");
  }
  if (graph.global_batch_size() % microbatch_size_ != 0) {
    return InvalidArgument("microbatch size " +
                           std::to_string(microbatch_size_) +
                           " does not divide batch " +
                           std::to_string(graph.global_batch_size()));
  }
  if (TotalDevices() != cluster.num_gpus()) {
    return InvalidArgument("stage devices sum to " +
                           std::to_string(TotalDevices()) + ", cluster has " +
                           std::to_string(cluster.num_gpus()));
  }
  int next_op = 0;
  for (size_t s = 0; s < stages_.size(); ++s) {
    const StageConfig& stage = stages_[s]->config();
    if (stage.first_op != next_op) {
      return InvalidArgument(StageTag(s) + " starts at op " +
                             std::to_string(stage.first_op) + ", expected " +
                             std::to_string(next_op));
    }
    if (stage.num_ops <= 0) {
      return InvalidArgument(StageTag(s) + " is empty");
    }
    next_op = stage.end_op();
    if (!IsPow2(stage.num_devices)) {
      return InvalidArgument(StageTag(s) + " device count " +
                             std::to_string(stage.num_devices) +
                             " is not a power of two");
    }
    if (static_cast<int>(stage.ops.size()) != stage.num_ops) {
      return InvalidArgument(StageTag(s) + " has " +
                             std::to_string(stage.ops.size()) +
                             " op settings for " +
                             std::to_string(stage.num_ops) + " ops");
    }
    if (op_check_stages != nullptr &&
        std::find(op_check_stages->begin(), op_check_stages->end(),
                  static_cast<int>(s)) == op_check_stages->end()) {
      continue;
    }
    // The checks read only the op and its settings, so an op that repeats
    // the op one layer period earlier (a replayed block of the stage's
    // segmentation) passes whenever that op did: only the materialized
    // blocks are checked, in walk order, so the first violation reported
    // is the same.
    for (const StageRun& run : stages_[s]->Runs(graph)) {
      for (int i = run.start; i < run.start + run.period; ++i) {
        const OpParallel& setting = stage.ops[static_cast<size_t>(i)];
        const Operator& op = graph.op(stage.first_op + i);
        if (!IsPow2(setting.tp) || !IsPow2(setting.dp)) {
          return InvalidArgument(OpTag(s, op) +
                                 ": tp/dp must be powers of two");
        }
        if (setting.tp * setting.dp != stage.num_devices) {
          return InvalidArgument(OpTag(s, op) + ": tp*dp=" +
                                 std::to_string(setting.tp * setting.dp) +
                                 " != stage devices " +
                                 std::to_string(stage.num_devices));
        }
        if (op.tp_class == TpClass::kPartitioned &&
            setting.tp > FloorPow2(std::max(op.max_tp, 1))) {
          return InvalidArgument(OpTag(s, op) + ": tp " +
                                 std::to_string(setting.tp) +
                                 " exceeds op limit " +
                                 std::to_string(op.max_tp));
        }
        // dp is a power of two here, so the remainder is a mask.
        if ((microbatch_size_ & (setting.dp - 1)) != 0) {
          return InvalidArgument(OpTag(s, op) + ": dp " +
                                 std::to_string(setting.dp) +
                                 " does not divide microbatch size " +
                                 std::to_string(microbatch_size_));
        }
      }
    }
  }
  if (next_op != graph.num_ops()) {
    return InvalidArgument("stages cover " + std::to_string(next_op) +
                           " ops, model has " +
                           std::to_string(graph.num_ops()));
  }
  return OkStatus();
}

// ----- ParallelConfig: semantic hashing -----

namespace {

// From-scratch fold of one stage's op settings (reference path; the cached
// path folds the same words out of the stage block's word cache).
void HashStageOps(const OpGraph& graph, const StageConfig& stage, Hasher& h) {
  for (int i = 0; i < stage.num_ops; ++i) {
    h.Add(PackOpSemanticWord(graph.op(stage.first_op + i),
                             stage.ops[static_cast<size_t>(i)]));
  }
}

}  // namespace

uint64_t ParallelConfig::SemanticHash(const OpGraph& graph) const {
  // Same fields, same order as SemanticHashUncached.
  uint64_t state = kFnvOffsetBasis;
  state = HashCombine(state, static_cast<uint64_t>(microbatch_size_));
  state = HashCombine(state, static_cast<uint64_t>(num_stages()));
  for (const std::shared_ptr<StageBlock>& block : stages_) {
    state = HashCombine(state, static_cast<uint64_t>(block->config().num_ops));
    state = HashCombine(state,
                        static_cast<uint64_t>(block->config().num_devices));
    state = block->FoldOpWords(graph, state);
  }
  return state;
}

uint64_t ParallelConfig::StageSemanticHash(const OpGraph& graph,
                                           const ClusterSpec& cluster,
                                           int stage_index) const {
  const StageBlock& block = *stages_.at(static_cast<size_t>(stage_index));
  const StageConfig& stage = block.config();
  const int first_device = StageFirstDevice(stage_index);
  Hasher h;
  h.Add(microbatch_size_);
  h.Add(stage.first_op);
  h.Add(stage.num_ops);
  h.Add(stage.num_devices);
  // Placement context (see header): node offset drives every
  // GroupCrossesNodes() answer inside the walk; the receives-input bit
  // distinguishes stage 0 (no p2p charge) from later stages.
  h.Add(first_device % cluster.gpus_per_node);
  h.Add(stage_index > 0);
  // The op words enter as their cached digest, finalized with Mix64: the
  // header and the digest are both structured values, and one HashCombine
  // round over two such values can cancel their differences.
  h.Add(Mix64(block.OpWordsDigest(graph)));
  return h.Digest();
}

StageRunList ParallelConfig::StageRuns(const OpGraph& graph, int stage_index,
                                       bool compress) const {
  const StageBlock& block = *stages_.at(static_cast<size_t>(stage_index));
  return compress ? block.Runs(graph) : StageRunList(block.config().num_ops);
}

const std::vector<uint64_t>* ParallelConfig::StageOpWords(
    const OpGraph& graph, int stage_index) const {
  return stages_.at(static_cast<size_t>(stage_index))->OpWords(graph);
}

uint64_t ParallelConfig::SemanticHashUncached(const OpGraph& graph) const {
  Hasher h;
  h.Add(microbatch_size_);
  h.Add(static_cast<int>(stages_.size()));
  for (const StageConfig& stage : stages()) {
    h.Add(stage.num_ops);
    h.Add(stage.num_devices);
    HashStageOps(graph, stage, h);
  }
  return h.Digest();
}

uint64_t ParallelConfig::StageSemanticHashUncached(const OpGraph& graph,
                                                   const ClusterSpec& cluster,
                                                   int stage_index) const {
  const StageConfig& st = stage(stage_index);
  const int first_device = StageFirstDevice(stage_index);
  Hasher ops;
  HashStageOps(graph, st, ops);
  Hasher h;
  h.Add(microbatch_size_);
  h.Add(st.first_op);
  h.Add(st.num_ops);
  h.Add(st.num_devices);
  h.Add(first_device % cluster.gpus_per_node);
  h.Add(stage_index > 0);
  h.Add(Mix64(ops.Digest()));
  return h.Digest();
}

// ----- ParallelConfig: printing -----

std::string ParallelConfig::ToString(const OpGraph& graph) const {
  std::ostringstream oss;
  oss << "config: mbs=" << microbatch_size_ << " stages=" << num_stages()
      << "\n";
  for (int s = 0; s < num_stages(); ++s) {
    const StageConfig& stage = this->stage(s);
    oss << "  stage " << s << ": ops [" << stage.first_op << ", "
        << stage.end_op() << ") devices=" << stage.num_devices << "\n";
    // Group runs of ops with identical settings for readability. The
    // partition dimension only differentiates sharded ops.
    auto same_group = [](const OpParallel& a, const OpParallel& b) {
      if (a.tp != b.tp || a.dp != b.dp || a.recompute != b.recompute) {
        return false;
      }
      return a.tp == 1 || a.tp_dim == b.tp_dim;
    };
    int run_start = 0;
    for (int i = 1; i <= stage.num_ops; ++i) {
      if (i < stage.num_ops &&
          same_group(stage.ops[static_cast<size_t>(i)],
                     stage.ops[static_cast<size_t>(run_start)])) {
        continue;
      }
      const OpParallel& setting = stage.ops[static_cast<size_t>(run_start)];
      oss << "    ops " << (stage.first_op + run_start) << ".."
          << (stage.first_op + i - 1) << ": tp=" << setting.tp
          << " dp=" << setting.dp;
      if (setting.tp > 1) {
        oss << " dim=" << TpDimName(setting.tp_dim);
      }
      oss << (setting.recompute ? " rc" : "") << "  ("
          << graph.op(stage.first_op + run_start).name << " ...)\n";
      run_start = i;
    }
  }
  return oss.str();
}

std::string ParallelConfig::ShortString() const {
  std::ostringstream oss;
  oss << "mbs=" << microbatch_size_;
  for (int s = 0; s < num_stages(); ++s) {
    const StageConfig& stage = this->stage(s);
    // Report the most common (tp, dp) pair of the stage for compactness.
    std::map<std::pair<int, int>, int> counts;
    for (const OpParallel& setting : stage.ops) {
      ++counts[{setting.tp, setting.dp}];
    }
    std::pair<int, int> modal{1, stage.num_devices};
    int best = 0;
    for (const auto& [pair, count] : counts) {
      if (count > best) {
        best = count;
        modal = pair;
      }
    }
    oss << " | s" << s << "[" << stage.num_ops << "ops g" << stage.num_devices
        << " tp" << modal.first << " dp" << modal.second << " rc"
        << stage.NumRecomputed() << "]";
  }
  return oss.str();
}

StatusOr<std::vector<int>> SplitDevicesPow2(int total, int parts) {
  if (!IsPow2(total)) {
    return InvalidArgument("device count " + std::to_string(total) +
                           " is not a power of two");
  }
  if (parts < 1 || parts > total) {
    return InvalidArgument("cannot split " + std::to_string(total) +
                           " devices into " + std::to_string(parts) +
                           " stages");
  }
  if (parts == 1) {
    return std::vector<int>{total};
  }
  const int left_parts = (parts + 1) / 2;
  const int right_parts = parts / 2;
  auto left = SplitDevicesPow2(total / 2, left_parts);
  auto right = SplitDevicesPow2(total / 2, right_parts);
  if (!left.ok()) {
    return left.status();
  }
  if (!right.ok()) {
    return right.status();
  }
  std::vector<int> out = *std::move(left);
  out.insert(out.end(), right->begin(), right->end());
  // Larger stages first matches 1F1B's preference for memory-light late
  // stages (early stages hold more in-flight microbatches).
  std::sort(out.begin(), out.end(), std::greater<int>());
  return out;
}

namespace {

// Splits [0, num_ops) into `parts` contiguous ranges with boundaries chosen
// so each range carries ~target_weight[i] of the total FLOPs.
std::vector<int> SplitOpsByWeight(const OpGraph& graph, int parts,
                                  const std::vector<double>& weights) {
  const int n = graph.num_ops();
  std::vector<double> prefix(static_cast<size_t>(n) + 1, 0.0);
  for (int i = 0; i < n; ++i) {
    // Guard against all-zero-flop prefixes with a small epsilon per op.
    prefix[static_cast<size_t>(i) + 1] =
        prefix[static_cast<size_t>(i)] + graph.op(i).fwd_flops + 1.0;
  }
  const double total = prefix.back();
  double weight_sum = 0.0;
  for (double w : weights) {
    weight_sum += w;
  }
  std::vector<int> boundaries;  // num_ops of each part
  boundaries.reserve(static_cast<size_t>(parts));
  int prev = 0;
  double cum_weight = 0.0;
  for (int p = 0; p < parts - 1; ++p) {
    cum_weight += weights[static_cast<size_t>(p)];
    const double target = total * cum_weight / weight_sum;
    // First boundary with prefix >= target, leaving room for later parts.
    int b = prev + 1;
    while (b < n - (parts - 1 - p) && prefix[static_cast<size_t>(b)] < target) {
      ++b;
    }
    boundaries.push_back(b - prev);
    prev = b;
  }
  boundaries.push_back(n - prev);
  return boundaries;
}

StatusOr<ParallelConfig> MakeConfigWithSplits(
    const OpGraph& graph, const ClusterSpec& cluster, int num_stages,
    int microbatch_size, const std::vector<double>& op_weights,
    bool skew_devices) {
  if (num_stages < 1 || num_stages > graph.num_ops()) {
    return InvalidArgument("invalid stage count " +
                           std::to_string(num_stages));
  }
  auto devices = SplitDevicesPow2(cluster.num_gpus(), num_stages);
  if (!devices.ok()) {
    return devices.status();
  }
  if (skew_devices && num_stages > 1) {
    // Exp#7 "imbalance-GPU": give the first stage as many devices as
    // possible by sorting descending and the rest ascending.
    std::sort(devices->begin() + 1, devices->end());
  }
  const std::vector<int> op_counts =
      SplitOpsByWeight(graph, num_stages, op_weights);

  ParallelConfig config;
  config.set_microbatch_size(microbatch_size);
  int first_op = 0;
  for (int s = 0; s < num_stages; ++s) {
    StageConfig stage;
    stage.first_op = first_op;
    stage.num_ops = op_counts[static_cast<size_t>(s)];
    stage.num_devices = (*devices)[static_cast<size_t>(s)];
    // Full tensor parallelism (clamped per op) allows the minimum microbatch
    // size; dp absorbs the clamp.
    stage.SetUniformParallelism(graph, stage.num_devices, 1);
    first_op += stage.num_ops;
    config.AddStage(std::move(stage));
  }
  // Raise the microbatch size to the minimum every op's dp accepts.
  int required_mbs = microbatch_size;
  for (const StageConfig& stage : config.stages()) {
    for (const OpParallel& setting : stage.ops) {
      required_mbs = std::max(required_mbs, setting.dp);
    }
  }
  // Round up to a divisor of the batch (dp values are powers of two, and so
  // is required_mbs as a max of powers of two).
  config.set_microbatch_size(required_mbs);
  ACESO_RETURN_IF_ERROR(config.Validate(graph, cluster));
  return config;
}

}  // namespace

StatusOr<ParallelConfig> MakeEvenConfig(const OpGraph& graph,
                                        const ClusterSpec& cluster,
                                        int num_stages, int microbatch_size) {
  const std::vector<double> even(static_cast<size_t>(num_stages), 1.0);
  return MakeConfigWithSplits(graph, cluster, num_stages, microbatch_size,
                              even, /*skew_devices=*/false);
}

StatusOr<ParallelConfig> MakeOpImbalancedConfig(const OpGraph& graph,
                                                const ClusterSpec& cluster,
                                                int num_stages,
                                                int microbatch_size) {
  // Quadratically increasing stage weights: early stages tiny, late huge.
  std::vector<double> weights(static_cast<size_t>(num_stages));
  for (int i = 0; i < num_stages; ++i) {
    weights[static_cast<size_t>(i)] = static_cast<double>((i + 1) * (i + 1));
  }
  return MakeConfigWithSplits(graph, cluster, num_stages, microbatch_size,
                              weights, /*skew_devices=*/false);
}

StatusOr<ParallelConfig> MakeGpuImbalancedConfig(const OpGraph& graph,
                                                 const ClusterSpec& cluster,
                                                 int num_stages,
                                                 int microbatch_size) {
  const std::vector<double> even(static_cast<size_t>(num_stages), 1.0);
  return MakeConfigWithSplits(graph, cluster, num_stages, microbatch_size,
                              even, /*skew_devices=*/true);
}

}  // namespace aceso
