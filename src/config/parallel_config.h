// Parallel DNN training configuration (§3.1 "Configuration representation").
//
// A configuration partitions the model's operator chain into contiguous
// pipeline stages, assigns each stage a contiguous device range, gives every
// operator a (tp, dp) pair with tp*dp == stage devices, a tensor-parallel
// partition dimension, and a recompute flag, and fixes one global microbatch
// size. This representation can express Megatron-LM and Alpa configurations
// (uniform settings) as well as Aceso's heterogeneous per-op plans.
//
// Copy-on-write representation. The search constructs tens of thousands of
// candidate configurations per second, and each Table-1 primitive mutates
// only one or two stages, so stages are stored as shared, logically
// immutable blocks (StageBlock): copying a ParallelConfig copies #stages
// pointers, and MutableStage(i) clones stage i on first write while every
// untouched stage stays shared with the parent. Each block lazily caches the
// packed per-op hash words of its stage, so re-hashing a candidate packs
// words only for the mutated stages and folds the cached words of the rest
// — the cached-hash values are bit-identical to the from-scratch *Uncached
// reference implementations.
//
// Mutation contract: MutableStage(i) (and MutableOpSettings, which routes
// through it) requires exclusive access to the config, and the returned
// reference is a short-lived mutation handle — finish mutating before the
// config is copied, hashed, or shared. Hashing (SemanticHash,
// StageSemanticHash, Evaluate) is safe concurrently on the same config from
// multiple threads once mutation has stopped.

#ifndef SRC_CONFIG_PARALLEL_CONFIG_H_
#define SRC_CONFIG_PARALLEL_CONFIG_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/hw/cluster.h"
#include "src/ir/op_graph.h"

namespace aceso {

// Per-operator parallelism settings.
struct OpParallel {
  int tp = 1;                     // tensor-parallel degree
  int dp = 1;                     // data-parallel degree (tp*dp = stage GPUs)
  TpDim tp_dim = TpDim::kColumn;  // partition dimension when tp > 1
  bool recompute = false;         // release output, re-run fwd during bwd
  // Extension (inc-zero/dec-zero primitives): ZeRO-style sharding of the
  // op's optimizer state across its dp group — less memory, an extra
  // parameter all-gather per iteration. Only meaningful when dp > 1.
  bool zero_opt = false;

  bool operator==(const OpParallel& other) const {
    return tp == other.tp && dp == other.dp && tp_dim == other.tp_dim &&
           recompute == other.recompute && zero_opt == other.zero_opt;
  }
};

// One pipeline stage: a contiguous op range on a contiguous device range.
struct StageConfig {
  int first_op = 0;
  int num_ops = 0;
  int num_devices = 1;
  std::vector<OpParallel> ops;  // size == num_ops

  int end_op() const { return first_op + num_ops; }

  // Applies (tp, dp, dim) to every op in the stage, clamping tp at each op's
  // max_tp (dp absorbs the difference). Recompute flags are preserved.
  void SetUniformParallelism(const OpGraph& graph, int tp, int dp);

  // Count of recomputed ops in this stage.
  int NumRecomputed() const;
};

// Packs one op's semantic settings into a single hash word, canonicalizing
// fields that do not affect semantics (partition dimensions at tp == 1,
// ZeRO flags at dp == 1). Every semantic hash in the system — whole-config,
// per-stage cache key, cached or from-scratch — folds exactly these words,
// so no two consumers can ever disagree about what a setting means.
uint64_t PackOpSemanticWord(const Operator& op, const OpParallel& setting);

// One block of a stage's periodic segmentation (DESIGN.md §12;
// SegmentStage in src/config/stage_segments.h): ops [start, start +
// period), walked once and counted `reps` times. With reps >= 2, ops
// [start + period, end()) repeat the block op for op — operator, settings
// and the walk state entering each op (activation layout, dp-reshard bit) —
// so whatever a pass derives for op start + j holds for every op start + j +
// r * period. reps == 1 is a plain stretch of ops.
struct StageRun {
  int start = 0;
  int period = 0;
  int reps = 1;

  int end() const { return start + period * reps; }
};

// The most blocks a stage's segmentation holds; past the last one the rest
// of the stage is walked as one plain block.
inline constexpr int kMaxStageRuns = 16;

// The blocks a per-op pass iterates over one stage, in walk order: a view
// of the stage block's cached segmentation, or the whole stage as one plain
// block. Cheap to copy; valid until the stage is mutated.
class StageRunList {
 public:
  // The whole stage of `num_ops` ops as one plain block.
  explicit StageRunList(int num_ops) : whole_{0, num_ops, 1} {}
  StageRunList(const StageRun* runs, size_t size)
      : runs_(runs), size_(size) {}

  const StageRun* begin() const { return runs_ != nullptr ? runs_ : &whole_; }
  const StageRun* end() const {
    return runs_ != nullptr ? runs_ + size_ : &whole_ + 1;
  }

 private:
  const StageRun* runs_ = nullptr;
  size_t size_ = 0;
  StageRun whole_;
};

// A shareable pipeline-stage block: the stage data plus a lazily computed
// cache of its packed per-op hash words. Blocks are logically immutable
// while shared; ParallelConfig::MutableStage() clones a shared block before
// handing out mutable access (copy-on-write). The word cache is computed on
// first hash for a given graph and published once (lock-free); concurrent
// hashing of a shared block is safe, concurrent mutation is not (see the
// mutation contract above).
class StageBlock {
 public:
  explicit StageBlock(StageConfig config) : config_(std::move(config)) {}
  // Copies the stage data only; the clone starts with a cold word cache.
  StageBlock(const StageBlock& other) : config_(other.config_) {}
  StageBlock& operator=(const StageBlock&) = delete;
  ~StageBlock();

  const StageConfig& config() const { return config_; }

  // Mutable access for the owning config; drops the cached words (the
  // caller is about to change what they hash to).
  StageConfig& BeginMutation();

  // Folds this stage's packed op words into `state` with HashCombine — the
  // inner loop of SemanticHash. Computes and caches the words on first use
  // for `graph`; cached folds touch no Operator data at all.
  uint64_t FoldOpWords(const OpGraph& graph, uint64_t state) const;

  // Digest of this stage's packed op words: their HashCombine fold from
  // kFnvOffsetBasis. Computed once with the word cache, so a cached call is
  // O(1) — this is what makes a stage-cache key O(1) per stage.
  uint64_t OpWordsDigest(const OpGraph& graph) const;

  // The cached per-op semantic words for `graph` (one PackOpSemanticWord()
  // per op, in stage order), computing and publishing them on first use via
  // the same publish-once protocol FoldOpWords uses. The returned pointer is
  // stable until the block is mutated or destroyed. Returns nullptr when a
  // cache for a *different* graph is already published (callers fall back to
  // computing words locally) — in practice a block only ever meets one
  // graph, so this is the correctness path, not the fast path.
  const std::vector<uint64_t>* OpWords(const OpGraph& graph) const;

  // This stage's periodic segmentation for `graph` (SegmentStage),
  // computed on first use and cached until the block is mutated; the whole
  // stage as one plain block when it cannot hold a run or a segmentation
  // for a different graph is already published.
  StageRunList Runs(const OpGraph& graph) const;

 private:
  struct WordCache {
    const OpGraph* graph = nullptr;
    std::vector<uint64_t> words;  // one PackOpSemanticWord() per op
    uint64_t digest = 0;          // OpWordsDigest() of `words`
  };

  static void ComputeWords(const OpGraph& graph, const StageConfig& config,
                           std::vector<uint64_t>& words);

  // The published word cache for `graph`, computing and publishing it on
  // first use; nullptr when a cache for a different graph is published.
  const WordCache* Cache(const OpGraph& graph) const;

  struct RunCache {
    const OpGraph* graph = nullptr;
    int size = 0;
    StageRun runs[kMaxStageRuns];
  };

  StageConfig config_;
  mutable std::atomic<const WordCache*> words_{nullptr};
  // Publish-once like `words_`, dropped by BeginMutation.
  mutable std::atomic<const RunCache*> runs_{nullptr};
  // Invalidated cache parked by BeginMutation() for buffer reuse: the next
  // recompute refills it instead of allocating. Stolen with an atomic
  // exchange, so concurrent post-mutation readers race safely (losers
  // allocate fresh).
  mutable std::atomic<WordCache*> spare_{nullptr};
};

class ParallelConfig {
 public:
  int microbatch_size() const { return microbatch_size_; }
  void set_microbatch_size(int mbs) { microbatch_size_ = mbs; }

  int num_stages() const { return static_cast<int>(stages_.size()); }
  const StageConfig& stage(int i) const {
    return stages_.at(static_cast<size_t>(i))->config();
  }

  // Copy-on-write mutator: clones stage i's block if it is shared with
  // another config, drops its cached hash words, and returns the (now
  // uniquely owned) stage for in-place mutation. See the mutation contract
  // in the file header.
  StageConfig& MutableStage(int i);

  // Appends a stage (configuration builders).
  void AddStage(StageConfig stage);

  // Lightweight range view over the stages, yielding const StageConfig&:
  //   for (const StageConfig& stage : config.stages()) ...
  class StageView {
   public:
    class Iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = StageConfig;
      using difference_type = std::ptrdiff_t;
      using pointer = const StageConfig*;
      using reference = const StageConfig&;

      const StageConfig& operator*() const { return (*it_)->config(); }
      const StageConfig* operator->() const { return &(*it_)->config(); }
      Iterator& operator++() {
        ++it_;
        return *this;
      }
      bool operator==(const Iterator& other) const { return it_ == other.it_; }
      bool operator!=(const Iterator& other) const { return it_ != other.it_; }

     private:
      friend class StageView;
      explicit Iterator(const std::shared_ptr<StageBlock>* it) : it_(it) {}
      const std::shared_ptr<StageBlock>* it_;
    };

    Iterator begin() const { return Iterator(blocks_->data()); }
    Iterator end() const { return Iterator(blocks_->data() + blocks_->size()); }
    size_t size() const { return blocks_->size(); }
    bool empty() const { return blocks_->empty(); }

   private:
    friend class ParallelConfig;
    explicit StageView(const std::vector<std::shared_ptr<StageBlock>>* blocks)
        : blocks_(blocks) {}
    const std::vector<std::shared_ptr<StageBlock>>* blocks_;
  };
  StageView stages() const { return StageView(&stages_); }

  // A copy that shares no stage blocks with this config and starts with
  // cold hash caches — the pre-CoW copy semantics. Benchmarks use it as the
  // deep-copy baseline; tests use it to build guaranteed-unshared configs.
  ParallelConfig DeepCopy() const;

  // First global device index of stage i (stages occupy contiguous ranges in
  // stage order).
  int StageFirstDevice(int stage_index) const;

  // Sum of per-stage device counts.
  int TotalDevices() const;

  // The per-op settings for global op index `op_index`.
  const OpParallel& OpSettings(int op_index) const;
  // Mutable per-op settings; clones the owning stage first (CoW).
  OpParallel& MutableOpSettings(int op_index);

  // Stage that owns global op `op_index`.
  int StageOfOp(int op_index) const;

  // Number of microbatches per iteration for `graph` (batch / mbs).
  int64_t NumMicrobatches(const OpGraph& graph) const;

  // Structural + semantic validation against a model and cluster:
  // contiguous full coverage, device counts match the cluster, power-of-two
  // tp/dp with tp*dp == stage devices, tp within per-op limits, microbatch
  // divisibility. Returns the first violation found.
  //
  // `op_check_stages`, when given, limits the per-op checks (the O(#ops)
  // part) to the listed stages; the stage-header and coverage checks still
  // run on every stage. Candidate construction passes the stages it
  // touched: the untouched ones are the valid base's shared blocks, so
  // re-checking their ops could only repeat a pass. A change that reaches
  // every op's checks (the microbatch size) must list every stage.
  Status Validate(const OpGraph& graph, const ClusterSpec& cluster,
                  const std::vector<int>* op_check_stages = nullptr) const;

  // Configuration-semantic hash for deduplication (§4.3): equal iff the
  // stage partition, per-op settings, and microbatch size are equal.
  // Partition dimensions of ops whose tp == 1 are canonicalized away.
  // Folds the header and each stage's header and cached op words (see
  // StageBlock::FoldOpWords), so only stages mutated since their last hash
  // re-pack words. Bit-identical to SemanticHashUncached() always.
  uint64_t SemanticHash(const OpGraph& graph) const;

  // Key for the incremental stage-cost cache: hashes everything
  // PerformanceModel::WalkStage() reads for stage `stage_index` — the op
  // range, per-op settings (canonicalized like SemanticHash), microbatch
  // size, stage width, and the stage's device-placement context. On the
  // homogeneous-node cluster model, every topology question the walk asks
  // (collective node-crossing, inter-stage p2p link class) is a function of
  // the stage's first-device offset within its node and whether the stage
  // receives pipeline input at all, so those two facts are the entire
  // placement context. Keys are only comparable within one (graph, cluster)
  // pair — exactly the lifetime of a PerformanceModel. Layout: the
  // placement header above, then Mix64 of the stage block's cached
  // OpWordsDigest(), so key derivation for an unmutated stage does no
  // per-op work at all.
  uint64_t StageSemanticHash(const OpGraph& graph, const ClusterSpec& cluster,
                             int stage_index) const;

  // The per-op semantic words of stage `stage_index` for `graph`, served
  // from the stage block's word cache (computed and published on first use).
  // This is how the performance model's op-breakdown memo keys reuse the
  // words already paid for by hashing instead of re-packing per walk.
  // Returns nullptr in the different-graph fallback case (see
  // StageBlock::OpWords); callers then pack words themselves.
  const std::vector<uint64_t>* StageOpWords(const OpGraph& graph,
                                            int stage_index) const;

  // The blocks a per-op pass over stage `stage_index` walks: the stage
  // block's cached segmentation (StageBlock::Runs) with `compress`, the
  // whole stage as one plain block without.
  StageRunList StageRuns(const OpGraph& graph, int stage_index,
                         bool compress = true) const;

  // Reference implementations that ignore every cache and recompute from
  // the raw per-op settings. The cached variants above must agree with
  // these bit-for-bit (property-tested); they exist to make that guarantee
  // checkable and to document the hash layout in one obvious place.
  uint64_t SemanticHashUncached(const OpGraph& graph) const;
  uint64_t StageSemanticHashUncached(const OpGraph& graph,
                                     const ClusterSpec& cluster,
                                     int stage_index) const;

  // Multi-line human-readable dump.
  std::string ToString(const OpGraph& graph) const;

  // Compact one-line summary: "mbs=2 | s0[ops 0-25 g4 tp2 dp2 rc12] | ...".
  std::string ShortString() const;

 private:
  int microbatch_size_ = 1;
  std::vector<std::shared_ptr<StageBlock>> stages_;
};

// ----- Initial configuration generators (§5.1, Exp#7) -----

// Balanced default: `num_stages` stages with FLOP-balanced contiguous op
// ranges, power-of-two device counts as equal as possible, pure data
// parallelism inside each stage (tp clamped per op), minimum microbatch
// size, full recomputation off. Returns an error when `num_stages` exceeds
// the device or op count or the device count cannot be split.
StatusOr<ParallelConfig> MakeEvenConfig(const OpGraph& graph,
                                        const ClusterSpec& cluster,
                                        int num_stages, int microbatch_size);

// Exp#7's adversarial starts: op-imbalanced (stage op counts skewed) and
// GPU-imbalanced (device counts skewed).
StatusOr<ParallelConfig> MakeOpImbalancedConfig(const OpGraph& graph,
                                                const ClusterSpec& cluster,
                                                int num_stages,
                                                int microbatch_size);
StatusOr<ParallelConfig> MakeGpuImbalancedConfig(const OpGraph& graph,
                                                 const ClusterSpec& cluster,
                                                 int num_stages,
                                                 int microbatch_size);

// Splits `total` devices into `parts` power-of-two chunks, as equal as
// possible (e.g. 32 into 3 -> {16, 8, 8}). `total` must be a power of two
// and parts <= total.
StatusOr<std::vector<int>> SplitDevicesPow2(int total, int parts);

// True if v is a power of two (v >= 1).
bool IsPow2(int v);

// Clamps a requested stage-level tp for one op: partitioned ops cannot shard
// weights beyond max_tp; followers and replicated ops can always "over-shard"
// (the excess is replication, handled by the cost model).
int ClampOpTp(const Operator& op, int tp);

}  // namespace aceso

#endif  // SRC_CONFIG_PARALLEL_CONFIG_H_
