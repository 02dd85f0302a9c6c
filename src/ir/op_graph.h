// The model: a named chain of operators plus training hyper-parameters.
//
// Like the paper (and Alpa/Megatron's pipeline view), the graph is
// *sequential*: branches inside a layer (residual connections, attention
// heads) are folded into the constituent operators' cost quantities, and
// pipeline stages are contiguous ranges of this chain.

#ifndef SRC_IR_OP_GRAPH_H_
#define SRC_IR_OP_GRAPH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/hw/gpu_spec.h"
#include "src/ir/operator.h"

namespace aceso {

class OpGraph {
 public:
  OpGraph() = default;
  OpGraph(std::string name, Precision precision, int64_t global_batch_size)
      : name_(std::move(name)),
        precision_(precision),
        global_batch_size_(global_batch_size) {}

  const std::string& name() const { return name_; }
  Precision precision() const { return precision_; }
  int64_t global_batch_size() const { return global_batch_size_; }
  void set_global_batch_size(int64_t batch) {
    global_batch_size_ = batch;
    fingerprint_.Reset();
  }

  int num_ops() const { return static_cast<int>(ops_.size()); }
  const Operator& op(int index) const {
    return ops_.at(static_cast<size_t>(index));
  }
  const std::vector<Operator>& ops() const { return ops_; }

  // op(i).Signature() for every op, in chain order, computed once as the op
  // is added. This is the one owner of per-op signatures: the cost model's
  // memo keys, seed adaptation's repeat detection and the serving family
  // fingerprint all read it instead of re-hashing operator fields.
  const std::vector<uint64_t>& op_signatures() const { return op_signatures_; }

  void AddOp(Operator op);

  // The graph's layer period and what repeats at it (DESIGN.md §12). Stage
  // segmentation (src/config/stage_segments.h) reads it to replay one layer
  // of a stage instead of re-deriving every repetition.
  struct PeriodTable {
    // The distance P in [1, kMaxLayerPeriod] at which the most ops have the
    // signature of the op P places earlier (ties: the smallest), or 0 when
    // fewer than three quarters of the ops repeat at it.
    int period = 0;
    // repeats[g] != 0 iff op g equals op g - period in every field but the
    // name (0 for g < period, and everywhere when period is 0).
    std::vector<unsigned char> repeats;
    // layout_source[g]: the nearest op before g that is not a shard
    // follower — the op whose output sets the activation layout entering g
    // — or -1 when there is none.
    std::vector<int> layout_source;
  };
  static constexpr int kMaxLayerPeriod = 128;

  // Computed on first use (O(#ops * kMaxLayerPeriod) signature compares)
  // and cached; AddOp drops it. Safe to call concurrently on a graph shared
  // as const; the reference is stable until the graph is mutated.
  const PeriodTable& period_table() const;

  // Total forward FLOPs per sample over all ops.
  double TotalFwdFlops() const;

  // Total parameter bytes over all ops.
  int64_t TotalParamBytes() const;

  // Total parameter count (elements), derived from the precision.
  int64_t TotalParamCount() const;

  // Sum of per-sample stored output activations over all ops.
  int64_t TotalActivationBytes() const;

  // One-line description for logs and bench tables.
  std::string Summary() const;

  // Semantic fingerprint of the model: precision, global batch size, and the
  // per-op cost quantities + tp options (Operator::Signature plus the
  // default partition dimension), in chain order. The *name* is excluded —
  // two differently named but structurally identical models search
  // identically, which is exactly what the serving plan cache (src/serve)
  // wants to key on. Each per-op term is Mix64-finalized before combining
  // (see src/common/hash.h on HashCombine's weak mixing).
  //
  // Computed on first use and cached, so every later call is O(1); AddOp and
  // set_global_batch_size drop the cached value. Safe to call concurrently
  // on a graph shared as const.
  uint64_t SemanticFingerprint() const;

 private:
  // A lazily filled word that copies by value. 0 means "not computed": the
  // one graph whose fingerprint really is 0 recomputes it on every call,
  // which is correct, only slower. Concurrent readers of a const graph all
  // compute and store the same value, so relaxed ordering is enough.
  class CachedWord {
   public:
    CachedWord() = default;
    CachedWord(const CachedWord& other) : value_(other.Load()) {}
    CachedWord& operator=(const CachedWord& other) {
      Store(other.Load());
      return *this;
    }
    // A move carries the value and clears the source, whose ops are gone.
    CachedWord(CachedWord&& other) noexcept : value_(other.Load()) {
      other.Reset();
    }
    CachedWord& operator=(CachedWord&& other) noexcept {
      Store(other.Load());
      other.Reset();
      return *this;
    }
    uint64_t Load() const { return value_.load(std::memory_order_relaxed); }
    void Store(uint64_t value) const {
      value_.store(value, std::memory_order_relaxed);
    }
    void Reset() { Store(0); }

   private:
    mutable std::atomic<uint64_t> value_{0};
  };

  // Publish-once holder of the lazily computed PeriodTable. Copies start
  // empty (the copy recomputes on first use); a move carries the table.
  class LazyPeriodTable {
   public:
    LazyPeriodTable() = default;
    LazyPeriodTable(const LazyPeriodTable&) {}
    LazyPeriodTable& operator=(const LazyPeriodTable&) {
      Reset();
      return *this;
    }
    LazyPeriodTable(LazyPeriodTable&& other) noexcept
        : table_(other.table_.exchange(nullptr)) {}
    LazyPeriodTable& operator=(LazyPeriodTable&& other) noexcept {
      delete table_.exchange(other.table_.exchange(nullptr));
      return *this;
    }
    ~LazyPeriodTable() { Reset(); }

    const PeriodTable* Load() const {
      return table_.load(std::memory_order_acquire);
    }
    // Publishes `table` unless another thread won; returns the survivor.
    const PeriodTable* Publish(std::unique_ptr<PeriodTable> table) const;
    void Reset() { delete table_.exchange(nullptr); }

   private:
    mutable std::atomic<const PeriodTable*> table_{nullptr};
  };

  uint64_t ComputeSemanticFingerprint() const;
  std::unique_ptr<PeriodTable> ComputePeriodTable() const;

  std::string name_;
  Precision precision_ = Precision::kFp16;
  int64_t global_batch_size_ = 1;
  std::vector<Operator> ops_;
  std::vector<uint64_t> op_signatures_;
  CachedWord fingerprint_;
  LazyPeriodTable period_table_;
};

}  // namespace aceso

#endif  // SRC_IR_OP_GRAPH_H_
