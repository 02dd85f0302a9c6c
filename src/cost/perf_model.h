// The profiling-based performance model (§3.3).
//
// Given a parallel configuration, predicts per-stage computation /
// communication time and peak memory, plus end-to-end iteration time under
// 1F1B pipeline scheduling:
//
//   Memory_i = M_param_i + M_act_i * (p - i) + M_opt_i + M_reserved_i   (Eq.1)
//   T_stage_i = T_warmup_i + T_steady_i + T_cooldown_i                  (Eq.2)
//
// with T_warmup_i the forward time of one microbatch through the upstream
// stages, T_steady_i = N * (f_i + b_i), and T_cooldown_i the corresponding
// upstream backward drain. Iteration time is the max over stages. The model
// intentionally over-estimates the framework allocator's reserved memory
// (the maximum per-op working set in the stage) to avoid declaring OOM
// configurations feasible.
//
// Evaluation is O(#ops) per configuration with all operator and collective
// times memoized in the shared ProfileDatabase; the search calls Evaluate()
// tens of thousands of times per run.

#ifndef SRC_COST_PERF_MODEL_H_
#define SRC_COST_PERF_MODEL_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "src/config/parallel_config.h"
#include "src/cost/op_memo.h"
#include "src/cost/resource_usage.h"
#include "src/cost/stage_cache.h"
#include "src/hw/interconnect.h"
#include "src/ir/op_graph.h"
#include "src/profile/profile_db.h"

namespace aceso {

// Grad + optimizer state bytes per parameter byte: fp16 mixed precision
// keeps fp16 grads plus fp32 master weights and Adam moments
// ((2+4+4+4)/2 = 7); fp32 keeps fp32 grads and moments ((4+4+4)/4 = 3).
double OptimizerMultiplier(Precision precision);

// Compute-shard degree of an op under a tp assignment: partitioned ops shard
// exactly tp ways; followers shard up to their structural limit (excess tp is
// replication); replicated ops never shard.
int EffectiveShards(const Operator& op, int tp);

// Per-op cost decomposition produced by the stage walk; consumed by both the
// closed-form estimate (Evaluate) and the discrete-event executor
// (src/runtime), which re-times the same work with per-run jitter.
struct OpBreakdown {
  double fwd_kernel = 0.0;  // forward kernel time
  double bwd_kernel = 0.0;  // backward kernel time (without recompute replay)
  double fwd_comm = 0.0;    // tp collectives + resharding, forward
  double bwd_comm = 0.0;    // tp collectives + resharding, backward
  double dp_sync = 0.0;     // once-per-iteration gradient all-reduce share
  int64_t stored_bytes = 0; // activation bytes stored per microbatch
  int64_t param_bytes = 0;  // parameter bytes per device
  // Gradient + optimizer-state bytes per device; ZeRO-sharded ops divide
  // the optimizer portion across their dp group.
  int64_t optimizer_bytes = 0;
  // The model's working-set estimate: transient workspace plus the op's
  // output tensor. Used for the deliberate reserve overestimate (§3.3).
  int64_t workspace_bytes = 0;
  // Pure transient workspace (attention scores, im2col buffers) — what the
  // runtime actually allocates and frees around the kernel.
  int64_t transient_bytes = 0;
  bool recompute = false;
};

// Aggregated walk of one stage.
struct StageWalk {
  std::vector<OpBreakdown> ops;
  // Stage input boundary activation stored per microbatch (always kept).
  int64_t boundary_bytes = 0;
  // P2P time per microbatch for receiving the stage input (fwd) and the
  // output gradient (bwd); zero for the first/last stage respectively.
  double p2p_fwd = 0.0;
  double p2p_bwd = 0.0;
};

// The per-stage reduction of a StageWalk: everything Evaluate() needs that
// depends only on the stage itself (keyed by StageSemanticHash). The
// remaining StageUsage fields — warmup/steady/cooldown times and the
// 1F1B in-flight memory total — depend on cross-stage context and are
// derived from these components per evaluation. This is the value type of
// the stage-cost cache: a hit substitutes O(1) arithmetic for the O(#ops)
// walk and re-aggregation.
struct StageCost {
  double fwd_time = 0.0;
  double bwd_time = 0.0;
  double comp_time = 0.0;
  double comm_time = 0.0;
  double recompute_time = 0.0;
  double dp_sync_time = 0.0;
  int64_t param_bytes = 0;
  int64_t optimizer_bytes = 0;
  int64_t activation_bytes_per_mb = 0;  // allocator-rounded, incl. boundary
  int64_t reserved_bytes = 0;
};

// Reduces a walk to its stage-local cost components. Cached and uncached
// evaluations both funnel through this exact function so their arithmetic
// (and therefore every PerfResult bit) is identical.
StageCost AggregateStageCost(const StageWalk& walk);

// Eq. 1: peak per-device memory of stage `stage_index` in a `num_stages`-deep
// 1F1B pipeline — parameters, optimizer state, one activation set per
// in-flight microbatch (num_stages - stage_index of them), and the reserved
// working set. The one formula behind every StageUsage::memory_bytes and
// the recompute fix-up's fit test.
int64_t StageMemoryBytes(const StageCost& cost, int num_stages,
                         int stage_index);

class PerformanceModel {
 public:
  // `graph` and `db` must outlive the model. Thread-safe: Evaluate() may be
  // called concurrently (the database memoization and the stage-cost cache
  // are internally locked).
  PerformanceModel(const OpGraph* graph, const ClusterSpec& cluster,
                   ProfileDatabase* db, StageCacheOptions cache_options = {},
                   OpMemoOptions memo_options = {});

  // Predicts the performance of `config`, which must already be
  // structurally valid for the graph/cluster. With the stage-cost cache
  // enabled (default), per-stage walks are memoized by StageSemanticHash;
  // the search mutates one or two stages per primitive, so re-evaluations
  // walk only the changed stages. Cached and uncached evaluations produce
  // bit-identical PerfResults (the cache key covers every walk input).
  PerfResult Evaluate(const ParallelConfig& config) const;

  // The per-op cost walk of one stage (shared with the runtime simulator).
  // Always the direct path: every op is derived from scratch against the
  // profile database. The runtime simulator needs the per-op breakdowns;
  // Evaluate() goes through ComputeStageCost() instead.
  StageWalk WalkStage(const ParallelConfig& config, int stage_index) const;

  // The stage-local cost of one stage — what Evaluate() computes on a
  // stage-cache miss (or with the cache disabled). With the op memo and/or
  // run compression enabled (both default on) this is the fast path of
  // DESIGN.md §12: per-op contexts are keyed by (op signature, packed
  // semantic word, walk-carried layout state, placement context) and served
  // from the lock-free memo, and maximal runs of repeating (key-)cycles —
  // the N identical transformer blocks of a deep stage — replay one
  // materialized period instead of re-deriving every repetition. The result
  // is bit-identical to AggregateStageCost(WalkStage(config, stage_index))
  // in every field: integer fields aggregate associatively, double fields
  // replay the exact accumulation sequence with bit-equal per-op values
  // (property-tested in fuzz_property_test).
  StageCost ComputeStageCost(const ParallelConfig& config,
                             int stage_index) const;

  // Stage `stage_index`'s cost exactly as Evaluate() resolves it: served
  // from the stage-cost cache (keyed by StageSemanticHash) when enabled,
  // computed by ComputeStageCost() and inserted on a miss. This is the one
  // stage-cache probe; it does not count as an evaluation, so a caller that
  // needs one stage (FixRecompute) pays for one stage, not the config.
  std::shared_ptr<const StageCost> ResolveStageCost(
      const ParallelConfig& config, int stage_index) const;

  // Number of Evaluate() calls so far — the "explored configurations"
  // metric of Exp#4.
  int64_t NumEvaluations() const {
    return eval_count_.load(std::memory_order_relaxed);
  }
  void ResetEvaluationCount() {
    eval_count_.store(0, std::memory_order_relaxed);
  }

  const OpGraph& graph() const { return *graph_; }
  const ClusterSpec& cluster() const { return cluster_; }
  ProfileDatabase& db() const { return *db_; }

  // The shared stage-cost cache (hit/miss/eviction counters live here).
  const StageCostCache& stage_cache() const { return stage_cache_; }
  StageCostCache& mutable_stage_cache() { return stage_cache_; }
  // Setup-time toggle; not synchronized against concurrent Evaluate().
  void set_stage_cache_enabled(bool enabled) {
    stage_cache_.set_enabled(enabled);
    if (!enabled) {
      stage_cache_.Clear();
    }
  }

  // The op-breakdown memo (hit/miss counters live here).
  const OpBreakdownMemo& op_memo() const { return op_memo_; }
  // Setup-time toggle; not synchronized against concurrent Evaluate().
  void set_op_memo_enabled(bool enabled) { op_memo_.set_enabled(enabled); }

  // Run compression (repeated-layer replay inside ComputeStageCost).
  // Setup-time toggle; not synchronized against concurrent Evaluate().
  bool run_compression_enabled() const { return run_compression_; }
  void set_run_compression_enabled(bool enabled) {
    run_compression_ = enabled;
  }

 private:
  const OpGraph* graph_;
  ClusterSpec cluster_;
  InterconnectModel interconnect_;
  ProfileDatabase* db_;
  bool run_compression_ = true;
  mutable std::atomic<int64_t> eval_count_{0};
  mutable StageCostCache stage_cache_;
  mutable OpBreakdownMemo op_memo_;
};

}  // namespace aceso

#endif  // SRC_COST_PERF_MODEL_H_
