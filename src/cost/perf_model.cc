#include "src/cost/perf_model.h"

#include <algorithm>

#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/config/stage_segments.h"

namespace aceso {
namespace {

int FloorPow2(int n) {
  int p = 1;
  while (p * 2 <= n) {
    p *= 2;
  }
  return p;
}

// The memory fields of one op's breakdown (stored activation, parameters,
// optimizer state, working set), given the activation layout *after* the
// op: integer arithmetic on the op and its setting, no profile lookup. The
// walk (ComputeOpBreakdown) and the walk-free PerformanceModel::StageMemory
// both call it, so the two cannot drift apart.
inline void FillOpMemory(const Operator& op, const OpParallel& setting,
                         Precision precision, int mbs,
                         ActivationLayout out_layout,
                         OpBreakdown& out) {
  const int64_t local_batch = DivideBytes(mbs, setting.dp);
  const int64_t output = DivideBytes(op.out_bytes * local_batch,
                                     out_layout.sharded ? out_layout.tp : 1);
  out.stored_bytes = setting.recompute ? 0 : output;
  out.param_bytes = op.tp_class == TpClass::kPartitioned && setting.tp > 1
                        ? DivideBytes(op.param_bytes, setting.tp)
                        : op.param_bytes;
  out.transient_bytes = DivideBytes(op.work_bytes * local_batch,
                                    EffectiveShards(op, setting.tp));
  out.workspace_bytes = out.transient_bytes + output;

  // --- optimizer state (grads + Adam moments + master weights) ---
  const double opt_mult = OptimizerMultiplier(precision);
  out.optimizer_bytes =
      static_cast<int64_t>(static_cast<double>(out.param_bytes) * opt_mult);
  if (setting.zero_opt && setting.dp > 1) {
    // ZeRO-style sharding: gradients stay full (they feed the all-reduce)
    // but optimizer state divides across the dp group.
    const int64_t grads = out.param_bytes;
    out.optimizer_bytes = grads + (out.optimizer_bytes - grads) / setting.dp;
  }
}

// Adds one op's memory fields to its stage's cost: the integer half of the
// stage aggregation, shared by every path that builds a StageCost.
inline void AddOpMemory(const OpBreakdown& op, StageCost& cost) {
  if (op.stored_bytes > 0) {
    cost.activation_bytes_per_mb += RoundUpAllocSize(op.stored_bytes);
  }
  cost.param_bytes += op.param_bytes;
  cost.optimizer_bytes += op.optimizer_bytes;
  cost.reserved_bytes = std::max(cost.reserved_bytes, op.workspace_bytes);
}

// Adds the integer fields of one block of a stage's segmentation, counted
// `reps` times (integer sums and maxima do not depend on grouping).
inline void AddRunMemory(const StageCost& block, int reps, StageCost& cost) {
  cost.activation_bytes_per_mb += block.activation_bytes_per_mb * reps;
  cost.param_bytes += block.param_bytes * reps;
  cost.optimizer_bytes += block.optimizer_bytes * reps;
  cost.reserved_bytes = std::max(cost.reserved_bytes, block.reserved_bytes);
}

// One op's cost decomposition given its walk-carried context: the incoming
// activation layout and whether the previous op ran at a different dp
// degree. This is the single derivation both the direct walk (WalkStage)
// and the memoized path (ComputeStageCost) funnel through, so a memo hit is
// bit-identical to a re-derivation by construction. Every input that can
// change the result is part of the op-memo key.
// `signature` is op.Signature(), as the graph holds it.
OpBreakdown ComputeOpBreakdown(ProfileDatabase& db, const ClusterSpec& cluster,
                               const Operator& op, uint64_t signature,
                               const OpParallel& setting, Precision precision,
                               int mbs, int first_device,
                               const CommDomain& stage_domain,
                               ActivationLayout layout, bool dp_mismatch) {
  OpBreakdown out;
  const int local_batch = mbs / setting.dp;
  const int shards = EffectiveShards(op, setting.tp);

  // --- kernel time ---
  const OpMeasurement meas =
      db.OpTime(op, signature, precision, shards, local_batch);
  out.fwd_kernel = meas.fwd_seconds;
  out.bwd_kernel = meas.bwd_seconds;
  out.recompute = setting.recompute;

  // --- tensor-parallel collectives (Megatron f/g operators) ---
  const bool sharded_weights =
      op.tp_class == TpClass::kPartitioned && setting.tp > 1;
  if (sharded_weights) {
    const CommDomain tp_domain{
        setting.tp, cluster.GroupCrossesNodes(first_device, setting.tp, 1)};
    if (setting.tp_dim == TpDim::kColumn) {
      // g^T: all-reduce the input gradient in backward.
      out.bwd_comm += db.CollectiveTime(
          CollectiveKind::kAllReduce,
          op.in_bytes * static_cast<int64_t>(local_batch), tp_domain);
    } else {
      // g: all-reduce the partial-sum output in forward.
      out.fwd_comm += db.CollectiveTime(
          CollectiveKind::kAllReduce,
          op.out_bytes * static_cast<int64_t>(local_batch), tp_domain);
    }
  }

  // --- resharding at op boundaries (§4.2) ---
  double reshard = 0.0;
  const int64_t boundary_bytes =
      op.in_bytes * static_cast<int64_t>(local_batch);
  if (dp_mismatch) {
    // Batch-dimension redistribution across the stage's devices.
    reshard += db.CollectiveTime(CollectiveKind::kAllGather, boundary_bytes,
                                 stage_domain);
  }
  const bool needs_replicated_input =
      (op.tp_class == TpClass::kPartitioned &&
       setting.tp_dim == TpDim::kColumn) ||
      op.tp_class == TpClass::kReplicated;
  if (layout.sharded) {
    const CommDomain shard_domain{
        layout.tp, cluster.GroupCrossesNodes(first_device, layout.tp, 1)};
    if (needs_replicated_input) {
      reshard += db.CollectiveTime(CollectiveKind::kAllGather, boundary_bytes,
                                   shard_domain);
    } else if (op.tp_class == TpClass::kPartitioned &&
               setting.tp_dim == TpDim::kRow && layout.tp != setting.tp) {
      // Row op expects its own sharding; re-gather then slice.
      reshard += db.CollectiveTime(CollectiveKind::kAllGather, boundary_bytes,
                                   shard_domain);
    }
  }
  // Backward mirrors forward resharding (reduce-scatter of gradients).
  out.fwd_comm += reshard;
  out.bwd_comm += reshard;

  // --- memory (keyed by the layout *after* this op) ---
  FillOpMemory(op, setting, precision, mbs, AdvanceLayout(op, setting, layout),
               out);

  // --- data-parallel gradient synchronization (per iteration) ---
  const bool zero = setting.zero_opt && setting.dp > 1;
  if (setting.dp > 1 && out.param_bytes > 0) {
    const CommDomain dp_domain{
        setting.dp,
        cluster.GroupCrossesNodes(first_device, setting.dp, setting.tp)};
    out.dp_sync = db.CollectiveTime(CollectiveKind::kAllReduce,
                                    out.param_bytes, dp_domain);
    if (zero) {
      // Each rank updates its optimizer shard, then all-gathers the
      // refreshed parameters.
      out.dp_sync += db.CollectiveTime(CollectiveKind::kAllGather,
                                       out.param_bytes, dp_domain);
    }
  }
  return out;
}

}  // namespace

int EffectiveShards(const Operator& op, int tp) {
  switch (op.tp_class) {
    case TpClass::kPartitioned:
      return tp;
    case TpClass::kShardFollower:
      return std::min(tp, FloorPow2(std::max(op.max_tp, 1)));
    case TpClass::kReplicated:
      return 1;
  }
  return 1;
}

double OptimizerMultiplier(Precision precision) {
  switch (precision) {
    case Precision::kFp16:
      return 7.0;
    case Precision::kFp32:
      return 3.0;
  }
  return 3.0;
}

PerformanceModel::PerformanceModel(const OpGraph* graph,
                                   const ClusterSpec& cluster,
                                   ProfileDatabase* db,
                                   StageCacheOptions cache_options,
                                   OpMemoOptions memo_options)
    : graph_(graph),
      cluster_(cluster),
      interconnect_(cluster),
      db_(db),
      stage_cache_(cache_options),
      op_memo_(memo_options) {
  ACESO_CHECK(graph != nullptr);
  ACESO_CHECK(db != nullptr);
}

StageWalk PerformanceModel::WalkStage(const ParallelConfig& config,
                                      int stage_index) const {
  const StageConfig& stage = config.stage(stage_index);
  const int first_device = config.StageFirstDevice(stage_index);
  const int mbs = config.microbatch_size();
  const Precision precision = graph_->precision();

  StageWalk walk;
  walk.ops.resize(static_cast<size_t>(stage.num_ops));

  const CommDomain stage_domain{
      stage.num_devices,
      cluster_.GroupCrossesNodes(first_device, stage.num_devices, 1)};

  ActivationLayout layout;  // activations enter a stage replicated
  int prev_dp = 0;          // 0 = no previous op

  for (int i = 0; i < stage.num_ops; ++i) {
    const int op_index = stage.first_op + i;
    const Operator& op = graph_->op(op_index);
    const OpParallel& setting = stage.ops[static_cast<size_t>(i)];
    const bool dp_mismatch = prev_dp != 0 && prev_dp != setting.dp;
    walk.ops[static_cast<size_t>(i)] = ComputeOpBreakdown(
        *db_, cluster_, op,
        graph_->op_signatures()[static_cast<size_t>(op_index)], setting,
        precision, mbs, first_device, stage_domain, layout, dp_mismatch);
    layout = AdvanceLayout(op, setting, layout);
    prev_dp = setting.dp;
  }

  // Stage input boundary activation is always stored (it feeds either the
  // first op's backward or the recompute replay).
  {
    const Operator& first_op = graph_->op(stage.first_op);
    const OpParallel& first_setting = stage.ops[0];
    walk.boundary_bytes =
        first_op.in_bytes * static_cast<int64_t>(mbs / first_setting.dp);
  }

  // --- inter-stage p2p (charged to the receiving stage) ---
  if (stage_index > 0) {
    const Operator& first_op = graph_->op(stage.first_op);
    const bool cross =
        cluster_.NodeOf(first_device - 1) != cluster_.NodeOf(first_device);
    const double t = interconnect_.P2PTime(
        first_op.in_bytes * static_cast<int64_t>(mbs), cross);
    walk.p2p_fwd = t;
    walk.p2p_bwd = t;  // gradient flows back over the same boundary
  }
  return walk;
}

StageCost AggregateStageCost(const StageWalk& walk) {
  StageCost cost;
  // Activation accounting prices the caching allocator's block rounding
  // (§3.3: the model deliberately over- rather than under-estimates).
  cost.activation_bytes_per_mb = RoundUpAllocSize(walk.boundary_bytes);
  for (const OpBreakdown& op : walk.ops) {
    cost.fwd_time += op.fwd_kernel + op.fwd_comm;
    cost.bwd_time += op.bwd_kernel + op.bwd_comm;
    cost.comp_time += op.fwd_kernel + op.bwd_kernel;
    cost.comm_time += op.fwd_comm + op.bwd_comm;
    if (op.recompute) {
      cost.bwd_time += op.fwd_kernel;
      cost.recompute_time += op.fwd_kernel;
    }
    cost.dp_sync_time += op.dp_sync;
    AddOpMemory(op, cost);
  }
  cost.fwd_time += walk.p2p_fwd;
  cost.bwd_time += walk.p2p_bwd;
  cost.comm_time += walk.p2p_fwd + walk.p2p_bwd;
  return cost;
}

StageCost PerformanceModel::ComputeStageCost(const ParallelConfig& config,
                                             int stage_index) const {
  const bool memo_on = op_memo_.enabled();
  if (!memo_on && !run_compression_) {
    return AggregateStageCost(WalkStage(config, stage_index));
  }

  const StageConfig& stage = config.stage(stage_index);
  const int first_device = config.StageFirstDevice(stage_index);
  const int mbs = config.microbatch_size();
  const Precision precision = graph_->precision();
  const CommDomain stage_domain{
      stage.num_devices,
      cluster_.GroupCrossesNodes(first_device, stage.num_devices, 1)};
  const uint64_t* sigs =
      graph_->op_signatures().data() + static_cast<size_t>(stage.first_op);

  // Per-op semantic words: reuse the stage block's cache (already paid for
  // by hashing); the different-graph fallback packs them per op.
  const std::vector<uint64_t>* cached_words =
      config.StageOpWords(*graph_, stage_index);
  const uint64_t* words =
      cached_words != nullptr ? cached_words->data() : nullptr;

  // Placement context, folded once per walk; op i's memo key is
  // HashCombine(base, core[i]) (DESIGN.md §12).
  const uint64_t base = Hasher()
                            .Add(mbs)
                            .Add(stage.num_devices)
                            .Add(first_device % cluster_.gpus_per_node)
                            .Digest();

  // The walk state entering the next materialized op. The state after a
  // block's ops is the state after all of its repetitions: each repetition
  // enters in the state the first one did.
  ActivationLayout layout;  // activations enter a stage replicated
  int prev_dp = 0;          // 0 = no previous op

  // Op i's breakdown, advancing the walk state past it: memo hit, or derive
  // (into `scratch`) and publish.
  OpBreakdown scratch;
  auto breakdown_at = [&](int i) -> const OpBreakdown& {
    const Operator& op = graph_->op(stage.first_op + i);
    const OpParallel& setting = stage.ops[static_cast<size_t>(i)];
    const ActivationLayout in_layout = layout;
    const bool dp_mismatch = prev_dp != 0 && prev_dp != setting.dp;
    layout = AdvanceLayout(op, setting, layout);
    prev_dp = setting.dp;
    // Memo-key core: the operator signature, packed semantic word,
    // incoming layout state, and the dp-reshard bit — together with the
    // placement base they pin every input ComputeOpBreakdown reads, so
    // equal keys mean bit-equal breakdowns. The Mix64 finalizer gives the
    // core full avalanche: sibling stages' bases differ in only a few
    // bits, and composing a *structured* core with them through one
    // HashCombine round has produced real cross-stage key collisions.
    const uint64_t word =
        words != nullptr ? words[i] : PackOpSemanticWord(op, setting);
    uint64_t core = HashCombine(sigs[i], word);
    core = HashCombine(
        core, in_layout.sharded ? static_cast<uint64_t>(in_layout.tp) : 0);
    core = HashCombine(core, dp_mismatch ? 1 : 0);
    const uint64_t key = HashCombine(base, Mix64(core));
    if (memo_on) {
      if (const OpBreakdown* hit = op_memo_.Lookup(key)) {
        return *hit;
      }
    }
    scratch = ComputeOpBreakdown(*db_, cluster_, op, sigs[i], setting,
                                 precision, mbs, first_device, stage_domain,
                                 in_layout, dp_mismatch);
    if (memo_on) {
      if (const OpBreakdown* published = op_memo_.Insert(key, scratch)) {
        return *published;
      }
    }
    return scratch;
  };

  // Bit-exactness contract: this function must reproduce
  // AggregateStageCost(WalkStage(...)) exactly. Integer fields are
  // aggregated analytically (integer arithmetic is associative), but the
  // double accumulators replay the direct walk's addition sequence with
  // bit-equal per-op values — IEEE addition is not associative, so a run
  // may not be "multiplied out" without perturbing golden-pinned results.
  StageCost cost;
  {
    const Operator& first_op = graph_->op(stage.first_op);
    const int64_t boundary_bytes =
        first_op.in_bytes * static_cast<int64_t>(mbs / stage.ops[0].dp);
    cost.activation_bytes_per_mb = RoundUpAllocSize(boundary_bytes);
  }
  auto accumulate = [&cost](const OpBreakdown& op) {
    cost.fwd_time += op.fwd_kernel + op.fwd_comm;
    cost.bwd_time += op.bwd_kernel + op.bwd_comm;
    cost.comp_time += op.fwd_kernel + op.bwd_kernel;
    cost.comm_time += op.fwd_comm + op.bwd_comm;
    if (op.recompute) {
      cost.bwd_time += op.fwd_kernel;
      cost.recompute_time += op.fwd_kernel;
    }
    cost.dp_sync_time += op.dp_sync;
    AddOpMemory(op, cost);
  };

  // One materialized op of a repeating period: the per-op inner sums
  // (fwd_kernel + fwd_comm etc.) are precomputed once — they are
  // sub-expressions of the direct walk, so reusing their bits across
  // repetitions is exact — and the replay loop performs the same
  // accumulator additions, in the same order, as the direct walk would.
  struct RunOp {
    double fwd = 0.0;
    double bwd = 0.0;
    double comp = 0.0;
    double comm = 0.0;
    double fwd_kernel = 0.0;
    double dp_sync = 0.0;
    bool recompute = false;
  };
  std::vector<RunOp> block;

  for (const StageRun& run :
       config.StageRuns(*graph_, stage_index, run_compression_)) {
    if (run.reps == 1) {
      for (int i = run.start; i < run.end(); ++i) {
        accumulate(breakdown_at(i));
      }
      continue;
    }
    block.clear();
    block.reserve(static_cast<size_t>(run.period));
    StageCost period_memory;  // the period's integer fields, added reps times
    for (int i = run.start; i < run.start + run.period; ++i) {
      const OpBreakdown& op = breakdown_at(i);
      RunOp run_op;
      run_op.fwd = op.fwd_kernel + op.fwd_comm;
      run_op.bwd = op.bwd_kernel + op.bwd_comm;
      run_op.comp = op.fwd_kernel + op.bwd_kernel;
      run_op.comm = op.fwd_comm + op.bwd_comm;
      run_op.fwd_kernel = op.fwd_kernel;
      run_op.dp_sync = op.dp_sync;
      run_op.recompute = op.recompute;
      block.push_back(run_op);
      AddOpMemory(op, period_memory);
    }
    for (int r = 0; r < run.reps; ++r) {
      for (const RunOp& op : block) {
        cost.fwd_time += op.fwd;
        cost.bwd_time += op.bwd;
        cost.comp_time += op.comp;
        cost.comm_time += op.comm;
        if (op.recompute) {
          cost.bwd_time += op.fwd_kernel;
          cost.recompute_time += op.fwd_kernel;
        }
        cost.dp_sync_time += op.dp_sync;
      }
    }
    AddRunMemory(period_memory, run.reps, cost);
  }

  // Inter-stage p2p, mirroring the WalkStage tail + AggregateStageCost.
  if (stage_index > 0) {
    const Operator& first_op = graph_->op(stage.first_op);
    const bool cross =
        cluster_.NodeOf(first_device - 1) != cluster_.NodeOf(first_device);
    const double t = interconnect_.P2PTime(
        first_op.in_bytes * static_cast<int64_t>(mbs), cross);
    cost.fwd_time += t;
    cost.bwd_time += t;
    cost.comm_time += t + t;
  }
  return cost;
}

int64_t StageMemoryBytes(const StageCost& cost, int num_stages,
                         int stage_index) {
  const int in_flight = std::max(1, num_stages - stage_index);
  return cost.param_bytes + cost.optimizer_bytes +
         cost.activation_bytes_per_mb * in_flight + cost.reserved_bytes;
}

int64_t PerformanceModel::StageMemory(const ParallelConfig& config,
                                      int stage_index) const {
  const StageConfig& stage = config.stage(stage_index);
  const int mbs = config.microbatch_size();
  const Precision precision = graph_->precision();
  // The integer fields of ComputeStageCost over the stage's segmentation:
  // one pass over each block's ops, counted reps times. Integer sums and
  // maxima do not depend on grouping, so this equals the direct
  // aggregation as well as the run-compressed one.
  const Operator* ops = &graph_->op(stage.first_op);
  StageCost cost;
  cost.activation_bytes_per_mb = RoundUpAllocSize(
      ops[0].in_bytes * static_cast<int64_t>(mbs / stage.ops[0].dp));
  ActivationLayout layout;  // activations enter a stage replicated
  OpBreakdown op_memory;
  for (const StageRun& run :
       config.StageRuns(*graph_, stage_index, run_compression_)) {
    StageCost block;
    for (int i = run.start; i < run.start + run.period; ++i) {
      const OpParallel& setting = stage.ops[static_cast<size_t>(i)];
      layout = AdvanceLayout(ops[i], setting, layout);
      FillOpMemory(ops[i], setting, precision, mbs, layout, op_memory);
      AddOpMemory(op_memory, block);
    }
    AddRunMemory(block, run.reps, cost);
  }
  return StageMemoryBytes(cost, config.num_stages(), stage_index);
}

std::shared_ptr<const StageCost> PerformanceModel::ResolveStageCost(
    const ParallelConfig& config, int stage_index) const {
  if (!stage_cache_.enabled()) {
    return std::make_shared<const StageCost>(
        ComputeStageCost(config, stage_index));
  }
  // Incremental path: reuse the memoized cost when this stage (including
  // its placement context) has been walked before — by this evaluation's
  // predecessor, or by a sibling search sharing the model.
  const uint64_t key = config.StageSemanticHash(*graph_, cluster_, stage_index);
  std::shared_ptr<const StageCost> cost = stage_cache_.Lookup(key);
  if (cost == nullptr) {
    cost = std::make_shared<const StageCost>(
        ComputeStageCost(config, stage_index));
    stage_cache_.Insert(key, cost);
  }
  return cost;
}

PerfResult PerformanceModel::Evaluate(const ParallelConfig& config) const {
  eval_count_.Add(0);

  const int p = config.num_stages();
  const int64_t num_microbatches = config.NumMicrobatches(*graph_);

  PerfResult result;
  result.memory_limit = cluster_.gpu.memory_bytes;
  result.stages.resize(static_cast<size_t>(p));

  for (int s = 0; s < p; ++s) {
    const std::shared_ptr<const StageCost> cost = ResolveStageCost(config, s);
    StageUsage& usage = result.stages[static_cast<size_t>(s)];

    usage.fwd_time = cost->fwd_time;
    usage.bwd_time = cost->bwd_time;
    usage.comp_time = cost->comp_time;
    usage.comm_time = cost->comm_time;
    usage.recompute_time = cost->recompute_time;
    usage.dp_sync_time = cost->dp_sync_time;
    usage.param_bytes = cost->param_bytes;
    usage.optimizer_bytes = cost->optimizer_bytes;
    usage.activation_bytes_per_mb = cost->activation_bytes_per_mb;
    usage.reserved_bytes = cost->reserved_bytes;
    usage.memory_bytes = StageMemoryBytes(*cost, p, s);
  }

  // --- Eq. 2: stage times and iteration time ---
  double warmup_prefix = 0.0;    // sum of f_j for j < s
  double cooldown_prefix = 0.0;  // sum of b_j for j < s
  for (int s = 0; s < p; ++s) {
    StageUsage& usage = result.stages[static_cast<size_t>(s)];
    usage.warmup_time = warmup_prefix;
    usage.cooldown_time = cooldown_prefix;
    usage.steady_time = static_cast<double>(num_microbatches) *
                        (usage.fwd_time + usage.bwd_time);
    usage.stage_time = usage.warmup_time + usage.steady_time +
                       usage.cooldown_time + usage.dp_sync_time;
    warmup_prefix += usage.fwd_time;
    cooldown_prefix += usage.bwd_time;
  }

  double max_time = -1.0;
  int64_t max_mem = -1;
  for (int s = 0; s < p; ++s) {
    const StageUsage& usage = result.stages[static_cast<size_t>(s)];
    if (usage.stage_time > max_time) {
      max_time = usage.stage_time;
      result.slowest_stage = s;
    }
    if (usage.memory_bytes > max_mem) {
      max_mem = usage.memory_bytes;
      result.max_memory_stage = s;
    }
  }
  result.iteration_time = max_time;
  result.oom = max_mem > result.memory_limit;
  return result;
}

}  // namespace aceso
