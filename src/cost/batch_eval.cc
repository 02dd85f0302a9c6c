#include "src/cost/batch_eval.h"

#include <algorithm>
#include <cstdint>

#include "src/common/logging.h"

namespace aceso {

void CandidateBatch::Clear() {
  lanes_.clear();
  costs_.clear();
  keepalive_.clear();
  num_stages_ = -1;
  stats_ = BatchEvalStats{};
}

int CandidateBatch::AddLane(const ParallelConfig* config) {
  ACESO_CHECK(config != nullptr) << "batch lane config is null";
  if (num_stages_ < 0) {
    num_stages_ = config->num_stages();
  } else {
    ACESO_CHECK_EQ(config->num_stages(), num_stages_)
        << "batch lanes must share a stage count";
  }
  lanes_.push_back(Lane{config, /*active=*/true, PerfResult{}});
  return static_cast<int>(lanes_.size()) - 1;
}

void CandidateBatch::EvaluateAll() {
  const int L = num_lanes();
  const int p = num_stages_;
  int active_lanes = 0;
  for (const Lane& lane : lanes_) {
    if (lane.active) ++active_lanes;
  }
  if (active_lanes == 0 || p <= 0) {
    return;
  }

  // Charge the model one evaluation per active lane so batched and scalar
  // runs report identical exploration counts (friend access to eval_count_).
  model_.eval_count_.fetch_add(active_lanes, std::memory_order_relaxed);
  stats_.batches += 1;
  stats_.lanes += active_lanes;

  const OpGraph& graph = model_.graph();
  const ClusterSpec& cluster = model_.cluster();

  costs_.assign(static_cast<size_t>(p) * static_cast<size_t>(L), nullptr);
  keepalive_.clear();

  // --- Resolution: per stage, group lanes whose stage is provably shared
  // (same CoW block identity, same placement offset, same microbatch size)
  // and resolve each distinct group once. Group discovery is an O(G·L)
  // leader scan — candidate groups are small, so no hashing is warranted.
  for (int s = 0; s < p; ++s) {
    const size_t row = static_cast<size_t>(s) * static_cast<size_t>(L);
    for (int leader = 0; leader < L; ++leader) {
      if (!lanes_[static_cast<size_t>(leader)].active ||
          costs_[row + static_cast<size_t>(leader)] != nullptr) {
        continue;
      }
      const ParallelConfig& lead_cfg =
          *lanes_[static_cast<size_t>(leader)].config;
      const void* lead_block = lead_cfg.StageBlockIdentity(s);
      const int lead_first = lead_cfg.StageFirstDevice(s);
      const int lead_mbs = lead_cfg.microbatch_size();

      // Resolve the leader exactly as Evaluate() would this stage.
      std::shared_ptr<const StageCost> resolved =
          model_.ResolveStageCost(lead_cfg, s);
      stats_.stage_groups += 1;
      const StageCost* cost = resolved.get();
      keepalive_.push_back(std::move(resolved));

      // Broadcast to every following lane whose stage is identity-equal.
      // Lanes with a distinct block become leaders of their own group later
      // (content-equal duplicates still collapse in the cache, by hash).
      costs_[row + static_cast<size_t>(leader)] = cost;
      for (int lane = leader + 1; lane < L; ++lane) {
        if (!lanes_[static_cast<size_t>(lane)].active ||
            costs_[row + static_cast<size_t>(lane)] != nullptr) {
          continue;
        }
        const ParallelConfig& cfg = *lanes_[static_cast<size_t>(lane)].config;
        if (cfg.StageBlockIdentity(s) == lead_block &&
            cfg.StageFirstDevice(s) == lead_first &&
            cfg.microbatch_size() == lead_mbs) {
          costs_[row + static_cast<size_t>(lane)] = cost;
          stats_.shared_lookups_saved += 1;
        }
      }
    }
  }

  // --- Reduction: stage-major loops, lane-inner. Each lane's accumulators
  // advance through exactly the sequence Evaluate() runs for that config
  // alone; lanes are independent, so interleaving cannot change any bit.
  num_microbatches_.assign(static_cast<size_t>(L), 0);
  warmup_prefix_.assign(static_cast<size_t>(L), 0.0);
  cooldown_prefix_.assign(static_cast<size_t>(L), 0.0);
  max_time_.assign(static_cast<size_t>(L), -1.0);
  max_mem_.assign(static_cast<size_t>(L), -1);

  for (int lane = 0; lane < L; ++lane) {
    Lane& l = lanes_[static_cast<size_t>(lane)];
    if (!l.active) continue;
    num_microbatches_[static_cast<size_t>(lane)] =
        l.config->NumMicrobatches(graph);
    l.perf = PerfResult{};
    l.perf.memory_limit = cluster.gpu.memory_bytes;
    l.perf.stages.resize(static_cast<size_t>(p));
  }

  // Eq. 1: per-stage usage and in-flight memory totals.
  for (int s = 0; s < p; ++s) {
    const size_t row = static_cast<size_t>(s) * static_cast<size_t>(L);
    for (int lane = 0; lane < L; ++lane) {
      Lane& l = lanes_[static_cast<size_t>(lane)];
      if (!l.active) continue;
      const StageCost& cost = *costs_[row + static_cast<size_t>(lane)];
      StageUsage& usage = l.perf.stages[static_cast<size_t>(s)];
      usage.fwd_time = cost.fwd_time;
      usage.bwd_time = cost.bwd_time;
      usage.comp_time = cost.comp_time;
      usage.comm_time = cost.comm_time;
      usage.recompute_time = cost.recompute_time;
      usage.dp_sync_time = cost.dp_sync_time;
      usage.param_bytes = cost.param_bytes;
      usage.optimizer_bytes = cost.optimizer_bytes;
      usage.activation_bytes_per_mb = cost.activation_bytes_per_mb;
      usage.reserved_bytes = cost.reserved_bytes;
      usage.memory_bytes = StageMemoryBytes(cost, p, s);
    }
  }

  // Eq. 2: stage times from the per-lane warmup/cooldown prefixes.
  for (int s = 0; s < p; ++s) {
    for (int lane = 0; lane < L; ++lane) {
      Lane& l = lanes_[static_cast<size_t>(lane)];
      if (!l.active) continue;
      StageUsage& usage = l.perf.stages[static_cast<size_t>(s)];
      usage.warmup_time = warmup_prefix_[static_cast<size_t>(lane)];
      usage.cooldown_time = cooldown_prefix_[static_cast<size_t>(lane)];
      usage.steady_time =
          static_cast<double>(num_microbatches_[static_cast<size_t>(lane)]) *
          (usage.fwd_time + usage.bwd_time);
      usage.stage_time = usage.warmup_time + usage.steady_time +
                         usage.cooldown_time + usage.dp_sync_time;
      warmup_prefix_[static_cast<size_t>(lane)] += usage.fwd_time;
      cooldown_prefix_[static_cast<size_t>(lane)] += usage.bwd_time;
    }
  }

  for (int s = 0; s < p; ++s) {
    for (int lane = 0; lane < L; ++lane) {
      Lane& l = lanes_[static_cast<size_t>(lane)];
      if (!l.active) continue;
      const StageUsage& usage = l.perf.stages[static_cast<size_t>(s)];
      if (usage.stage_time > max_time_[static_cast<size_t>(lane)]) {
        max_time_[static_cast<size_t>(lane)] = usage.stage_time;
        l.perf.slowest_stage = s;
      }
      if (usage.memory_bytes > max_mem_[static_cast<size_t>(lane)]) {
        max_mem_[static_cast<size_t>(lane)] = usage.memory_bytes;
        l.perf.max_memory_stage = s;
      }
    }
  }
  for (int lane = 0; lane < L; ++lane) {
    Lane& l = lanes_[static_cast<size_t>(lane)];
    if (!l.active) continue;
    l.perf.iteration_time = max_time_[static_cast<size_t>(lane)];
    l.perf.oom = max_mem_[static_cast<size_t>(lane)] > l.perf.memory_limit;
  }
}

}  // namespace aceso
