#include "src/core/finetune.h"

#include <algorithm>
#include <vector>

#include "src/core/frontier.h"

namespace aceso {
namespace {

// Cap on dimension flips tried per stage.
constexpr int kMaxDimFlipsPerStage = 16;

// Evenly spaced interior indices of [1, n), at most `cap` of them.
std::vector<int> SampleSplitPoints(int n, int cap) {
  std::vector<int> points;
  if (n <= 1) {
    return points;
  }
  const int count = std::min(cap, n - 1);
  for (int i = 0; i < count; ++i) {
    const int point = 1 + static_cast<int64_t>(i) * (n - 1) / count;
    if (points.empty() || points.back() != point) {
      points.push_back(point);
    }
  }
  return points;
}

// Whether every op of [split, end) of `stage` can take tp' = tp * 2
// (`increase`) or tp / 2 within the stage's devices.
bool CanRetargetTail(const StageConfig& stage, int split, bool increase) {
  for (int i = split; i < stage.num_ops; ++i) {
    const int tp = stage.ops[static_cast<size_t>(i)].tp;
    const int new_tp = increase ? tp * 2 : tp / 2;
    if (new_tp < 1 || new_tp > stage.num_devices) {
      return false;
    }
  }
  return true;
}

// Applies tp' = tp * 2 or tp / 2 (clamped per op) to ops [split, end) of
// `stage`, which CanRetargetTail accepted.
void RetargetTail(const OpGraph& graph, StageConfig& stage, int split,
                  bool increase) {
  for (int i = split; i < stage.num_ops; ++i) {
    const Operator& op = graph.op(stage.first_op + i);
    OpParallel& setting = stage.ops[static_cast<size_t>(i)];
    const int clamped =
        ClampOpTp(op, increase ? setting.tp * 2 : setting.tp / 2);
    setting.tp = clamped;
    setting.dp = stage.num_devices / clamped;
  }
}

}  // namespace

PerfResult FineTune(const PerformanceModel& model, ParallelConfig& config,
                    const PerfResult& initial_perf, const TimeBudget& budget,
                    const FineTuneOptions& options,
                    int64_t* trial_evaluations) {
  PerfResult best = initial_perf;
  const OpGraph& graph = model.graph();
  auto count_trial = [trial_evaluations] {
    if (trial_evaluations != nullptr) {
      ++*trial_evaluations;
    }
  };
  auto offer_frontier = [&](ParallelConfig& trial, const PerfResult& perf) {
    if (options.frontier == nullptr) {
      return;
    }
    const ClusterSpec& cluster = model.cluster();
    options.frontier->Offer(trial, perf, trial.SemanticHash(graph),
                            CostPerStepUsd(perf.iteration_time,
                                           cluster.num_gpus(),
                                           cluster.gpu.price_per_hour_usd));
  };

  // --- 1. Flexible tp/dp combination inside each stage ---
  for (int s = 0; s < config.num_stages() && !budget.Expired(); ++s) {
    const int n = config.stage(s).num_ops;
    // A trial retargets stage s only; the rest of `config` is valid.
    const std::vector<int> touched{s};
    for (int split :
         SampleSplitPoints(n, options.max_split_points_per_stage)) {
      for (const bool increase : {true, false}) {
        if (budget.Expired()) {
          break;
        }
        // Checked before the copy: most halvings meet a tp-1 op.
        if (!CanRetargetTail(config.stage(s), split, increase)) {
          continue;
        }
        ParallelConfig trial = config;
        RetargetTail(graph, trial.MutableStage(s), split, increase);
        if (!trial.Validate(graph, model.cluster(), &touched).ok()) {
          continue;
        }
        count_trial();
        PerfResult perf = model.Evaluate(trial);
        perf.ApplyMemoryLimit(initial_perf.memory_limit);
        offer_frontier(trial, perf);
        if (perf.BetterThan(best)) {
          config = std::move(trial);
          best = std::move(perf);
        }
      }
    }
  }

  // --- 2. Flexible tensor-parallel dimension per op ---
  for (int s = 0; s < config.num_stages() && !budget.Expired(); ++s) {
    int flips = 0;
    // NOTE: `config` is reassigned inside the loop; re-fetch the stage on
    // every iteration instead of holding a reference.
    for (int i = 0; i < config.stage(s).num_ops; ++i) {
      if (flips >= kMaxDimFlipsPerStage || budget.Expired()) {
        break;
      }
      const StageConfig& stage = config.stage(s);
      const Operator& op = graph.op(stage.first_op + i);
      const OpParallel& setting = stage.ops[static_cast<size_t>(i)];
      if (op.tp_class != TpClass::kPartitioned || setting.tp <= 1) {
        continue;
      }
      ParallelConfig trial = config;
      OpParallel& trial_setting =
          trial.MutableStage(s).ops[static_cast<size_t>(i)];
      trial_setting.tp_dim = trial_setting.tp_dim == TpDim::kColumn
                                 ? TpDim::kRow
                                 : TpDim::kColumn;
      ++flips;
      count_trial();
      PerfResult perf = model.Evaluate(trial);
      perf.ApplyMemoryLimit(initial_perf.memory_limit);
      offer_frontier(trial, perf);
      if (perf.BetterThan(best)) {
        config = std::move(trial);
        best = std::move(perf);
      }
    }
  }

  return best;
}

}  // namespace aceso
