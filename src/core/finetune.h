// The op-level fine-tuning pass (§4.2), run after each successful search
// iteration. Two adjustments:
//
//  1. Flexible tp/dp combination inside a stage: for candidate split points,
//     double or halve the tp of the ops from the split point to the end of
//     the stage, keeping the change when the performance model approves.
//  2. Flexible tensor-parallel dimension: flip individual partitioned ops
//     between row-wise and column-wise sharding when that helps.
//
// Both adjustments are greedy: each improving change is committed before
// trying the next.

#ifndef SRC_CORE_FINETUNE_H_
#define SRC_CORE_FINETUNE_H_

#include "src/common/stopwatch.h"
#include "src/config/parallel_config.h"
#include "src/cost/perf_model.h"

namespace aceso {

class FrontierArchive;

struct FineTuneOptions {
  // Cap on split points tried per stage (evenly spaced through the stage);
  // keeps fine-tuning O(ops) for 1K-layer models.
  int max_split_points_per_stage = 8;
  // When set, every evaluated trial (kept or not) is offered to this Pareto
  // archive (DESIGN.md §15). Trials retarget tp/dp tails and flip sharding
  // dimensions — memory moves the walk itself rarely makes — so archiving
  // them widens the frontier's memory coverage at zero extra evaluations.
  // FineTune runs inside the serial per-stage-count search, so offers here
  // keep the archive deterministic.
  FrontierArchive* frontier = nullptr;
};

// Fine-tunes `config` in place; returns the evaluation of the final config.
// `config` must pass Validate(): trials re-check only the stage they change.
// Trials are judged against `initial_perf.memory_limit` (the search's
// effective limit).
// Stops early when `budget` expires. When `trial_evaluations` is non-null it
// is incremented once per trial configuration evaluated, so callers (the
// search) can attribute fine-tuning work to their explored-config counters.
PerfResult FineTune(const PerformanceModel& model, ParallelConfig& config,
                    const PerfResult& initial_perf, const TimeBudget& budget,
                    const FineTuneOptions& options = {},
                    int64_t* trial_evaluations = nullptr);

}  // namespace aceso

#endif  // SRC_CORE_FINETUNE_H_
