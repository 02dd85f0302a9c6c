// Periodic stage segmentation (DESIGN.md §12).
//
// Deep models repeat one layer hundreds of times, and so do the stages the
// search builds from them: op i of a stage usually has the same operator,
// the same settings and the same walk state as op i - P, where P is the
// graph's layer period (OpGraph::period_table()). One compare sweep over
// the stage finds the stretches where that holds and cuts the stage into
// blocks, each walked once and counted `reps` times. Every per-op pass over
// a new stage — Validate's checks, the Eq. 1 memory pass, the recompute
// fix-up's scans and the cost model's stage walk — materializes one block
// per run and replays the rest.

#ifndef SRC_CONFIG_STAGE_SEGMENTS_H_
#define SRC_CONFIG_STAGE_SEGMENTS_H_

#include "src/config/parallel_config.h"
#include "src/ir/op_graph.h"

namespace aceso {

// The activation layout flowing between consecutive ops of a stage.
struct ActivationLayout {
  bool sharded = false;
  int tp = 1;  // shard degree when sharded

  bool operator==(const ActivationLayout& other) const {
    return sharded == other.sharded && tp == other.tp;
  }
};

// The layout after one op: partitioned column-sharded ops emit a sharded
// activation, every other partitioned/replicated op emits a replicated one,
// and shard followers preserve whatever flows in.
inline ActivationLayout AdvanceLayout(const Operator& op,
                                      const OpParallel& setting,
                                      ActivationLayout layout) {
  if (op.tp_class == TpClass::kPartitioned) {
    if (setting.tp > 1 && setting.tp_dim == TpDim::kColumn) {
      return ActivationLayout{true, setting.tp};
    }
    return ActivationLayout{};  // row output replicated post all-reduce
  }
  if (op.tp_class == TpClass::kReplicated) {
    return ActivationLayout{};
  }
  return layout;
}

// Whether `stage` lies in `graph` and has two whole graph periods: else its
// segmentation is the whole stage as one plain block, without a sweep.
bool MayHoldRuns(const OpGraph& graph, const StageConfig& stage);

// Writes consecutive blocks covering [0, stage.num_ops) in walk order to
// `runs` (at most `capacity`, the last block taking whatever remains) and
// returns their number. One sweep compares each op with the op one graph
// period earlier (operator identity from the period table, settings by
// value); the walk state is compared once per stretch of matching ops, at
// the first op where it holds — inside a stretch it repeats by induction,
// because each op's state is a function of the previous op and its state.
// A stretch [b, e) yields the run starting at max(b - P, end of the
// previous block) with as many whole periods as fit; the rest is covered by
// plain stretches.
int SegmentStage(const OpGraph& graph, const StageConfig& stage,
                 StageRun* runs, int capacity);

}  // namespace aceso

#endif  // SRC_CONFIG_STAGE_SEGMENTS_H_
