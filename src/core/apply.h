// Concrete application of reconfiguration primitives to a configuration.
//
// Given a primitive kind and a target (bottleneck) stage, produces the set
// of candidate configurations that one application of the primitive can
// reach, handling:
//
//  * argument choice (§4.1): how many / which operators to move or
//    recompute, picked greedily against the performance model;
//  * partner primitives & partner stages (§3.2.1): device migrations pair an
//    inc-tp/inc-dp on the bottleneck with a dec-dp/dec-tp on a donor stage;
//  * primitive combinations (§4.3): every candidate gets a recomputation
//    fix-up pass attached, and op-count moves relay across intermediate
//    stages toward the idlest stage.
//
// Every returned candidate is structurally valid for the model/cluster.

#ifndef SRC_CORE_APPLY_H_
#define SRC_CORE_APPLY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/config/parallel_config.h"
#include "src/core/primitives.h"
#include "src/cost/perf_model.h"

namespace aceso {

// One reachable configuration plus how it was produced.
struct Candidate {
  ParallelConfig config;
  PrimitiveKind primitive;
  int stage = 0;
  std::string description;
};

// Generates all candidates for applying `kind` at `stage`. `config` must
// pass Validate() (candidates re-check only the stages they change), and
// `perf` must be the evaluation of `config`; the recompute fix-up and the
// inc-rc/dec-rc guards fit stages under its memory_limit.
// `attach_recompute_fix` controls the §4.3 recompute attachment — disable it
// to observe a primitive's isolated resource impact (used by the Table-1
// verification bench).
std::vector<Candidate> GeneratePrimitiveCandidates(
    const PerformanceModel& model, const ParallelConfig& config,
    const PerfResult& perf, PrimitiveKind kind, int stage,
    bool attach_recompute_fix = true);

// §4.3 recompute attachment: greedily enables recomputation (largest stored
// activation first) in `stage` until its memory fits under `limit` bytes, or
// disables it (most expensive recompute first) while memory allows. Reads no
// stage cost: the stage's Eq. 1 memory comes from PerformanceModel::
// StageMemory, an integer-only pass, so the fix-up probes no cache and walks
// nothing.
// Neither pass sorts the whole stage (DESIGN.md §18). Mutates `config` in
// place, cloning the stage only when a flag flips; no-op when the stage
// cannot be fixed.
void FixRecompute(const PerformanceModel& model, ParallelConfig& config,
                  int stage, int64_t limit);

// The former three-argument form: FixRecompute under device capacity.
// Kept only so perfbench/ keeps compiling; drop it when the benchmark next
// changes.
inline void FixRecompute(const PerformanceModel& model, ParallelConfig& config,
                         int stage) {
  FixRecompute(model, config, stage, model.cluster().gpu.memory_bytes);
}

// Moves `count` ops across the boundary between adjacent stages `from` and
// `to`; moved ops adopt the destination stage's (clamped) parallelism.
// Returns false (leaving `config` untouched) when the move would empty a
// stage or the stages are not adjacent.
bool MoveOps(const PerformanceModel& model, ParallelConfig& config, int from,
             int to, int count);

// Per-microbatch fwd+bwd kernel time of graph op `op_index` under
// `setting` — the greedy choosers' ranking key.
double EstimateOpTime(const PerformanceModel& model, int op_index,
                      const OpParallel& setting, int microbatch_size);

}  // namespace aceso

#endif  // SRC_CORE_APPLY_H_
