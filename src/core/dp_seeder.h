// PaSE-style DP seeding of the iterative search (DESIGN.md §13).
//
// Instead of starting Algorithm 1 from the even heuristic split, DpSeedConfig
// runs a small dynamic program — the PaSE idea of exact DP over a pruned
// per-stage option space — to place the search's starting point near a good
// pipeline partition:
//
//   - stage meshes are fixed to the SplitDevicesPow2 split of the cluster
//     for the requested stage count (the same shapes the search explores);
//   - per-stage options are uniform (tp, recompute) settings, priced by
//     closed-form per-op prefix metrics against the profile database — the
//     same pricing the Exp#4 DP reference solver uses;
//   - stage boundaries are restricted to the graph's compressed
//     repeated-layer structure: inside a detected run of identical layers
//     (by op signature, the run-compression structure of DESIGN.md §12),
//     only cuts at period boundaries are considered, shrinking the DP to
//     the distinct-layer skeleton of deep models;
//   - the DP minimizes the bottleneck stage time under the Eq.1 memory cap
//     with 1F1B in-flight depth, per candidate microbatch size, and each
//     reconstructed configuration is re-priced with the full performance
//     model (those evaluations are reported so the search can charge them
//     to its exploration budget).
//
// The seed intentionally changes search trajectories (SearchOptions::
// seed_mode); goldens and the Exp#7 convergence comparison pin its effect.

#ifndef SRC_CORE_DP_SEEDER_H_
#define SRC_CORE_DP_SEEDER_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/config/parallel_config.h"
#include "src/cost/perf_model.h"

namespace aceso {

// Per-op prefix metrics under a fixed (mesh, tp, recompute, mbs) stage
// setting: prefix sums over ops of per-microbatch time (fwd+bwd, +recompute
// replay, +tp collectives), stored activation bytes, and per-device
// parameter bytes. Shared pricing machinery of this seeder and the Exp#4 DP
// reference solver (src/baselines/dp_solver.cc) — any change moves both.
struct StagePrefixMetrics {
  std::vector<double> time;
  std::vector<int64_t> act;
  std::vector<int64_t> params;
  bool valid = false;
};

// Invalid (valid == false) when the setting is unconstructible, e.g. the
// microbatch does not split across the dp group.
StagePrefixMetrics BuildStagePrefix(const PerformanceModel& model, int mesh,
                                    int tp, bool recompute, int mbs);

struct DpSeedOptions {
  // Restrict stage boundaries to repeated-layer period multiples. Off makes
  // the DP exact over all op boundaries (slower on deep models; used by
  // tests to check the compression loses nothing on uniform stacks).
  bool compress_runs = true;
};

struct DpSeedResult {
  ParallelConfig config;
  PerfResult perf;
  // Full-model Evaluate() calls spent pricing reconstructed candidates;
  // the search charges these to SearchStats::configs_explored.
  int64_t evaluations = 0;
};

// Seeds a `num_stages`-stage configuration under the per-device
// `memory_limit` (the search's effective limit): the Eq.1 cap of the DP and
// the re-pricing verdict. Fails (NotFound) when no DP solution is
// constructible — callers fall back to the heuristic seed.
StatusOr<DpSeedResult> DpSeedConfig(const PerformanceModel& model,
                                    int num_stages, int64_t memory_limit,
                                    const DpSeedOptions& options = {});

}  // namespace aceso

#endif  // SRC_CORE_DP_SEEDER_H_
