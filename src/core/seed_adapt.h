// Configuration adaptation for neighbor-seeded planning (DESIGN.md §17).
//
// The planning daemon's similarity index (src/serve/plan_cache.h) can find a
// cached plan for a *near-identical* request — the same model family with a
// different layer count, the same GPU generation with a different device
// count, a shifted memory budget. AdaptSeedConfig reshapes such a plan into
// a valid configuration for the new (graph, cluster) pair so the iterative
// search (SearchOptions::seed_config, SeedMode::kConfig) can start its
// bottleneck-alleviation loop from it instead of from the even heuristic:
//
//   - stage boundaries are stretched/shrunk proportionally to the new op
//     count, then snapped to the graph's repeated-layer period structure
//     (the same run-compression cut mask the DP seeder restricts itself to,
//     DESIGN.md §13) so a boundary never lands mid-period inside a run of
//     identical layers;
//   - per-stage device counts are re-split over the new cluster: each stage
//     keeps its proportional share of devices, grown greedily in powers of
//     two until the cluster is exactly covered;
//   - per-op settings are carried over positionally within each stage, with
//     tp clamped to the op's limit and the stage width (dp absorbs the
//     difference) and the microbatch size clamped to divisibility.
//
// The adapted configuration always passes ParallelConfig::Validate and
// carries a verdict under the requested memory limit. Adaptation is a pure
// function of its inputs — no clocks, no randomness — so a seeded search
// stays bit-reproducible (the golden-pinned trajectories in search_test).
//
// Fails (NotFound) when the seed cannot be reshaped — more stages than new
// ops or devices, or no power-of-two device split reaching the new total —
// and callers fall back to the heuristic start, mirroring DpSeedConfig.

#ifndef SRC_CORE_SEED_ADAPT_H_
#define SRC_CORE_SEED_ADAPT_H_

#include <cstdint>

#include "src/common/status.h"
#include "src/config/parallel_config.h"
#include "src/cost/perf_model.h"

namespace aceso {

struct SeedAdaptResult {
  ParallelConfig config;
  // Full-model evaluation of the adapted config, re-verdicted under the
  // memory limit — what the serving layer compares the seeded search's
  // final plan against (fallback semantics, DESIGN.md §17).
  PerfResult perf;
  // Full-model Evaluate() calls spent (1 or 2 on success — one per
  // candidate boundary layout); reported so callers can charge adaptation
  // to their evaluation budgets.
  int64_t evaluations = 0;
};

// Adapts `seed` — a valid configuration for some *other* (graph, cluster)
// pair — to `model`'s graph and cluster. The seed's stage count is
// preserved. Both boundary layouts (plain proportional, and snapped to
// repeated-layer period multiples) are tried; the better verdict under the
// per-device `memory_limit` (the seeded search's effective limit) wins.
StatusOr<SeedAdaptResult> AdaptSeedConfig(const PerformanceModel& model,
                                          const ParallelConfig& seed,
                                          int64_t memory_limit);

// The cut mask used for boundary snapping: allowed[c] == 1 iff a stage
// boundary may sit before op `c` (c in [0, num_ops]). With compress_runs,
// cuts inside a detected run of identical layers are restricted to period
// multiples — the same structure AllowedCuts in the DP seeder uses. Exposed
// for tests and the adaptation itself.
std::vector<char> SeedAdaptAllowedCuts(const OpGraph& graph,
                                       bool compress_runs);

}  // namespace aceso

#endif  // SRC_CORE_SEED_ADAPT_H_
