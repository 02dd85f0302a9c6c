// The Aceso search driver: Algorithm 1 (iterative bottleneck alleviation)
// over Algorithm 2 (multi-hop primitive search), with the paper's search
// optimizations (§4.3): parallel search across pipeline-stage counts,
// configuration-semantic deduplication, primitive combinations, and the
// op-level fine-tuning pass after each improvement.
//
// The search is *anytime*: it improves a best-so-far configuration until the
// time budget expires or no reconfiguration helps (convergence), exactly as
// the paper describes.

#ifndef SRC_CORE_SEARCH_H_
#define SRC_CORE_SEARCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/config/parallel_config.h"
#include "src/core/frontier.h"
#include "src/cost/perf_model.h"
#include "src/obs/telemetry.h"

namespace aceso {

enum class InitialConfigKind {
  kBalanced,       // default: even op/device split (§5.1)
  kOpImbalanced,   // Exp#7 "imbalance-op"
  kGpuImbalanced,  // Exp#7 "imbalance-GPU"
};

// How the initial configuration is produced (DESIGN.md §13, §17).
// kHeuristic is the paper's even split shaped by InitialConfigKind; kDp runs
// the PaSE-style dynamic program (src/core/dp_seeder.h) over the compressed
// repeated-layer structure and starts the iterative search from its
// solution. DP seeding intentionally changes the search trajectory; its
// model evaluations are charged to SearchStats::configs_explored. kConfig
// starts from a caller-provided configuration (SearchOptions::seed_config,
// e.g. an adapted cached neighbor plan, src/core/seed_adapt.h); the stage
// count whose search matches the seed's starts from it, every other stage
// count (and an absent/invalid seed) falls back to the heuristic start.
enum class SeedMode {
  kHeuristic,
  kDp,
  kConfig,
};

struct SearchOptions {
  // Wall-clock budget shared by all stage-count searches (paper: 200 s).
  double time_budget_seconds = 2.0;

  // Deterministic budget: stop a stage-count search once its
  // SearchStats::configs_explored reaches this many evaluations (0 = no
  // limit; the wall-clock budget still applies). Unlike the anytime
  // wall-clock budget, a pure evaluation budget makes a fixed-seed search
  // bit-reproducible across machines — tests and benchmarks use it to pin
  // down exact search trajectories. Applies per stage count.
  int64_t max_evaluations = 0;

  // MaxHops of the multi-hop search (paper default: 7).
  int max_hops = 7;

  // Disable to replace Heuristic-2's ordering with random exploration
  // (Exp#5's "w/o heuristic-2" baseline).
  bool use_heuristic2 = true;

  // Run the §4.2 op-level fine-tuning pass after each improvement.
  bool enable_finetune = true;

  // §4.3 ablation toggles (all on by default, as in the paper's system):
  // configuration-semantic deduplication, and attaching the recompute
  // fix-up to every primitive application.
  bool enable_dedup = true;
  bool enable_recompute_attachment = true;

  // Include this repository's extension primitives (inc-zero/dec-zero,
  // ZeRO-style optimizer sharding) in the search space. Off by default to
  // keep the paper's exact Table-1 space.
  bool enable_zero_primitives = false;

  // Keep the k best distinct feasible configurations (§5.1 evaluates the
  // top 5 in the runtime and keeps the winner).
  int top_k = 5;

  uint64_t seed = 20240422;

  // Pipeline stage counts to search (inclusive); max_stages == 0 picks
  // min(#GPUs, #ops, 12) automatically.
  int min_stages = 1;
  int max_stages = 0;

  // Worker threads for the parallel stage-count search — the search's only
  // parallelism (DESIGN.md §11); 0 = one per stage count (capped at hardware
  // concurrency). Each stage count's search is serial, so this changes only
  // which thread runs which stage count, never a result bit.
  int num_threads = 0;

  // How many bottleneck stages to try per iteration before giving up
  // (§3.2.3 secondary-bottleneck exploration).
  int max_bottlenecks_per_iteration = 4;

  // ---- Throughput–memory Pareto frontier (DESIGN.md §15) ----
  // Maintain a FrontierArchive over every candidate the search evaluates
  // (feasible and infeasible): one pass then answers "best config under any
  // memory budget" via SearchResult::frontier. Candidates are offered in
  // evaluation order, so the archive is as deterministic as the rest of the
  // trajectory. Off by default: tracking is cheap (a dominance probe per
  // evaluated candidate) but not free.
  bool track_frontier = false;

  // Per-device memory budget, in bytes: the search runs exactly as on a
  // device of that capacity, judging every verdict and fitting every
  // memory-driven construction to EffectiveMemoryLimit below (a budget
  // above capacity, or none, is capacity). The performance model is not
  // touched: timings are hardware truth, feasibility is policy. This is how
  // exp13's fixed-budget searches and the daemon's budget-constrained
  // requests share one model and one profile database.
  int64_t memory_budget_bytes = 0;

  InitialConfigKind initial_config = InitialConfigKind::kBalanced;

  // Seed of the iterative search (see SeedMode). With kDp, the DP seeder's
  // failure (e.g. no memory-feasible DP solution) falls back to the
  // heuristic seed so the search never aborts.
  SeedMode seed_mode = SeedMode::kHeuristic;

  // The starting configuration for SeedMode::kConfig (ignored otherwise):
  // typically a cached neighbor's plan adapted to this model and cluster
  // (src/core/seed_adapt.h). Shared, immutable — many searches may hold the
  // same seed. Must Validate against the searched model/cluster to take
  // effect; an invalid or stage-count-mismatched seed falls back to the
  // heuristic start. Semantic: the seed changes the trajectory, so its
  // structural fingerprint feeds SearchOptionsSemanticHash.
  std::shared_ptr<const ParallelConfig> seed_config;

  // Optional structured-telemetry sink (not owned; may outlive many
  // searches and be shared between concurrent ones). Null disables all
  // instrumentation: the search caches this pointer and pays exactly one
  // branch on it per instrumentation point, keeping the disabled hot path
  // unaffected. Event schema: DESIGN.md §10.
  TelemetrySink* telemetry = nullptr;
};

// A configuration with its evaluation. The search computes the semantic
// hash once per candidate (for §4.3 deduplication) and carries it here so
// top-k bookkeeping never re-hashes the config.
struct ScoredConfig {
  ParallelConfig config;
  PerfResult perf;
  uint64_t semantic_hash = 0;
};

// One point of a convergence trend (Exp#5/6/7 figures).
struct ConvergencePoint {
  double elapsed_seconds = 0.0;
  double best_iteration_time = 0.0;
  // Model evaluations charged to this search when the point was recorded
  // (SearchStats::configs_explored at the time) — the deterministic x-axis
  // of the Exp#7 seeding comparison, immune to wall-clock noise.
  int64_t evaluations = 0;
  // False while the best-so-far is still infeasible (OOM):
  // best_iteration_time is then the model's estimate for an over-memory
  // configuration, not an achievable time, and must stay out of feasible
  // running-min curves. Merged results (AcesoSearch) contain only feasible
  // points; per-stage-count results keep infeasible points flagged so
  // callers can render the pre-feasibility phase.
  bool feasible = true;
};

struct SearchStats {
  int64_t iterations = 0;       // Algorithm 1 loop executions
  int64_t improvements = 0;     // iterations that found a better config
  // Every configuration evaluation the search performed on its own behalf:
  // the initial configuration, every generated candidate, and every
  // fine-tuning trial. (FixRecompute — the §4.3 attachment and the
  // inc-rc/dec-rc fit/relax constructions — reads single stage memories as
  // part of candidate *construction*; it is not exploration and is not
  // counted.)
  int64_t configs_explored = 0;

  // Frontier-archive activity (options.track_frontier): candidates offered
  // to / admitted by the per-worker archives during the search itself.
  // Merged results sum them across stage counts, so they describe the whole
  // search even though the merged archive's own FrontierStats only describe
  // the merge.
  int64_t frontier_offered = 0;
  int64_t frontier_admitted = 0;

  // Stage-cost cache activity attributed to this search run (delta of the
  // shared cache's counters over the run; see PerformanceModel::stage_cache).
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;

  // Per improvement: 1-based index of the bottleneck that yielded it
  // (Fig. 11a) and the number of hops of the successful chain (Fig. 11b).
  std::vector<int> bottleneck_attempts;
  std::vector<int> hops_used;

  void Merge(const SearchStats& other);
};

struct SearchResult {
  bool found = false;
  ScoredConfig best;
  std::vector<ScoredConfig> top_configs;  // best first
  SearchStats stats;
  std::vector<ConvergencePoint> convergence;  // running best over time
  double search_seconds = 0.0;

  // The throughput–memory Pareto set over every reduced candidate
  // (options.track_frontier; empty otherwise). AcesoSearch merges the
  // per-stage-count archives in stage-count order, deterministically.
  FrontierArchive frontier;
};

// Semantic hash of the *answer-determining* SearchOptions fields: budgets
// (wall-clock and evaluation), hop limit, heuristic/fine-tune/dedup/ZeRO
// toggles, top_k, seed, stage range, bottleneck limit, initial-config kind,
// seed mode, frontier tracking, and the memory budget (track_frontier adds the
// frontier payload to the answer; memory_budget_bytes changes every feasibility
// verdict). Execution-shape fields are deliberately excluded — num_threads only
// changes which thread runs which stage count (DESIGN.md §11), and telemetry is
// pure observation. This is the SearchOptions component of the serving
// plan-cache key (DESIGN.md §14): two requests that can only produce the same
// plan must hash equal, and any field that can change the plan must be included
// here when added.
uint64_t SearchOptionsSemanticHash(const SearchOptions& options);

// The one per-device memory limit of a search over `cluster`: min(budget,
// capacity) for a positive memory_budget_bytes, else capacity. Each
// stage-count search carries it in PerfResult::memory_limit.
int64_t EffectiveMemoryLimit(const SearchOptions& options,
                             const ClusterSpec& cluster);

// Runs the full search: initial configurations for every stage count in
// range, searched in parallel under one shared budget.
SearchResult AcesoSearch(const PerformanceModel& model,
                         const SearchOptions& options);

// Runs the search for one fixed pipeline stage count (used by the ablation
// benches and tests).
SearchResult AcesoSearchForStages(const PerformanceModel& model,
                                  const SearchOptions& options,
                                  int num_stages);

}  // namespace aceso

#endif  // SRC_CORE_SEARCH_H_
