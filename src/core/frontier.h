// Throughput–memory Pareto frontier archive (DESIGN.md §15).
//
// Aceso's search answers one question: best iteration time under one fixed
// per-device memory limit. TensorOpt observes that the valuable artifact is
// the whole throughput-vs-memory *frontier*: the best configuration at every
// memory budget. Because Algorithm 1 evaluates hundreds of configurations on
// its way to one answer — including infeasible ones whose peak memory and
// timing estimates are still valid — the frontier falls out of the walk for
// free: every evaluated candidate is offered to this archive, which keeps
// only the Pareto-optimal set over (iteration time, peak per-device memory).
//
// A budget-sweep query ("what if I only have 16 GB?") then becomes a lookup
// (BestUnderBudget) instead of a re-search, and the archive serializes into
// the serving plan payload so the PR-7 plan cache answers sweeps without
// re-entering AcesoSearch.
//
// Invariants (checked by tests/frontier_test.cc):
//   - points are sorted by peak_memory_bytes strictly ascending;
//   - iteration_time is strictly descending along that order (no archived
//     point weakly dominates another);
//   - no two archived points share a config semantic hash;
//   - Offer order is deterministic: each stage count's search is serial and
//     offers candidates in evaluation order, so the archive is bit-identical
//     run to run and at any SearchOptions::num_threads.

#ifndef SRC_CORE_FRONTIER_H_
#define SRC_CORE_FRONTIER_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/common/json.h"
#include "src/common/status.h"
#include "src/config/parallel_config.h"
#include "src/cost/resource_usage.h"

namespace aceso {

// $/step on the frontier's cost axis: the price of running every device in
// the cluster for one iteration at the given hourly rate.
double CostPerStepUsd(double iteration_time, int num_gpus,
                      double price_per_hour_usd);

// One archived configuration: a point on the throughput–memory frontier.
struct FrontierPoint {
  double iteration_time = 0.0;      // predicted seconds per iteration
  int64_t peak_memory_bytes = 0;    // max over stages, per device (Eq. 1)
  double cost_per_step_usd = 0.0;   // CostPerStepUsd at archive time
  uint64_t semantic_hash = 0;       // ParallelConfig::SemanticHash
  int num_stages = 0;
  int microbatch_size = 0;
  // Verdict under the memory limit the search ran with. Points above the
  // searched limit are archived too — they answer budgets larger than the
  // device the search modelled.
  bool feasible = true;

  // The configuration itself (cheap copy-on-write handle). Empty (zero
  // stages) for points reconstructed from JSON; `config_text` carries the
  // serialized form in that case.
  ParallelConfig config;
  std::string config_text;
};

// Counters for one archive's lifetime. Offer() updates them; Merge() counts
// the donor's points as fresh offers into this archive.
struct FrontierStats {
  int64_t offered = 0;     // Offer() calls
  int64_t admitted = 0;    // offers that entered the archive
  int64_t dominated = 0;   // offers rejected as weakly dominated
  int64_t duplicates = 0;  // offers rejected by semantic-hash dedup
  int64_t rejected = 0;    // offers with non-finite / non-positive estimates
  int64_t evicted = 0;     // previously admitted points displaced later
};

// The Pareto set over (iteration_time, peak_memory_bytes). Not thread-safe:
// the search offers from its serial reduction, and per-stage-count worker
// archives are merged serially afterwards.
class FrontierArchive {
 public:
  // Offers one evaluated configuration. `perf` supplies the timing estimate,
  // peak memory and feasibility verdict; `semantic_hash` must be the
  // config's semantic hash (dedup key); `cost_per_step_usd` is the $/step
  // at archive time. Returns true iff the point was admitted. Offers with
  // NaN/±inf or non-positive iteration-time estimates are rejected: the
  // archive's ordering invariant depends on totally ordered metrics.
  bool Offer(const ParallelConfig& config, const PerfResult& perf,
             uint64_t semantic_hash, double cost_per_step_usd);

  // Offers an already-built point (used by Merge and deserialization-free
  // rebuilds). Same admission rules as Offer above.
  bool OfferPoint(const FrontierPoint& point);

  // Offers every point of `other` into this archive, in `other`'s stored
  // (memory-ascending) order — deterministic given deterministic inputs.
  void Merge(const FrontierArchive& other);

  // The best archived config whose peak memory fits `budget_bytes`, or
  // nullptr when no archived point fits. With the stored ordering this is
  // the last point with peak_memory_bytes <= budget_bytes: every earlier
  // point fits too but is slower, every later one does not fit. The pointer
  // is invalidated by the next non-const call.
  const FrontierPoint* BestUnderBudget(int64_t budget_bytes) const;

  // Points sorted by peak memory ascending / iteration time descending.
  const std::vector<FrontierPoint>& points() const { return points_; }
  bool empty() const { return points_.empty(); }
  size_t size() const { return points_.size(); }
  const FrontierStats& stats() const { return stats_; }

  // JSON object for the serving plan payload: {"points":[...],
  // "offered":N,"admitted":K,...}. Each point carries `config_text`
  // (SerializeConfig against `model_name`) so a deserialized frontier can
  // still hand out lowerable configurations.
  std::string ToJson(const std::string& model_name) const;

  // Rebuilds an archive from a ToJson document. Points keep `config_text`
  // but carry an empty ParallelConfig (callers lower via ParseConfig when
  // needed). Rejects documents whose points violate the Pareto ordering
  // invariant — a corrupted cache entry must not serve sweeps.
  static StatusOr<FrontierArchive> FromJson(const JsonValue& value);

 private:
  std::vector<FrontierPoint> points_;
  std::unordered_set<uint64_t> hashes_;
  FrontierStats stats_;
};

}  // namespace aceso

#endif  // SRC_CORE_FRONTIER_H_
