// Per-stage resource usage and whole-configuration performance estimates.
//
// These are the quantities Aceso's search consumes: computation time,
// communication time and memory consumption per pipeline stage (§3.3), and
// the predicted iteration time used to compare configurations.

#ifndef SRC_COST_RESOURCE_USAGE_H_
#define SRC_COST_RESOURCE_USAGE_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace aceso {

// The three resources of the reconfiguration-primitive table (Table 1).
enum class Resource {
  kComputation,
  kCommunication,
  kMemory,
};

const char* ResourceName(Resource resource);

// Resource usage of one pipeline stage, per device (stages are internally
// symmetric: every device in a stage carries the same load, §3.1).
struct StageUsage {
  // Per-microbatch forward / backward wall time including the stage's own
  // communication (tensor-parallel collectives, resharding, p2p receives).
  double fwd_time = 0.0;
  double bwd_time = 0.0;

  // Per-microbatch decomposition of the above.
  double comp_time = 0.0;       // pure kernel time (fwd+bwd)
  double comm_time = 0.0;       // tp collectives + resharding + p2p (fwd+bwd)
  double recompute_time = 0.0;  // extra forward time paid in bwd for rc ops

  // Once-per-iteration data-parallel gradient synchronization.
  double dp_sync_time = 0.0;

  // Eq. 2 decomposition: total stage time over one iteration.
  double warmup_time = 0.0;
  double steady_time = 0.0;
  double cooldown_time = 0.0;
  double stage_time = 0.0;  // warmup + steady + cooldown + dp sync

  // Peak memory per device, Eq. 1 decomposition.
  int64_t param_bytes = 0;
  int64_t optimizer_bytes = 0;          // grads + optimizer states
  int64_t activation_bytes_per_mb = 0;  // stored activations per microbatch
  int64_t reserved_bytes = 0;           // allocator-reserve overestimate
  int64_t memory_bytes = 0;             // total peak

  // Fraction of per-microbatch time spent on each resource; used by
  // Heuristic-2's consumption-proportion ranking.
  double TimeShare(Resource resource) const;
};

// The performance model's verdict on a configuration.
struct PerfResult {
  // True when some stage exceeds device memory. OOM configurations carry a
  // valid iteration-time estimate but are infeasible (Heuristic-1 treats the
  // largest-memory stage as the bottleneck).
  bool oom = false;

  // Predicted end-to-end iteration time (max over stage times).
  double iteration_time = 0.0;

  // Index of the stage with the longest stage_time.
  int slowest_stage = 0;

  // Index of the stage with the largest memory consumption.
  int max_memory_stage = 0;

  std::vector<StageUsage> stages;

  // Per-device memory limit of the OOM check: device capacity from
  // Evaluate, a search's effective limit once ApplyMemoryLimit ran.
  int64_t memory_limit = 0;

  // Samples/second given the model's global batch size.
  double Throughput(int64_t global_batch) const {
    return iteration_time > 0.0
               ? static_cast<double>(global_batch) / iteration_time
               : 0.0;
  }

  // Feasible configs sort before OOM ones. Returns true when *this is
  // strictly better than `other`.
  //
  // The "strictly better" relation must induce a strict weak ordering or the
  // score-keyed containers built on top of it (the top-k multimap in
  // src/core/search.cc, std::sort over scored candidates) silently corrupt:
  //   - Both-infeasible configs compare by memory *overage* relative to their
  //     own limit, not by absolute peak memory. Each result carries its own
  //     `memory_limit` (a budget override may differ from device capacity),
  //     and comparing raw MaxMemory() against a result judged under a
  //     different limit ranks a barely-over config below a hugely-over one.
  //     Overage is also what Score() in src/core/search.cc uses, so the two
  //     orderings agree.
  //   - Equal overage is a genuine equivalence class: neither side is
  //     *strictly* better, so we return false rather than inventing a
  //     tie-break (first-found order stays deterministic).
  //   - A NaN iteration-time estimate compares as +inf (worst) via
  //     ComparableTime(); raw `NaN < x` is false both ways, which makes NaN
  //     incomparable to everything and breaks transitivity-of-equivalence.
  bool BetterThan(const PerfResult& other) const {
    if (oom != other.oom) {
      return !oom;
    }
    if (oom) {
      // Both infeasible: less over-memory is better.
      return MemoryOverage() < other.MemoryOverage();
    }
    return ComparableTime() < other.ComparableTime();
  }

  // How far the peak stage exceeds this result's own memory limit. Negative
  // for feasible configs (headroom).
  int64_t MemoryOverage() const { return MaxMemory() - memory_limit; }

  // iteration_time with NaN mapped to +inf so comparisons stay a strict weak
  // ordering (NaN estimates sort after every finite and +inf estimate).
  double ComparableTime() const {
    return std::isnan(iteration_time)
               ? std::numeric_limits<double>::infinity()
               : iteration_time;
  }

  // Re-judges feasibility against a search's resolved per-device memory
  // limit (EffectiveMemoryLimit, src/core/search.h). Device capacity
  // reproduces the performance model's own verdict. Timing estimates are
  // unchanged: the limit constrains feasibility, not the simulation.
  void ApplyMemoryLimit(int64_t limit_bytes) {
    memory_limit = limit_bytes;
    oom = MaxMemory() > limit_bytes;
  }

  int64_t MaxMemory() const {
    int64_t max_mem = 0;
    for (const StageUsage& s : stages) {
      max_mem = max_mem > s.memory_bytes ? max_mem : s.memory_bytes;
    }
    return max_mem;
  }

  std::string Summary() const;
};

}  // namespace aceso

#endif  // SRC_COST_RESOURCE_USAGE_H_
