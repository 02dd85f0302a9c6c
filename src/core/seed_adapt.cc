#include "src/core/seed_adapt.h"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

namespace aceso {
namespace {

int FloorPow2(int v) {
  int p = 1;
  while (p * 2 <= v) {
    p *= 2;
  }
  return p;
}

// Proportional boundary targets for the new op count, snapped to the nearest
// allowed cut. Processed left to right under hard bounds that keep every
// stage non-empty, so the result is always a strictly increasing cover of
// [0, n_new] regardless of what the cut mask allows.
std::vector<int> AdaptBoundaries(const std::vector<int>& old_bounds, int n_new,
                                 const std::vector<char>& cut_ok) {
  const int S = static_cast<int>(old_bounds.size()) - 1;
  const int n_old = old_bounds[static_cast<size_t>(S)];
  std::vector<int> bounds(static_cast<size_t>(S) + 1, 0);
  bounds[static_cast<size_t>(S)] = n_new;
  for (int i = 1; i < S; ++i) {
    const int lo = bounds[static_cast<size_t>(i) - 1] + 1;
    const int hi = n_new - (S - i);  // leave >= 1 op per remaining stage
    int proposed = static_cast<int>(
        (static_cast<int64_t>(old_bounds[static_cast<size_t>(i)]) * n_new +
         n_old / 2) /
        n_old);
    proposed = std::min(std::max(proposed, lo), hi);
    // Nearest allowed cut within [lo, hi]; ties resolve low (deterministic).
    int snapped = proposed;
    for (int delta = 0; delta <= hi - lo; ++delta) {
      const int down = proposed - delta;
      const int up = proposed + delta;
      if (down >= lo && cut_ok[static_cast<size_t>(down)]) {
        snapped = down;
        break;
      }
      if (up <= hi && cut_ok[static_cast<size_t>(up)]) {
        snapped = up;
        break;
      }
    }
    bounds[static_cast<size_t>(i)] = snapped;
  }
  return bounds;
}

// Re-splits the new cluster over the seed's stages: every stage starts at
// one device and the most under-target stage (relative to its proportional
// share of the new cluster) doubles until the cluster is exactly covered.
// Every count stays a power of two; first-best-wins tie-breaking keeps the
// split deterministic.
StatusOr<std::vector<int>> AdaptDevices(const std::vector<int>& old_devs,
                                        int gpus_new) {
  const int S = static_cast<int>(old_devs.size());
  if (S > gpus_new) {
    return NotFound("seed adapt: " + std::to_string(S) +
                    " stages exceed " + std::to_string(gpus_new) + " devices");
  }
  int gpus_old = 0;
  for (const int d : old_devs) {
    gpus_old += d;
  }
  std::vector<double> target(static_cast<size_t>(S), 1.0);
  for (int i = 0; i < S; ++i) {
    target[static_cast<size_t>(i)] =
        std::max(1.0, static_cast<double>(old_devs[static_cast<size_t>(i)]) *
                          gpus_new / gpus_old);
  }
  std::vector<int> devs(static_cast<size_t>(S), 1);
  int sum = S;
  while (sum < gpus_new) {
    int best = -1;
    double best_score = 0.0;
    for (int i = 0; i < S; ++i) {
      const int d = devs[static_cast<size_t>(i)];
      if (sum + d > gpus_new) {
        continue;  // doubling i would overshoot the cluster
      }
      const double score = d / target[static_cast<size_t>(i)];
      if (best < 0 || score < best_score) {
        best = i;
        best_score = score;
      }
    }
    if (best < 0) {
      return NotFound("seed adapt: no power-of-two device split reaches " +
                      std::to_string(gpus_new) + " devices over " +
                      std::to_string(S) + " stages");
    }
    sum += devs[static_cast<size_t>(best)];
    devs[static_cast<size_t>(best)] *= 2;
  }
  return devs;
}

}  // namespace

std::vector<char> SeedAdaptAllowedCuts(const OpGraph& graph,
                                       bool compress_runs) {
  const int n = graph.num_ops();
  std::vector<char> ok(static_cast<size_t>(n) + 1, 1);
  if (!compress_runs) {
    return ok;
  }
  constexpr int kMaxPeriod = 128;
  const std::vector<uint64_t>& sig = graph.op_signatures();
  int i = 0;
  while (i < n) {
    // Smallest period P with sig[i, i+P) == sig[i+P, i+2P).
    int period = 0;
    const int max_period = std::min((n - i) / 2, kMaxPeriod);
    for (int p = 1; p <= max_period; ++p) {
      if (std::equal(sig.begin() + i, sig.begin() + i + p,
                     sig.begin() + i + p)) {
        period = p;
        break;
      }
    }
    if (period == 0) {
      ++i;
      continue;
    }
    int reps = 2;
    while (i + (reps + 1) * period <= n &&
           std::equal(sig.begin() + i, sig.begin() + i + period,
                      sig.begin() + i + reps * period)) {
      ++reps;
    }
    for (int cut = i + 1; cut < i + reps * period; ++cut) {
      if ((cut - i) % period != 0) {
        ok[static_cast<size_t>(cut)] = 0;
      }
    }
    i += reps * period;
  }
  return ok;
}

StatusOr<SeedAdaptResult> AdaptSeedConfig(const PerformanceModel& model,
                                          const ParallelConfig& seed,
                                          int64_t memory_limit) {
  const OpGraph& graph = model.graph();
  const ClusterSpec& cluster = model.cluster();
  const int n_new = graph.num_ops();
  const int gpus_new = cluster.num_gpus();
  const int S = seed.num_stages();
  if (S < 1) {
    return NotFound("seed adapt: empty seed configuration");
  }
  if (S > n_new || S > gpus_new) {
    return NotFound("seed adapt: " + std::to_string(S) +
                    " seed stages do not fit " + std::to_string(n_new) +
                    " ops / " + std::to_string(gpus_new) + " devices");
  }

  std::vector<int> old_bounds(static_cast<size_t>(S) + 1, 0);
  std::vector<int> old_devs(static_cast<size_t>(S), 0);
  for (int s = 0; s < S; ++s) {
    const StageConfig& stage = seed.stage(s);
    old_bounds[static_cast<size_t>(s) + 1] = stage.end_op();
    old_devs[static_cast<size_t>(s)] = stage.num_devices;
  }
  if (old_bounds[static_cast<size_t>(S)] <= 0) {
    return NotFound("seed adapt: degenerate seed op coverage");
  }

  auto devs = AdaptDevices(old_devs, gpus_new);
  if (!devs.ok()) {
    return devs.status();
  }

  // Builds the full adapted config for one boundary layout.
  auto build = [&](const std::vector<int>& bounds) -> StatusOr<ParallelConfig> {
    ParallelConfig config;
    int required_mbs = 1;
    for (int s = 0; s < S; ++s) {
      StageConfig stage;
      stage.first_op = bounds[static_cast<size_t>(s)];
      stage.num_ops = bounds[static_cast<size_t>(s) + 1] - stage.first_op;
      stage.num_devices = (*devs)[static_cast<size_t>(s)];
      stage.ops.resize(static_cast<size_t>(stage.num_ops));
      const StageConfig& old_stage = seed.stage(s);
      if (old_stage.num_ops <= 0 ||
          old_stage.ops.size() != static_cast<size_t>(old_stage.num_ops)) {
        return NotFound("seed adapt: malformed seed stage " +
                        std::to_string(s));
      }
      for (int l = 0; l < stage.num_ops; ++l) {
        // Positional carry-over: new local op l reads the proportionally
        // corresponding op of the seed stage.
        const int old_l = static_cast<int>(static_cast<int64_t>(l) *
                                           old_stage.num_ops / stage.num_ops);
        OpParallel setting = old_stage.ops[static_cast<size_t>(old_l)];
        const Operator& op = graph.op(stage.first_op + l);
        int tp = std::min(std::max(setting.tp, 1), stage.num_devices);
        tp = ClampOpTp(op, tp);
        if (!IsPow2(tp)) {
          tp = FloorPow2(tp);
        }
        setting.tp = tp;
        setting.dp = stage.num_devices / tp;
        if (setting.dp <= 1) {
          setting.zero_opt = false;  // meaningless without a dp group
        }
        required_mbs = std::max(required_mbs, setting.dp);
        stage.ops[static_cast<size_t>(l)] = setting;
      }
      config.AddStage(std::move(stage));
    }

    // Microbatch: keep the seed's size where possible, raised to a multiple
    // of the largest dp (dp values are powers of two, so the max divides
    // every multiple of itself), then walked down to a divisor of the
    // global batch.
    const int64_t batch = graph.global_batch_size();
    int mbs = std::max(seed.microbatch_size(), required_mbs);
    mbs = (mbs / required_mbs) * required_mbs;
    while (mbs >= required_mbs && batch % mbs != 0) {
      mbs -= required_mbs;
    }
    if (mbs < required_mbs) {
      return NotFound("seed adapt: no microbatch size satisfies dp " +
                      std::to_string(required_mbs) + " under batch " +
                      std::to_string(batch));
    }
    config.set_microbatch_size(mbs);

    const Status valid = config.Validate(graph, cluster);
    if (!valid.ok()) {
      return NotFound("seed adapt: adapted config invalid: " +
                      valid.ToString());
    }
    return config;
  };

  // Candidate boundary layouts. The plain proportional layout comes first:
  // it reproduces the seed exactly when the graph did not change, and it
  // keeps deliberate mid-run cuts the search fine-tuned into the seed. The
  // run-snapped layout (cuts restricted to repeated-layer period multiples)
  // is a second opinion that often wins when the layer count shifted.
  std::vector<std::vector<int>> layouts;
  layouts.push_back(AdaptBoundaries(
      old_bounds, n_new, SeedAdaptAllowedCuts(graph, /*compress_runs=*/false)));
  std::vector<int> snapped = AdaptBoundaries(
      old_bounds, n_new, SeedAdaptAllowedCuts(graph, /*compress_runs=*/true));
  if (snapped != layouts.front()) {
    layouts.push_back(std::move(snapped));
  }

  SeedAdaptResult result;
  bool found = false;
  Status last_error = NotFound("seed adapt: no candidate layout was valid");
  for (const std::vector<int>& bounds : layouts) {
    auto config = build(bounds);
    if (!config.ok()) {
      last_error = config.status();
      continue;
    }
    PerfResult perf = model.Evaluate(*config);
    perf.ApplyMemoryLimit(memory_limit);
    ++result.evaluations;
    if (!found || perf.BetterThan(result.perf)) {
      found = true;
      result.perf = perf;
      result.config = *std::move(config);
    }
  }
  if (!found) {
    return last_error;
  }
  return result;
}

}  // namespace aceso
