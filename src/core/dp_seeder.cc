#include "src/core/dp_seeder.h"

#include <algorithm>
#include <utility>

#include "src/core/seed_adapt.h"

namespace aceso {

StagePrefixMetrics BuildStagePrefix(const PerformanceModel& model, int mesh,
                                    int tp, bool recompute, int mbs) {
  StagePrefixMetrics out;
  const int dp = mesh / tp;
  if (dp < 1 || mbs % dp != 0) {
    return out;
  }
  const OpGraph& graph = model.graph();
  const ClusterSpec& cluster = model.cluster();
  const int n = graph.num_ops();
  const int local_batch = mbs / dp;
  const CommDomain tp_domain{tp, tp > cluster.gpus_per_node};
  out.time.resize(static_cast<size_t>(n) + 1, 0.0);
  out.act.resize(static_cast<size_t>(n) + 1, 0);
  out.params.resize(static_cast<size_t>(n) + 1, 0);
  for (int i = 0; i < n; ++i) {
    const Operator& op = graph.op(i);
    const int eff_tp = ClampOpTp(op, tp);
    const OpMeasurement m = model.db().OpTime(
        op, graph.precision(), EffectiveShards(op, eff_tp), local_batch);
    double time = m.fwd_seconds + m.bwd_seconds;
    if (recompute) {
      time += m.fwd_seconds;
    }
    const bool sharded = op.tp_class == TpClass::kPartitioned && eff_tp > 1;
    if (sharded) {
      const TpDim dim = op.default_tp_dim == TpDim::kNone ? TpDim::kColumn
                                                          : op.default_tp_dim;
      const int64_t bytes =
          (dim == TpDim::kColumn ? op.in_bytes : op.out_bytes) *
          static_cast<int64_t>(local_batch);
      time += model.db().CollectiveTime(CollectiveKind::kAllReduce, bytes,
                                        tp_domain);
    }
    int64_t act = 0;
    if (!recompute) {
      const int store_shards =
          sharded && op.default_tp_dim == TpDim::kColumn
              ? eff_tp
              : (op.tp_class == TpClass::kShardFollower
                     ? EffectiveShards(op, eff_tp)
                     : 1);
      act = op.out_bytes * static_cast<int64_t>(local_batch) / store_shards;
    }
    const int64_t params = sharded ? op.param_bytes / eff_tp : op.param_bytes;
    out.time[static_cast<size_t>(i) + 1] =
        out.time[static_cast<size_t>(i)] + time;
    out.act[static_cast<size_t>(i) + 1] =
        out.act[static_cast<size_t>(i)] + act;
    out.params[static_cast<size_t>(i) + 1] =
        out.params[static_cast<size_t>(i)] + params;
  }
  out.valid = true;
  return out;
}

namespace {

// Candidate microbatch sizes: powers of two dividing the global batch, up
// to this bound (the DP reference solver's pruning).
constexpr int kMaxMicrobatch = 16;
// A stage may hold at most this multiple of the even share of ops.
constexpr double kMaxOpsPerStageFactor = 3.0;

// Boundary mask over op cuts [0..n]: inside a maximal run of repeating
// layers (by op signature — the same structure run compression replays,
// DESIGN.md §12), only cuts at period multiples stay allowed, so the DP
// works on the distinct-layer skeleton instead of every op of a deep stack.
// Endpoints 0 and n are always allowed. Shared with the neighbor-seed
// adaptation (src/core/seed_adapt.h), which snaps stretched stage
// boundaries to the same mask.
std::vector<char> AllowedCuts(const OpGraph& graph, bool compress_runs) {
  return SeedAdaptAllowedCuts(graph, compress_runs);
}

}  // namespace

StatusOr<DpSeedResult> DpSeedConfig(const PerformanceModel& model,
                                    int num_stages, int64_t memory_limit,
                                    const DpSeedOptions& options) {
  const OpGraph& graph = model.graph();
  const ClusterSpec& cluster = model.cluster();
  const int n = graph.num_ops();
  const int gpus = cluster.num_gpus();
  const int S = num_stages;
  if (S < 1 || S > std::min(gpus, n)) {
    return NotFound("dp seed: stage count " + std::to_string(S) +
                    " not constructible");
  }
  auto meshes = SplitDevicesPow2(gpus, S);
  if (!meshes.ok()) {
    return NotFound("dp seed: " + meshes.status().ToString());
  }

  const std::vector<char> cut_ok = AllowedCuts(graph, options.compress_runs);
  const int64_t batch = graph.global_batch_size();
  const double opt_mult = OptimizerMultiplier(graph.precision());
  const int max_len =
      std::max(1, static_cast<int>(kMaxOpsPerStageFactor * n / S));
  constexpr double kInf = 1e300;

  DpSeedResult result;
  bool found = false;

  for (int mbs = 1; mbs <= kMaxMicrobatch && batch % mbs == 0;
       mbs *= 2) {
    // Per-stage (tp, recompute) options, priced once per distinct mesh size
    // (SplitDevicesPow2 produces at most two distinct sizes).
    struct Option {
      int tp;
      bool recompute;
      StagePrefixMetrics prefix;
    };
    struct MeshOptions {
      int mesh = 0;
      std::vector<Option> opts;
    };
    std::vector<MeshOptions> by_mesh;
    // Callers hold references into by_mesh across later calls; one slot per
    // stage bounds the distinct mesh sizes, so no reallocation can occur.
    by_mesh.reserve(static_cast<size_t>(S));
    auto options_for_mesh = [&](int mesh) -> const std::vector<Option>& {
      for (const MeshOptions& mo : by_mesh) {
        if (mo.mesh == mesh) {
          return mo.opts;
        }
      }
      MeshOptions mo;
      mo.mesh = mesh;
      for (int tp = 1; tp <= mesh; tp *= 2) {
        for (const bool rc : {false, true}) {
          Option o{tp, rc, BuildStagePrefix(model, mesh, tp, rc, mbs)};
          if (o.prefix.valid) {
            mo.opts.push_back(std::move(o));
          }
        }
      }
      by_mesh.push_back(std::move(mo));
      return by_mesh.back().opts;
    };

    // f[s][i]: min bottleneck time covering the first i ops with s stages,
    // stage s on mesh meshes[s-1], boundaries restricted to cut_ok.
    struct Cell {
      double value = 1e300;
      int prev_i = -1;
      int option = -1;
    };
    std::vector<std::vector<Cell>> f(
        static_cast<size_t>(S) + 1,
        std::vector<Cell>(static_cast<size_t>(n) + 1));
    f[0][0].value = 0.0;

    bool priceable = true;
    for (int s = 1; s <= S && priceable; ++s) {
      const int mesh = (*meshes)[static_cast<size_t>(s) - 1];
      const std::vector<Option>& opts = options_for_mesh(mesh);
      if (opts.empty()) {
        priceable = false;
        break;
      }
      const int in_flight = S - s + 1;
      for (int i = s; i <= n; ++i) {
        if (!cut_ok[static_cast<size_t>(i)] && i != n) {
          continue;
        }
        Cell& cell = f[static_cast<size_t>(s)][static_cast<size_t>(i)];
        const int j_min = std::max(s - 1, i - max_len);
        for (int j = j_min; j < i; ++j) {
          if (!cut_ok[static_cast<size_t>(j)]) {
            continue;
          }
          const Cell& prev =
              f[static_cast<size_t>(s) - 1][static_cast<size_t>(j)];
          if (prev.value >= kInf) {
            continue;
          }
          for (size_t oi = 0; oi < opts.size(); ++oi) {
            const StagePrefixMetrics& pm = opts[oi].prefix;
            const double time = pm.time[static_cast<size_t>(i)] -
                                pm.time[static_cast<size_t>(j)];
            const int64_t act = pm.act[static_cast<size_t>(i)] -
                                pm.act[static_cast<size_t>(j)];
            const int64_t params = pm.params[static_cast<size_t>(i)] -
                                   pm.params[static_cast<size_t>(j)];
            const int64_t mem =
                params +
                static_cast<int64_t>(static_cast<double>(params) * opt_mult) +
                act * in_flight;
            if (mem > memory_limit) {
              continue;
            }
            const double value = std::max(prev.value, time);
            if (value < cell.value) {
              cell.value = value;
              cell.prev_i = j;
              cell.option = static_cast<int>(oi);
            }
          }
        }
      }
    }
    if (!priceable ||
        f[static_cast<size_t>(S)][static_cast<size_t>(n)].value >= kInf) {
      continue;
    }

    // Reconstruct and price with the full performance model.
    std::vector<std::pair<int, int>> plan;  // (first_op, option)
    int i = n;
    for (int s = S; s >= 1; --s) {
      const Cell& cell = f[static_cast<size_t>(s)][static_cast<size_t>(i)];
      plan.emplace_back(cell.prev_i, cell.option);
      i = cell.prev_i;
    }
    std::reverse(plan.begin(), plan.end());

    ParallelConfig config;
    config.set_microbatch_size(mbs);
    bool constructed = true;
    for (size_t s = 0; s < plan.size(); ++s) {
      const auto [first_op, oi] = plan[s];
      const int end_op = s + 1 < plan.size() ? plan[s + 1].first : n;
      const int mesh = (*meshes)[s];
      const std::vector<Option>& opts = options_for_mesh(mesh);
      if (oi < 0 || oi >= static_cast<int>(opts.size())) {
        constructed = false;
        break;
      }
      StageConfig stage;
      stage.first_op = first_op;
      stage.num_ops = end_op - first_op;
      stage.num_devices = mesh;
      const Option& o = opts[static_cast<size_t>(oi)];
      stage.SetUniformParallelism(graph, o.tp, mesh / o.tp);
      if (o.recompute) {
        for (OpParallel& setting : stage.ops) {
          setting.recompute = true;
        }
      }
      config.AddStage(std::move(stage));
    }
    if (!constructed || !config.Validate(graph, cluster).ok()) {
      continue;
    }
    PerfResult perf = model.Evaluate(config);
    perf.ApplyMemoryLimit(memory_limit);
    ++result.evaluations;
    if (!found || perf.BetterThan(result.perf)) {
      found = true;
      result.config = std::move(config);
      result.perf = std::move(perf);
    }
  }

  if (!found) {
    return NotFound("dp seed: no constructible DP solution for " +
                    std::to_string(S) + " stages");
  }
  return result;
}

}  // namespace aceso
