// Warm-seed study (DESIGN.md §17): neighbor-seeded incremental planning vs
// searching from scratch, across a perturbation ladder.
//
// The claim: when a request is a small perturbation of an already-planned
// workload (a few layers added or removed, a different device count, a
// shifted memory budget), adapting the cached neighbor's plan into the
// search's starting point reaches the from-scratch search's final quality
// with >= 5x fewer model evaluations on most perturbations — the cache miss
// costs a fraction of a cold search at equal answer quality.
//
//   exp14_warm_seed [--quick] [--out BENCH_warm_seed.json]
//
// Ladder: one base search plans deepnet-L on 8 GPUs at device capacity;
// each scenario perturbs one axis (+layers, -layers, +devices, halved
// memory budget), adapts the base plan (AdaptSeedConfig), and runs a seeded
// and an unseeded search at the same deterministic evaluation budget. The
// score is evals-to-match: the evaluation count at which each search first
// reaches the unseeded run's final iteration time (the convergence trend's
// deterministic x-axis). A scenario passes when the seeded search matches
// that quality with >= 5x fewer evaluations; the experiment passes with
// >= 3 of 4 scenarios.
//
// --out writes a google-benchmark-format report (consumed by
// tools/check_bench_regression.py against bench/baselines/
// exp14_warm_seed_baseline.json): per scenario the seeded evals-to-match
// (deterministic — drift means the adaptation or search changed, not noise)
// plus the two search wall times.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace {

double WallSeconds(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Quality band for evals-to-match: a search "matches" the reference final
// once it is within 1% of it — the usual time-to-quality convention, applied
// identically to both the seeded and the unseeded trajectory.
constexpr double kQualityBand = 1.01;

// The deterministic x-axis score: the `evaluations` value of the first
// feasible convergence point at or below `target_time`, or -1 when the
// search never reached that quality.
int64_t EvalsToMatch(const aceso::SearchResult& result, double target_time) {
  for (const aceso::ConvergencePoint& point : result.convergence) {
    if (point.feasible && point.best_iteration_time <= target_time) {
      return point.evaluations;
    }
  }
  return -1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace aceso;
  using namespace aceso::bench;

  GateArgs args;
  if (!ParseGateArgs(argc, argv, &args)) {
    return 2;
  }
  const bool quick = args.quick;

  PrintHeader("Warm seed: adapted-neighbor starts vs from-scratch search",
              "seeding a perturbed request's search with its neighbor's "
              "adapted plan reaches the from-scratch final quality with "
              ">=5x fewer evaluations on >=3 of 4 perturbations");

  // Base workload: deepnet-L is depth-parameterized at fixed width, so the
  // layer perturbations stay inside one model family (the similarity
  // index's ModelFamilyFingerprint bucket).
  const int base_layers = quick ? 16 : 32;
  const int base_gpus = 8;
  const int stages = 4;
  // The cached neighbor is a *converged* plan — the serving layer only
  // caches search finals — so the base search gets the same budget the
  // perturbed requests do.
  const int64_t base_evals = quick ? 1200 : 2400;
  const int64_t target_evals = quick ? 1200 : 2400;

  auto base_graph = models::BuildByName(
      "deepnet-" + std::to_string(base_layers));
  ACESO_CHECK(base_graph.ok());
  const ClusterSpec base_cluster = ClusterSpec::WithGpuCount(base_gpus);
  ProfileDatabase base_db(base_cluster);
  PerformanceModel base_model(&*base_graph, base_cluster, &base_db);

  auto make_options = [&](int64_t evals, int64_t memory_budget) {
    SearchOptions options;
    options.time_budget_seconds = 1e9;  // evaluation-budget limited
    options.max_evaluations = evals;
    options.seed = 20240422;
    options.memory_budget_bytes = memory_budget;
    return options;
  };

  // One base search; its best plan is what the plan cache would hold when
  // the perturbed requests miss.
  const SearchResult base_result =
      AcesoSearchForStages(base_model, make_options(base_evals, 0), stages);
  if (!base_result.found) {
    std::fprintf(stderr, "base search found no plan\n");
    return 1;
  }
  std::printf("base: deepnet-%d @ %d GPUs, %lld evals -> %.3fs/iter\n\n",
              base_layers, base_gpus,
              static_cast<long long>(base_evals),
              base_result.best.perf.iteration_time);

  struct Scenario {
    std::string name;
    int layers;
    int gpus;
    int64_t memory_budget;  // 0 = device capacity
  };
  const int layer_step = 4;
  const std::vector<Scenario> scenarios = {
      {"plus_layers", base_layers + layer_step, base_gpus, 0},
      {"minus_layers", base_layers - layer_step, base_gpus, 0},
      {"plus_devices", base_layers, base_gpus * 2, 0},
      {"half_budget", base_layers, base_gpus,
       base_cluster.gpu.memory_bytes / 2},
  };

  struct Outcome {
    std::string name;
    int64_t unseeded_evals = -1;
    int64_t seeded_evals = -1;
    double ratio = 0.0;
    double unseeded_seconds = 0.0;
    double seeded_seconds = 0.0;
    bool pass = false;
  };
  std::vector<Outcome> outcomes;

  TablePrinter table({"scenario", "seed start", "unseeded final",
                      "seeded final", "evals (unseeded)", "evals (seeded)",
                      "ratio", "verdict"});
  for (const Scenario& scenario : scenarios) {
    Outcome outcome;
    outcome.name = scenario.name;

    auto graph = models::BuildByName(
        "deepnet-" + std::to_string(scenario.layers));
    ACESO_CHECK(graph.ok());
    const ClusterSpec cluster = ClusterSpec::WithGpuCount(scenario.gpus);
    ProfileDatabase db(cluster);
    PerformanceModel model(&*graph, cluster, &db);

    // From-scratch reference at the full target budget.
    const SearchOptions options =
        make_options(target_evals, scenario.memory_budget);
    const auto unseeded_start = std::chrono::steady_clock::now();
    const SearchResult unseeded = AcesoSearchForStages(model, options, stages);
    outcome.unseeded_seconds = WallSeconds(unseeded_start);
    if (!unseeded.found) {
      table.AddRow(
          {scenario.name, "-", "not found", "-", "-", "-", "-", "SKIP"});
      outcomes.push_back(outcome);
      continue;
    }
    const double final_time = unseeded.best.perf.iteration_time;
    const double match_time = final_time * kQualityBand;
    outcome.unseeded_evals = EvalsToMatch(unseeded, match_time);

    // Adapt the base plan to this scenario (what the serving layer does on
    // a neighbor-seeded miss), then search from it at the same budget.
    auto adapted = AdaptSeedConfig(model, base_result.best.config,
                                   EffectiveMemoryLimit(options, cluster));
    if (!adapted.ok()) {
      table.AddRow({scenario.name, "no adapt", FormatDouble(final_time, 3),
                    "-", "-", "-", "-", "FAIL"});
      outcomes.push_back(outcome);
      continue;
    }
    const std::string seed_start =
        FormatDouble(adapted->perf.iteration_time, 3) +
        (adapted->perf.oom ? " (oom)" : "");
    SearchOptions seeded_options = options;
    seeded_options.seed_mode = SeedMode::kConfig;
    seeded_options.seed_config =
        std::make_shared<const ParallelConfig>(std::move(adapted->config));
    const auto seeded_start = std::chrono::steady_clock::now();
    const SearchResult seeded =
        AcesoSearchForStages(model, seeded_options, stages);
    outcome.seeded_seconds = WallSeconds(seeded_start);
    outcome.seeded_evals =
        seeded.found ? EvalsToMatch(seeded, match_time) : -1;

    // Pass: the seeded search reached the unseeded final quality, with
    // >= 5x fewer evaluations.
    if (outcome.unseeded_evals > 0 && outcome.seeded_evals > 0) {
      outcome.ratio = static_cast<double>(outcome.unseeded_evals) /
                      static_cast<double>(outcome.seeded_evals);
      outcome.pass = outcome.ratio >= 5.0;
    }
    table.AddRow(
        {scenario.name, seed_start, FormatDouble(final_time, 3),
         seeded.found ? FormatDouble(seeded.best.perf.iteration_time, 3)
                      : "not found",
         std::to_string(outcome.unseeded_evals),
         std::to_string(outcome.seeded_evals),
         outcome.ratio > 0 ? FormatDouble(outcome.ratio, 1) : "-",
         outcome.pass ? "PASS" : "FAIL"});
    outcomes.push_back(outcome);
  }
  table.Print(std::cout);

  int passed = 0;
  for (const Outcome& outcome : outcomes) {
    passed += outcome.pass ? 1 : 0;
  }
  const bool pass = passed >= 3;
  std::printf("\n%d of %zu scenarios reached >=5x fewer evaluations -> %s\n",
              passed, outcomes.size(), pass ? "PASS" : "FAIL");

  if (!args.out_path.empty()) {
    std::vector<BenchMetric> metrics;
    for (const Outcome& outcome : outcomes) {
      // Deterministic quality signal: evals the seeded search needed to
      // match the unseeded final (or the full budget when it never did).
      // A value drifting up past the regression threshold means the
      // adaptation or the seeded trajectory regressed, not timer noise.
      const double seeded_evals =
          outcome.seeded_evals > 0
              ? static_cast<double>(outcome.seeded_evals)
              : static_cast<double>(target_evals);
      const std::string prefix = "exp14/" + outcome.name;
      metrics.push_back({prefix + "/seeded_evals_to_match", seeded_evals});
      metrics.push_back(
          {prefix + "/unseeded_search", outcome.unseeded_seconds * 1e9});
      metrics.push_back(
          {prefix + "/seeded_search", outcome.seeded_seconds * 1e9});
    }
    if (!WriteBenchReport(args.out_path, "exp14_warm_seed", metrics)) {
      return 1;
    }
  }
  return pass ? 0 : 1;
}
