// Frontier study (DESIGN.md §15): one Pareto-tracking search pass vs N
// independent fixed-budget searches at equal total evaluation budget.
//
// The claim: because Algorithm 1 evaluates hundreds of configurations on the
// way to one answer, archiving the Pareto set over (iteration time, peak
// memory) during a single capacity-limit search answers *every* memory
// budget at least as well as splitting the same evaluation budget across
// per-budget searches — and the frontier additionally prices each point
// ($/step), so a budget sweep is a lookup, not a re-search.
//
//   exp13_frontier [--quick] [--out BENCH_frontier.json]
//
// --out writes a google-benchmark-format report (consumed by
// tools/check_bench_regression.py against bench/baselines/
// exp13_frontier_baseline.json): wall time of the frontier pass, wall time
// of the independent searches, and the per-budget quality ratio x1000
// (frontier best / independent best, worst budget; deterministic, so a
// drift here is a search change, not noise).
//
// Both sides of that ratio judge feasibility through the same memory limit,
// so a budget that reaches only part of the search would skew both alike.
// The "smaller device" column re-runs each per-budget search on a cluster
// whose device capacity is the budget; a budget must act exactly like that
// device, and any difference in iteration time fails the run.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace {

double WallSeconds(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
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

  PrintHeader("Frontier: one Pareto pass vs per-budget searches",
              "a single frontier-tracking search answers every memory "
              "budget no worse than independent per-budget searches given "
              "the same total evaluation budget");

  const char* model_name = quick ? "gpt3-0.35b" : "gpt3-1.3b";
  const int gpus = 8;
  // Per-stage-count deterministic evaluation budget: the frontier pass gets
  // E, each of the N independent searches gets E/N — equal total budget.
  const int64_t total_evals = quick ? 400 : 1600;
  const size_t num_budgets = 4;

  auto graph = models::BuildByName(model_name);
  ACESO_CHECK(graph.ok());
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(gpus);
  ProfileDatabase db(cluster);
  PerformanceModel model(&*graph, cluster, &db);

  auto base_options = [&]() {
    SearchOptions options;
    options.time_budget_seconds = 1e9;  // evaluation-budget limited
    options.max_evaluations = total_evals;
    options.seed = 20240422;
    return options;
  };

  // One frontier-tracking pass at device capacity.
  SearchOptions frontier_options = base_options();
  frontier_options.track_frontier = true;
  const auto frontier_start = std::chrono::steady_clock::now();
  const SearchResult frontier_result = AcesoSearch(model, frontier_options);
  const double frontier_seconds = WallSeconds(frontier_start);
  const FrontierArchive& frontier = frontier_result.frontier;
  std::printf("frontier pass: %zu points archived (%lld offered) in %.2fs\n",
              frontier.size(),
              static_cast<long long>(frontier_result.stats.frontier_offered),
              frontier_seconds);
  if (frontier.empty()) {
    std::fprintf(stderr, "frontier pass archived no points\n");
    return 1;
  }

  // Sweep budgets at capacity fractions — the question a user actually
  // asks ("what if I only had half / a quarter of the memory?"). Budgets
  // are inputs to both systems, chosen before either answer exists.
  std::vector<int64_t> budgets;
  for (size_t i = 0; i < num_budgets; ++i) {
    budgets.push_back(cluster.gpu.memory_bytes >>
                      (num_budgets - 1 - i));
  }

  // N independent searches, each budget-constrained, each at E/N.
  const auto independent_start = std::chrono::steady_clock::now();
  std::vector<SearchResult> independent;
  for (const int64_t budget : budgets) {
    SearchOptions options = base_options();
    options.max_evaluations =
        total_evals / static_cast<int64_t>(budgets.size());
    options.memory_budget_bytes = budget;
    independent.push_back(AcesoSearch(model, options));
  }
  const double independent_seconds = WallSeconds(independent_start);
  std::printf("independent passes: %zu searches x %lld evals in %.2fs\n",
              budgets.size(),
              static_cast<long long>(total_evals /
                                     static_cast<int64_t>(budgets.size())),
              independent_seconds);

  // The same searches without a budget, on a device of the budget's size.
  std::vector<SearchResult> smaller_device;
  for (const int64_t budget : budgets) {
    ClusterSpec smaller = cluster;
    smaller.gpu.memory_bytes = budget;
    ProfileDatabase smaller_db(smaller);
    PerformanceModel smaller_model(&*graph, smaller, &smaller_db);
    SearchOptions options = base_options();
    options.max_evaluations =
        total_evals / static_cast<int64_t>(budgets.size());
    smaller_device.push_back(AcesoSearch(smaller_model, options));
  }

  TablePrinter table({"budget", "frontier iter(s)", "independent iter(s)",
                      "smaller device iter(s)", "ratio", "verdict"});
  bool budget_is_device = true;
  double worst_ratio = 0.0;
  for (size_t i = 0; i < budgets.size(); ++i) {
    const FrontierPoint* best = frontier.BestUnderBudget(budgets[i]);
    const SearchResult& indep = independent[i];
    const bool indep_found = indep.found && !indep.best.perf.oom;
    const double frontier_time =
        best != nullptr ? best->iteration_time : 0.0;
    const double indep_time =
        indep_found ? indep.best.perf.iteration_time : 0.0;
    const SearchResult& device = smaller_device[i];
    const bool device_found = device.found && !device.best.perf.oom;
    const double device_time =
        device_found ? device.best.perf.iteration_time : 0.0;
    const bool device_match =
        device_found == indep_found && device_time == indep_time;
    budget_is_device = budget_is_device && device_match;
    double ratio = 1.0;
    const char* verdict = "tie";
    if (best == nullptr && indep_found) {
      ratio = 2.0;  // frontier has no answer at all: count as a clear loss
      verdict = "LOSS";
    } else if (best != nullptr && indep_found) {
      ratio = frontier_time / indep_time;
      verdict = ratio < 1.0 - 1e-9   ? "win"
                : ratio <= 1.0 + 1e-9 ? "tie"
                : ratio <= 1.05       ? "close"
                                      : "LOSS";
    } else if (best != nullptr) {
      ratio = 0.5;  // only the frontier answered this budget
      verdict = "win";
    }
    worst_ratio = std::max(worst_ratio, ratio);
    table.AddRow({FormatBytes(budgets[i]),
                  best != nullptr ? FormatDouble(frontier_time, 3) : "none",
                  indep_found ? FormatDouble(indep_time, 3) : "infeasible",
                  device_found ? FormatDouble(device_time, 3) : "infeasible",
                  FormatDouble(ratio, 3),
                  device_match ? verdict : "MISMATCH"});
  }
  table.Print(std::cout);

  // Acceptance: the frontier's per-budget best matches or beats the
  // dedicated searches (small tolerance for float noise).
  const bool pass = worst_ratio <= 1.05 && budget_is_device;
  std::printf("worst frontier/independent ratio: %.3f -> %s\n", worst_ratio,
              worst_ratio <= 1.05 ? "PASS" : "FAIL");
  std::printf("budgeted searches match the smaller devices: %s\n",
              budget_is_device ? "PASS" : "FAIL");

  // Deterministic quality signal next to the two wall times: the worst
  // per-budget ratio x1000 (a value drifting past 2x the pinned baseline
  // means the frontier stopped matching dedicated searches — a search
  // regression, not timer noise).
  if (!args.out_path.empty() &&
      !WriteBenchReport(
          args.out_path, "exp13_frontier",
          {{"exp13/frontier_search", frontier_seconds * 1e9},
           {"exp13/independent_searches", independent_seconds * 1e9},
           {"exp13/quality_ratio_x1000", worst_ratio * 1000.0}})) {
    return 1;
  }
  return pass ? 0 : 1;
}
