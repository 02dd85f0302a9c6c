// Exp#3 — scalability to 1K-layer models (paper Figure 9).
//
// Searches DeepNet-style transformers of 16..1000 layers on 8 GPUs with
// Aceso and the Alpa-like solver, reporting search cost and the predicted
// throughput of the found configuration. The anytime search runs under a
// wall-clock budget, so its "search(s)" column reads the budget at every
// depth; the "fixed-eval CPU(s)" column is the process CPU time of a cold,
// single-threaded search stopped after kFixedEvaluations evaluations per
// stage count — the search cost a faster search actually moves.
//
// Paper claims to reproduce in shape:
//   * Aceso always finishes within its budget and finds a configuration;
//   * Alpa's search cost grows with layer count and compilation fails
//     beyond 64 layers;
//   * where both succeed, Aceso's configuration is at least as fast
//     (paper: 1.2x average speedup).

#include <ctime>
#include <iostream>
#include <vector>

#include "bench/bench_util.h"

namespace {

constexpr int64_t kFixedEvaluations = 5000;

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

int main() {
  using namespace aceso;
  using namespace aceso::bench;
  PrintHeader("Exp#3: scalability to 1K layers (Figure 9)",
              "Aceso always finds solutions; Alpa fails compilation past 64 "
              "layers and its cost grows with depth");

  std::vector<int> layer_counts = {16, 32, 64, 128, 256, 512, 1000};
  if (QuickMode()) {
    layer_counts = {16, 64, 256};
  }

  TablePrinter table({"layers", "Aceso search(s)", "fixed-eval CPU(s)",
                      "Aceso pred iter(s)", "Alpa search(s)",
                      "Alpa pred iter(s)", "Aceso speedup"});
  for (const int layers : layer_counts) {
    const std::string model_name = "deepnet-" + std::to_string(layers);

    // Fixed-evaluation search on its own workload, so it starts with a cold
    // profile database and op memo like a first search on a new model.
    double fixed_cpu_seconds = 0.0;
    {
      Workload fixed_workload(model_name, 8);
      SearchOptions fixed = FixedEvaluationSearchOptions(kFixedEvaluations);
      fixed.max_stages = 8;
      fixed.num_threads = 1;
      const double cpu0 = ProcessCpuSeconds();
      (void)AcesoSearch(fixed_workload.model(), fixed);
      fixed_cpu_seconds = ProcessCpuSeconds() - cpu0;
    }

    Workload workload(model_name, 8);
    SearchOptions options = DefaultSearchOptions();
    options.max_stages = 8;
    const SearchResult aceso = AcesoSearch(workload.model(), options);

    std::string alpa_cost = "FAILED";
    std::string alpa_iter = "x";
    std::string speedup = "n/a";
    const auto alpa = AlpaLikeSearch(workload.model());
    if (alpa.ok() && alpa->found) {
      alpa_cost = FormatDouble(alpa->TotalSearchSeconds(), 1);
      alpa_iter = FormatDouble(alpa->best.perf.iteration_time, 2);
      if (aceso.found) {
        speedup = FormatDouble(alpa->best.perf.iteration_time /
                                   aceso.best.perf.iteration_time,
                               2) +
                  "x";
      }
    }
    table.AddRow({std::to_string(layers),
                  FormatDouble(aceso.search_seconds, 1),
                  FormatDouble(fixed_cpu_seconds, 2),
                  aceso.found ? FormatDouble(aceso.best.perf.iteration_time, 2)
                              : std::string("x"),
                  alpa_cost, alpa_iter, speedup});
  }
  table.Print(std::cout);
  return 0;
}
