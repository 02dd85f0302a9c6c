// Exp#8 — iteration-time prediction accuracy (paper Figure 15).
//
// For each GPT-3 and Wide-ResNet setting, searches a configuration, then
// compares the performance model's predicted iteration time with the
// "actual" time from the discrete-event runtime.
//
// Paper claims to reproduce in shape: small average error (paper: 2.70% on
// GPT-3, 7.29% on Wide-ResNet), with the convolutional family noisier than
// the transformer family.
//
//   exp08_time_accuracy [--quick] [--out BENCH_exp08.json]
//
// Exits nonzero if either family's mean error exceeds the paper's figure.
// --quick runs the two smallest settings per family at a fixed evaluation
// budget, so the errors are bit-reproducible; --out writes them (x1000) as a
// google-benchmark-format report for tools/check_bench_regression.py against
// bench/baselines/exp08_time_accuracy_baseline.json.

#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"

namespace aceso {
namespace bench {
namespace {

// Paper Figure 15 mean errors (%), the gate's upper bounds.
constexpr double kPaperGptError = 2.70;
constexpr double kPaperWrnError = 7.29;

// Quick mode's per-stage-count evaluation budget.
constexpr int64_t kQuickEvaluations = 1000;

double RunFamily(const std::string& prefix, const std::vector<double>& sizes,
                 const SearchOptions& options, TablePrinter& table) {
  double error_sum = 0.0;
  int count = 0;
  for (size_t i = 0; i < sizes.size(); ++i) {
    char size_buf[32];
    std::snprintf(size_buf, sizeof(size_buf), "%g", sizes[i]);
    const std::string name = prefix + size_buf + "b";
    const int gpus = models::GpusForSizeIndex(static_cast<int>(i));
    Workload workload(name, gpus);

    const SearchResult search = AcesoSearch(workload.model(), options);
    if (!search.found) {
      continue;
    }
    const PerfResult predicted = workload.model().Evaluate(search.best.config);
    const ExecutionResult actual =
        workload.executor().Execute(search.best.config);
    const double err = 100.0 *
                       std::abs(actual.iteration_seconds -
                                predicted.iteration_time) /
                       actual.iteration_seconds;
    error_sum += err;
    ++count;
    table.AddRow({name + " @" + std::to_string(gpus) + "gpu",
                  FormatDouble(predicted.iteration_time, 3),
                  FormatDouble(actual.iteration_seconds, 3),
                  FormatDouble(err, 2) + "%"});
  }
  return count > 0 ? error_sum / count : 0.0;
}

}  // namespace
}  // namespace bench
}  // namespace aceso

int main(int argc, char** argv) {
  using namespace aceso;
  using namespace aceso::bench;
  GateArgs args;
  if (!ParseGateArgs(argc, argv, &args)) {
    return 2;
  }
  PrintHeader("Exp#8: iteration-time prediction accuracy (Figure 15)",
              "average prediction error 2.70% (GPT-3) and 7.29% "
              "(Wide-ResNet) in the paper");

  const SearchOptions options =
      args.quick ? FixedEvaluationSearchOptions(kQuickEvaluations)
                 : DefaultSearchOptions();
  TablePrinter table({"setting", "predicted(s)", "actual(s)", "error"});
  const double gpt_err =
      RunFamily("gpt3-", GptSizes(args.quick), options, table);
  const double wrn_err =
      RunFamily("wresnet-", WrnSizes(args.quick), options, table);
  table.Print(std::cout);
  std::printf("\naverage error: GPT-3 %.2f%%, Wide-ResNet %.2f%%\n", gpt_err,
              wrn_err);

  const bool pass = gpt_err <= kPaperGptError && wrn_err <= kPaperWrnError;
  std::printf("gate: GPT-3 <= %.2f%%, Wide-ResNet <= %.2f%% -> %s\n",
              kPaperGptError, kPaperWrnError, pass ? "PASS" : "FAIL");
  if (!args.out_path.empty() &&
      !WriteBenchReport(args.out_path, "exp08_time_accuracy",
                        {{"exp08/gpt3_mean_error_x1000", gpt_err * 1000.0},
                         {"exp08/wresnet_mean_error_x1000",
                          wrn_err * 1000.0}})) {
    return 1;
  }
  return pass ? 0 : 1;
}
