// Shared scaffolding for the experiment harnesses: workload setup, the
// three search systems, execution, and paper-style reporting.
//
// Environment knobs (all optional):
//   ACESO_BENCH_BUDGET   search budget in seconds per setting (default 4.0)
//   ACESO_BENCH_QUICK    if set, shrink each experiment's setting list

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "src/aceso.h"

namespace aceso {
namespace bench {

// One model-on-cluster setting with everything needed to search and run.
class Workload {
 public:
  Workload(const std::string& model_name, int gpus);

  const OpGraph& graph() const { return graph_; }
  const ClusterSpec& cluster() const { return cluster_; }
  PerformanceModel& model() { return *model_; }
  PipelineExecutor& executor() { return *executor_; }
  const std::string& name() const { return name_; }

  // Runs `config` in the simulated runtime and returns samples/second
  // (0 when the execution OOMs).
  double MeasureThroughput(const ParallelConfig& config);

  // Effective TFLOPS/GPU of the last MeasureThroughput() call.
  double last_tflops() const { return last_tflops_; }
  bool last_oom() const { return last_oom_; }

 private:
  std::string name_;
  OpGraph graph_;
  ClusterSpec cluster_;
  std::unique_ptr<ProfileDatabase> db_;
  std::unique_ptr<PerformanceModel> model_;
  std::unique_ptr<PipelineExecutor> executor_;
  double last_tflops_ = 0.0;
  bool last_oom_ = false;
};

// Search budget from ACESO_BENCH_BUDGET (default 4 s).
double BenchBudgetSeconds();

// True when ACESO_BENCH_QUICK is set.
bool QuickMode();

// Paper model-size ladders (Table 2); in quick mode the list is truncated.
std::vector<double> GptSizes(bool quick = QuickMode());
std::vector<double> T5Sizes(bool quick = QuickMode());
std::vector<double> WrnSizes(bool quick = QuickMode());

// Default SearchOptions for benches (budget from env, fixed seed).
SearchOptions DefaultSearchOptions();

// DefaultSearchOptions with the wall clock lifted and `max_evaluations` per
// stage count as the only budget, so the result is bit-reproducible.
SearchOptions FixedEvaluationSearchOptions(int64_t max_evaluations);

// The command line of the experiments CI gates: [--quick] [--out FILE].
// `quick` starts from ACESO_BENCH_QUICK. Returns false, after printing the
// usage line, on any other argument.
struct GateArgs {
  bool quick = QuickMode();
  std::string out_path;
};
bool ParseGateArgs(int argc, char** argv, GateArgs* args);

// Writes `metrics` as a google-benchmark-format report that
// tools/check_bench_regression.py compares against bench/baselines/: each
// value is one benchmark's real_time (ns for wall times; a scaled quality
// figure otherwise). Returns false if the file could not be written.
struct BenchMetric {
  std::string name;
  double value = 0.0;
};
bool WriteBenchReport(const std::string& path, const std::string& executable,
                      const std::vector<BenchMetric>& metrics);

// Prints the experiment banner.
void PrintHeader(const std::string& experiment, const std::string& claim);

// Formats `value/best` as a normalized throughput cell ("0.87x").
std::string Normalized(double value, double best);

// Prints a convergence trend as "t(s) -> predicted iteration time" rows,
// downsampled to at most `max_rows`.
void PrintConvergence(const std::string& label,
                      const std::vector<ConvergencePoint>& trend,
                      int max_rows = 12);

// The Figure-11 histogram inputs, extracted from a telemetry event stream
// (DESIGN.md §10): for every accepted iteration, the 1-based index of the
// bottleneck that yielded the improvement and the hop count of the
// improving primitive chain.
struct ImprovementHistograms {
  std::vector<int> bottleneck_attempts;
  std::vector<int> hops;
};
ImprovementHistograms ExtractImprovementHistograms(
    const std::vector<TelemetryEvent>& events);

}  // namespace bench
}  // namespace aceso

#endif  // BENCH_BENCH_UTIL_H_
