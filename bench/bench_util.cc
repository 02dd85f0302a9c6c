#include "bench/bench_util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace aceso {
namespace bench {

Workload::Workload(const std::string& model_name, int gpus) {
  auto graph = models::BuildByName(model_name);
  ACESO_CHECK(graph.ok()) << graph.status().ToString();
  graph_ = *std::move(graph);
  cluster_ = ClusterSpec::WithGpuCount(gpus);
  db_ = std::make_unique<ProfileDatabase>(cluster_);
  model_ = std::make_unique<PerformanceModel>(&graph_, cluster_, db_.get());
  executor_ = std::make_unique<PipelineExecutor>(model_.get());
  name_ = model_name + " @" + std::to_string(gpus) + "gpu";
}

double Workload::MeasureThroughput(const ParallelConfig& config) {
  const ExecutionResult run = executor_->Execute(config);
  last_oom_ = run.oom;
  last_tflops_ = executor_->EffectiveTflopsPerGpu(run);
  if (run.oom) {
    return 0.0;
  }
  return run.Throughput(graph_.global_batch_size());
}

double BenchBudgetSeconds() {
  const char* env = std::getenv("ACESO_BENCH_BUDGET");
  if (env != nullptr) {
    const double v = std::atof(env);
    if (v > 0.0) {
      return v;
    }
  }
  return 4.0;
}

bool QuickMode() { return std::getenv("ACESO_BENCH_QUICK") != nullptr; }

std::vector<double> GptSizes(bool quick) {
  if (quick) {
    return {0.35, 1.3};
  }
  return {0.35, 1.3, 2.6, 6.7, 13};
}

std::vector<double> T5Sizes(bool quick) {
  if (quick) {
    return {0.77, 3};
  }
  return {0.77, 3, 6, 11, 22};
}

std::vector<double> WrnSizes(bool quick) {
  if (quick) {
    return {0.5, 2};
  }
  return {0.5, 2, 4, 6.8, 13};
}

SearchOptions DefaultSearchOptions() {
  SearchOptions options;
  options.time_budget_seconds = BenchBudgetSeconds();
  options.max_hops = 7;
  options.seed = 20240422;
  return options;
}

SearchOptions FixedEvaluationSearchOptions(int64_t max_evaluations) {
  SearchOptions options = DefaultSearchOptions();
  options.time_budget_seconds = 1e9;  // evaluation-budget limited
  options.max_evaluations = max_evaluations;
  return options;
}

bool ParseGateArgs(int argc, char** argv, GateArgs* args) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      args->quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      args->out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out FILE]\n", argv[0]);
      return false;
    }
  }
  return true;
}

bool WriteBenchReport(const std::string& path, const std::string& executable,
                      const std::vector<BenchMetric>& metrics) {
  std::string json = "{\"context\":{\"executable\":\"" + executable + "\"},";
  json += "\"benchmarks\":[";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) {
      json += ",";
    }
    json += "{\"name\":\"" + metrics[i].name +
            "\",\"run_type\":\"iteration\",\"real_time\":" +
            std::to_string(metrics[i].value) + ",\"time_unit\":\"ns\"}";
  }
  json += "]}";
  std::ofstream out(path, std::ios::binary);
  out << json << "\n";
  if (!out.good()) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return false;
  }
  std::printf("report written to %s\n", path.c_str());
  return true;
}

void PrintHeader(const std::string& experiment, const std::string& claim) {
  std::printf("==========================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("paper: %s\n", claim.c_str());
  std::printf("==========================================================\n");
}

std::string Normalized(double value, double best) {
  if (best <= 0.0) {
    return "n/a";
  }
  return FormatDouble(value / best, 2) + "x";
}

void PrintConvergence(const std::string& label,
                      const std::vector<ConvergencePoint>& trend,
                      int max_rows) {
  std::printf("  %s:", label.c_str());
  if (trend.empty()) {
    std::printf(" (no data)\n");
    return;
  }
  auto print_point = [](const ConvergencePoint& point) {
    // While the best-so-far is infeasible its time is a model estimate for
    // an over-memory configuration, not an achievable iteration time.
    if (!point.feasible) {
      std::printf(" [%.2fs: OOM]", point.elapsed_seconds);
    } else {
      std::printf(" [%.2fs: %.2f]", point.elapsed_seconds,
                  point.best_iteration_time);
    }
  };
  const size_t n = trend.size();
  const size_t step = std::max<size_t>(1, n / static_cast<size_t>(max_rows));
  for (size_t i = 0; i < n; i += step) {
    print_point(trend[i]);
  }
  if ((n - 1) % step != 0) {
    print_point(trend[n - 1]);
  }
  std::printf("\n");
}

ImprovementHistograms ExtractImprovementHistograms(
    const std::vector<TelemetryEvent>& events) {
  ImprovementHistograms hist;
  for (const TelemetryEvent& event : events) {
    if (event.type() != "iteration" ||
        !event.GetBool("accepted").value_or(false)) {
      continue;
    }
    hist.bottleneck_attempts.push_back(
        static_cast<int>(event.GetInt("bottleneck_attempt").value_or(0)));
    hist.hops.push_back(static_cast<int>(event.GetInt("hops").value_or(0)));
  }
  return hist;
}

}  // namespace bench
}  // namespace aceso
