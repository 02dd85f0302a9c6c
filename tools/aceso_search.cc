// aceso_search: command-line configuration search.
//
//   aceso_search --model gpt3-1.3b --gpus 8 [--budget 5] [--max-hops 7]
//                [--out config.txt] [--seed 42] [--stages N]
//                [--telemetry events.jsonl] [--search-trace trace.json]
//
// Prints the searched configuration and its predicted performance;
// optionally writes it to a file loadable by aceso_plan / LoadConfigFromFile.
// --telemetry streams one JSON line per search event (schema: DESIGN.md §10);
// --search-trace writes a chrome://tracing view of the search itself, with
// one thread per stage-count worker and one slice per iteration.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "src/aceso.h"
#include "tools/cli_flags.h"
#include "tools/tool_common.h"

namespace {

struct Args {
  std::string model = "gpt3-1.3b";
  int gpus = 8;
  double budget = 2.0;
  int max_hops = 7;
  int stages = 0;  // 0 = search all stage counts
  aceso::SeedMode seed_mode = aceso::SeedMode::kHeuristic;
  uint64_t seed = 20240422;
  std::string out;
  std::string telemetry_path;
  std::string search_trace_path;
};

void PrintUsage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--model NAME] [--gpus N] [--budget SECONDS] "
      "[--max-hops N] [--stages N] [--seed N] "
      "[--out FILE]\n"
      "          [--seed-mode heuristic|dp] [--telemetry FILE.jsonl] "
      "[--search-trace FILE.json]\n"
      "%s",
      argv0, aceso::tools::ZooUsageLines());
}

bool ParseArgs(int argc, char** argv, Args& args) {
  using aceso::cli::ParseInt;
  using aceso::cli::ParsePositiveDouble;
  using aceso::cli::ParsePositiveInt;
  using aceso::cli::ParseUint64;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--model") {
      const char* v = next();
      if (v == nullptr) return false;
      args.model = v;
    } else if (flag == "--gpus") {
      if (!ParsePositiveInt("--gpus", next(), &args.gpus)) return false;
    } else if (flag == "--budget") {
      if (!ParsePositiveDouble("--budget", next(), &args.budget)) return false;
    } else if (flag == "--max-hops") {
      if (!ParsePositiveInt("--max-hops", next(), &args.max_hops)) return false;
    } else if (flag == "--stages") {
      if (!ParseInt("--stages", next(), &args.stages)) return false;
    } else if (flag == "--seed") {
      if (!ParseUint64("--seed", next(), &args.seed)) return false;
    } else if (flag == "--seed-mode") {
      int choice = 0;
      if (!aceso::cli::ParseChoice("--seed-mode", next(), {"heuristic", "dp"},
                                   &choice)) {
        return false;
      }
      args.seed_mode =
          choice == 0 ? aceso::SeedMode::kHeuristic : aceso::SeedMode::kDp;
    } else if (flag == "--out") {
      const char* v = next();
      if (v == nullptr) return false;
      args.out = v;
    } else if (flag == "--telemetry") {
      const char* v = next();
      if (v == nullptr) return false;
      args.telemetry_path = v;
    } else if (flag == "--search-trace") {
      const char* v = next();
      if (v == nullptr) return false;
      args.search_trace_path = v;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace aceso;
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    PrintUsage(argv[0]);
    return 2;
  }

  auto loaded = tools::LoadModelAndCluster(args.model, args.gpus);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  OpGraph& graph = loaded->graph;
  const ClusterSpec& cluster = loaded->cluster;
  ProfileDatabase db(cluster);
  PerformanceModel model(&graph, cluster, &db);

  std::printf("%s on %s, budget %.1fs\n", graph.Summary().c_str(),
              cluster.ToString().c_str(), args.budget);

  // The sink outlives the search; --search-trace alone still needs the
  // in-memory ring even with no JSONL file.
  std::unique_ptr<TelemetrySink> telemetry;
  if (!args.telemetry_path.empty() || !args.search_trace_path.empty()) {
    TelemetryOptions topts;
    topts.jsonl_path = args.telemetry_path;
    telemetry = std::make_unique<TelemetrySink>(topts);
  }

  SearchOptions options;
  options.time_budget_seconds = args.budget;
  options.max_hops = args.max_hops;
  options.seed_mode = args.seed_mode;
  options.seed = args.seed;
  options.telemetry = telemetry.get();
  const SearchResult result =
      args.stages > 0 ? AcesoSearchForStages(model, options, args.stages)
                      : AcesoSearch(model, options);

  if (telemetry != nullptr) {
    // End-of-run counter values (cache hit rates, pool activity) go into the
    // JSONL as one tool-emitted event; the library never emits them because
    // they are thread-timing dependent (DESIGN.md §11).
    telemetry->EmitCounterSnapshot();
    const Status sink_status = telemetry->Flush();
    if (!sink_status.ok()) {
      std::fprintf(stderr, "telemetry: %s\n", sink_status.ToString().c_str());
      return 1;
    }
    if (!args.telemetry_path.empty()) {
      std::printf("telemetry: %zu events to %s\n",
                  telemetry->events_emitted(), args.telemetry_path.c_str());
    }
    if (!args.search_trace_path.empty()) {
      const TraceDocument doc = BuildSearchTrace(telemetry->Events());
      const Status trace_status =
          WriteChromeTrace(doc, args.search_trace_path);
      if (!trace_status.ok()) {
        std::fprintf(stderr, "%s\n", trace_status.ToString().c_str());
        return 1;
      }
      std::printf("search trace written to %s\n",
                  args.search_trace_path.c_str());
    }
  }

  if (!result.found) {
    std::fprintf(stderr, "no feasible configuration found\n");
    return 1;
  }

  std::printf("\n%s\n", result.best.config.ToString(graph).c_str());
  std::printf("predicted: %s\n", result.best.perf.Summary().c_str());
  std::printf("search: %.2fs, %lld configs explored, %lld improvements\n",
              result.search_seconds,
              static_cast<long long>(result.stats.configs_explored),
              static_cast<long long>(result.stats.improvements));
  const long long lookups = static_cast<long long>(result.stats.cache_hits +
                                                   result.stats.cache_misses);
  if (lookups > 0) {
    std::printf("stage cache: %.1f%% hits (%lld/%lld lookups, %lld evictions)\n",
                100.0 * static_cast<double>(result.stats.cache_hits) /
                    static_cast<double>(lookups),
                static_cast<long long>(result.stats.cache_hits), lookups,
                static_cast<long long>(result.stats.cache_evictions));
  }

  if (!args.out.empty()) {
    const Status status =
        SaveConfigToFile(args.out, result.best.config, graph.name());
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("saved to %s\n", args.out.c_str());
  }
  return 0;
}
