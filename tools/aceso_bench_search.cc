// aceso_bench_search: search-throughput benchmark runner for CI.
//
//   aceso_bench_search [--out BENCH_search.json] [--budget SECONDS]
//                      [--quick]
//
// Measures the candidate-generation hot path (DESIGN.md §9) and fixed-budget
// search throughput, and writes the results as a flat JSON report:
//
//   - per-candidate construction+hash cost, copy-on-write vs the deep-copy
//     baseline (ns/candidate, speedup);
//   - configs explored per second and stage-cost-cache hit rate (DESIGN.md
//     §8, the exp11 metric) for the reference search settings.
//
// The JSON is hand-emitted (the repository carries no JSON dependency); CI
// uploads it as the BENCH_search artifact so runs can be compared over time.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/aceso.h"
#include "tools/cli_flags.h"

namespace aceso {
namespace {

struct Args {
  std::string out = "BENCH_search.json";
  double budget = 2.0;   // per search setting, seconds
  bool quick = false;    // CI smoke mode: shorter budgets, fewer reps
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--out") {
      const char* v = next();
      if (v == nullptr) return false;
      args.out = v;
    } else if (flag == "--budget") {
      if (!cli::ParsePositiveDouble("--budget", next(), &args.budget)) {
        return false;
      }
    } else if (flag == "--quick") {
      args.quick = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ----- Candidate-generation cost (micro_search's hot-path kernel) -----

// One dedup-bound candidate: copy the base config, flip one op's recompute
// flag in one stage, re-hash. kDeepCopy reproduces the pre-§9
// representation (full copy + from-scratch hash).
template <bool kDeepCopy>
uint64_t MakeCandidate(const ParallelConfig& base, const OpGraph& graph,
                       int round) {
  ParallelConfig next = kDeepCopy ? base.DeepCopy() : base;
  const int s = round % next.num_stages();
  StageConfig& stage = next.MutableStage(s);
  OpParallel& setting =
      stage.ops[static_cast<size_t>(round) % stage.ops.size()];
  setting.recompute = !setting.recompute;
  return kDeepCopy ? next.SemanticHashUncached(graph)
                   : next.SemanticHash(graph);
}

template <bool kDeepCopy>
double MeasureCandidateNs(const ParallelConfig& base, const OpGraph& graph,
                          int rounds) {
  uint64_t sink = 0;
  const double start = NowSeconds();
  for (int round = 0; round < rounds; ++round) {
    sink ^= MakeCandidate<kDeepCopy>(base, graph, round);
  }
  const double elapsed = NowSeconds() - start;
  // Keep the fold alive without letting the compiler see through it.
  if (sink == 0x5eedf00dULL) std::fprintf(stderr, "\n");
  return 1e9 * elapsed / rounds;
}

struct CandidateReport {
  double cow_ns = 0.0;
  double deep_ns = 0.0;
  double speedup = 0.0;
};

CandidateReport BenchCandidateGeneration(bool quick) {
  const OpGraph graph = models::Gpt3(2.6);
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(16);
  ParallelConfig base = *MakeEvenConfig(graph, cluster, 8, 4);
  base.SemanticHash(graph);  // warm caches, as the search's base config is
  const int rounds = quick ? 20000 : 200000;
  // One warmup pass each, then the measured pass.
  MeasureCandidateNs<false>(base, graph, rounds / 10);
  MeasureCandidateNs<true>(base, graph, rounds / 10);
  CandidateReport report;
  report.cow_ns = MeasureCandidateNs<false>(base, graph, rounds);
  report.deep_ns = MeasureCandidateNs<true>(base, graph, rounds);
  report.speedup = report.deep_ns / report.cow_ns;
  return report;
}

// ----- Fixed-budget search throughput + cache hit rate -----

struct SearchReport {
  std::string setting;
  int64_t configs_explored = 0;
  double seconds = 0.0;
  double configs_per_sec = 0.0;
  double cache_hit_rate = 0.0;
  double best_iteration_time = 0.0;
  uint64_t semantic_hash = 0;
  // Telemetry counters for the run (search.* names minus the prefix).
  std::map<std::string, int64_t> counters;
};

SearchReport BenchSearch(const std::string& model_name, int gpus, int stages,
                         double budget) {
  SearchReport report;
  report.setting = model_name + "@" + std::to_string(gpus) + "gpu";
  auto graph = models::BuildByName(model_name);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return report;
  }
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(gpus);
  ProfileDatabase db(cluster);
  PerformanceModel model(&*graph, cluster, &db);
  // Ring-only sink: the report folds in the counters registry, not events.
  TelemetryOptions topts;
  topts.ring_capacity = 0;
  TelemetrySink telemetry(topts);
  SearchOptions options;
  options.time_budget_seconds = budget;
  options.telemetry = &telemetry;
  const SearchResult result = AcesoSearchForStages(model, options, stages);
  for (const auto& [name, value] : telemetry.Counters()) {
    constexpr std::string_view kPrefix = "search.";
    const std::string_view view = name;
    report.counters[std::string(view.substr(
        view.rfind(kPrefix, 0) == 0 ? kPrefix.size() : 0))] = value;
  }
  report.configs_explored = result.stats.configs_explored;
  report.seconds = result.search_seconds;
  report.configs_per_sec =
      result.search_seconds > 0
          ? static_cast<double>(result.stats.configs_explored) /
                result.search_seconds
          : 0.0;
  const int64_t lookups =
      result.stats.cache_hits + result.stats.cache_misses;
  report.cache_hit_rate =
      lookups > 0 ? static_cast<double>(result.stats.cache_hits) /
                        static_cast<double>(lookups)
                  : 0.0;
  if (result.found) {
    report.best_iteration_time = result.best.perf.iteration_time;
    report.semantic_hash = result.best.semantic_hash;
  }
  return report;
}

void WriteJson(const Args& args, const CandidateReport& cand,
               const std::vector<SearchReport>& searches) {
  std::FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", args.out.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"budget_seconds\": %.3f,\n", args.budget);
  std::fprintf(f, "  \"quick\": %s,\n", args.quick ? "true" : "false");
  std::fprintf(f, "  \"candidate_generation\": {\n");
  std::fprintf(f, "    \"model\": \"gpt3-2.6b\",\n");
  std::fprintf(f, "    \"gpus\": 16,\n");
  std::fprintf(f, "    \"stages\": 8,\n");
  std::fprintf(f, "    \"cow_ns_per_candidate\": %.1f,\n", cand.cow_ns);
  std::fprintf(f, "    \"deep_copy_ns_per_candidate\": %.1f,\n",
               cand.deep_ns);
  std::fprintf(f, "    \"speedup\": %.2f\n", cand.speedup);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"searches\": [\n");
  for (size_t i = 0; i < searches.size(); ++i) {
    const SearchReport& s = searches[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"setting\": \"%s\",\n", s.setting.c_str());
    std::fprintf(f, "      \"configs_explored\": %lld,\n",
                 static_cast<long long>(s.configs_explored));
    std::fprintf(f, "      \"seconds\": %.3f,\n", s.seconds);
    std::fprintf(f, "      \"configs_explored_per_sec\": %.1f,\n",
                 s.configs_per_sec);
    std::fprintf(f, "      \"stage_cache_hit_rate\": %.4f,\n",
                 s.cache_hit_rate);
    std::fprintf(f, "      \"best_iteration_time\": %.6f,\n",
                 s.best_iteration_time);
    std::fprintf(f, "      \"semantic_hash\": \"%llu\",\n",
                 static_cast<unsigned long long>(s.semantic_hash));
    std::fprintf(f, "      \"counters\": {");
    bool first = true;
    for (const auto& [name, value] : s.counters) {
      std::fprintf(f, "%s\n        \"%s\": %lld", first ? "" : ",",
                   JsonEscape(name).c_str(), static_cast<long long>(value));
      first = false;
    }
    std::fprintf(f, "\n      }\n");
    std::fprintf(f, "    }%s\n", i + 1 < searches.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s [--out FILE] [--budget SECONDS] [--quick]\n",
                 argv[0]);
    return 2;
  }
  if (args.quick) args.budget = std::min(args.budget, 0.5);

  std::printf("candidate generation (gpt3-2.6b @16gpu, 8 stages)...\n");
  const CandidateReport cand = BenchCandidateGeneration(args.quick);
  std::printf("  CoW %.0f ns, deep copy %.0f ns, speedup %.2fx\n",
              cand.cow_ns, cand.deep_ns, cand.speedup);

  std::vector<SearchReport> searches;
  searches.push_back(BenchSearch("gpt3-2.6b", 8, 2, args.budget));
  if (!args.quick) {
    searches.push_back(BenchSearch("wresnet-2b", 4, 2, args.budget));
  }
  for (const SearchReport& s : searches) {
    std::printf(
        "  %s: %lld configs in %.2fs (%.0f/s), cache hit %.1f%%\n",
        s.setting.c_str(), static_cast<long long>(s.configs_explored),
        s.seconds, s.configs_per_sec, 100.0 * s.cache_hit_rate);
  }

  WriteJson(args, cand, searches);
  std::printf("wrote %s\n", args.out.c_str());
  return 0;
}

}  // namespace
}  // namespace aceso

int main(int argc, char** argv) { return aceso::Main(argc, argv); }
