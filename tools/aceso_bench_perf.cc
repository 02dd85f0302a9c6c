// aceso_bench_perf: performance-model walk-throughput benchmark for CI.
//
//   aceso_bench_perf [--out BENCH_perf_model.json] [--min-time SECONDS]
//                    [--quick]
//
// Measures stage-walk throughput (DESIGN.md §12) across models and stage
// counts, in four walk modes:
//
//   - direct_walk:     op memo and run compression off — the pre-§12 path
//                      that recomputes every op breakdown from the profile
//                      database on every walk;
//   - memo_only:       op-breakdown memo on, run compression off;
//   - fast_walk:       memo + repeated-layer run compression (the default);
//   - stage_cached:    the full stack with the stage-cost cache on top
//                      (steady-state hit path, DESIGN.md §8).
//
// All modes are bit-identical by contract; the report carries a per-model
// `bit_identical` flag re-checking that on the measured configs. The
// headline number is `fast_walk_speedup` (direct_walk / fast_walk) for the
// uncached walk on deep repeated-layer models.
//
// The JSON is hand-emitted (the repository carries no JSON dependency); CI
// uploads it as the BENCH_perf_model artifact next to BENCH_search.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/aceso.h"
#include "tools/cli_flags.h"

namespace aceso {
namespace {

struct Args {
  std::string out = "BENCH_perf_model.json";
  double min_time = 1.0;  // per (model, mode) measurement, seconds
  bool quick = false;     // CI smoke mode: shorter measurements
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
    } else if (flag == "--min-time") {
      if (!cli::ParsePositiveDouble("--min-time", next(), &args.min_time)) {
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

struct ModeReport {
  std::string mode;
  int64_t evals = 0;
  double seconds = 0.0;
  double evals_per_sec = 0.0;
  double us_per_eval = 0.0;
};

struct WalkReport {
  std::string model;
  int gpus = 0;
  int stages = 0;
  int num_ops = 0;
  std::vector<ModeReport> modes;
  double fast_walk_speedup = 0.0;    // direct_walk / fast_walk
  double memo_only_speedup = 0.0;    // direct_walk / memo_only
  double stage_cached_speedup = 0.0; // direct_walk / stage_cached
  bool bit_identical = true;
  int64_t op_memo_entries = 0;
  int64_t profile_db_entries = 0;
};

struct WalkSetting {
  const char* model;
  int gpus;
  int stages;
};

// Times repeated full evaluations of `config`, doubling the batch size until
// one batch fills `min_time`. Returns the steady-state rate; the caller has
// already warmed every cache layer that is enabled for this mode.
ModeReport MeasureMode(const char* mode, PerformanceModel& model,
                       const ParallelConfig& config, double min_time) {
  ModeReport report;
  report.mode = mode;
  int64_t batch = 1;
  double elapsed = 0.0;
  for (;;) {
    const double start = NowSeconds();
    for (int64_t i = 0; i < batch; ++i) {
      PerfResult result = model.Evaluate(config);
      if (result.iteration_time < 0) std::fprintf(stderr, "\n");
    }
    elapsed = NowSeconds() - start;
    if (elapsed >= min_time || batch >= (int64_t{1} << 30)) break;
    batch *= 2;
  }
  report.evals = batch;
  report.seconds = elapsed;
  report.evals_per_sec =
      elapsed > 0 ? static_cast<double>(batch) / elapsed : 0.0;
  report.us_per_eval =
      batch > 0 ? 1e6 * elapsed / static_cast<double>(batch) : 0.0;
  return report;
}

uint64_t PerfBits(const PerfResult& result) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(result.iteration_time), "");
  std::memcpy(&bits, &result.iteration_time, sizeof(bits));
  return bits;
}

WalkReport BenchWalks(const WalkSetting& setting, double min_time) {
  WalkReport report;
  report.model = setting.model;
  report.gpus = setting.gpus;
  report.stages = setting.stages;
  auto graph = models::BuildByName(setting.model);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return report;
  }
  report.num_ops = graph->num_ops();
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(setting.gpus);
  ProfileDatabase db(cluster);
  const ParallelConfig config =
      *MakeEvenConfig(*graph, cluster, setting.stages, 2);

  StageCacheOptions no_cache;
  no_cache.enabled = false;
  PerformanceModel uncached(&*graph, cluster, &db, no_cache);

  // Bit-identity re-check across all four modes on the measured config.
  uncached.set_op_memo_enabled(false);
  uncached.set_run_compression_enabled(false);
  const uint64_t direct_bits = PerfBits(uncached.Evaluate(config));

  struct Mode {
    const char* name;
    bool memo;
    bool run_compression;
  };
  const Mode modes[] = {
      {"direct_walk", false, false},
      {"memo_only", true, false},
      {"fast_walk", true, true},
  };
  for (const Mode& mode : modes) {
    uncached.set_op_memo_enabled(mode.memo);
    uncached.set_run_compression_enabled(mode.run_compression);
    // Warm under the selected walk mode (memo fill happens here, and the
    // profile DB measures every key on the first full walk).
    const uint64_t bits = PerfBits(uncached.Evaluate(config));
    report.bit_identical = report.bit_identical && bits == direct_bits;
    report.modes.push_back(
        MeasureMode(mode.name, uncached, config, min_time));
  }

  PerformanceModel cached(&*graph, cluster, &db);
  const uint64_t cached_bits = PerfBits(cached.Evaluate(config));
  report.bit_identical = report.bit_identical && cached_bits == direct_bits;
  report.modes.push_back(
      MeasureMode("stage_cached", cached, config, min_time));

  auto rate = [&report](const char* name) -> double {
    for (const ModeReport& mode : report.modes) {
      if (mode.mode == name) return mode.evals_per_sec;
    }
    return 0.0;
  };
  const double direct = rate("direct_walk");
  if (direct > 0) {
    report.memo_only_speedup = rate("memo_only") / direct;
    report.fast_walk_speedup = rate("fast_walk") / direct;
    report.stage_cached_speedup = rate("stage_cached") / direct;
  }
  report.op_memo_entries = uncached.op_memo().stats().entries;
  report.profile_db_entries = static_cast<int64_t>(db.NumEntries());
  return report;
}

void WriteJson(const Args& args, const std::vector<WalkReport>& walks) {
  std::FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", args.out.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"min_time_seconds\": %.3f,\n", args.min_time);
  std::fprintf(f, "  \"quick\": %s,\n", args.quick ? "true" : "false");
  std::fprintf(f, "  \"walks\": [\n");
  for (size_t i = 0; i < walks.size(); ++i) {
    const WalkReport& w = walks[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"model\": \"%s\",\n", JsonEscape(w.model).c_str());
    std::fprintf(f, "      \"gpus\": %d,\n", w.gpus);
    std::fprintf(f, "      \"stages\": %d,\n", w.stages);
    std::fprintf(f, "      \"num_ops\": %d,\n", w.num_ops);
    std::fprintf(f, "      \"bit_identical\": %s,\n",
                 w.bit_identical ? "true" : "false");
    std::fprintf(f, "      \"op_memo_entries\": %lld,\n",
                 static_cast<long long>(w.op_memo_entries));
    std::fprintf(f, "      \"profile_db_entries\": %lld,\n",
                 static_cast<long long>(w.profile_db_entries));
    std::fprintf(f, "      \"memo_only_speedup\": %.2f,\n",
                 w.memo_only_speedup);
    std::fprintf(f, "      \"fast_walk_speedup\": %.2f,\n",
                 w.fast_walk_speedup);
    std::fprintf(f, "      \"stage_cached_speedup\": %.2f,\n",
                 w.stage_cached_speedup);
    std::fprintf(f, "      \"modes\": [\n");
    for (size_t m = 0; m < w.modes.size(); ++m) {
      const ModeReport& mode = w.modes[m];
      std::fprintf(f, "        {\n");
      std::fprintf(f, "          \"mode\": \"%s\",\n", mode.mode.c_str());
      std::fprintf(f, "          \"evals\": %lld,\n",
                   static_cast<long long>(mode.evals));
      std::fprintf(f, "          \"seconds\": %.4f,\n", mode.seconds);
      std::fprintf(f, "          \"evals_per_sec\": %.1f,\n",
                   mode.evals_per_sec);
      std::fprintf(f, "          \"us_per_eval\": %.2f\n", mode.us_per_eval);
      std::fprintf(f, "        }%s\n", m + 1 < w.modes.size() ? "," : "");
    }
    std::fprintf(f, "      ]\n");
    std::fprintf(f, "    }%s\n", i + 1 < walks.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s [--out FILE] [--min-time SECONDS] [--quick]\n",
                 argv[0]);
    return 2;
  }
  if (args.quick) args.min_time = std::min(args.min_time, 0.2);

  const WalkSetting settings[] = {
      {"gpt3-1.3b", 8, 4},
      {"wresnet-0.5b", 8, 4},
      {"deepnet-64", 8, 8},
      {"deepnet-256", 8, 8},
      {"deepnet-1000", 8, 8},
  };
  std::vector<WalkReport> walks;
  for (const WalkSetting& setting : settings) {
    std::printf("%s @%dgpu, %d stages...\n", setting.model, setting.gpus,
                setting.stages);
    const WalkReport w = BenchWalks(setting, args.min_time);
    walks.push_back(w);
    for (const ModeReport& mode : w.modes) {
      std::printf("  %-13s %9.1f evals/s (%.2f us/eval)\n",
                  mode.mode.c_str(), mode.evals_per_sec, mode.us_per_eval);
    }
    std::printf("  fast-walk speedup %.2fx, stage-cached %.2fx%s\n",
                w.fast_walk_speedup, w.stage_cached_speedup,
                w.bit_identical ? "" : "  ** BIT MISMATCH **");
  }

  WriteJson(args, walks);
  std::printf("wrote %s\n", args.out.c_str());

  // The §12 acceptance bar: the memo + run-compression walk must beat the
  // direct walk by >=10x on deepnet-1000, bit-identically.
  for (const WalkReport& w : walks) {
    if (w.model == "deepnet-1000") {
      if (!w.bit_identical) {
        std::fprintf(stderr, "FAIL: walk modes are not bit-identical\n");
        return 1;
      }
      if (w.fast_walk_speedup < 10.0) {
        std::fprintf(stderr,
                     "FAIL: deepnet-1000 fast-walk speedup %.2fx < 10x\n",
                     w.fast_walk_speedup);
        return 1;
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace aceso

int main(int argc, char** argv) { return aceso::Main(argc, argv); }
