// Micro-benchmark: performance-model evaluation throughput. The search
// calls Evaluate() tens of thousands of times per run, so this is Aceso's
// hot path.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>

#include "src/aceso.h"
#include "src/serve/plan_protocol.h"

namespace aceso {
namespace {

StageCacheOptions CacheOptions(bool enabled) {
  StageCacheOptions options;
  options.enabled = enabled;
  return options;
}

struct Fixture {
  // Warm-up is explicit per (model, stages): the constructor evaluates the
  // benchmarked config once, which fills the profile database for every
  // (op, shards, batch) and collective bucket *this exact config* touches.
  // That is sufficient for benchmarks that re-evaluate `config` unchanged —
  // but NOT for the delta benches, which mutate the config during timing:
  // their variants' stage walks stay cold, so the first timed lap measures
  // cache fill rather than steady state (and at --benchmark_min_time=0.05
  // the fill lap is a material fraction of all iterations). Those benches
  // must pre-walk their whole mutation pool with WarmPatternPool() before
  // the timed loop.
  Fixture(const std::string& name, int gpus, int stages,
          bool cache_enabled = true)
      : graph(*models::BuildByName(name)),
        cluster(ClusterSpec::WithGpuCount(gpus)),
        db(cluster),
        model(&graph, cluster, &db, CacheOptions(cache_enabled)),
        config(*MakeEvenConfig(graph, cluster, stages, 2)) {
    model.Evaluate(config);
  }

  // Evaluates every stage-0 recompute pattern in [0, pool_size) so the
  // timed loop cycles a fully warmed pool (see constructor comment).
  void WarmPatternPool(int flag_ops, uint64_t pool_size);

  OpGraph graph;
  ClusterSpec cluster;
  ProfileDatabase db;
  PerformanceModel model;
  ParallelConfig config;
};

void BM_EvaluateGpt(benchmark::State& state) {
  Fixture f("gpt3-1.3b", 8, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.model.Evaluate(f.config));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EvaluateGpt)->Arg(1)->Arg(4)->Arg(8);

void BM_EvaluateGptUncached(benchmark::State& state) {
  Fixture f("gpt3-1.3b", 8, static_cast<int>(state.range(0)),
            /*cache_enabled=*/false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.model.Evaluate(f.config));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EvaluateGptUncached)->Arg(1)->Arg(4)->Arg(8);

// Writes the bits of `pattern` into the recompute flags of stage 0's first
// `flag_ops` ops — a cheap stand-in for "one primitive mutated one stage".
void ApplyStagePattern(ParallelConfig& config, int flag_ops,
                       uint64_t pattern) {
  for (int i = 0; i < flag_ops; ++i) {
    config.MutableStage(0).ops[static_cast<size_t>(i)].recompute =
        ((pattern >> i) & 1) != 0;
  }
}

void Fixture::WarmPatternPool(int flag_ops, uint64_t pool_size) {
  for (uint64_t pattern = 0; pattern < pool_size; ++pattern) {
    ApplyStagePattern(config, flag_ops, pattern);
    model.Evaluate(config);
  }
  ApplyStagePattern(config, flag_ops, 0);
}

// The search's dominant pattern: re-evaluation after one primitive mutated a
// single stage. The candidate sets GeneratePrimitiveCandidates() emits at
// successive hops overlap heavily (and sibling stage-count searches share
// the cache), so the steady state cycles through a bounded pool of stage
// variants: model that with 64 distinct single-stage deltas applied
// round-robin. With the cache, every stage walk is a hit after the first
// lap; without it, each iteration re-walks all p stages.
void ReEvaluateStageDelta(benchmark::State& state, bool cache_enabled) {
  Fixture f("gpt3-1.3b", 8, static_cast<int>(state.range(0)), cache_enabled);
  const StageConfig& stage0 = f.config.stage(0);
  const int flag_ops = std::min(stage0.num_ops, 20);
  constexpr uint64_t kPoolSize = 64;
  // Pre-walk the whole pool so the timed loop starts in steady state; the
  // constructor's Evaluate() warms only the unmutated config.
  f.WarmPatternPool(flag_ops, kPoolSize);
  uint64_t next = 0;
  for (auto _ : state) {
    ApplyStagePattern(f.config, flag_ops, next % kPoolSize);
    ++next;
    benchmark::DoNotOptimize(f.model.Evaluate(f.config));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ReEvaluateStageDeltaCached(benchmark::State& state) {
  ReEvaluateStageDelta(state, /*cache_enabled=*/true);
}
BENCHMARK(BM_ReEvaluateStageDeltaCached)->Arg(4)->Arg(8);

void BM_ReEvaluateStageDeltaUncached(benchmark::State& state) {
  ReEvaluateStageDelta(state, /*cache_enabled=*/false);
}
BENCHMARK(BM_ReEvaluateStageDeltaUncached)->Arg(4)->Arg(8);

// Worst case for the cache: a never-before-seen stage delta every iteration.
// The mutated stage is a genuine miss (hash + walk + insert) while the other
// p-1 stage walks are hits, so this bounds the cache's first-visit overhead.
// Cold stage walks are the point here, so no pool warm-up: the profile DB is
// warmed by the constructor (recompute flags don't change DB keys), and each
// timed iteration's fresh pattern is a deliberate stage-cache miss.
void ReEvaluateFreshDelta(benchmark::State& state, bool cache_enabled) {
  Fixture f("gpt3-1.3b", 8, static_cast<int>(state.range(0)), cache_enabled);
  const StageConfig& stage0 = f.config.stage(0);
  const int flag_ops = std::min(stage0.num_ops, 20);
  uint64_t pattern = 0;
  for (auto _ : state) {
    ApplyStagePattern(f.config, flag_ops, ++pattern);
    benchmark::DoNotOptimize(f.model.Evaluate(f.config));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ReEvaluateFreshDeltaCached(benchmark::State& state) {
  ReEvaluateFreshDelta(state, /*cache_enabled=*/true);
}
BENCHMARK(BM_ReEvaluateFreshDeltaCached)->Arg(4)->Arg(8);

void BM_ReEvaluateFreshDeltaUncached(benchmark::State& state) {
  ReEvaluateFreshDelta(state, /*cache_enabled=*/false);
}
BENCHMARK(BM_ReEvaluateFreshDeltaUncached)->Arg(4)->Arg(8);

void BM_EvaluateWideResnet(benchmark::State& state) {
  Fixture f("wresnet-0.5b", 8, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.model.Evaluate(f.config));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EvaluateWideResnet);

void BM_EvaluateDeepTransformer(benchmark::State& state) {
  Fixture f("deepnet-" + std::to_string(state.range(0)), 8, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.model.Evaluate(f.config));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EvaluateDeepTransformer)->Arg(64)->Arg(256)->Arg(1000);

// Uncached stage walks on deep repeated-layer models, with the op memo and
// run compression on (default) vs forced off (the pre-memoization walk).
// The ratio between these two is the tentpole speedup on deep models.
void EvaluateDeepUncached(benchmark::State& state, bool fast_walk) {
  Fixture f("deepnet-" + std::to_string(state.range(0)), 8, 8,
            /*cache_enabled=*/false);
  f.model.set_op_memo_enabled(fast_walk);
  f.model.set_run_compression_enabled(fast_walk);
  f.model.Evaluate(f.config);  // re-warm under the selected walk mode
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.model.Evaluate(f.config));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_EvaluateDeepTransformerUncached(benchmark::State& state) {
  EvaluateDeepUncached(state, /*fast_walk=*/true);
}
BENCHMARK(BM_EvaluateDeepTransformerUncached)->Arg(256)->Arg(1000);

void BM_EvaluateDeepTransformerUncachedDirectWalk(benchmark::State& state) {
  EvaluateDeepUncached(state, /*fast_walk=*/false);
}
BENCHMARK(BM_EvaluateDeepTransformerUncachedDirectWalk)->Arg(256)->Arg(1000);

// Warm profile-database lookups with nothing in front of them: one OpTime
// and one CollectiveTime at a non-power-of-two size (two bucket reads and an
// interpolation) per iteration, cycling 64 op keys and 16 sizes that are all
// measured before timing starts. All threads share one database, so the
// 4-thread run shows shard-lock contention on a fully warm table.
constexpr int kWarmOpKeys = 64;
constexpr int kWarmCommSizes = 16;

struct WarmLookupTable {
  WarmLookupTable()
      : graph(*models::BuildByName("gpt3-1.3b")),
        db(ClusterSpec::WithGpuCount(8)) {
    for (int i = 0; i < kWarmOpKeys; ++i) {
      Lookup(i);
    }
  }
  double Lookup(int i) {
    const int op = i % graph.num_ops();
    const OpMeasurement m = db.OpTime(
        graph.op(op), graph.op_signatures()[static_cast<size_t>(op)],
        graph.precision(), 1 << (i % 4), 1 + i % 2);
    const int64_t bytes = (int64_t{3} << (16 + i % kWarmCommSizes)) / 2;
    return m.fwd_seconds +
           db.CollectiveTime(CollectiveKind::kAllReduce, bytes,
                             CommDomain{4, false});
  }

  OpGraph graph;
  ProfileDatabase db;
};

void BM_ProfileLookupWarm(benchmark::State& state) {
  static WarmLookupTable table;  // built and warmed once, by the first thread
  int i = state.thread_index();
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Lookup(i));
    i = (i + 1) % kWarmOpKeys;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfileLookupWarm)->Threads(1)->Threads(4)->UseRealTime();

void BM_SemanticHash(benchmark::State& state) {
  Fixture f("gpt3-1.3b", 8, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.config.SemanticHash(f.graph));
  }
}
BENCHMARK(BM_SemanticHash);

void BM_StageSemanticHash(benchmark::State& state) {
  Fixture f("gpt3-1.3b", 8, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.config.StageSemanticHash(f.graph, f.cluster, 2));
  }
}
BENCHMARK(BM_StageSemanticHash);

void BM_Validate(benchmark::State& state) {
  Fixture f("gpt3-1.3b", 8, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.config.Validate(f.graph, f.cluster));
  }
}
BENCHMARK(BM_Validate);

// Saved-plan text codec (DESIGN.md §19) on a plan the size a deep search
// saves: deepnet-256 on 16 GPUs in 4 stages with recompute on alternate
// blocks of four ops, 1,027 op runs and 14.9 kB of text in all.
struct CodecFixture {
  CodecFixture()
      : graph(*models::BuildByName("deepnet-256")),
        config(*MakeEvenConfig(graph, ClusterSpec::WithGpuCount(16), 4, 2)) {
    for (int i = 0; i < graph.num_ops(); ++i) {
      config.MutableOpSettings(i).recompute = (i / 4) % 2 == 1;
    }
    text = SerializeConfig(config, graph.name());
  }

  OpGraph graph;
  ParallelConfig config;
  std::string text;
};

void BM_ParseConfig(benchmark::State& state) {
  CodecFixture f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParseConfig(f.text, f.graph));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(f.text.size()));
}
BENCHMARK(BM_ParseConfig);

void BM_SerializeConfig(benchmark::State& state) {
  CodecFixture f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SerializeConfig(f.config, f.graph.name()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(f.text.size()));
}
BENCHMARK(BM_SerializeConfig);

// The plan-cache key the daemon derives for every request (DESIGN.md §14).
// The graph computes its semantic fingerprint once, so a key costs the same
// on a 195-op and a 2,051-op model; a return to re-hashing every operator
// per request is 10-100x slower here.
void BM_PlanCacheKey(benchmark::State& state, const char* model_name) {
  const OpGraph graph = *models::BuildByName(model_name);
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(16);
  serve::PlanRequest request;
  request.model = model_name;
  const SearchOptions options = serve::ToSearchOptions(request);
  benchmark::DoNotOptimize(serve::PlanCacheKey(graph, cluster, options));
  for (auto _ : state) {
    benchmark::DoNotOptimize(serve::PlanCacheKey(graph, cluster, options));
  }
}
BENCHMARK_CAPTURE(BM_PlanCacheKey, gpt3_0_35b, "gpt3-0.35b");
BENCHMARK_CAPTURE(BM_PlanCacheKey, deepnet_256, "deepnet-256");

}  // namespace
}  // namespace aceso

BENCHMARK_MAIN();
