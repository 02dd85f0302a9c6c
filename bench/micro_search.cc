// Micro-benchmark: search building blocks — candidate generation per
// primitive, one full search iteration, fine-tuning, and the per-candidate
// construction+hash path (copy-on-write vs the pre-CoW deep-copy baseline).

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/aceso.h"

namespace {
// Running total of heap bytes requested through operator new, so the
// candidate-construction benches can report bytes allocated per candidate.
std::atomic<int64_t> g_heap_bytes{0};
}  // namespace

// GCC pairs the malloc it inlines from this operator new with the frees in
// the matching operator delete and warns about the mismatch; the pairing is
// intentional (count, then defer to malloc/free).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_heap_bytes.fetch_add(static_cast<int64_t>(size),
                         std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace aceso {
namespace {

struct Fixture {
  Fixture()
      : graph(models::Gpt3(1.3)),
        cluster(ClusterSpec::WithGpuCount(8)),
        db(cluster),
        model(&graph, cluster, &db),
        config(*MakeEvenConfig(graph, cluster, 4, 4)),
        perf(model.Evaluate(config)) {}
  OpGraph graph;
  ClusterSpec cluster;
  ProfileDatabase db;
  PerformanceModel model;
  ParallelConfig config;
  PerfResult perf;
};

void BM_GenerateCandidates(benchmark::State& state) {
  Fixture f;
  const auto kind = static_cast<PrimitiveKind>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GeneratePrimitiveCandidates(f.model, f.config, f.perf, kind, 1));
  }
  state.SetLabel(PrimitiveName(kind));
}
BENCHMARK(BM_GenerateCandidates)->DenseRange(0, kNumPrimitives - 1);

void BM_OrderedBottlenecks(benchmark::State& state) {
  Fixture f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(OrderedBottlenecks(f.perf));
  }
}
BENCHMARK(BM_OrderedBottlenecks);

void BM_FineTunePass(benchmark::State& state) {
  Fixture f;
  for (auto _ : state) {
    ParallelConfig config = f.config;
    const TimeBudget budget(60.0);
    benchmark::DoNotOptimize(FineTune(f.model, config, f.perf, budget));
  }
}
BENCHMARK(BM_FineTunePass);

void BM_SearchIterationBudget100ms(benchmark::State& state) {
  // End-to-end anytime search slices: how much improvement per 100 ms.
  // This is the telemetry-disabled pin: SearchOptions::telemetry stays
  // null, so any regression here against the pre-telemetry baseline means
  // the disabled path is no longer a branch-on-null no-op.
  Fixture f;
  for (auto _ : state) {
    SearchOptions options;
    options.time_budget_seconds = 0.1;
    benchmark::DoNotOptimize(AcesoSearchForStages(f.model, options, 4));
  }
}
BENCHMARK(BM_SearchIterationBudget100ms)->Unit(benchmark::kMillisecond);

void BM_SearchIterationBudget100msTelemetry(benchmark::State& state) {
  // Same slice with a live sink: the full per-iteration event + counter
  // cost. Compare against BM_SearchIterationBudget100ms for the
  // enabled-telemetry overhead.
  Fixture f;
  for (auto _ : state) {
    TelemetryOptions topts;
    topts.ring_capacity = 8192;
    TelemetrySink sink(topts);
    SearchOptions options;
    options.time_budget_seconds = 0.1;
    options.telemetry = &sink;
    benchmark::DoNotOptimize(AcesoSearchForStages(f.model, options, 4));
  }
}
BENCHMARK(BM_SearchIterationBudget100msTelemetry)
    ->Unit(benchmark::kMillisecond);

// ----- Per-candidate construction + hash (CoW vs deep copy) -----
//
// The ISSUE-2 hot path: the search constructs a candidate by copying the
// base configuration, mutating one stage through MutableStage(), and
// re-hashing for deduplication. With copy-on-write stage blocks the copy
// shares all stages, the mutation clones exactly one, and the incremental
// hash recombines cached prefix state; the deep-copy baseline reproduces
// the pre-CoW representation (every stage copied, every op re-walked).

// 8-stage fixture on the big model: the scale the acceptance criterion is
// stated at (gpt3-2.6b, 16 GPUs, 8 stages).
struct BigFixture {
  BigFixture()
      : graph(models::Gpt3(2.6)),
        cluster(ClusterSpec::WithGpuCount(16)),
        db(cluster),
        model(&graph, cluster, &db),
        config(*MakeEvenConfig(graph, cluster, 8, 4)) {}
  OpGraph graph;
  ClusterSpec cluster;
  ProfileDatabase db;
  PerformanceModel model;
  ParallelConfig config;
};

// One Table-1-style candidate: copy, flip one op's recompute flag in one
// (rotating) stage, re-hash for dedup.
template <bool kDeepCopy>
uint64_t MakeCandidate(const ParallelConfig& base, const OpGraph& graph,
                       int round) {
  ParallelConfig next = kDeepCopy ? base.DeepCopy() : base;
  const int s = round % next.num_stages();
  StageConfig& stage = next.MutableStage(s);
  OpParallel& setting =
      stage.ops[static_cast<size_t>(round) % stage.ops.size()];
  setting.recompute = !setting.recompute;
  // The deep-copy baseline also pays the pre-CoW from-scratch hash; the CoW
  // path recombines the base config's cached prefix.
  return kDeepCopy ? next.SemanticHashUncached(graph)
                   : next.SemanticHash(graph);
}

// Arg: the stage to mutate, or -1 to rotate through all stages (the
// average case; the incremental hash refolds from the mutated stage on, so
// late stages are the best case and stage 0 the worst).
template <bool kDeepCopy>
void CandidateConstructionBench(benchmark::State& state) {
  BigFixture f;
  f.config.SemanticHash(f.graph);  // base config arrives with warm caches
  const int fixed_stage = static_cast<int>(state.range(0));
  const int stride = fixed_stage < 0 ? 1 : f.config.num_stages();
  int round = fixed_stage < 0 ? 0 : fixed_stage;
  const int64_t bytes_before = g_heap_bytes.load(std::memory_order_relaxed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MakeCandidate<kDeepCopy>(f.config, f.graph, round));
    round += stride;
  }
  const int64_t bytes =
      g_heap_bytes.load(std::memory_order_relaxed) - bytes_before;
  state.counters["bytes_per_candidate"] = benchmark::Counter(
      static_cast<double>(bytes) /
      static_cast<double>(std::max<int64_t>(1, state.iterations())));
  state.counters["candidates_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.SetLabel(fixed_stage < 0 ? "rotating-stage"
                                 : "stage " + std::to_string(fixed_stage));
}

void BM_CandidateConstructCow(benchmark::State& state) {
  CandidateConstructionBench<false>(state);
}
BENCHMARK(BM_CandidateConstructCow)->Arg(-1)->Arg(0)->Arg(4)->Arg(7);

void BM_CandidateConstructDeepCopy(benchmark::State& state) {
  CandidateConstructionBench<true>(state);
}
BENCHMARK(BM_CandidateConstructDeepCopy)->Arg(-1)->Arg(7);

// Copy alone (no mutation, no hash): what sharing stage blocks saves.
void BM_ConfigCopyCow(benchmark::State& state) {
  BigFixture f;
  for (auto _ : state) {
    ParallelConfig copy = f.config;
    benchmark::DoNotOptimize(copy.num_stages());
  }
}
BENCHMARK(BM_ConfigCopyCow);

void BM_ConfigCopyDeep(benchmark::State& state) {
  BigFixture f;
  for (auto _ : state) {
    ParallelConfig copy = f.config.DeepCopy();
    benchmark::DoNotOptimize(copy.num_stages());
  }
}
BENCHMARK(BM_ConfigCopyDeep);

// Re-hash after a single-stage mutation: incremental prefix recombination
// vs the from-scratch reference walk.
template <bool kUncached>
void RehashBench(benchmark::State& state) {
  BigFixture f;
  ParallelConfig config = f.config;
  config.SemanticHash(f.graph);
  int round = 0;
  for (auto _ : state) {
    const int s = round % config.num_stages();
    StageConfig& stage = config.MutableStage(s);
    OpParallel& setting =
        stage.ops[static_cast<size_t>(round) % stage.ops.size()];
    setting.recompute = !setting.recompute;
    ++round;
    benchmark::DoNotOptimize(kUncached ? config.SemanticHashUncached(f.graph)
                                       : config.SemanticHash(f.graph));
  }
}

void BM_RehashAfterMutationIncremental(benchmark::State& state) {
  RehashBench<false>(state);
}
BENCHMARK(BM_RehashAfterMutationIncremental);

void BM_RehashAfterMutationUncached(benchmark::State& state) {
  RehashBench<true>(state);
}
BENCHMARK(BM_RehashAfterMutationUncached);

// ----- Sibling-group evaluation -----
//
// The search scores a group of sibling candidates that all differ from
// their base in one stage, one Evaluate() each. With the stage cache
// disabled every stage is priced per candidate (L*S stage walks for L
// siblings over S stages); with it enabled the unmutated stages are cache
// hits, which is the search's steady state.

// Arg: sibling-group size. Each sibling mutates stage 0 differently
// (distinct recompute prefixes), so stages 1..S-1 are identical across the
// group. Runs on the 8-stage BigFixture.
template <bool kCacheEnabled>
void GroupEvalBench(benchmark::State& state) {
  BigFixture f;
  f.model.set_stage_cache_enabled(kCacheEnabled);
  const int group = static_cast<int>(state.range(0));
  std::vector<ParallelConfig> siblings;
  for (int i = 0; i < group; ++i) {
    ParallelConfig sibling = f.config;
    StageConfig& mutated = sibling.MutableStage(0);
    for (int j = 0; j <= i % mutated.num_ops; ++j) {
      OpParallel& setting = mutated.ops[static_cast<size_t>(j)];
      setting.recompute = !setting.recompute;
    }
    siblings.push_back(std::move(sibling));
  }
  for (auto _ : state) {
    for (const ParallelConfig& sibling : siblings) {
      benchmark::DoNotOptimize(f.model.Evaluate(sibling));
    }
  }
  state.counters["candidates_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * group,
      benchmark::Counter::kIsRate);
}

void BM_ScalarGroupEval(benchmark::State& state) {
  GroupEvalBench<true>(state);
}
BENCHMARK(BM_ScalarGroupEval)->Arg(4)->Arg(8);

void BM_ScalarGroupEvalNoCache(benchmark::State& state) {
  GroupEvalBench<false>(state);
}
BENCHMARK(BM_ScalarGroupEvalNoCache)->Arg(4)->Arg(8);

}  // namespace
}  // namespace aceso

BENCHMARK_MAIN();
