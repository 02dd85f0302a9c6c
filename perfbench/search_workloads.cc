// search-deep and search-wide: fixed-max_evaluations searches, each on a
// fresh ProfileDatabase + PerformanceModel (a one-shot aceso_search user
// pays cold profiling on every run).
//
// Untraced run: one untimed warm-up search (search.first_s), then timed
// searches until --seconds is spent, each followed by a burst of "hits" that
// answer the found plan again without searching — the saved config is
// parsed, validated and evaluated on the warm model, as aceso_plan does for
// a stored plan.
//
// Traced run: alternating untraced/traced searches (a TelemetrySink attached
// for counts) give the tracing overhead; a layer replay in this file then
// walks the same model and cluster through the public layer functions in
// Algorithm-1 order, recording spans around each call.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "perfbench/bench_common.h"
#include "src/aceso.h"

namespace perfbench {
namespace {

using aceso::ClusterSpec;
using aceso::OpGraph;
using aceso::ParallelConfig;
using aceso::PerfResult;
using aceso::PerformanceModel;
using aceso::ProfileDatabase;
using aceso::SearchOptions;
using aceso::SearchResult;

constexpr uint64_t kDefaultSeed = 20240422;

struct SearchSpec {
  const char* model;
  int gpus;
  int stages;   // > 0: one AcesoSearchForStages; 0: full AcesoSearch
  int threads;  // SearchOptions::num_threads
  int64_t max_evaluations;
  // Best semantic hash and the bits of its iteration time at kDefaultSeed:
  // any change to the search trajectory shows up as a mismatch here.
  uint64_t pinned_hash;
  uint64_t pinned_iter_bits;
};

// search-deep: generation-bound (one stage count, one thread, no pool).
// search-wide: evaluation/profiling/pool-bound (8 stage counts, 4 threads).
const SearchSpec kDeep{"deepnet-256", 16, 4, 1, 5000,
                       0xa3b2cb1b426fd018ULL, 0x401c181b4b6623a8ULL};
const SearchSpec kWide{"wresnet-2b", 8, 0, 4, 3000,
                       0x0a476b1b9a130d4aULL, 0x40446469c88d9c72ULL};

struct Instance {
  OpGraph graph;
  ClusterSpec cluster;
  std::unique_ptr<ProfileDatabase> db;
  std::unique_ptr<PerformanceModel> model;
};

// Time spent in one Setup: wall and process CPU seconds of the whole
// construction, and the wall time of the IR build alone.
struct SetupCost {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double build_s = 0.0;
};

// Builds model, cluster, database and performance model. The database draws
// its simulated measurement jitter from `profile_seed`.
std::unique_ptr<Instance> Setup(const SearchSpec& spec, SetupCost* cost,
                                uint64_t profile_seed = kDefaultSeed) {
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = NowSeconds();
  auto graph = aceso::models::BuildByName(spec.model);
  const double t1 = NowSeconds();
  if (!graph.ok()) return nullptr;
  auto inst = std::make_unique<Instance>(
      Instance{std::move(*graph), ClusterSpec::WithGpuCount(spec.gpus), nullptr,
               nullptr});
  inst->db = std::make_unique<ProfileDatabase>(inst->cluster, profile_seed);
  inst->model = std::make_unique<PerformanceModel>(&inst->graph, inst->cluster,
                                                   inst->db.get());
  cost->wall_s = NowSeconds() - t0;
  cost->cpu_s = ProcessCpuSeconds() - cpu0;
  cost->build_s = t1 - t0;
  return inst;
}

SearchOptions OptionsFor(const SearchSpec& spec, uint64_t seed) {
  SearchOptions options;
  options.time_budget_seconds = 1e9;  // the evaluation budget decides
  options.max_evaluations = spec.max_evaluations;
  options.seed = seed;
  options.num_threads = spec.threads;
  return options;
}

SearchResult Search(const SearchSpec& spec, const PerformanceModel& model,
                    const SearchOptions& options) {
  return spec.stages > 0
             ? aceso::AcesoSearchForStages(model, options, spec.stages)
             : aceso::AcesoSearch(model, options);
}

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Checks one search's answer: found, valid, feasible, equal to the pin at
// the default seed and, given a `reference` (the run's first answer),
// bit-equal to it.
void CheckSearch(const SearchSpec& spec, const Instance& inst,
                 const SearchResult& r, uint64_t seed,
                 const SearchResult* reference, Result* result) {
  result->Check(r.found, "search found no plan");
  if (!r.found) return;
  const aceso::Status valid = r.best.config.Validate(inst.graph, inst.cluster);
  result->Check(valid.ok(), "best config invalid: " + valid.ToString());
  result->Check(!r.best.perf.oom, "best config is not memory-feasible");
  const uint64_t hash = r.best.config.SemanticHash(inst.graph);
  if (reference != nullptr) {
    result->Check(hash == reference->best.config.SemanticHash(inst.graph) &&
                      DoubleBits(r.best.perf.iteration_time) ==
                          DoubleBits(reference->best.perf.iteration_time),
                  "best plan differs between searches of one run: " +
                      Hex(hash));
  }
  if (seed == kDefaultSeed) {
    result->Check(hash == spec.pinned_hash &&
                      DoubleBits(r.best.perf.iteration_time) ==
                          spec.pinned_iter_bits,
                  "best plan differs from the pinned plan: " + Hex(hash));
  }
}

// ---- layer replay (traced run) ----

// Walks one stage count through Algorithm 1 with spans around every public
// layer call: Evaluate -> OrderedBottlenecks -> GeneratePrimitiveCandidates
// per eligible primitive -> Validate + SemanticHash per candidate ->
// Evaluate per unique candidate -> FineTune on improvement; without an
// improvement it hops to the best neighbour, up to MaxHops (7). Probes that
// time FixRecompute, StageSemanticHash (cold) and ComputeStageCost run outside
// the replay's root span so they do not distort its shares.
void ReplayStageCount(const PerformanceModel& model, int stages,
                      int64_t max_evals, SpanRecorder* rec,
                      int64_t* candidates_generated) {
  const OpGraph& graph = model.graph();
  const ClusterSpec& cluster = model.cluster();
  auto even = aceso::MakeEvenConfig(graph, cluster, stages, 1);
  if (!even.ok()) return;
  ParallelConfig config = std::move(*even);
  std::vector<ParallelConfig> probe_configs;
  {
    rec->NewTrace();
    ScopedSpan root(rec, "search.replay");
    PerfResult perf;
    {
      ScopedSpan s(rec, "cost.evaluate");
      perf = model.Evaluate(config);
    }
    int64_t evals = 1;
    std::unordered_set<uint64_t> visited{config.SemanticHash(graph)};
    PerfResult global_best = perf;
    int hops = 0;  // Algorithm 2: move through non-improving configs
    while (evals < max_evals) {
      ScopedSpan iteration(rec, "search.iteration");
      std::vector<aceso::Bottleneck> bottlenecks;
      {
        ScopedSpan s(rec, "core.bottleneck");
        bottlenecks = aceso::OrderedBottlenecks(perf);
      }
      std::unique_ptr<ParallelConfig> best;
      PerfResult best_perf;
      const size_t max_bn = std::min<size_t>(bottlenecks.size(), 4);
      for (size_t b = 0; b < max_bn && evals < max_evals; ++b) {
        for (aceso::Resource resource : bottlenecks[b].resources) {
          for (aceso::PrimitiveKind kind :
               aceso::PrimitivesDecreasing(resource)) {
            std::vector<aceso::Candidate> candidates;
            {
              ScopedSpan s(rec, "apply.generate");
              candidates = aceso::GeneratePrimitiveCandidates(
                  model, config, perf, kind, bottlenecks[b].stage);
            }
            *candidates_generated += static_cast<int64_t>(candidates.size());
            for (aceso::Candidate& c : candidates) {
              {
                ScopedSpan s(rec, "config.validate");
                if (!c.config.Validate(graph, cluster).ok()) {
                  continue;
                }
              }
              bool fresh = false;
              {
                ScopedSpan s(rec, "config.hash");
                fresh = visited.insert(c.config.SemanticHash(graph)).second;
              }
              if (!fresh) continue;
              PerfResult p;
              {
                ScopedSpan s(rec, "cost.evaluate");
                p = model.Evaluate(c.config);
              }
              ++evals;
              if (probe_configs.size() < 64) {
                probe_configs.push_back(c.config);
              }
              if (best == nullptr || p.BetterThan(best_perf)) {
                best = std::make_unique<ParallelConfig>(c.config);
                best_perf = p;
              }
            }
          }
        }
        // The primary bottleneck's candidates improved on the best so far:
        // secondary bottlenecks are not tried (§3.2.3).
        if (best != nullptr && best_perf.BetterThan(global_best)) break;
      }
      if (best == nullptr) break;  // every neighbour already visited
      config = std::move(*best);
      perf = best_perf;
      if (perf.BetterThan(global_best)) {
        hops = 0;
        ScopedSpan s(rec, "core.finetune");
        int64_t trials = 0;
        perf = aceso::FineTune(model, config, perf, aceso::TimeBudget(0), {},
                               &trials);
        evals += trials;
        global_best = perf;
      } else if (++hops > 7) {
        break;  // MaxHops without improvement
      }
    }
  }
  // Probes (own trace, outside the replay root).
  rec->NewTrace();
  ScopedSpan probe_root(rec, "probe");
  for (const ParallelConfig& c : probe_configs) {
    for (int s = 0; s < c.num_stages(); ++s) {
      const ParallelConfig cold = c.DeepCopy();  // cold hash caches
      {
        ScopedSpan span(rec, "probe.stage_hash");
        (void)cold.StageSemanticHash(graph, cluster, s);
      }
      {
        ScopedSpan span(rec, "probe.stage_walk");
        (void)model.ComputeStageCost(c, s);
      }
      ParallelConfig copy = c;
      {
        ScopedSpan span(rec, "probe.fix_recompute");
        aceso::FixRecompute(model, copy, s);
      }
    }
  }
}

void RunTraced(const Args& args, const SearchSpec& spec, Result* result) {
  SetupCost cost;
  std::vector<double> builds;
  auto inst = Setup(spec, &cost);
  builds.push_back(cost.build_s);
  SearchOptions options = OptionsFor(spec, args.seed);
  double t0 = NowSeconds();
  SearchResult first = Search(spec, *inst->model, options);
  const double first_s = NowSeconds() - t0;
  CheckSearch(spec, *inst, first, args.seed, nullptr, result);

  // Alternate untraced / traced searches (the overhead compares their CPU
  // time); the first traced search's sink supplies the counts.
  std::vector<double> untraced, traced;
  std::unique_ptr<aceso::TelemetrySink> sink;
  double sink_wall = 0;
  int64_t explored = 0, evaluations = 0;
  const double phase_start = NowSeconds();
  for (int pair = 0; pair < 8; ++pair) {
    if (pair >= 2 && NowSeconds() - phase_start > args.seconds / 2) break;
    for (int traced_side = 0; traced_side < 2; ++traced_side) {
      inst = Setup(spec, &cost);
      builds.push_back(cost.build_s);
      auto this_sink = std::make_unique<aceso::TelemetrySink>();
      SearchOptions o = options;
      if (traced_side == 1) o.telemetry = this_sink.get();
      const double cpu0 = ProcessCpuSeconds();
      t0 = NowSeconds();
      SearchResult r = Search(spec, *inst->model, o);
      const double wall = NowSeconds() - t0;
      CheckSearch(spec, *inst, r, args.seed, &first, result);
      (traced_side == 1 ? traced : untraced)
          .push_back(ProcessCpuSeconds() - cpu0);
      if (traced_side == 1 && sink == nullptr) {
        sink = std::move(this_sink);
        sink_wall = wall;
        explored = r.stats.configs_explored;
        evaluations = inst->model->NumEvaluations();
      }
    }
  }

  auto c = [&](const char* name) {
    return static_cast<double>(sink->counter(name));
  };
  const double generated = c("search.candidates_generated");
  result->Set("search.iterations", c("search.iterations"), "count");
  result->Set("search.dedup_ratio", Ratio(c("search.candidates_deduped"),
                                          generated), "ratio");
  result->Set("search.eval_ratio", Ratio(c("search.candidates_evaluated"),
                                         generated), "ratio");
  result->Set("search.accept_ratio",
              Ratio(c("search.accepts"), c("search.iterations")), "ratio");
  result->Set("finetune.trials", c("search.finetune_trials"), "count");
  result->Set("cost.scratch_eval_ratio",
              1.0 - Ratio(static_cast<double>(explored),
                          static_cast<double>(evaluations)),
              "ratio");
  const double sc_hits = c("cost.stage_cache_hits");
  result->Set("cost.stage_cache_hit_ratio",
              Ratio(sc_hits, sc_hits + c("cost.stage_cache_misses")), "ratio");
  const double memo_hits = c("cost.op_memo_hits");
  result->Set("cost.op_memo_hit_ratio",
              Ratio(memo_hits, memo_hits + c("cost.op_memo_misses")), "ratio");
  const double lookups = c("profile_db.lookups");
  result->Set("profile.lookups", lookups, "count");
  result->Set("profile.measurements", c("profile_db.misses"), "count");
  result->Set("profile.hit_ratio",
              1.0 - Ratio(c("profile_db.misses"), lookups), "ratio");
  result->Set("profile.lock_contended", c("profile_db.lock_contended"),
              "count");
  result->Set("pool.tasks", c("search.pool_tasks"), "count");
  result->Set("pool.steals", c("search.pool_steals"), "count");
  const auto timers = sink->Timers();
  const auto worker = timers.find("search.worker_seconds");
  const double worker_s =
      worker != timers.end() ? worker->second.total_seconds : 0.0;
  result->Set("search.worker_busy_ratio",
              Ratio(worker_s, spec.threads * sink_wall), "ratio");
  result->Set("search.first_s", first_s, "s");
  result->Set("trace.search_overhead",
              Ratio(Median(traced), Median(untraced)), "ratio",
              static_cast<int64_t>(traced.size()));

  inst = Setup(spec, &cost);
  builds.push_back(cost.build_s);
  result->Set("ir.build_ms", 1e3 * Median(builds), "ms",
              static_cast<int64_t>(builds.size()));

  const std::string stem =
      args.out_dir + "/" + args.workload + "-" + std::to_string(args.seed);
  LayerReplay(inst->graph, inst->cluster, spec.stages, spec.max_evaluations,
              stem + "-replay.trace.json", result);

  // The serving layers on this workload's own request: protocol costs on
  // its plan, and an in-process service and daemon answering it.
  const std::string body =
      std::string("{\"model\":\"") + spec.model + "\",\"gpus\":" +
      std::to_string(spec.gpus) + ",\"budget_seconds\":1000000" +
      ",\"max_evaluations\":" + std::to_string(spec.max_evaluations) +
      (spec.stages > 0 ? ",\"stages\":" + std::to_string(spec.stages) : "") +
      ",\"seed\":" + std::to_string(args.seed) + "}";
  ProtocolProbes(body, inst->graph, inst->cluster, first, result);
  ServiceProbe(body, args.out_dir + "/" + args.workload + "-snapshots",
               result);
  result->Check(aceso::WriteChromeTrace(
                    aceso::BuildSearchTrace(sink->Events()),
                    stem + "-search.trace.json")
                    .ok(),
                "cannot write the search trace");
  result->context["search_trace"] = stem + "-search.trace.json";
}

void RunTimed(const Args& args, const SearchSpec& spec, Result* result) {
  std::vector<double> setups, setup_cpu, searches;
  SetupCost cost;
  auto inst = Setup(spec, &cost);
  const SearchOptions options = OptionsFor(spec, args.seed);
  double t0 = NowSeconds();
  SearchResult first = Search(spec, *inst->model, options);
  const double first_s = NowSeconds() - t0;
  const uint64_t first_hash =
      first.found ? first.best.config.SemanticHash(inst->graph) : 0;
  const double first_iter = first.best.perf.iteration_time;
  CheckSearch(spec, *inst, first, args.seed, nullptr, result);
  result->context["best_hash"] = Hex(first_hash);
  result->context["best_iter_bits"] = Hex(DoubleBits(first_iter));

  // Timed cycles until --seconds is spent: set up a fresh database and model
  // (kSetupReps times; the last instance is kept), search, then answer the
  // found plan again from its saved form on the now-warm model, without
  // searching, for a tenth of the search's time. Spreading the hit samples
  // over the whole run keeps their tail from hinging on one noisy second.
  constexpr int kSetupReps = 5;
  const std::string saved =
      aceso::SerializeConfig(first.best.config, spec.model);
  std::vector<double> search_cpu, hits, hit_cpu;
  const double phase_start = NowSeconds();
  while (searches.size() < 3 ||
         NowSeconds() - phase_start < args.seconds) {
    for (int rep = 0; rep < kSetupReps; ++rep) {
      inst = Setup(spec, &cost);
      setups.push_back(cost.wall_s);
      setup_cpu.push_back(cost.cpu_s);
    }
    const double cpu0 = ProcessCpuSeconds();
    t0 = NowSeconds();
    SearchResult r = Search(spec, *inst->model, options);
    const double search_s = NowSeconds() - t0;
    search_cpu.push_back(ProcessCpuSeconds() - cpu0);
    searches.push_back(search_s);
    CheckSearch(spec, *inst, r, args.seed, &first, result);
    const double hit_end = NowSeconds() + 0.1 * search_s;
    const double burst_cpu0 = ProcessCpuSeconds();
    int burst = 0;
    for (; burst < 100 || NowSeconds() < hit_end; ++burst) {
      t0 = NowSeconds();
      auto parsed = aceso::ParseConfig(saved, inst->graph);
      bool ok = parsed.ok() &&
                parsed->Validate(inst->graph, inst->cluster).ok();
      double iter = 0;
      if (ok) iter = inst->model->Evaluate(*parsed).iteration_time;
      hits.push_back(NowSeconds() - t0);
      ok = ok && parsed->SemanticHash(inst->graph) == first_hash &&
           DoubleBits(iter) == DoubleBits(first_iter);
      result->Check(ok, "saved plan does not round-trip");
    }
    hit_cpu.push_back((ProcessCpuSeconds() - burst_cpu0) / burst);
  }

  // Plan quality: one more search, untimed, on a database whose simulated
  // measurement jitter comes from the run's seed, so each seed plans for a
  // slightly different machine. The timed searches keep the default seed
  // because the plan decides the hit's cost: re-answering seed 5's plan took
  // 46-49 us of CPU on search-wide, seed 4's 66-72 us.
  auto machine = Setup(spec, &cost, args.seed);
  const SearchResult planned = Search(spec, *machine->model, options);
  CheckSearch(spec, *machine, planned, args.seed, nullptr, result);

  std::vector<double> search_ms;
  for (double s : searches) search_ms.push_back(1e3 * s);
  std::vector<double> hit_ms;
  for (double s : hits) hit_ms.push_back(1e3 * s);
  const auto n = [](const std::vector<double>& v) {
    return static_cast<int64_t>(v.size());
  };
  // Gated (BENCHMARK.json): CPU-time costs, plan quality, memory.
  result->Set("search_cpu_s", Median(search_cpu), "s", n(search_cpu));
  result->Set("hit_cpu_us", 1e6 * Median(hit_cpu), "us", n(hits));
  result->Set("setup_s", Median(setup_cpu), "s", n(setup_cpu));
  result->Set("plan_iter_s", planned.best.perf.iteration_time, "s");
  // Reported, not gated: wall-clock times.
  result->Set("search_s", Median(searches), "s", n(searches));
  result->Set("miss_p50_ms", Median(search_ms), "ms", n(search_ms));
  result->Set("miss_p90_ms", Quantile(search_ms, 0.9), "ms", n(search_ms));
  result->Set("hit_p50_ms", Median(hit_ms), "ms", n(hit_ms));
  result->Set("hit_p99_ms", Quantile(hit_ms, 0.99), "ms", n(hit_ms));
  double searching_s = 0;
  for (double v : searches) searching_s += v;
  result->Set("serve_rps", static_cast<double>(searches.size()) / searching_s,
              "req/s", n(searches));
  result->Set("setup_wall_s", Median(setups), "s", n(setups));
  result->context["search.first_s"] = std::to_string(first_s);
  result->context["samples.search"] = std::to_string(searches.size());
  result->context["samples.hit"] = std::to_string(hits.size());
}

}  // namespace

void LayerReplay(const aceso::OpGraph& graph,
                 const aceso::ClusterSpec& cluster, int stages,
                 int64_t max_evals, const std::string& trace_path,
                 Result* result) {
  ProfileDatabase db(cluster);
  PerformanceModel model(&graph, cluster, &db);
  SpanRecorder rec;
  int64_t candidates = 0;
  if (stages > 0) {
    ReplayStageCount(model, stages, max_evals, &rec, &candidates);
  } else {
    const int max_stages = std::min({cluster.num_gpus(), graph.num_ops(), 12});
    for (int p = 1; p <= max_stages; ++p) {
      ReplayStageCount(model, p, max_evals, &rec, &candidates);
    }
  }
  const auto totals = rec.Summarize();
  auto total = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? SpanRecorder::Totals{} : it->second;
  };
  auto mean_us = [&](const char* name) {
    const auto t = total(name);
    return t.count > 0 ? 1e6 * t.total / static_cast<double>(t.count) : 0.0;
  };
  const double replay_s = total("search.replay").total;
  result->Set("search.gen_share",
              Ratio(total("apply.generate").self +
                        total("config.validate").self,
                    replay_s),
              "ratio");
  result->Set("search.hash_share", Ratio(total("config.hash").self, replay_s),
              "ratio");
  result->Set("search.eval_share",
              Ratio(total("cost.evaluate").self, replay_s), "ratio");
  result->Set("search.finetune_share",
              Ratio(total("core.finetune").self, replay_s), "ratio");
  result->Set("config.validate_us", mean_us("config.validate"), "us",
              total("config.validate").count);
  result->Set("config.hash_us", mean_us("config.hash"), "us",
              total("config.hash").count);
  result->Set("config.stage_hash_us", mean_us("probe.stage_hash"), "us",
              total("probe.stage_hash").count);
  result->Set("apply.generate_us", mean_us("apply.generate"), "us",
              total("apply.generate").count);
  result->Set("apply.candidates_per_call",
              Ratio(static_cast<double>(candidates),
                    static_cast<double>(total("apply.generate").count)),
              "count");
  result->Set("apply.fix_recompute_us", mean_us("probe.fix_recompute"), "us",
              total("probe.fix_recompute").count);
  result->Set("cost.evaluate_us", mean_us("cost.evaluate"), "us",
              total("cost.evaluate").count);
  result->Set("cost.stage_walk_us", mean_us("probe.stage_walk"), "us",
              total("probe.stage_walk").count);
  result->Set("finetune.ms", 1e-3 * mean_us("core.finetune"), "ms",
              total("core.finetune").count);
  result->Check(WriteSpans({&rec}, {"replay"}, trace_path),
                "cannot write the replay trace");
  result->context["replay_trace"] = trace_path;

}

Result RunSearchWorkload(const Args& args) {
  const SearchSpec& spec = args.workload == "search-deep" ? kDeep : kWide;
  Result result;
  result.context["model"] = spec.model;
  result.context["gpus"] = std::to_string(spec.gpus);
  result.context["stages"] =
      spec.stages > 0 ? std::to_string(spec.stages) : "all";
  result.context["num_threads"] = std::to_string(spec.threads);
  result.context["max_evaluations"] =
      std::to_string(spec.max_evaluations) +
      (spec.stages > 0 ? "" : " per stage count");
  if (args.trace) {
    RunTraced(args, spec, &result);
  } else {
    RunTimed(args, spec, &result);
  }
  return result;
}

}  // namespace perfbench
