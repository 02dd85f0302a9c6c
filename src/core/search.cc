#include "src/core/search.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_set>

#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/stopwatch.h"
#include "src/common/thread_pool.h"
#include "src/core/apply.h"
#include "src/core/bottleneck.h"
#include "src/core/dp_seeder.h"
#include "src/core/finetune.h"
#include "src/core/primitives.h"

namespace aceso {
namespace {

// Sort key for the unexplored pool and top-k list: feasible configs order by
// predicted iteration time; OOM configs sort after all feasible ones, least
// over-memory first. ComparableTime() maps NaN estimates to +inf — a NaN key
// would corrupt the score-ordered multimaps (NaN is incomparable under <,
// which breaks their strict-weak-ordering contract).
double Score(const PerfResult& perf) {
  if (!perf.oom) {
    return perf.ComparableTime();
  }
  return 1e12 + static_cast<double>(perf.MemoryOverage());
}

// Bound on the unexplored pool: keeps the search's memory flat over long
// budgets without affecting the best-first pop order.
constexpr size_t kMaxUnexplored = 1024;

// The per-stage-count search: Algorithm 1 over Algorithm 2.
class SingleSearch {
 public:
  // `budget_seconds` bounds this search's own wall-clock (started inside
  // Run()); `global_watch` timestamps convergence points on the shared
  // experiment clock.
  SingleSearch(const PerformanceModel& model, const SearchOptions& options,
               int num_stages, double budget_seconds,
               const Stopwatch& global_watch, int worker = 0)
      : model_(model),
        options_(options),
        num_stages_(num_stages),
        budget_(budget_seconds),
        global_watch_(global_watch),
        memory_limit_(EffectiveMemoryLimit(options, model.cluster())),
        telemetry_(options.telemetry),
        worker_(worker),
        rng_(options.seed ^ MixU64(static_cast<uint64_t>(num_stages))) {}

  SearchResult Run() {
    SearchResult result;
    const double run_start = global_watch_.ElapsedSeconds();
    if (telemetry_ != nullptr) {
      telemetry_->IncrCounter("search.workers");
      telemetry_->Emit(std::move(TelemetryEvent("search_begin")
                                     .Dbl("t", run_start)
                                     .Int("worker", worker_)
                                     .Int("stages", num_stages_)));
    }
    auto initial = MakeInitial();
    if (!initial.ok()) {
      // This stage count is not constructible.
      EmitSearchEnd(result, run_start, /*converged=*/false);
      return result;
    }
    ScoredConfig current;
    current.config = *std::move(initial);
    current.perf = model_.Evaluate(current.config);
    current.perf.ApplyMemoryLimit(memory_limit_);
    ++stats_.configs_explored;  // the initial configuration counts too
    current.semantic_hash = current.config.SemanticHash(model_.graph());
    visited_.insert(current.semantic_hash);
    RecordTopK(current);
    OfferFrontier(current);

    ScoredConfig best = current;
    result.found = true;
    result.convergence.push_back({global_watch_.ElapsedSeconds(),
                                  best.perf.iteration_time,
                                  stats_.configs_explored, !best.perf.oom});

    bool converged = false;
    while (!Exhausted()) {
      ++stats_.iterations;
      const double iter_start =
          telemetry_ != nullptr ? global_watch_.ElapsedSeconds() : 0.0;
      iter_ = {};
      std::optional<Improvement> improved = IterationSearch(current);
      const bool accepted = improved.has_value();
      int hops = 0;
      int attempt = 0;
      const char* primitive = "";
      int64_t finetune_trials = 0;
      double finetune_delta = 0.0;
      if (accepted) {
        ++stats_.improvements;
        stats_.bottleneck_attempts.push_back(improved->bottleneck_attempt);
        stats_.hops_used.push_back(improved->hops);
        hops = improved->hops;
        attempt = improved->bottleneck_attempt;
        primitive = PrimitiveName(improved->primitive);
        current = std::move(improved->found);
        if (options_.enable_finetune) {
          const double before_finetune = current.perf.iteration_time;
          FineTuneOptions finetune_options;
          if (options_.track_frontier) {
            finetune_options.frontier = &frontier_;
          }
          current.perf = FineTune(model_, current.config, current.perf,
                                  budget_, finetune_options, &finetune_trials);
          stats_.configs_explored += finetune_trials;
          finetune_delta = before_finetune - current.perf.iteration_time;
          // Fine-tuning mutates the config, so its hash must be refreshed.
          current.semantic_hash = current.config.SemanticHash(model_.graph());
          visited_.insert(current.semantic_hash);
          RecordTopK(current);
          OfferFrontier(current);
        }
        if (current.perf.BetterThan(best.perf)) {
          best = current;
          result.convergence.push_back({global_watch_.ElapsedSeconds(),
                                        best.perf.iteration_time,
                                        stats_.configs_explored,
                                        !best.perf.oom});
        }
      } else {
        // Restart from the most promising unexplored configuration. Entries
        // are shared with the hop groups that discovered them, so restarts
        // (rare) pay the copy instead of every push (hot).
        if (unexplored_.empty()) {
          converged = true;  // nothing left to try
        } else {
          current = *unexplored_.begin()->second;
          unexplored_.erase(unexplored_.begin());
          if (telemetry_ != nullptr) {
            telemetry_->IncrCounter("search.restarts");
          }
        }
      }
      if (telemetry_ != nullptr) {
        EmitIteration(iter_start, accepted, attempt, hops, primitive,
                      finetune_trials, finetune_delta, best);
      }
      if (converged) {
        break;
      }
    }

    result.best = std::move(best);
    result.convergence.push_back({global_watch_.ElapsedSeconds(),
                                  result.best.perf.iteration_time,
                                  stats_.configs_explored,
                                  !result.best.perf.oom});
    EmitSearchEnd(result, run_start, converged);
    stats_.frontier_offered = frontier_.stats().offered;
    stats_.frontier_admitted = frontier_.stats().admitted;
    result.frontier = std::move(frontier_);
    result.stats = std::move(stats_);
    // top_k_ is score-ordered, so this emits best-first directly.
    for (auto& [score, scored] : top_k_) {
      result.top_configs.push_back(std::move(scored));
    }
    return result;
  }

 private:
  struct Improvement {
    ScoredConfig found;
    int hops = 0;
    int bottleneck_attempt = 1;
    // The primitive that produced the improving candidate (the last hop of
    // the chain); reported in the per-iteration telemetry event.
    PrimitiveKind primitive = PrimitiveKind::kIncOpCount;
  };

  // Telemetry facts gathered over one Algorithm-1 iteration and emitted as
  // one "iteration" event. Updated only when telemetry_ != nullptr.
  struct IterationTelemetry {
    int64_t generated = 0;  // candidates produced by primitive application
    int64_t deduped = 0;    // dropped by §4.3 semantic deduplication
    int64_t evaluated = 0;  // candidates scored by the performance model
    int bottleneck_stage = -1;   // last bottleneck attempted
    bool memory_bound = false;   // that bottleneck's kind
    const char* bottleneck_resource = "";
  };

  void EmitIteration(double iter_start, bool accepted, int attempt, int hops,
                     const char* primitive, int64_t finetune_trials,
                     double finetune_delta, const ScoredConfig& best) {
    const double now = global_watch_.ElapsedSeconds();
    TelemetryEvent event("iteration");
    event.Dbl("t", iter_start)
        .Dbl("dur", now - iter_start)
        .Int("worker", worker_)
        .Int("stages", num_stages_)
        .Int("iter", stats_.iterations)
        .Bool("accepted", accepted)
        .Int("bottleneck_stage", iter_.bottleneck_stage)
        .Str("bottleneck_resource", iter_.bottleneck_resource)
        .Bool("memory_bound", iter_.memory_bound)
        .Int("bottleneck_attempt", attempt)
        .Int("hops", hops)
        .Str("primitive", primitive)
        .Int("generated", iter_.generated)
        .Int("deduped", iter_.deduped)
        .Int("evaluated", iter_.evaluated)
        .Int("finetune_trials", finetune_trials)
        .Dbl("finetune_delta", finetune_delta)
        .Dbl("best_time", best.perf.iteration_time)
        .Bool("feasible", !best.perf.oom);
    telemetry_->Emit(std::move(event));
    telemetry_->IncrCounter("search.iterations");
    telemetry_->IncrCounter(accepted ? "search.accepts" : "search.rejects");
    telemetry_->IncrCounter("search.candidates_generated", iter_.generated);
    telemetry_->IncrCounter("search.candidates_deduped", iter_.deduped);
    telemetry_->IncrCounter("search.candidates_evaluated", iter_.evaluated);
    if (finetune_trials > 0) {
      telemetry_->IncrCounter("search.finetune_trials", finetune_trials);
    }
  }

  void EmitSearchEnd(const SearchResult& result, double run_start,
                     bool converged) {
    if (telemetry_ == nullptr) {
      return;
    }
    const double now = global_watch_.ElapsedSeconds();
    telemetry_->RecordTimer("search.worker_seconds", now - run_start);
    if (dp_seed_evaluations_ > 0) {
      telemetry_->IncrCounter("search.dp_seed_evaluations",
                              dp_seed_evaluations_);
    }
    telemetry_->Emit(std::move(
        TelemetryEvent("search_end")
            .Dbl("t", now)
            .Dbl("dur", now - run_start)
            .Int("worker", worker_)
            .Int("stages", num_stages_)
            .Bool("found", result.found)
            .Int("iterations", stats_.iterations)
            .Int("improvements", stats_.improvements)
            .Int("configs_explored", stats_.configs_explored)
            .Dbl("best_time", result.best.perf.iteration_time)
            .Bool("feasible", result.found && !result.best.perf.oom)
            .Bool("converged", converged)));
  }

  // The search stops at whichever budget binds first: the anytime wall-clock
  // budget, or the deterministic evaluation budget (when set). Fine-tuning
  // may overshoot the evaluation budget by one bounded pass; the overshoot
  // is itself deterministic, so fixed-seed runs stay bit-reproducible.
  bool Exhausted() const {
    if (options_.max_evaluations > 0 &&
        stats_.configs_explored >= options_.max_evaluations) {
      return true;
    }
    return budget_.Expired();
  }

  // Non-const: DP seeding charges its full-model evaluations to
  // stats_.configs_explored (they draw down max_evaluations budgets too,
  // deterministically) and records them for the search_end counter flush.
  StatusOr<ParallelConfig> MakeInitial() {
    if (options_.seed_mode == SeedMode::kConfig &&
        options_.seed_config != nullptr &&
        options_.seed_config->num_stages() == num_stages_ &&
        options_.seed_config->Validate(model_.graph(), model_.cluster())
            .ok()) {
      // Caller-provided start (an adapted neighbor plan, DESIGN.md §17).
      // The copy is CoW-cheap; the seed's own evaluation is charged below
      // like any other initial configuration. Stage counts that don't match
      // the seed (and invalid seeds) fall through to the heuristic start.
      return *options_.seed_config;
    }
    if (options_.seed_mode == SeedMode::kDp) {
      auto seeded = DpSeedConfig(model_, num_stages_, memory_limit_);
      if (seeded.ok()) {
        stats_.configs_explored += seeded->evaluations;
        dp_seed_evaluations_ = seeded->evaluations;
        return std::move(seeded->config);
      }
      // No DP solution for this stage count: fall back to the heuristic
      // seed below so the search still runs.
    }
    switch (options_.initial_config) {
      case InitialConfigKind::kBalanced:
        return MakeEvenConfig(model_.graph(), model_.cluster(), num_stages_,
                              1);
      case InitialConfigKind::kOpImbalanced:
        return MakeOpImbalancedConfig(model_.graph(), model_.cluster(),
                                      num_stages_, 1);
      case InitialConfigKind::kGpuImbalanced:
        return MakeGpuImbalancedConfig(model_.graph(), model_.cluster(),
                                       num_stages_, 1);
    }
    return Internal("unknown initial config kind");
  }

  // One Algorithm 1 iteration: multi-hop searches starting from the primary
  // bottleneck, falling back to secondary bottlenecks (§3.2.3).
  std::optional<Improvement> IterationSearch(const ScoredConfig& start) {
    const std::vector<Bottleneck> bottlenecks = OrderedBottlenecks(start.perf);
    const int attempts = std::min<int>(
        static_cast<int>(bottlenecks.size()),
        options_.max_bottlenecks_per_iteration);
    for (int b = 0; b < attempts && !Exhausted(); ++b) {
      if (telemetry_ != nullptr) {
        const Bottleneck& bn = bottlenecks[static_cast<size_t>(b)];
        iter_.bottleneck_stage = bn.stage;
        iter_.memory_bound = bn.memory_bound;
        iter_.bottleneck_resource =
            bn.resources.empty() ? "" : ResourceName(bn.resources.front());
      }
      std::optional<Improvement> found =
          MultiHop(start, start.perf, /*hop=*/0, &bottlenecks[static_cast<size_t>(b)]);
      if (found.has_value()) {
        found->bottleneck_attempt = b + 1;
        return found;
      }
    }
    return std::nullopt;
  }

  // Algorithm 2. `forced` pins the bottleneck at hop 0 (secondary-bottleneck
  // exploration); deeper hops use Heuristic-1's primary choice.
  std::optional<Improvement> MultiHop(const ScoredConfig& config,
                                      const PerfResult& init_perf, int hop,
                                      const Bottleneck* forced) {
    if (hop >= options_.max_hops || Exhausted()) {
      return std::nullopt;
    }
    Bottleneck bottleneck;
    if (forced != nullptr) {
      bottleneck = *forced;
    } else {
      const std::vector<Bottleneck> all = OrderedBottlenecks(config.perf);
      if (all.empty()) {
        return std::nullopt;
      }
      bottleneck = all.front();
    }

    std::vector<Resource> resources = bottleneck.resources;
    if (!options_.use_heuristic2) {
      ShuffleInPlace(resources);
    }

    for (const Resource resource : resources) {
      std::vector<PrimitiveKind> primitives = PrimitivesDecreasing(
          resource, options_.enable_zero_primitives);
      if (!options_.use_heuristic2) {
        ShuffleInPlace(primitives);
      }

      // The candidate group of this resource, one candidate at a time in
      // generation order: hash, §4.3 dedup, evaluate, then the top-k,
      // frontier, first-improvement and unexplored-pool bookkeeping. The
      // budget is checked before each primitive's candidates are generated.
      // The recursion group shares candidates (not copies) with the
      // unexplored pool.
      std::vector<std::shared_ptr<const ScoredConfig>> group;
      for (const PrimitiveKind kind : primitives) {
        if (Exhausted()) {
          return std::nullopt;
        }
        for (Candidate& candidate : GeneratePrimitiveCandidates(
                 model_, config.config, config.perf, kind, bottleneck.stage,
                 options_.enable_recompute_attachment)) {
          if (telemetry_ != nullptr) {
            ++iter_.generated;
          }
          ScoredConfig scored;
          scored.config = std::move(candidate.config);
          // The hash is computed exactly once per candidate and carried in
          // the ScoredConfig for the top-k bookkeeping.
          scored.semantic_hash = scored.config.SemanticHash(model_.graph());
          if (options_.enable_dedup &&
              !visited_.insert(scored.semantic_hash).second) {
            if (telemetry_ != nullptr) {
              ++iter_.deduped;  // §4.3 deduplication
            }
            continue;
          }
          scored.perf = model_.Evaluate(scored.config);
          scored.perf.ApplyMemoryLimit(memory_limit_);
          ++stats_.configs_explored;
          if (telemetry_ != nullptr) {
            ++iter_.evaluated;
          }
          RecordTopK(scored);
          OfferFrontier(scored);
          if (scored.perf.BetterThan(init_perf)) {
            // First improvement wins.
            Improvement improvement;
            improvement.found = std::move(scored);
            improvement.hops = hop + 1;
            improvement.primitive = kind;
            return improvement;
          }
          auto shared = std::make_shared<const ScoredConfig>(std::move(scored));
          PushUnexplored(shared);
          group.push_back(std::move(shared));
        }
      }

      // Best-performance-first recursion into the group (Heuristic-2), or
      // random order without it.
      if (options_.use_heuristic2) {
        std::sort(group.begin(), group.end(),
                  [](const std::shared_ptr<const ScoredConfig>& a,
                     const std::shared_ptr<const ScoredConfig>& b) {
                    return Score(a->perf) < Score(b->perf);
                  });
      } else {
        ShuffleInPlace(group);
      }
      for (const std::shared_ptr<const ScoredConfig>& next : group) {
        if (Exhausted()) {
          return std::nullopt;
        }
        std::optional<Improvement> found =
            MultiHop(*next, init_perf, hop + 1, nullptr);
        if (found.has_value()) {
          return found;
        }
      }
    }
    return std::nullopt;
  }

  template <typename T>
  void ShuffleInPlace(std::vector<T>& values) {
    for (size_t i = values.size(); i > 1; --i) {
      std::swap(values[i - 1], values[rng_.NextBelow(i)]);
    }
  }

  void PushUnexplored(const std::shared_ptr<const ScoredConfig>& scored) {
    unexplored_.emplace(Score(scored->perf), scored);
    while (unexplored_.size() > kMaxUnexplored) {
      unexplored_.erase(std::prev(unexplored_.end()));
    }
  }

  // Offers one evaluated candidate to the frontier archive
  // (options.track_frontier; DESIGN.md §15), in evaluation order.
  void OfferFrontier(const ScoredConfig& scored) {
    if (!options_.track_frontier) {
      return;
    }
    const ClusterSpec& cluster = model_.cluster();
    frontier_.Offer(scored.config, scored.perf, scored.semantic_hash,
                    CostPerStepUsd(scored.perf.iteration_time,
                                   cluster.num_gpus(),
                                   cluster.gpu.price_per_hour_usd));
  }

  // Keeps the k best distinct feasible configs in a score-ordered multimap:
  // the worst entry is *std::prev(end()), so eviction is O(log k) instead of
  // an O(k) scan, and emission in Run() needs no final sort.
  void RecordTopK(const ScoredConfig& scored) {
    if (scored.perf.oom || options_.top_k <= 0) {
      return;
    }
    const double score = Score(scored.perf);
    if (static_cast<int>(top_k_.size()) >= options_.top_k &&
        score >= std::prev(top_k_.end())->first) {
      return;  // full and not better than the current worst
    }
    if (!top_k_hashes_.insert(scored.semantic_hash).second) {
      return;  // already recorded
    }
    top_k_.emplace(score, scored);
    if (static_cast<int>(top_k_.size()) > options_.top_k) {
      auto worst = std::prev(top_k_.end());
      top_k_hashes_.erase(worst->second.semantic_hash);
      top_k_.erase(worst);
    }
  }

  const PerformanceModel& model_;
  const SearchOptions& options_;
  int num_stages_;
  TimeBudget budget_;
  const Stopwatch& global_watch_;
  // EffectiveMemoryLimit of options_: every verdict of this search.
  int64_t memory_limit_;
  // Cached sink pointer: null disables every instrumentation point behind a
  // single predictable branch (the telemetry-off hot path must stay within
  // noise of the uninstrumented build; see micro_search).
  TelemetrySink* telemetry_;
  int worker_;
  IterationTelemetry iter_;
  Rng rng_;

  int64_t dp_seed_evaluations_ = 0;

  SearchStats stats_;
  FrontierArchive frontier_;
  std::unordered_set<uint64_t, IdentityHash> visited_;
  std::multimap<double, std::shared_ptr<const ScoredConfig>> unexplored_;
  std::multimap<double, ScoredConfig> top_k_;
  std::unordered_set<uint64_t, IdentityHash> top_k_hashes_;
};

// Merges per-stage-count results into one.
SearchResult MergeResults(std::vector<SearchResult> results, int top_k) {
  SearchResult merged;
  for (SearchResult& r : results) {
    // Per-stage-count archives merge in stage-count order: deterministic
    // inputs (bit-reproducible per-worker archives) give a deterministic
    // merged frontier regardless of which thread ran which stage count.
    // Workers that found no feasible best still contribute: their walks
    // archived valid (time, memory) points.
    merged.frontier.Merge(r.frontier);
    if (!r.found) {
      merged.stats.frontier_offered += r.stats.frontier_offered;
      merged.stats.frontier_admitted += r.stats.frontier_admitted;
      continue;
    }
    if (!merged.found || r.best.perf.BetterThan(merged.best.perf)) {
      merged.best = r.best;
      merged.found = true;
    }
    merged.stats.Merge(r.stats);
    for (ScoredConfig& c : r.top_configs) {
      merged.top_configs.push_back(std::move(c));
    }
    for (const ConvergencePoint& point : r.convergence) {
      merged.convergence.push_back(point);
    }
  }
  std::sort(merged.top_configs.begin(), merged.top_configs.end(),
            [](const ScoredConfig& a, const ScoredConfig& b) {
              return Score(a.perf) < Score(b.perf);
            });
  if (static_cast<int>(merged.top_configs.size()) > top_k) {
    merged.top_configs.resize(static_cast<size_t>(top_k));
  }
  // Convergence trend: running minimum over time across all searches, over
  // feasible points only. Infeasible (OOM) bests carry model estimates for
  // over-memory configurations — folding them into the minimum used to start
  // every merged curve at the search's sentinel-score magnitude until the
  // first feasible configuration appeared.
  std::sort(merged.convergence.begin(), merged.convergence.end(),
            [](const ConvergencePoint& a, const ConvergencePoint& b) {
              return a.elapsed_seconds < b.elapsed_seconds;
            });
  std::vector<ConvergencePoint> feasible_trend;
  feasible_trend.reserve(merged.convergence.size());
  double running = 1e300;
  for (const ConvergencePoint& point : merged.convergence) {
    if (!point.feasible) {
      continue;
    }
    running = std::min(running, point.best_iteration_time);
    feasible_trend.push_back(
        {point.elapsed_seconds, running, point.evaluations, true});
  }
  merged.convergence = std::move(feasible_trend);
  return merged;
}

// Runs one stage count's search slice. In frontier mode (DESIGN.md §15) the
// slice's budget splits across an internal ladder of memory limits —
// capacity, then halved per rung — because a capacity-limit walk alone
// under-samples the low-memory region: Algorithm 1 alleviates whatever
// bottleneck blocks *throughput*, so it rarely visits the configurations a
// tight budget would force. Each rung runs the same Algorithm-1 walk with
// the rung's limit applied to every verdict, and the rungs merge into one
// result (capacity rung first, so a config several rungs visit keeps its
// widest-limit verdict in the archive). Deterministic: fixed rung count,
// deterministic per-rung evaluation budgets, serial merge order.
SearchResult RunStageCount(const PerformanceModel& model,
                           const SearchOptions& options, int num_stages,
                           double budget_seconds, const Stopwatch& watch,
                           int worker) {
  if (!options.track_frontier) {
    SingleSearch search(model, options, num_stages, budget_seconds, watch,
                        worker);
    return search.Run();
  }
  // Rung limits descend from capacity by powers of two — the fractions a
  // budget sweep naturally asks about ("half the memory, a quarter"). An
  // off-rung budget is answered by the nearest covered level below it;
  // densifying the ladder (sqrt(2) rungs) was tried and lost more to the
  // thinner per-rung budget than it gained in coverage.
  constexpr int kLadderRungs = 5;
  const int64_t limit = EffectiveMemoryLimit(options, model.cluster());
  // <= 0 stays "unlimited" through the division.
  const double rung_seconds = budget_seconds / kLadderRungs;
  const int64_t base_evals = options.max_evaluations / kLadderRungs;
  std::vector<SearchResult> rungs;
  for (int rung = 0; rung < kLadderRungs; ++rung) {
    SearchOptions rung_options = options;
    if (rung == 0) {
      // The capacity rung runs at the search's effective limit and absorbs
      // the evaluation-budget remainder, so the overall best is as strong
      // as an even split allows.
      if (options.max_evaluations > 0) {
        rung_options.max_evaluations =
            options.max_evaluations - (kLadderRungs - 1) * base_evals;
      }
    } else {
      if (options.max_evaluations > 0 && base_evals == 0) {
        break;  // too few evaluations to split; the capacity rung took all
      }
      rung_options.memory_budget_bytes = limit >> rung;
      if (options.max_evaluations > 0) {
        rung_options.max_evaluations = base_evals;
      }
    }
    SingleSearch search(model, rung_options, num_stages, rung_seconds, watch,
                        worker);
    rungs.push_back(search.Run());
  }
  return MergeResults(std::move(rungs), options.top_k);
}

}  // namespace

void SearchStats::Merge(const SearchStats& other) {
  iterations += other.iterations;
  improvements += other.improvements;
  configs_explored += other.configs_explored;
  frontier_offered += other.frontier_offered;
  frontier_admitted += other.frontier_admitted;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  cache_evictions += other.cache_evictions;
  bottleneck_attempts.insert(bottleneck_attempts.end(),
                             other.bottleneck_attempts.begin(),
                             other.bottleneck_attempts.end());
  hops_used.insert(hops_used.end(), other.hops_used.begin(),
                   other.hops_used.end());
}

namespace {

// The stage-cost cache is shared by every search against `model` (possibly
// concurrently), so per-run activity is attributed as a counter delta.
void RecordCacheDelta(const PerformanceModel& model,
                      const StageCacheStats& before, SearchStats* stats) {
  const StageCacheStats delta = model.stage_cache().stats() - before;
  stats->cache_hits += delta.hits;
  stats->cache_misses += delta.misses;
  stats->cache_evictions += delta.evictions;
}

// Before/after snapshot of every cache layer under the search, taken so the
// deltas can be attributed to one run.
struct ModelCounterSnapshot {
  StageCacheStats stage_cache;
  OpMemoStats op_memo;
  ProfileDbStats profile_db;

  static ModelCounterSnapshot Take(const PerformanceModel& model) {
    ModelCounterSnapshot s;
    s.stage_cache = model.stage_cache().stats();
    s.op_memo = model.op_memo().stats();
    s.profile_db = model.db().stats();
    return s;
  }
};

// Publishes the cache-layer deltas of one search into the sink's counter
// registry. Counters only — never events: the values are thread-timing
// dependent (which stage-count worker hits which cache first), and the event
// stream carries only trajectory facts (DESIGN.md §10). Tools that want the
// hit rates in the JSONL emit a counter-snapshot event after the search.
void RecordModelCounters(const PerformanceModel& model,
                         const ModelCounterSnapshot& before,
                         TelemetrySink* telemetry) {
  if (telemetry == nullptr) {
    return;
  }
  const StageCacheStats cache = model.stage_cache().stats() - before.stage_cache;
  const OpMemoStats memo = model.op_memo().stats() - before.op_memo;
  const ProfileDbStats db = model.db().stats() - before.profile_db;
  telemetry->IncrCounter("cost.stage_cache_hits", cache.hits);
  telemetry->IncrCounter("cost.stage_cache_misses", cache.misses);
  telemetry->IncrCounter("cost.stage_cache_evictions", cache.evictions);
  telemetry->IncrCounter("cost.op_memo_hits", memo.hits);
  telemetry->IncrCounter("cost.op_memo_misses", memo.misses);
  telemetry->IncrCounter("cost.op_memo_inserts_dropped", memo.inserts_dropped);
  telemetry->IncrCounter("profile_db.lookups", db.lookups);
  telemetry->IncrCounter("profile_db.misses", db.misses);
  telemetry->IncrCounter("profile_db.lock_contended", db.lock_contended);
}

}  // namespace

int64_t EffectiveMemoryLimit(const SearchOptions& options,
                             const ClusterSpec& cluster) {
  return options.memory_budget_bytes > 0
             ? std::min(options.memory_budget_bytes, cluster.gpu.memory_bytes)
             : cluster.gpu.memory_bytes;
}

uint64_t SearchOptionsSemanticHash(const SearchOptions& options) {
  Hasher h;
  h.Add(options.time_budget_seconds);
  h.Add(options.max_evaluations);
  h.Add(options.max_hops);
  h.Add(options.use_heuristic2);
  h.Add(options.enable_finetune);
  h.Add(options.enable_dedup);
  h.Add(options.enable_recompute_attachment);
  h.Add(options.enable_zero_primitives);
  h.Add(options.top_k);
  h.Add(options.seed);
  h.Add(options.min_stages);
  h.Add(options.max_stages);
  h.Add(options.max_bottlenecks_per_iteration);
  h.Add(static_cast<int>(options.initial_config));
  h.Add(static_cast<int>(options.seed_mode));
  h.Add(options.track_frontier);
  h.Add(options.memory_budget_bytes);
  // A kConfig seed changes the trajectory, so its structure must key the
  // plan cache. The fold is graph-free (raw fields, no canonicalization):
  // two distinct seeds may hash apart even when semantically equal, which
  // only costs a duplicate cache entry, never a wrong hit.
  h.Add(options.seed_config != nullptr);
  if (options.seed_config != nullptr) {
    const ParallelConfig& seed = *options.seed_config;
    h.Add(seed.microbatch_size());
    h.Add(seed.num_stages());
    for (const StageConfig& stage : seed.stages()) {
      h.Add(stage.first_op);
      h.Add(stage.num_ops);
      h.Add(stage.num_devices);
      for (const OpParallel& op : stage.ops) {
        h.Add(op.tp);
        h.Add(op.dp);
        h.Add(static_cast<int>(op.tp_dim));
        h.Add(op.recompute);
        h.Add(op.zero_opt);
      }
    }
  }
  return h.Digest();
}

SearchResult AcesoSearchForStages(const PerformanceModel& model,
                                  const SearchOptions& options,
                                  int num_stages) {
  Stopwatch watch;
  const StageCacheStats cache_before = model.stage_cache().stats();
  const ModelCounterSnapshot counters_before = ModelCounterSnapshot::Take(model);
  SearchResult result = RunStageCount(model, options, num_stages,
                                      options.time_budget_seconds, watch,
                                      /*worker=*/0);
  RecordCacheDelta(model, cache_before, &result.stats);
  RecordModelCounters(model, counters_before, options.telemetry);
  result.search_seconds = watch.ElapsedSeconds();
  return result;
}

SearchResult AcesoSearch(const PerformanceModel& model,
                         const SearchOptions& options) {
  const int gpus = model.cluster().num_gpus();
  const int max_auto = std::min({gpus, model.graph().num_ops(), 12});
  const int min_stages = std::max(1, options.min_stages);
  const int max_stages =
      options.max_stages > 0 ? options.max_stages : max_auto;

  std::vector<int> stage_counts;
  for (int p = min_stages; p <= max_stages; ++p) {
    if (p <= gpus && p <= model.graph().num_ops()) {
      stage_counts.push_back(p);
    }
  }
  if (stage_counts.empty()) {
    stage_counts.push_back(1);
  }

  Stopwatch watch;
  const StageCacheStats cache_before = model.stage_cache().stats();
  const ModelCounterSnapshot counters_before = ModelCounterSnapshot::Take(model);
  std::vector<SearchResult> results(stage_counts.size());

  size_t threads = options.num_threads > 0
                       ? static_cast<size_t>(options.num_threads)
                       : stage_counts.size();
  threads = std::min({threads, stage_counts.size(),
                      static_cast<size_t>(std::max(
                          1u, std::thread::hardware_concurrency()))});
  // With fewer workers than stage counts the searches serialize into
  // ceil(N/threads) waves, so each search gets budget/waves and the total
  // wall-clock lands on options.time_budget_seconds however unevenly the
  // last wave fills. (Scaling by threads/N — the continuous version of the
  // same idea — overshot by up to ~2x at small N: with 5 stage counts on 4
  // threads it granted 0.8·T per search and the two waves totalled 1.6·T.)
  const size_t waves = (stage_counts.size() + threads - 1) / threads;
  const double per_search_budget =
      options.time_budget_seconds / static_cast<double>(waves);

  // Stage counts are the search's only parallelism (DESIGN.md §11): one
  // serial search per stage count, at most `threads` in flight. The caller
  // waits for each wave, so no task ever waits on its own pool.
  ThreadPool pool(threads);
  for (size_t wave_begin = 0; wave_begin < stage_counts.size();
       wave_begin += threads) {
    const size_t wave_end =
        std::min(stage_counts.size(), wave_begin + threads);
    for (size_t i = wave_begin; i < wave_end; ++i) {
      pool.Submit([&model, &options, &stage_counts, &results, &watch,
                   per_search_budget, i] {
        results[i] = RunStageCount(model, options, stage_counts[i],
                                   per_search_budget, watch,
                                   static_cast<int>(i));
      });
    }
    pool.Wait();
  }
  if (options.telemetry != nullptr) {
    // A counter, not an event: the event stream stays free of execution
    // shape.
    options.telemetry->IncrCounter("search.pool_tasks", pool.executed());
  }

  SearchResult merged = MergeResults(std::move(results), options.top_k);
  RecordCacheDelta(model, cache_before, &merged.stats);
  RecordModelCounters(model, counters_before, options.telemetry);
  merged.search_seconds = watch.ElapsedSeconds();
  if (options.telemetry != nullptr) {
    options.telemetry->RecordTimer("search.total_seconds",
                                   merged.search_seconds);
    options.telemetry->Emit(std::move(
        TelemetryEvent("search_summary")
            .Dbl("t", merged.search_seconds)
            .Int("stage_counts", static_cast<int64_t>(stage_counts.size()))
            .Int("threads", static_cast<int64_t>(threads))
            .Int("waves", static_cast<int64_t>(waves))
            .Dbl("per_search_budget", per_search_budget)
            .Dbl("time_budget", options.time_budget_seconds)
            .Bool("found", merged.found)
            .Int("iterations", merged.stats.iterations)
            .Int("improvements", merged.stats.improvements)
            .Int("configs_explored", merged.stats.configs_explored)
            .Dbl("best_time", merged.best.perf.iteration_time)
            .Bool("feasible", merged.found && !merged.best.perf.oom)));
  }
  return merged;
}

}  // namespace aceso
