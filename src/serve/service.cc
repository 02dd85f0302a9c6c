#include "src/serve/service.h"

#include <sys/stat.h>

#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <exception>
#include <thread>
#include <utility>

#include "src/common/logging.h"
#include "src/core/seed_adapt.h"
#include "src/cost/perf_model.h"
#include "src/ir/models/model_zoo.h"
#include "src/obs/telemetry.h"

namespace aceso {
namespace serve {
namespace {

// Max convergence points embedded in a response payload.
constexpr size_t kConvergenceCap = 64;

std::string JoinZooNames() {
  std::string out;
  for (const std::string& name : models::ZooNames()) {
    if (!out.empty()) {
      out += ", ";
    }
    out += name;
  }
  return out;
}

// The derived-payload variant key for a budget sweep: a stable hash of the
// budget list. Never 0-ambiguous with another list (length is mixed in).
uint64_t BudgetsVariantHash(const std::vector<int64_t>& budgets) {
  uint64_t h = Mix64(0x73776565700b1ULL ^ budgets.size());
  for (const int64_t b : budgets) {
    h = HashCombine(h, Mix64(static_cast<uint64_t>(b)));
  }
  return h;
}

size_t PoolThreads(const ServeOptions& options) {
  if (options.worker_threads > 0) {
    return static_cast<size_t>(options.worker_threads);
  }
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::max(hw, static_cast<size_t>(
                          std::max(1, options.max_inflight_searches)));
}

}  // namespace

std::string ProfileSnapshotPath(const std::string& dir, uint64_t fingerprint) {
  char name[40];
  std::snprintf(name, sizeof(name), "profile_%016" PRIx64 ".apdb",
                fingerprint);
  return dir + "/" + name;
}

ServeStats ServeStats::operator-(const ServeStats& other) const {
  ServeStats d;
  d.requests = requests - other.requests;
  d.completed = completed - other.completed;
  d.rejected = rejected - other.rejected;
  d.errors = errors - other.errors;
  d.coalesced = coalesced - other.coalesced;
  d.budget_sweeps = budget_sweeps - other.budget_sweeps;
  d.sweeps_from_cache = sweeps_from_cache - other.sweeps_from_cache;
  d.serializations_skipped =
      serializations_skipped - other.serializations_skipped;
  d.cache_hits = cache_hits - other.cache_hits;
  d.cache_misses = cache_misses - other.cache_misses;
  d.cache_evictions = cache_evictions - other.cache_evictions;
  d.neighbor_seeded = neighbor_seeded - other.neighbor_seeded;
  d.seed_adopted = seed_adopted - other.seed_adopted;
  d.seed_fallbacks = seed_fallbacks - other.seed_fallbacks;
  d.profile_dbs = profile_dbs - other.profile_dbs;
  d.warm_starts = warm_starts - other.warm_starts;
  d.warm_start_errors = warm_start_errors - other.warm_start_errors;
  d.profile_lookups = profile_lookups - other.profile_lookups;
  d.profile_misses = profile_misses - other.profile_misses;
  return d;
}

// A search in flight: the runner fills it and signals; coalesced duplicates
// wait on the condition variable. The payload is stored separately from any
// envelope so every waiter can wrap it with its own request_id.
struct PlanService::Inflight {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Status search_status;
  // Shared with the cache entry: coalesced waiters reference the one
  // serialized payload instead of copying it per waiter.
  std::shared_ptr<const std::string> payload_json;
};

PlanService::PlanService(ServeOptions options)
    : options_(std::move(options)),
      pool_(PoolThreads(options_)),
      cache_(PlanCacheOptions{options_.plan_cache_capacity}) {}

PlanService::~PlanService() {
  // Drain outstanding search jobs before the members they reference die.
  pool_.Wait();
}

std::string PlanService::NextRequestId() {
  return "r" + std::to_string(
                   next_request_id_.fetch_add(1, std::memory_order_relaxed));
}

StatusOr<std::shared_ptr<const OpGraph>> PlanService::GraphForModel(
    const std::string& name) {
  {
    std::lock_guard<std::mutex> lock(model_mu_);
    auto it = models_.find(name);
    if (it != models_.end()) {
      return it->second;
    }
  }
  // Build outside the lock (a big zoo model takes a while); a racing
  // duplicate build is harmless — both graphs are identical and the second
  // emplace loses.
  auto built = models::BuildByName(name);
  if (!built.ok()) {
    return built.status();
  }
  auto graph = std::make_shared<const OpGraph>(std::move(*built));
  std::lock_guard<std::mutex> lock(model_mu_);
  return models_.try_emplace(name, std::move(graph)).first->second;
}

ProfileDatabase* PlanService::DbForCluster(const ClusterSpec& cluster) {
  const uint64_t fp = cluster.Fingerprint();
  std::lock_guard<std::mutex> lock(db_mu_);
  auto it = dbs_.find(fp);
  if (it != dbs_.end()) {
    return it->second.get();
  }
  auto db = std::make_unique<ProfileDatabase>(cluster);
  if (!options_.snapshot_dir.empty()) {
    const std::string path = ProfileSnapshotPath(options_.snapshot_dir, fp);
    const Status st = db->Load(path);
    if (st.ok()) {
      warm_starts_.fetch_add(1, std::memory_order_relaxed);
      ACESO_LOG(INFO) << "warm-started profile database for "
                      << cluster.ToString() << " from " << path << " ("
                      << db->NumEntries() << " entries)";
    } else if (st.code() != StatusCode::kNotFound) {
      // A present-but-unusable snapshot (corrupt, old version, wrong
      // cluster) must not take the daemon down: run cold, but say so.
      warm_start_errors_.fetch_add(1, std::memory_order_relaxed);
      ACESO_LOG(WARNING) << "ignoring profile snapshot " << path << ": "
                         << st.ToString();
    }
  }
  ProfileDatabase* raw = db.get();
  dbs_.emplace(fp, std::move(db));
  return raw;
}

SearchResult PlanService::SeededSearch(const PerformanceModel& model,
                                       const SearchOptions& options,
                                       uint64_t key) {
  const OpGraph& graph = model.graph();
  const ClusterSpec& cluster = model.cluster();
  auto neighbor = cache_.FindNeighbor(
      NeighborFamilyKey(graph, cluster), key, graph.num_ops(),
      cluster.num_gpus(), options.memory_budget_bytes);
  if (!neighbor.has_value() || neighbor->config == nullptr) {
    return AcesoSearch(model, options);
  }
  const int64_t limit = EffectiveMemoryLimit(options, cluster);
  auto adapted = AdaptSeedConfig(model, *neighbor->config, limit);
  if (!adapted.ok()) {
    // The neighbor does not reshape to this request (e.g. fewer devices
    // than its stages): plain unseeded search, not counted as seeded.
    return AcesoSearch(model, options);
  }
  neighbor_seeded_.fetch_add(1, std::memory_order_relaxed);

  SearchOptions seeded_options = options;
  seeded_options.seed_mode = SeedMode::kConfig;
  seeded_options.seed_config =
      std::make_shared<const ParallelConfig>(std::move(adapted->config));
  SearchResult seeded = AcesoSearch(model, seeded_options);

  // Re-verdict (DESIGN.md §17): the seeded result must be at least as good
  // as the adapted seed itself *and* as the even-split initial config at
  // the seed's stage count. A seed that dragged the search below either is
  // discarded and the request re-runs unseeded. This is a cheap floor, not
  // a comparison with the full unseeded search: an adopted result may still
  // be worse than what the unseeded path would serve at equal budget, and
  // since the caller caches it under the exact request key, one key's plan
  // can depend on which neighbors were cached before it.
  bool adopt = seeded.found;
  if (adopt && adapted->perf.BetterThan(seeded.best.perf)) {
    adopt = false;
  }
  if (adopt) {
    auto init = MakeEvenConfig(graph, cluster,
                               seeded_options.seed_config->num_stages(), 1);
    if (init.ok()) {
      PerfResult init_perf = model.Evaluate(*init);
      init_perf.ApplyMemoryLimit(limit);
      if (init_perf.BetterThan(seeded.best.perf)) {
        adopt = false;
      }
    }
  }
  if (adopt) {
    seed_adopted_.fetch_add(1, std::memory_order_relaxed);
    return seeded;
  }
  seed_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  SearchResult unseeded = AcesoSearch(model, options);
  // Serve whichever run found the better plan — the fallback guards the
  // floor, it does not throw away a seeded win over the full unseeded run.
  if (seeded.found &&
      (!unseeded.found || seeded.best.perf.BetterThan(unseeded.best.perf))) {
    return seeded;
  }
  return unseeded;
}

PlanService::Response PlanService::Handle(const PlanRequest& request,
                                          const EventCallback& on_event) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  const std::string request_id =
      request.request_id.empty() ? NextRequestId() : request.request_id;

  auto error_response = [&](const Status& st) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    Response r;
    r.status = st;
    r.body_head = BuildErrorEnvelope(request_id, st);
    return r;
  };

  auto graph_or = GraphForModel(request.model);
  if (!graph_or.ok()) {
    return error_response(InvalidArgument(graph_or.status().message() +
                                          "; known models: " +
                                          JoinZooNames()));
  }
  const OpGraph& graph = **graph_or;
  // ParsePlanRequest already rejects these; a request built in code must
  // not reach WithGpuCount's CHECK either.
  const Status gpus_ok = ClusterSpec::CheckGpuCount(request.gpus);
  if (!gpus_ok.ok()) {
    return error_response(gpus_ok);
  }
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(request.gpus);
  const SearchOptions options = ToSearchOptions(request);
  const uint64_t key = PlanCacheKey(graph, cluster, options);

  // A budget sweep keys as the base frontier request (ToSearchOptions), so
  // the cache/single-flight layers below are shared with plain frontier
  // requests; only the response body differs — each sweep waiter derives its
  // own per-budget answers from the one stored frontier payload.
  const bool sweep = !request.memory_budgets.empty();
  if (sweep) {
    budget_sweeps_.fetch_add(1, std::memory_order_relaxed);
  }
  // Assembles the ok response around a pre-serialized payload. On the
  // zero-serialization path (`reused` = the payload came out of the cache
  // or an already-finished single-flight) no JSON is constructed at all:
  // the tiny per-request envelope head is built and the payload rides along
  // by reference. A sweep re-renders the payload per budget list — but that
  // rendering is itself cached as a derived payload on the entry, so repeat
  // sweeps skip BuildBudgetSweepPayload too.
  auto payload_response = [&](std::string_view cache_kind,
                              std::shared_ptr<const std::string> payload_json,
                              bool reused) {
    Response r;
    r.key = key;
    std::shared_ptr<const std::string> mid = std::move(payload_json);
    if (sweep) {
      const uint64_t variant = BudgetsVariantHash(request.memory_budgets);
      std::shared_ptr<const std::string> derived =
          cache_.GetDerived(key, variant);
      if (derived == nullptr) {
        auto built = BuildBudgetSweepPayload(*mid, request.memory_budgets);
        if (!built.ok()) {
          r = error_response(built.status());
          r.key = key;
          return r;
        }
        derived =
            std::make_shared<const std::string>(std::move(*built));
        cache_.PutDerived(key, variant, derived);
        reused = false;
      }
      mid = std::move(derived);
    }
    if (reused) {
      serializations_skipped_.fetch_add(1, std::memory_order_relaxed);
    }
    r.cache = std::string(cache_kind);
    r.body_head = BuildResponseEnvelopeHead(request_id, cache_kind);
    r.body_mid = std::move(mid);
    r.body_tail = "}";
    return r;
  };

  // Layer 1: the plan cache. A hit replays the stored payload — the search
  // is never entered (counter-verified by serve_test); a sweep hit answers
  // every budget from the cached frontier, also without a search.
  if (auto hit = cache_.Get(key)) {
    if (sweep) {
      sweeps_from_cache_.fetch_add(1, std::memory_order_relaxed);
    }
    return payload_response("hit", hit->payload_json, /*reused=*/true);
  }

  // Layer 2/3: single-flight lookup, then admission. Both decided under one
  // lock so two identical requests can never both become runners.
  std::shared_ptr<Inflight> job;
  bool runner = false;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      job = it->second;
    } else {
      const int64_t running =
          running_searches_.fetch_add(1, std::memory_order_relaxed);
      if (running >= options_.max_inflight_searches) {
        running_searches_.fetch_sub(1, std::memory_order_relaxed);
        rejected_.fetch_add(1, std::memory_order_relaxed);
        Response r;
        r.status = ResourceExhausted(
            "planning capacity exhausted (" +
            std::to_string(options_.max_inflight_searches) +
            " searches in flight); retry later");
        r.key = key;
        r.body_head = BuildErrorEnvelope(request_id, r.status);
        return r;
      }
      job = std::make_shared<Inflight>();
      inflight_.emplace(key, job);
      runner = true;
    }
  }

  if (!runner) {
    // Coalesced: piggyback on the identical in-flight search.
    coalesced_.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock<std::mutex> lk(job->mu);
    job->cv.wait(lk, [&job] { return job->done; });
    if (!job->search_status.ok()) {
      lk.unlock();
      return error_response(job->search_status);
    }
    return payload_response("coalesced", job->payload_json, /*reused=*/true);
  }

  // Runner: the search is a job on the shared pool; this thread waits (and,
  // when streaming, forwards telemetry events as they appear).
  struct JobState {
    std::shared_ptr<const OpGraph> graph;  // shared with the model memo
    ClusterSpec cluster;
    SearchOptions options;
    std::unique_ptr<TelemetrySink> sink;
  };
  auto state = std::make_shared<JobState>();
  state->graph = std::move(*graph_or);
  state->cluster = cluster;
  state->options = options;
  if (on_event != nullptr) {
    state->sink = std::make_unique<TelemetrySink>();
    state->options.telemetry = state->sink.get();
  }
  ProfileDatabase* db = DbForCluster(cluster);

  pool_.Submit([this, state, job, key, db] {
    Status st;
    std::shared_ptr<const std::string> payload;
    bool found = false;
    double iteration_time = 0.0;
    std::shared_ptr<const ParallelConfig> best_config;
    const bool neighbor_seed = options_.neighbor_seed;
    try {
      PerformanceModel model(state->graph.get(), state->cluster, db);
      const SearchResult result =
          neighbor_seed ? SeededSearch(model, state->options, key)
                        : AcesoSearch(model, state->options);
      payload = std::make_shared<const std::string>(BuildPlanPayload(
          *state->graph, state->cluster, result, kConvergenceCap));
      found = result.found;
      iteration_time = result.found ? result.best.perf.iteration_time : 0.0;
      if (neighbor_seed && result.found) {
        best_config =
            std::make_shared<const ParallelConfig>(result.best.config);
      }
    } catch (const std::exception& e) {
      st = Internal(std::string("search failed: ") + e.what());
    } catch (...) {
      st = Internal("search failed");
    }
    if (st.ok()) {
      // Publish to the cache *before* leaving the single-flight map: a new
      // identical request always sees either the in-flight entry or the
      // cached payload, never the gap between them. The cache entry, the
      // in-flight waiters, and every wire response share one string.
      cache_.Put(key, CachedPlan{payload, found, iteration_time});
      if (best_config != nullptr) {
        // Register the adopted plan with the similarity index so later
        // near-identical misses can seed from it (DESIGN.md §17).
        NeighborPlan neighbor;
        neighbor.config = std::move(best_config);
        neighbor.num_ops = state->graph->num_ops();
        neighbor.num_gpus = state->cluster.num_gpus();
        neighbor.memory_budget_bytes = state->options.memory_budget_bytes;
        neighbor.iteration_time = iteration_time;
        cache_.AttachNeighbor(
            key, NeighborFamilyKey(*state->graph, state->cluster),
            std::move(neighbor));
      }
      completed_.fetch_add(1, std::memory_order_relaxed);
    }
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      inflight_.erase(key);
    }
    running_searches_.fetch_sub(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(job->mu);
      job->search_status = st;
      job->payload_json = std::move(payload);
      job->done = true;
    }
    job->cv.notify_all();
  });

  if (on_event == nullptr) {
    std::unique_lock<std::mutex> lk(job->mu);
    job->cv.wait(lk, [&job] { return job->done; });
  } else {
    // Forward ring events incrementally while the search runs. The sink's
    // ring is a snapshot-copy interface, so track a cursor over the emitted
    // prefix; with the default 64k ring, overflow would need a pathological
    // event rate and only costs dropped *streamed* lines, never the result.
    size_t cursor = 0;
    auto drain = [&] {
      const auto events = state->sink->Events();
      for (; cursor < events.size(); ++cursor) {
        on_event(events[cursor].ToJsonLine());
      }
    };
    std::unique_lock<std::mutex> lk(job->mu);
    while (!job->done) {
      job->cv.wait_for(lk, std::chrono::milliseconds(50));
      lk.unlock();
      drain();
      lk.lock();
    }
    lk.unlock();
    drain();
  }

  if (!job->search_status.ok()) {
    Response r = error_response(job->search_status);
    r.key = key;
    return r;
  }
  return payload_response("miss", job->payload_json, /*reused=*/false);
}

Status PlanService::SaveProfiles(const std::string& dir) {
  const std::string& target = dir.empty() ? options_.snapshot_dir : dir;
  if (target.empty()) {
    return InvalidArgument("no snapshot directory configured");
  }
  // Create the leaf directory when absent (parents must exist); a daemon
  // pointed at a fresh --snapshot-dir should not need a manual mkdir.
  if (::mkdir(target.c_str(), 0755) != 0 && errno != EEXIST) {
    return InvalidArgument("cannot create snapshot directory " + target +
                           ": " + std::strerror(errno));
  }
  std::lock_guard<std::mutex> lock(db_mu_);
  for (const auto& [fp, db] : dbs_) {
    ACESO_RETURN_IF_ERROR(db->Save(ProfileSnapshotPath(target, fp)));
  }
  return OkStatus();
}

ServeStats PlanService::stats() const {
  ServeStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.coalesced = coalesced_.load(std::memory_order_relaxed);
  s.budget_sweeps = budget_sweeps_.load(std::memory_order_relaxed);
  s.sweeps_from_cache = sweeps_from_cache_.load(std::memory_order_relaxed);
  s.serializations_skipped =
      serializations_skipped_.load(std::memory_order_relaxed);
  const PlanCacheStats cache = cache_.stats();
  s.cache_hits = cache.hits;
  s.cache_misses = cache.misses;
  s.cache_evictions = cache.evictions;
  s.neighbor_seeded = neighbor_seeded_.load(std::memory_order_relaxed);
  s.seed_adopted = seed_adopted_.load(std::memory_order_relaxed);
  s.seed_fallbacks = seed_fallbacks_.load(std::memory_order_relaxed);
  s.warm_starts = warm_starts_.load(std::memory_order_relaxed);
  s.warm_start_errors = warm_start_errors_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(db_mu_);
  s.profile_dbs = static_cast<int64_t>(dbs_.size());
  for (const auto& [fp, db] : dbs_) {
    const ProfileDbStats dbs = db->stats();
    s.profile_lookups += dbs.lookups;
    s.profile_misses += dbs.misses;
  }
  return s;
}

std::string PlanService::StatsJson() const {
  const ServeStats s = stats();
  std::string out = "{";
  auto field = [&out](const char* name, int64_t value, bool last = false) {
    out += "\"";
    out += name;
    out += "\":";
    out += std::to_string(value);
    if (!last) {
      out += ",";
    }
  };
  field("requests", s.requests);
  field("completed", s.completed);
  field("rejected", s.rejected);
  field("errors", s.errors);
  field("coalesced", s.coalesced);
  field("budget_sweeps", s.budget_sweeps);
  field("sweeps_from_cache", s.sweeps_from_cache);
  field("serializations_skipped", s.serializations_skipped);
  field("cache_hits", s.cache_hits);
  field("cache_misses", s.cache_misses);
  field("cache_evictions", s.cache_evictions);
  field("neighbor_seeded", s.neighbor_seeded);
  field("seed_adopted", s.seed_adopted);
  field("seed_fallbacks", s.seed_fallbacks);
  field("profile_dbs", s.profile_dbs);
  field("warm_starts", s.warm_starts);
  field("warm_start_errors", s.warm_start_errors);
  field("profile_lookups", s.profile_lookups);
  field("profile_misses", s.profile_misses, /*last=*/true);
  out += "}";
  return out;
}

}  // namespace serve
}  // namespace aceso
