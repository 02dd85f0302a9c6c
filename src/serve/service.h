// The multi-tenant planning service (DESIGN.md §14): plan requests in,
// cached or freshly searched plans out. Transport-independent — the HTTP
// daemon (daemon.h), the tests, and the serve bench all drive this class
// directly.
//
// One request flows through three layers, cheapest first:
//
//   1. PlanCache — the semantic key (PlanCacheKey) hits a previously
//      computed payload: replay it, no search, no model build beyond the
//      fingerprint. Counter-verified by tests: a duplicate request must not
//      re-enter AcesoSearch.
//   2. Single-flight — an *identical* request is already searching: wait on
//      it and share its payload ("coalesced"); N concurrent duplicates cost
//      one search.
//   3. Admission + search — at most `max_inflight_searches` searches run at
//      once (beyond that the request is rejected with ResourceExhausted, a
//      429 on the wire, rather than queued behind unbounded work); admitted
//      searches run as jobs on the service's shared pool; each search fans
//      its stage counts out on a pool of its own (DESIGN.md §11).
//
// Profile databases are materialized per cluster fingerprint and shared by
// every request for that cluster. With `snapshot_dir` set, a database whose
// snapshot file exists warm-starts from it (ProfileDatabase::Load refills
// the database from the file), so the daemon's first request on a profiled
// cluster runs zero simulated measurements.

#ifndef SRC_SERVE_SERVICE_H_
#define SRC_SERVE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/common/hash.h"
#include "src/common/stat_fields.h"
#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/profile/profile_db.h"
#include "src/serve/plan_cache.h"
#include "src/serve/plan_protocol.h"

namespace aceso {
namespace serve {

struct ServeOptions {
  // Shared pool width; 0 = max(hardware concurrency, max_inflight_searches)
  // so every admitted search gets a worker immediately.
  int worker_threads = 0;

  // Plan cache entries (0 disables the cache).
  size_t plan_cache_capacity = 64;

  // Neighbor-seeded incremental planning (DESIGN.md §17): on a plan-cache
  // miss, probe the similarity index for the nearest cached neighbor plan,
  // adapt it to the request (src/core/seed_adapt.h), and start the search
  // from it. The adopted plan is re-verdicted — never worse than both the
  // adapted seed and the unseeded heuristic init, falling back to an
  // unseeded search otherwise. Off restores strictly request-deterministic
  // answers (a seeded answer depends on what the cache held at miss time).
  bool neighbor_seed = true;

  // Admission bound: searches running at once before requests are rejected.
  int max_inflight_searches = 4;

  // When non-empty: profile snapshot directory. Databases warm-start from
  // `profile_<fingerprint>.apdb` when present; SaveProfiles() writes there
  // by default.
  std::string snapshot_dir;

  // ---- HTTP transport knobs (consumed by PlanDaemon / HttpServerOptions,
  // carried here so one options struct configures the whole daemon) ----
  int http_workers = 2;                    // epoll event-loop workers
  double http_idle_timeout_seconds = 30.0; // keep-alive idle eviction
  double http_read_timeout_seconds = 30.0; // partial-request eviction
};

// Monotonic service counters. Cache counters mirror the PlanCache.
struct ServeStats : StatsSnapshot<ServeStats> {
  int64_t requests = 0;        // Handle() calls
  int64_t completed = 0;       // searches run to completion
  int64_t rejected = 0;        // admission rejections
  int64_t errors = 0;          // invalid requests + failed searches
  int64_t coalesced = 0;       // served by an identical in-flight search
  // Budget-sweep requests (PlanRequest::memory_budgets), and the subset
  // answered straight from a cached frontier payload — zero searches run
  // (`completed` does not move; counter-verified by serve_test).
  int64_t budget_sweeps = 0;
  int64_t sweeps_from_cache = 0;
  // Responses answered from a pre-serialized payload with no JSON
  // construction at all (plain hits, coalesced waiters, and sweeps served
  // from a cached derived payload) — the zero-serialization fast path of
  // DESIGN.md §16. Counter-verified by serve_test.
  int64_t serializations_skipped = 0;
  int64_t cache_hits = 0;      // plan-cache hits (no search)
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;
  // Neighbor seeding (DESIGN.md §17): misses whose search started from an
  // adapted cached neighbor, split into adopted seeded results and
  // fallbacks to an unseeded search (the re-verdict rejected the seeded
  // result). Invariant: neighbor_seeded == seed_adopted + seed_fallbacks.
  int64_t neighbor_seeded = 0;
  int64_t seed_adopted = 0;
  int64_t seed_fallbacks = 0;
  int64_t profile_dbs = 0;     // databases materialized
  int64_t warm_starts = 0;     // databases loaded from a snapshot file
  int64_t warm_start_errors = 0;  // snapshot present but refused
  // Aggregated over every profile database (warm-start acceptance: a
  // snapshot-started daemon answers its first request with profile_misses
  // still zero).
  int64_t profile_lookups = 0;
  int64_t profile_misses = 0;

  // Also the /stats body, in this order.
  static constexpr StatField<ServeStats> kFields[] = {
      {"requests", &ServeStats::requests},
      {"completed", &ServeStats::completed},
      {"rejected", &ServeStats::rejected},
      {"errors", &ServeStats::errors},
      {"coalesced", &ServeStats::coalesced},
      {"budget_sweeps", &ServeStats::budget_sweeps},
      {"sweeps_from_cache", &ServeStats::sweeps_from_cache},
      {"serializations_skipped", &ServeStats::serializations_skipped},
      {"cache_hits", &ServeStats::cache_hits},
      {"cache_misses", &ServeStats::cache_misses},
      {"cache_evictions", &ServeStats::cache_evictions},
      {"neighbor_seeded", &ServeStats::neighbor_seeded},
      {"seed_adopted", &ServeStats::seed_adopted},
      {"seed_fallbacks", &ServeStats::seed_fallbacks},
      {"profile_dbs", &ServeStats::profile_dbs},
      {"warm_starts", &ServeStats::warm_starts},
      {"warm_start_errors", &ServeStats::warm_start_errors},
      {"profile_lookups", &ServeStats::profile_lookups},
      {"profile_misses", &ServeStats::profile_misses},
  };
};
static_assert(StatTableCovers<ServeStats>(/*gauges=*/0));

// The snapshot file for a cluster fingerprint inside `dir`:
// `<dir>/profile_<16-hex-digit fingerprint>.apdb`. Shared by the service's
// warm-start probe, SaveProfiles, the daemon tool, and CI.
std::string ProfileSnapshotPath(const std::string& dir, uint64_t fingerprint);

class PlanService {
 public:
  explicit PlanService(ServeOptions options = {});
  ~PlanService();

  PlanService(const PlanService&) = delete;
  PlanService& operator=(const PlanService&) = delete;

  // The response body is three parts — head + shared middle + tail — whose
  // concatenation is the wire envelope. On the zero-serialization path the
  // middle is the cached payload by reference (no copy); error responses
  // carry the whole envelope in `body_head`. The daemon hands the parts to
  // HttpResponseWriter::RespondParts, which writev()s them as-is.
  struct Response {
    Status status;      // request-level outcome (ok even for found=false)
    std::string cache;  // "hit" | "miss" | "coalesced" | "" (error/rejected)
    std::string body_head;
    std::shared_ptr<const std::string> body_mid;  // null for errors
    std::string body_tail;
    uint64_t key = 0;   // plan-cache key (0 when the request never keyed)

    // The full envelope, concatenated (tests, CLI clients, streaming).
    std::string body() const {
      std::string out = body_head;
      if (body_mid != nullptr) {
        out += *body_mid;
      }
      out += body_tail;
      return out;
    }
  };

  // Called with one JSON line per streamed event (no trailing newline).
  using EventCallback = std::function<void(const std::string& json_line)>;

  // Handles one request end to end: cache, single-flight, admission,
  // search. Blocking (the search runs on the pool; the calling thread
  // waits), thread-safe, and callable from many connection threads at once.
  // `on_event` (optional) streams telemetry events while the search runs —
  // only the request that runs the search streams; cache hits and coalesced
  // requests produce just the final body.
  Response Handle(const PlanRequest& request,
                  const EventCallback& on_event = nullptr);

  // Saves every materialized profile database to
  // `dir/profile_<fingerprint>.apdb` (empty dir = options.snapshot_dir).
  Status SaveProfiles(const std::string& dir = "");

  ServeStats stats() const;
  PlanCacheStats plan_cache_stats() const { return cache_.stats(); }

  const ServeOptions& options() const { return options_; }

 private:
  // A search in flight, shared between the request that runs it and any
  // coalesced duplicates waiting on it.
  struct Inflight;

  // The profile database for `cluster`, materializing (and, with a snapshot
  // dir, warm-starting) it on first use.
  ProfileDatabase* DbForCluster(const ClusterSpec& cluster);

  // The miss-path search with neighbor seeding (DESIGN.md §17): probe the
  // similarity index, adapt the nearest neighbor's plan, seed the search
  // from it, and re-verdict — the served plan is never worse than both the
  // adapted seed and the unseeded heuristic init (falls back to an unseeded
  // search otherwise). No usable neighbor degrades to a plain unseeded
  // search. Maintains the neighbor_seeded / seed_adopted / seed_fallbacks
  // counters; runs on a pool worker inside the runner's job.
  SearchResult SeededSearch(const PerformanceModel& model,
                            const SearchOptions& options, uint64_t key);

  // The immutable graph for a zoo model name, built once and shared by
  // every request (and by in-flight searches — PerformanceModel and
  // BuildPlanPayload only read it). Without this memo every cache hit paid
  // a full model build + fingerprint (~13 µs, the dominant cost of a hit).
  StatusOr<std::shared_ptr<const OpGraph>> GraphForModel(
      const std::string& name);

  std::string NextRequestId();

  ServeOptions options_;
  ThreadPool pool_;
  PlanCache cache_;

  mutable std::mutex db_mu_;
  std::unordered_map<uint64_t, std::unique_ptr<ProfileDatabase>, IdentityHash>
      dbs_;

  std::mutex model_mu_;
  std::unordered_map<std::string, std::shared_ptr<const OpGraph>> models_;

  std::mutex inflight_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<Inflight>, IdentityHash>
      inflight_;

  std::atomic<int64_t> running_searches_{0};
  std::atomic<int64_t> next_request_id_{1};
  // The service's own counters; the cache and profile counters of
  // ServeStats are read from the cache and the databases.
  AtomicStats<ServeStats> counters_;
};

}  // namespace serve
}  // namespace aceso

#endif  // SRC_SERVE_SERVICE_H_
