// serve-mix: PlanService / PlanDaemon with default ServeOptions (the daemon
// on loopback, in this process), warm-started from profile snapshots written
// in an untimed prep step.
//
// Closed loop: two keep-alive HttpClient connections, each sending its next
// request only after the reply. Each client's request sequence comes from
// (seed, client): mostly repeats of a warmed key set (plain hits and
// budget-sweep lookups on a warmed frontier request), and every kMissEvery-th
// request a per-client-unique perturbation of a warmed key (layer count, GPU
// count, seed or memory budget) at a small max_evaluations — a
// neighbor-seeded miss. The clients take turns with their misses (see
// Lockstep). The warmed set is a handful of entries, so under the default
// 64-entry cache the LRU victims are always older misses.
//
// Untraced run: the same kind of sequence first drives an in-process
// PlanService (the gated CPU costs), then the daemon over HTTP (correctness
// over the wire, wall-clock latencies); see RunServeWorkload.
//
// Traced run: the mix with spans around each request, its overhead against
// an untraced phase, an in-process PlanService::Handle replay of a fresh
// sequence (per-path service time), and probes of the protocol layer.

#include <algorithm>
#include <barrier>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/bench_common.h"
#include "src/aceso.h"

namespace perfbench {
namespace {

using aceso::serve::HttpClient;
using aceso::serve::PlanDaemon;
using aceso::serve::PlanService;
using aceso::serve::ServeOptions;
using aceso::serve::ServeStats;

// The traffic mix is assumed, not observed: no measured request log or
// stated hit rate exists for this daemon. Each constant follows from a
// criterion instead (README.md, "The serve-mix traffic").
//
// Two HTTP clients: the fewest that put plan-cache reads beside another
// client's inserts and evictions.
constexpr int kClients = 2;
// One request in kMissEvery is a miss (~30-50 ms against ~45-65 µs for a
// hit): the rarest miss rate that still gives a 30 s run at least three
// times the 100 HTTP misses its miss p90 needs (300-700 measured).
constexpr int kMissEvery = 200;
// Per stage count, misses and warmed keys alike: the small search the
// serving path was sized with (gpt3-0.35b@8, ~36 ms in-process).
constexpr int64_t kMaxEvals = 100;
constexpr int64_t kGiB = int64_t{1} << 30;

enum class Path { kHit, kSweep, kMiss };

struct Request {
  Path path = Path::kHit;
  int key = 0;  // index into the warmed set (hits and sweeps)
  std::string body;
};

struct WarmKey {
  std::string model;
  int gpus;
  bool frontier;
  std::string budgets;  // non-empty: a sweep over the frontier entry
};

// The warmed set, picked uniformly (no key popularity is known): one plain
// key per model and cluster the misses perturb, so every miss finds a
// neighbor in its family; the frontier key; and four sweeps on it, within
// the derived-payload cap of 8 per entry. Nine entries leave 55 of the
// default 64 to misses, so the LRU victims are always older misses.
const std::vector<WarmKey> kWarm = {
    {"gpt3-0.35b", 8, false, ""},
    {"gpt3-0.35b", 4, false, ""},
    {"deepnet-16", 8, false, ""},
    {"deepnet-24", 8, false, ""},
    {"gpt3-0.35b", 8, true, ""},
    {"gpt3-0.35b", 8, true, "[8589934592]"},
    {"gpt3-0.35b", 8, true, "[12884901888,17179869184]"},
    {"gpt3-0.35b", 8, true, "[17179869184,21474836480,25769803776]"},
    {"gpt3-0.35b", 8, true, "[21474836480]"},
};
constexpr int kFrontierKey = 4;

std::string Body(const std::string& model, int gpus, uint64_t seed,
                 bool frontier, const std::string& budgets,
                 int64_t memory_budget, const std::string& request_id) {
  std::string body = "{\"model\":\"" + model + "\"";
  body += ",\"gpus\":" + std::to_string(gpus);
  body += ",\"budget_seconds\":600";
  body += ",\"max_evaluations\":" + std::to_string(kMaxEvals);
  body += ",\"seed\":" + std::to_string(seed);
  if (frontier) body += ",\"frontier\":true";
  if (!budgets.empty()) body += ",\"memory_budgets\":" + budgets;
  if (memory_budget > 0) {
    body += ",\"memory_budget_bytes\":" + std::to_string(memory_budget);
  }
  body += ",\"request_id\":\"" + request_id + "\"}";
  return body;
}

std::string WarmBody(int k) {
  const WarmKey& w = kWarm[static_cast<size_t>(k)];
  return Body(w.model, w.gpus, 20240422, w.frontier, w.budgets, 0,
              "w" + std::to_string(k));
}

// splitmix64: the request-sequence generator.
struct Rng {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  int Below(int n) {
    return static_cast<int>(Next() % static_cast<uint64_t>(n));
  }
};

// Request i of client `client`'s sequence. Miss keys embed (client, i) in
// the search seed, so no two misses of a run share a key.
Request MakeRequest(uint64_t seed, int client, int64_t i) {
  Rng rng{seed * 1000003ULL + static_cast<uint64_t>(client) * 7919ULL +
          static_cast<uint64_t>(i) * 0x9e3779b97f4a7c15ULL};
  Request r;
  if (i % kMissEvery == kMissEvery - 1) {
    r.path = Path::kMiss;
    const uint64_t miss_seed =
        1000000ULL * (static_cast<uint64_t>(client) + 1) +
        static_cast<uint64_t>(i / kMissEvery) + (seed % 1000) * 100000000ULL;
    const std::string id = "m" + std::to_string(client);
    // The four kinds take turns in equal shares (no measured proportions
    // exist), so every run has the same mix; the seed picks their
    // parameters.
    switch ((i / kMissEvery + client) % 4) {
      case 0:  // seed
        r.body = Body("gpt3-0.35b", 8, miss_seed, false, "", 0, id);
        break;
      case 1:  // layer count
        r.body = Body("deepnet-" + std::to_string(17 + rng.Below(6)), 8,
                      miss_seed, false, "", 0, id);
        break;
      case 2:  // GPU count
        r.body = Body("deepnet-16", 4, miss_seed, false, "", 0, id);
        break;
      default:  // memory budget
        r.body = Body("gpt3-0.35b", 8, miss_seed, false, "",
                      (16 + rng.Below(12)) * kGiB, id);
        break;
    }
    return r;
  }
  r.key = rng.Below(static_cast<int>(kWarm.size()));
  r.path = kWarm[static_cast<size_t>(r.key)].budgets.empty() ? Path::kHit
                                                             : Path::kSweep;
  r.body = WarmBody(r.key);
  return r;
}

// The `"cache":"..."` class of a response envelope and the payload suffix
// after `"payload":` (empty for errors).
std::string CacheClass(const std::string& body) {
  const size_t at = body.find("\"cache\":\"");
  if (at == std::string::npos) return "";
  const size_t start = at + 9;
  return body.substr(start, body.find('"', start) - start);
}
std::string Payload(const std::string& body) {
  const size_t at = body.find("\"payload\":");
  return at == std::string::npos ? "" : body.substr(at + 10);
}
// The plan member of a payload: what must not change between two searches
// of one key (the payload also carries the search's wall time).
std::string PlanOf(const std::string& payload) {
  const size_t at = payload.find("\"plan\":");
  const size_t end = payload.find(",\"search\":", at);
  return at == std::string::npos || end == std::string::npos
             ? ""
             : payload.substr(at, end - at);
}
double SearchSeconds(const std::string& body) {
  const size_t at = body.find("\"search\":{\"seconds\":");
  return at == std::string::npos ? 0.0 : std::atof(body.c_str() + at + 20);
}

struct Daemon {
  std::unique_ptr<PlanDaemon> daemon;
  std::vector<std::string> warm_payloads;  // per warmed key
};

ServeOptions Options(const std::string& snapshot_dir) {
  ServeOptions options;  // defaults, except where the snapshots live
  options.snapshot_dir = snapshot_dir;
  return options;
}

// Prep (untimed): fills one profile database per cluster of the mix with
// every key a search over these models can look up — each op at every
// power-of-two shard degree and per-replica batch, each collective bucket at
// every group size — and saves them as the daemons' warm-start snapshots.
// The timed daemons must then measure nothing. The databases draw their
// simulated measurement jitter from `profile_seed`.
bool WriteSnapshots(const std::string& dir, uint64_t profile_seed) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  for (int gpus : {4, 8}) {
    const aceso::ClusterSpec cluster = aceso::ClusterSpec::WithGpuCount(gpus);
    aceso::ProfileDatabase db(cluster, profile_seed);
    for (const char* name : {"gpt3-0.35b", "deepnet-24"}) {
      auto graph = aceso::models::BuildByName(name);
      if (!graph.ok()) return false;
      for (int i = 0; i < graph->num_ops(); ++i) {
        const aceso::Operator& op = graph->op(i);
        for (int tp = 1; tp <= gpus; tp *= 2) {
          for (int64_t batch = 1; batch <= graph->global_batch_size();
               batch *= 2) {
            (void)db.OpTime(op, graph->precision(),
                            aceso::EffectiveShards(op, tp),
                            static_cast<int>(batch));
          }
        }
      }
    }
    for (int kind = 0; kind <= static_cast<int>(
                                   aceso::CollectiveKind::kBroadcast);
         ++kind) {
      for (int size = 2; size <= gpus; size *= 2) {
        for (bool crosses : {false, true}) {
          for (int log2 = 0; log2 <= 44; ++log2) {
            (void)db.CollectiveTime(static_cast<aceso::CollectiveKind>(kind),
                                    int64_t{1} << log2,
                                    aceso::CommDomain{size, crosses});
          }
        }
      }
    }
    const std::string path =
        aceso::serve::ProfileSnapshotPath(dir, cluster.Fingerprint());
    if (!db.Save(path).ok()) return false;
  }
  return true;
}

// Starts a daemon and warms every key (sequentially, in set order) until
// each answers "hit"; records each key's first payload.
std::unique_ptr<Daemon> StartDaemon(const std::string& snapshot_dir,
                                    Result* result) {
  auto d = std::make_unique<Daemon>();
  d->daemon = std::make_unique<PlanDaemon>(Options(snapshot_dir));
  if (!d->daemon->Start("127.0.0.1", 0).ok()) {
    result->Check(false, "daemon failed to start");
    return nullptr;
  }
  HttpClient client("127.0.0.1", d->daemon->port());
  for (int k = 0; k < static_cast<int>(kWarm.size()); ++k) {
    auto response = client.Call("POST", "/plan", WarmBody(k));
    const bool ok = response.ok() && response->status_code == 200;
    result->Check(ok, "warm-up request failed: " + WarmBody(k));
    d->warm_payloads.push_back(ok ? Payload(response->body) : "");
  }
  for (int k = 0; k < static_cast<int>(kWarm.size()); ++k) {
    auto response = client.Call("POST", "/plan", WarmBody(k));
    result->Check(response.ok() && response->status_code == 200 &&
                      CacheClass(response->body) == "hit" &&
                      Payload(response->body) ==
                          d->warm_payloads[static_cast<size_t>(k)],
                  "warmed key is not served from the cache: " + WarmBody(k));
  }
  return d;
}

// Hit latencies kept per client and segment: a uniform sample of the
// segment's hits (a segment has several times more).
constexpr size_t kHitSamples = 4096;
// In-process hits kept per run (a run has several times more).
constexpr size_t kInProcessHitSamples = size_t{1} << 15;

struct ClientLog {
  Reservoir hit_ms{kHitSamples};  // hits and sweeps
  std::vector<double> miss_ms, miss_search_s;
  int64_t completed = 0;
  int64_t next_index = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 5) errors.push_back(what);
  }
};

// Lines up the two clients' misses. Both clients' sequences put a miss at
// the same positions; there the clients meet, client 0's miss runs alone,
// then client 1's, and then both resume hits. On a 4-core host a search's
// pool threads and the other client's hit loop would otherwise contend for
// cores in whatever overlap the scheduler produced, and run-to-run latencies
// swung 1.5-2x with that luck rather than with the program.
class Lockstep {
 public:
  void BeforeMiss(int client) {
    barrier_.arrive_and_wait();
    if (client == 1) barrier_.arrive_and_wait();
  }
  void AfterMiss(int client) {
    if (client == 0) barrier_.arrive_and_wait();
    barrier_.arrive_and_wait();
  }
  // A client past the deadline leaves; the other finishes alone.
  void Leave() { barrier_.arrive_and_drop(); }

 private:
  std::barrier<> barrier_{kClients};
};

// One closed-loop client: sends requests [log->next_index, ...) until
// `deadline`, checking every reply.
void RunClient(int port, uint64_t seed, int client, double deadline,
               const std::vector<std::string>& warm_payloads,
               Lockstep* lockstep, SpanRecorder* rec, ClientLog* log) {
  HttpClient http("127.0.0.1", port);
  while (NowSeconds() < deadline) {
    const Request req = MakeRequest(seed, client, log->next_index++);
    const bool miss = req.path == Path::kMiss;
    if (miss) lockstep->BeforeMiss(client);
    const char* span_name = miss                       ? "request.miss"
                            : req.path == Path::kSweep ? "request.sweep"
                                                       : "request.hit";
    if (rec != nullptr) rec->NewTrace();
    const double t0 = NowSeconds();
    aceso::StatusOr<aceso::serve::HttpResponse> response =
        aceso::InvalidArgument("not sent");
    {
      ScopedSpan span(rec, span_name);
      ScopedSpan call(rec, "http.call");
      response = http.Call("POST", "/plan", req.body);
    }
    const double ms = 1e3 * (NowSeconds() - t0);
    if (miss) lockstep->AfterMiss(client);
    ++log->attempted;
    if (!response.ok() || response->status_code != 200) {
      log->Fail("request failed (" +
                (response.ok() ? std::to_string(response->status_code)
                               : response.status().ToString()) +
                "): " + req.body);
      continue;
    }
    const std::string cache = CacheClass(response->body);
    if (miss) {
      if (cache != "miss") {
        log->Fail("expected a miss, got \"" + cache + "\": " + req.body);
        continue;
      }
      log->miss_ms.push_back(ms);
      log->miss_search_s.push_back(SearchSeconds(response->body));
    } else {
      if (cache != "hit" ||
          Payload(response->body) !=
              warm_payloads[static_cast<size_t>(req.key)]) {
        log->Fail("expected a byte-identical hit, got \"" + cache +
                  "\": " + req.body);
        continue;
      }
      log->hit_ms.Add(ms);
    }
    ++log->completed;
  }
  lockstep->Leave();
}

// Checks a timed stretch's service-counter deltas: a warm-started service
// measures nothing, and every neighbor-seeded miss was adopted or fell back.
void CheckServeStats(const ServeStats& delta, Result* result) {
  result->Check(delta.profile_misses == 0,
                "timed phase ran " + std::to_string(delta.profile_misses) +
                    " profile measurements on a warm-started service");
  result->Check(
      delta.neighbor_seeded == delta.seed_adopted + delta.seed_fallbacks,
      "neighbor_seeded != seed_adopted + seed_fallbacks");
}

struct Phase {
  std::vector<ClientLog> logs;
  double seconds = 0.0;
  ServeStats serve;
  aceso::serve::PlanCacheStats cache;
  aceso::serve::HttpServerStats http;
  std::vector<double> hits_ms;  // hits and sweeps
  std::vector<double> misses_ms;
  std::vector<double> miss_search_s;
  int64_t completed = 0;
};

Phase RunPhase(Daemon& d, uint64_t seed, double seconds,
               std::vector<SpanRecorder>* recs,
               std::vector<ClientLog> logs, Result* result) {
  Phase phase;
  PlanService& service = d.daemon->service();
  const ServeStats serve0 = service.stats();
  const auto cache0 = service.plan_cache_stats();
  const auto http0 = d.daemon->http_stats();
  const double start = NowSeconds();
  const double deadline = start + seconds;
  std::vector<std::thread> threads;
  Lockstep lockstep;
  // Both clients start at the same cycle boundary (indices are never
  // reused, so miss keys stay unique).
  int64_t start_index = 0;
  for (const ClientLog& log : logs) {
    start_index = std::max(start_index, log.next_index);
  }
  start_index = (start_index + kMissEvery - 1) / kMissEvery * kMissEvery;
  for (ClientLog& log : logs) log.next_index = start_index;
  for (int c = 0; c < kClients; ++c) {
    SpanRecorder* rec = recs != nullptr ? &(*recs)[static_cast<size_t>(c)]
                                        : nullptr;
    threads.emplace_back(RunClient, d.daemon->port(), seed, c, deadline,
                         std::cref(d.warm_payloads), &lockstep, rec,
                         &logs[static_cast<size_t>(c)]);
  }
  for (std::thread& t : threads) t.join();
  phase.seconds = NowSeconds() - start;
  phase.serve = service.stats() - serve0;
  phase.cache = service.plan_cache_stats() - cache0;
  phase.http = d.daemon->http_stats() - http0;
  for (ClientLog& log : logs) {
    result->attempted += log.attempted;
    result->failed += log.failed;
    for (const std::string& e : log.errors) {
      if (result->errors.size() < 20) result->errors.push_back(e);
    }
    phase.completed += log.completed;
    const std::vector<double> hits = log.hit_ms.Values();
    phase.hits_ms.insert(phase.hits_ms.end(), hits.begin(), hits.end());
    phase.misses_ms.insert(phase.misses_ms.end(), log.miss_ms.begin(),
                           log.miss_ms.end());
    phase.miss_search_s.insert(phase.miss_search_s.end(),
                               log.miss_search_s.begin(),
                               log.miss_search_s.end());
  }
  phase.logs = std::move(logs);
  CheckServeStats(phase.serve, result);
  return phase;
}

// Predicted iteration time of the warmed frontier plan, as its payload
// states it.
double PlanIterSeconds(const std::string& frontier_payload, Result* result) {
  auto doc = aceso::JsonParse(frontier_payload.substr(
      0, frontier_payload.size() - 1));  // drop the envelope's closing brace
  const aceso::JsonValue* plan = doc.ok() ? doc->Find("plan") : nullptr;
  const aceso::JsonValue* time =
      plan != nullptr ? plan->Find("iteration_time") : nullptr;
  const bool ok = time != nullptr && time->is_number();
  result->Check(ok, "frontier payload carries no plan iteration time");
  return ok ? time->number_value() : 0.0;
}

// Milliseconds to read every snapshot in `dir` into a fresh database.
double ProfileLoadMs(const std::string& dir, Result* result) {
  double total = 0.0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const double t0 = NowSeconds();
    auto info = aceso::ProfileDatabase::ReadSnapshotHeader(entry.path());
    bool ok = info.ok();
    if (ok) {
      aceso::ProfileDatabase db(info->cluster);
      ok = db.Load(entry.path()).ok();
    }
    total += NowSeconds() - t0;
    result->Check(ok, "cannot load snapshot " + entry.path().string());
  }
  return 1e3 * total;
}

// Warms an in-process service with every key, checks each is then served
// from the cache, and returns each key's payload.
std::vector<std::string> WarmService(PlanService& service, Result* result) {
  std::vector<std::string> payloads;
  for (int pass = 0; pass < 2; ++pass) {
    for (int k = 0; k < static_cast<int>(kWarm.size()); ++k) {
      auto request = aceso::serve::ParsePlanRequestJson(WarmBody(k));
      if (!request.ok()) {
        result->Check(false, "bad warm-up request: " + WarmBody(k));
        continue;
      }
      const PlanService::Response response = service.Handle(*request);
      const std::string payload =
          response.body_mid != nullptr ? *response.body_mid + response.body_tail
                                       : "";
      if (pass == 0) {
        result->Check(response.status.ok(), "warm-up failed: " + WarmBody(k));
        payloads.push_back(payload);
      } else {
        result->Check(response.cache == "hit" &&
                          payload == payloads[static_cast<size_t>(k)],
                      "warmed key is not served from the cache: " +
                          WarmBody(k));
      }
    }
  }
  return payloads;
}

// Per-request costs of in-process PlanService::Handle calls. Hits are
// sampled into fixed reservoirs so memory does not grow with the hit count.
struct InProcess {
  Reservoir hit_us{kInProcessHitSamples}, sweep_us{kInProcessHitSamples};
  Reservoir hit_cpu_s{kInProcessHitSamples};  // calling thread's CPU
  std::vector<double> miss_ms;     // wall
  std::vector<double> miss_cpu_s;  // process CPU (the search runs on the pool)
};

// One caller driving `service` through requests [*next, ...) of sequence
// `client` until `seconds` pass, checking every answer.
void RunInProcess(PlanService& service, uint64_t seed, int client,
                  double seconds, const std::vector<std::string>& warm_payloads,
                  int64_t* next, InProcess* out, Result* result) {
  const ServeStats before = service.stats();
  const double deadline = NowSeconds() + seconds;
  while (NowSeconds() < deadline) {
    const Request req = MakeRequest(seed, client, (*next)++);
    auto parsed = aceso::serve::ParsePlanRequestJson(req.body);
    if (!parsed.ok()) {
      result->Check(false, "in-process: bad request " + req.body);
      continue;
    }
    const double cpu0 = req.path == Path::kMiss ? ProcessCpuSeconds()
                                                : ThreadCpuSeconds();
    const double t0 = NowSeconds();
    PlanService::Response response = service.Handle(*parsed);
    const double dt = NowSeconds() - t0;
    const double cpu = (req.path == Path::kMiss ? ProcessCpuSeconds()
                                                : ThreadCpuSeconds()) -
                       cpu0;
    const bool ok =
        response.status.ok() &&
        (req.path == Path::kMiss
             ? response.cache == "miss"
             : response.cache == "hit" && response.body_mid != nullptr &&
                   *response.body_mid + response.body_tail ==
                       warm_payloads[static_cast<size_t>(req.key)]);
    result->Check(ok, "in-process: wrong answer for " + req.body);
    if (req.path == Path::kMiss) {
      out->miss_ms.push_back(1e3 * dt);
      out->miss_cpu_s.push_back(cpu);
    } else {
      (req.path == Path::kHit ? out->hit_us : out->sweep_us).Add(1e6 * dt);
      out->hit_cpu_s.Add(cpu);
    }
  }
  CheckServeStats(service.stats() - before, result);
}

}  // namespace

void ProtocolProbes(const std::string& body, const aceso::OpGraph& graph,
                    const aceso::ClusterSpec& cluster,
                    const aceso::SearchResult& searched, Result* result) {
  constexpr int kReps = 20000;
  double t0 = NowSeconds();
  for (int i = 0; i < kReps; ++i) {
    if (!aceso::serve::ParsePlanRequestJson(body).ok()) {
      result->Check(false, "protocol probe: bad request " + body);
      return;
    }
  }
  result->Set("protocol.parse_us", 1e6 * (NowSeconds() - t0) / kReps, "us",
              kReps);
  const aceso::SearchOptions options = aceso::serve::ToSearchOptions(
      *aceso::serve::ParsePlanRequestJson(body), 2);
  t0 = NowSeconds();
  for (int i = 0; i < kReps; ++i) {
    (void)aceso::serve::PlanCacheKey(graph, cluster, options);
  }
  result->Set("protocol.key_us", 1e6 * (NowSeconds() - t0) / kReps, "us",
              kReps);
  constexpr int kPayloadReps = 50;
  t0 = NowSeconds();
  for (int i = 0; i < kPayloadReps; ++i) {
    (void)aceso::serve::BuildPlanPayload(graph, cluster, searched);
  }
  result->Set("protocol.payload_ms", 1e3 * (NowSeconds() - t0) / kPayloadReps,
              "ms", kPayloadReps);
}

void ServiceProbe(const std::string& body, const std::string& snapshot_dir,
                  Result* result) {
  auto request = aceso::serve::ParsePlanRequestJson(body);
  PlanDaemon daemon{ServeOptions{}};
  if (!request.ok() || !daemon.Start("127.0.0.1", 0).ok()) {
    result->Check(false, "service probe could not start: " + body);
    return;
  }
  PlanService& service = daemon.service();
  const auto timed = [&](const aceso::serve::PlanRequest& r, double* secs) {
    const double t0 = NowSeconds();
    PlanService::Response response = service.Handle(r);
    *secs = NowSeconds() - t0;
    return response;
  };
  double secs = 0;
  const PlanService::Response miss = timed(*request, &secs);
  result->Check(miss.status.ok() && miss.cache == "miss",
                "service probe: first request was not a miss");
  result->Set("service.miss_ms", 1e3 * secs, "ms", 1);

  constexpr int kReps = 2000;
  std::vector<double> hit_us, sweep_us, http_us;
  for (int i = 0; i < kReps; ++i) {
    const PlanService::Response hit = timed(*request, &secs);
    hit_us.push_back(1e6 * secs);
    if (hit.cache != "hit") result->Check(false, "service probe: not a hit");
  }
  aceso::serve::PlanRequest sweep = *request;
  sweep.frontier = true;
  result->Check(service.Handle(sweep).status.ok(),
                "service probe: frontier search failed");
  sweep.memory_budgets = {16 * kGiB, 24 * kGiB};
  for (int i = 0; i <= kReps; ++i) {
    const PlanService::Response r = timed(sweep, &secs);
    if (i > 0) sweep_us.push_back(1e6 * secs);  // the first one derives it
    if (!r.status.ok()) result->Check(false, "service probe: sweep failed");
  }
  HttpClient http("127.0.0.1", daemon.port());
  for (int i = 0; i < kReps; ++i) {
    const double t0 = NowSeconds();
    auto response = http.Call("POST", "/plan", body);
    http_us.push_back(1e6 * (NowSeconds() - t0));
    if (!response.ok() || response->status_code != 200 ||
        CacheClass(response->body) != "hit") {
      result->Check(false, "service probe: HTTP hit failed");
    }
  }
  result->Set("service.hit_us", Median(hit_us), "us", kReps);
  result->Set("service.sweep_us", Median(sweep_us), "us", kReps);
  result->Set("http.hit_overhead_us", Median(http_us) - Median(hit_us), "us",
              kReps);
  std::filesystem::remove_all(snapshot_dir);
  std::filesystem::create_directories(snapshot_dir);
  result->Check(service.SaveProfiles(snapshot_dir).ok(),
                "service probe: cannot save profiles");
  daemon.Stop();
  std::vector<double> loads;
  for (int i = 0; i < 3; ++i) {
    loads.push_back(ProfileLoadMs(snapshot_dir, result));
  }
  result->Set("profile.load_ms", Median(loads), "ms", 3);
}

Result RunServeWorkload(const Args& args) {
  Result result;
  result.context["mix"] =
      "2 keep-alive clients; 1 in " + std::to_string(kMissEvery) +
      " requests a miss; " + std::to_string(kWarm.size()) + " warmed keys";
  result.context["max_evaluations"] =
      std::to_string(kMaxEvals) + " per stage count (misses and warmed keys)";
  // The timed services profile with the library's default seed, so their
  // costs do not depend on the run's seed.
  const std::string snapshots = args.out_dir + "/serve-snapshots";
  if (!WriteSnapshots(snapshots, 20240422)) {
    result.Check(false, "prep step failed to write profile snapshots");
    return result;
  }

  if (!args.trace) {
    // Half of --seconds drives an in-process PlanService (the gated CPU
    // costs), half the HTTP daemon (correctness over the wire and the
    // reported wall-clock latencies). Each half is kSegments segments, each
    // on a fresh service or daemon: build it, warm it from the snapshots
    // until every warmed key is cached (one set-up sample), then run the
    // loop for the segment's share. Sequences continue across segments, so
    // every miss stays a new key.
    //
    // The CPU costs come from the in-process half because over loopback most
    // of a hit's CPU is kernel and hypervisor work (wake-ups, syscalls) whose
    // cost swung by a third between otherwise identical runs on a shared
    // 4-vCPU VM; the service's own work does not.
    constexpr int kSegments = 3;
    const double segment_s = args.seconds / 2 / kSegments;
    std::vector<double> setup_cpu;
    std::vector<std::string> first_plans;
    const auto check_plans = [&](const std::vector<std::string>& payloads) {
      if (first_plans.empty()) {
        for (const std::string& p : payloads) first_plans.push_back(PlanOf(p));
      }
      for (size_t k = 0; k < kWarm.size() && k < payloads.size(); ++k) {
        result.Check(PlanOf(payloads[k]) == first_plans[k],
                     "a fresh service planned a warmed key differently: " +
                         WarmBody(static_cast<int>(k)));
      }
    };
    InProcess in;
    int64_t next = 0;
    for (int seg = 0; seg < kSegments; ++seg) {
      const double cpu0 = ProcessCpuSeconds();
      auto service = std::make_unique<PlanService>(Options(snapshots));
      const std::vector<std::string> payloads = WarmService(*service, &result);
      setup_cpu.push_back(ProcessCpuSeconds() - cpu0);
      check_plans(payloads);
      RunInProcess(*service, args.seed, kClients, segment_s, payloads, &next,
                   &in, &result);
    }

    std::vector<double> setups, hits, misses, miss_search;
    int64_t completed = 0;
    double seconds = 0;
    std::vector<ClientLog> logs(kClients);
    for (int seg = 0; seg < kSegments; ++seg) {
      const double t0 = NowSeconds();
      std::unique_ptr<Daemon> d = StartDaemon(snapshots, &result);
      if (d == nullptr) return result;
      setups.push_back(NowSeconds() - t0);
      check_plans(d->warm_payloads);
      std::vector<ClientLog> next_logs(kClients);
      for (int c = 0; c < kClients; ++c) {
        next_logs[static_cast<size_t>(c)].next_index =
            logs[static_cast<size_t>(c)].next_index;
      }
      Phase phase = RunPhase(*d, args.seed, segment_s, nullptr,
                             std::move(next_logs), &result);
      d->daemon->Stop();
      logs = std::move(phase.logs);
      hits.insert(hits.end(), phase.hits_ms.begin(), phase.hits_ms.end());
      misses.insert(misses.end(), phase.misses_ms.begin(),
                    phase.misses_ms.end());
      miss_search.insert(miss_search.end(), phase.miss_search_s.begin(),
                         phase.miss_search_s.end());
      completed += phase.completed;
      seconds += phase.seconds;
    }
    // Plan quality: a service warm-started from snapshots whose simulated
    // measurement jitter comes from the run's seed, so each seed plans for a
    // slightly different machine; its frontier payload states the plan's
    // predicted iteration time.
    const std::string machine = args.out_dir + "/serve-snapshots-seeded";
    if (!WriteSnapshots(machine, args.seed)) {
      result.Check(false, "prep step failed to write seeded snapshots");
      return result;
    }
    PlanService planner(Options(machine));
    const std::vector<std::string> planned = WarmService(planner, &result);
    const std::string frontier_payload =
        planned.size() > kFrontierKey ? planned[kFrontierKey] : "";

    const auto n = [](const std::vector<double>& v) {
      return static_cast<int64_t>(v.size());
    };
    result.Check(misses.size() >= 100, "fewer than 100 misses over HTTP: " +
                                           std::to_string(misses.size()));
    // Gated (BENCHMARK.json): CPU-time costs, plan quality, memory.
    result.Set("search_cpu_s", Median(in.miss_cpu_s), "s",
               n(in.miss_cpu_s));
    result.Set("hit_cpu_us", 1e6 * Median(in.hit_cpu_s.Values()), "us",
               static_cast<int64_t>(in.hit_cpu_s.seen()));
    result.Set("setup_s", Median(setup_cpu), "s", kSegments);
    result.Set("plan_iter_s", PlanIterSeconds(frontier_payload, &result), "s");
    // Reported, not gated: wall-clock times over HTTP.
    result.Set("hit_p50_ms", Median(hits), "ms", n(hits));
    result.Set("hit_p99_ms", Quantile(hits, 0.99), "ms", n(hits));
    result.Set("miss_p50_ms", Median(misses), "ms", n(misses));
    result.Set("miss_p90_ms", Quantile(misses, 0.9), "ms", n(misses));
    result.Set("serve_rps", static_cast<double>(completed) / seconds, "req/s",
               completed);
    result.Set("search_s", Median(miss_search), "s", n(miss_search));
    result.Set("setup_wall_s", Median(setups), "s", kSegments);
    result.context["segments"] =
        std::to_string(kSegments) + " in-process + " +
        std::to_string(kSegments) + " HTTP";
    result.context["samples.hit"] = std::to_string(hits.size());
    result.context["samples.miss"] = std::to_string(misses.size());
    result.context["samples.in_process_hit"] =
        std::to_string(in.hit_cpu_s.seen());
    result.context["samples.in_process_miss"] =
        std::to_string(in.miss_cpu_s.size());
    return result;
  }

  // ---- traced run ----
  // The process's first search (warmed key 0, in-process and cold), whose
  // result also feeds the payload probe; then the search layers' replay on
  // the same model.
  {
    auto graph = aceso::models::BuildByName(kWarm[0].model);
    auto request = aceso::serve::ParsePlanRequestJson(WarmBody(0));
    if (!graph.ok() || !request.ok()) {
      result.Check(false, "cannot build warmed key 0");
      return result;
    }
    const aceso::ClusterSpec cluster =
        aceso::ClusterSpec::WithGpuCount(kWarm[0].gpus);
    aceso::ProfileDatabase db(cluster);
    aceso::PerformanceModel model(&*graph, cluster, &db);
    const double t0 = NowSeconds();
    const aceso::SearchResult searched =
        aceso::AcesoSearch(model, aceso::serve::ToSearchOptions(*request, 2));
    result.Set("search.first_s", NowSeconds() - t0, "s");
    ProtocolProbes(WarmBody(0), *graph, cluster, searched, &result);
    LayerReplay(*graph, cluster, 0, kMaxEvals,
                args.out_dir + "/serve-mix-" + std::to_string(args.seed) +
                    "-replay.trace.json",
                &result);
  }
  std::vector<double> builds;
  for (int i = 0; i < 5; ++i) {
    const double t0 = NowSeconds();
    auto graph = aceso::models::BuildByName("gpt3-0.35b");
    builds.push_back(NowSeconds() - t0);
  }
  std::vector<double> loads;
  for (int i = 0; i < 3; ++i) {
    loads.push_back(ProfileLoadMs(snapshots, &result));
  }
  std::unique_ptr<Daemon> d = StartDaemon(snapshots, &result);
  if (d == nullptr) return result;
  const double quarter = args.seconds / 4;
  // Untraced then traced phase; the traced clients continue the sequences
  // where the untraced ones stopped, so their misses are fresh keys.
  Phase plain = RunPhase(*d, args.seed, quarter, nullptr,
                         std::vector<ClientLog>(kClients), &result);
  const double epoch = NowSeconds();
  std::vector<SpanRecorder> recs;
  for (int c = 0; c < kClients; ++c) recs.emplace_back(c, epoch);
  std::vector<ClientLog> cont(kClients);
  for (int c = 0; c < kClients; ++c) {
    cont[static_cast<size_t>(c)].next_index =
        plain.logs[static_cast<size_t>(c)].next_index;
  }
  Phase traced = RunPhase(*d, args.seed, quarter, &recs, std::move(cont),
                          &result);
  // In-process Handle on the same daemon's service, over a sequence of its
  // own (client id kClients), so its misses are new keys.
  InProcess in;
  int64_t next = 0;
  RunInProcess(d->daemon->service(), args.seed, kClients, quarter,
               d->warm_payloads, &next, &in, &result);
  d->daemon->Stop();
  result.Set("service.hit_us", Median(in.hit_us.Values()), "us",
             static_cast<int64_t>(in.hit_us.seen()));
  result.Set("service.sweep_us", Median(in.sweep_us.Values()), "us",
             static_cast<int64_t>(in.sweep_us.seen()));
  result.Set("service.miss_ms", Median(in.miss_ms), "ms",
             static_cast<int64_t>(in.miss_ms.size()));

  const ServeStats& s = traced.serve;
  const auto& cache = traced.cache;
  result.Set("plan_cache.hit_ratio",
             Ratio(cache.hits, cache.hits + cache.misses), "ratio");
  result.Set("plan_cache.evictions", cache.evictions, "count");
  result.Set("plan_cache.neighbor_hit_ratio",
             Ratio(cache.neighbor_hits, cache.neighbor_probes), "ratio");
  result.Set("service.seed_adopt_ratio",
             Ratio(s.seed_adopted, s.neighbor_seeded), "ratio");
  result.Set("service.coalesced", s.coalesced, "count");
  result.Set("service.rejected", s.rejected, "count");
  result.Set("profile.lookups", s.profile_lookups, "count");
  result.Set("profile.measurements", s.profile_misses, "count");
  result.Set("profile.hit_ratio",
             1.0 - Ratio(s.profile_misses, s.profile_lookups), "ratio");
  result.Set("profile.load_ms", Median(loads), "ms",
             static_cast<int64_t>(loads.size()));
  std::vector<double> build_ms;
  for (double b : builds) build_ms.push_back(1e3 * b);
  result.Set("ir.build_ms", Median(build_ms), "ms",
             static_cast<int64_t>(build_ms.size()));
  const double http_hit_us = 1e3 * Median(plain.hits_ms);
  result.Set("http.hit_overhead_us",
             http_hit_us - result.metrics["service.hit_us"].value, "us",
             static_cast<int64_t>(plain.hits_ms.size()));
  result.Set("http.bytes_out_per_req",
             Ratio(traced.http.bytes_out, traced.http.requests_served),
             "bytes");
  result.Set("http.keepalive_reuses", traced.http.keepalive_reuses, "count");
  result.Set("trace.hit_overhead",
             Ratio(Median(traced.hits_ms), Median(plain.hits_ms)), "ratio",
             static_cast<int64_t>(traced.hits_ms.size()));

  const std::string path = args.out_dir + "/serve-mix-" +
                           std::to_string(args.seed) + "-requests.trace.json";
  // The file keeps each client's first 20000 spans; all were recorded.
  result.Check(WriteSpans({&recs[0], &recs[1]}, {"client0", "client1"}, path,
                          20000),
               "cannot write the request trace");
  result.context["request_trace"] = path;
  return result;
}

}  // namespace perfbench
