// End-to-end tests of the planning service and daemon (DESIGN.md §14):
// request parsing, the cache / single-flight / admission layers, profile
// snapshot warm starts, and the loopback HTTP transport.

#include "src/serve/service.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/common/json.h"
#include "src/serve/daemon.h"
#include "src/serve/http.h"
#include "src/serve/plan_protocol.h"

namespace aceso {
namespace serve {
namespace {

// A deterministic, fast request: the evaluation budget bounds the search
// (bit-reproducibly) well under a second.
PlanRequest FastRequest() {
  PlanRequest request;
  request.model = "gpt3-0.35b";
  request.gpus = 4;
  request.max_evaluations = 40;
  request.budget_seconds = 60.0;  // wall clock never binds
  return request;
}

// ---- request parsing ----

TEST(PlanProtocolTest, ParsesFullRequest) {
  auto request = ParsePlanRequestJson(
      R"({"model":"gpt3-1.3b","gpus":8,"budget_seconds":1.5,
          "max_evaluations":100,"max_hops":5,"stages":2,"seed":7,
          "seed_mode":"dp","top_k":3,"request_id":"r9","client":"test",
          "stream":true})");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->model, "gpt3-1.3b");
  EXPECT_EQ(request->gpus, 8);
  EXPECT_DOUBLE_EQ(request->budget_seconds, 1.5);
  EXPECT_EQ(request->max_evaluations, 100);
  EXPECT_EQ(request->max_hops, 5);
  EXPECT_EQ(request->stages, 2);
  EXPECT_EQ(request->seed, 7u);
  EXPECT_EQ(request->seed_mode, SeedMode::kDp);
  EXPECT_EQ(request->top_k, 3);
  EXPECT_EQ(request->request_id, "r9");
  EXPECT_EQ(request->client, "test");
  EXPECT_TRUE(request->stream);
}

TEST(PlanProtocolTest, RejectsUnknownField) {
  auto request =
      ParsePlanRequestJson(R"({"model":"gpt3-0.35b","max_evals":5})");
  ASSERT_FALSE(request.ok());
  EXPECT_NE(request.status().message().find("max_evals"), std::string::npos);
}

TEST(PlanProtocolTest, RejectsEvalThreadsAsUnknownField) {
  // The per-request evaluation thread count is gone (DESIGN.md §11): a
  // request may no longer choose how many threads its search starts, so
  // the strict parser refuses the field like any other unknown name.
  auto request = ParsePlanRequestJson(
      R"({"model":"gpt3-0.35b","gpus":4,"eval_threads":4})");
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(request.status().message(),
            "unknown request field \"eval_threads\"");
}

TEST(PlanProtocolTest, RejectsMissingModel) {
  auto request = ParsePlanRequestJson(R"({"gpus":8})");
  ASSERT_FALSE(request.ok());
  EXPECT_NE(request.status().message().find("model"), std::string::npos);
}

TEST(PlanProtocolTest, RejectsWrongTypes) {
  EXPECT_FALSE(ParsePlanRequestJson(R"({"model":3})").ok());
  EXPECT_FALSE(
      ParsePlanRequestJson(R"({"model":"gpt3-0.35b","gpus":"8"})").ok());
  EXPECT_FALSE(
      ParsePlanRequestJson(R"({"model":"gpt3-0.35b","gpus":2.5})").ok());
  EXPECT_FALSE(
      ParsePlanRequestJson(R"({"model":"gpt3-0.35b","stream":"yes"})").ok());
  EXPECT_FALSE(ParsePlanRequestJson("[1,2]").ok());
  EXPECT_FALSE(ParsePlanRequestJson("not json").ok());
}

TEST(PlanProtocolTest, RejectsGpuCountsNoClusterCanHold) {
  // 12 GPUs is neither one node nor whole 8-GPU nodes: the parser must
  // answer with a field error rather than let ClusterSpec abort later.
  auto request =
      ParsePlanRequestJson(R"({"model":"gpt3-0.35b","gpus":12})");
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(request.status().message().find("request field \"gpus\""),
            std::string::npos)
      << request.status().message();
  EXPECT_NE(request.status().message().find("multiple of 8"),
            std::string::npos)
      << request.status().message();
  for (const char* ok : {R"({"model":"gpt3-0.35b","gpus":1})",
                         R"({"model":"gpt3-0.35b","gpus":6})",
                         R"({"model":"gpt3-0.35b","gpus":24})"}) {
    EXPECT_TRUE(ParsePlanRequestJson(ok).ok()) << ok;
  }
}

TEST(PlanProtocolTest, RejectsUnknownSeedMode) {
  auto request = ParsePlanRequestJson(
      R"({"model":"gpt3-0.35b","seed_mode":"random"})");
  ASSERT_FALSE(request.ok());
  EXPECT_NE(request.status().message().find("heuristic|dp"),
            std::string::npos);
}

TEST(PlanProtocolTest, ParsesFrontierAndSweepFields) {
  auto request = ParsePlanRequestJson(
      R"({"model":"gpt3-0.35b","frontier":true,
          "memory_budgets":[1073741824,2147483648]})");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_TRUE(request->frontier);
  ASSERT_EQ(request->memory_budgets.size(), 2u);
  EXPECT_EQ(request->memory_budgets[0], 1073741824);
  // A sweep runs the base frontier search: track_frontier is implied and
  // the search itself runs at device capacity.
  const SearchOptions options = ToSearchOptions(*request);
  EXPECT_TRUE(options.track_frontier);
  EXPECT_EQ(options.memory_budget_bytes, 0);
}

TEST(PlanProtocolTest, RejectsSweepCombinedWithFixedBudget) {
  auto request = ParsePlanRequestJson(
      R"({"model":"gpt3-0.35b","memory_budgets":[1073741824],
          "memory_budget_bytes":1073741824})");
  ASSERT_FALSE(request.ok());
  EXPECT_NE(request.status().message().find("memory_budgets"),
            std::string::npos);
}

TEST(PlanProtocolTest, FixedStagesCollapsesTheRange) {
  PlanRequest request = FastRequest();
  request.stages = 3;
  const SearchOptions options = ToSearchOptions(request);
  EXPECT_EQ(options.min_stages, 3);
  EXPECT_EQ(options.max_stages, 3);
}

// ---- the service's three layers ----

TEST(PlanServiceTest, DuplicateRequestServedFromCacheWithoutSearch) {
  PlanService service;
  const PlanService::Response first = service.Handle(FastRequest());
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_EQ(first.cache, "miss");

  const PlanService::Response second = service.Handle(FastRequest());
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(second.cache, "hit");

  // The counter proof that no second search ran.
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.requests, 2);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.cache_misses, 1);

  // A hit replays the stored payload byte for byte; only the envelope
  // (request id, cache tag) differs.
  auto first_doc = JsonParse(first.body());
  auto second_doc = JsonParse(second.body());
  ASSERT_TRUE(first_doc.ok() && second_doc.ok());
  EXPECT_EQ(first_doc->Find("payload")->ToJson(),
            second_doc->Find("payload")->ToJson());
  EXPECT_EQ(first.key, second.key);
}

TEST(PlanServiceTest, DifferentSeedIsACacheMiss) {
  PlanService service;
  service.Handle(FastRequest());
  PlanRequest other = FastRequest();
  other.seed = 7;
  const PlanService::Response response = service.Handle(other);
  ASSERT_TRUE(response.status.ok());
  EXPECT_EQ(response.cache, "miss");
  EXPECT_EQ(service.stats().completed, 2);
}

// ---- neighbor-seeded incremental planning (DESIGN.md §17) ----

TEST(PlanServiceTest, PerturbedMissIsNeighborSeededAndCounted) {
  PlanService service;
  const PlanService::Response first = service.Handle(FastRequest());
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_EQ(service.stats().neighbor_seeded, 0)
      << "empty similarity index: the first miss searches unseeded";

  // Same model family and cluster family, different key: the second miss
  // probes the index, finds the first answer, and seeds from it.
  PlanRequest perturbed = FastRequest();
  perturbed.seed = 7;
  const PlanService::Response second = service.Handle(perturbed);
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(second.cache, "miss");

  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.neighbor_seeded, 1);
  EXPECT_EQ(stats.seed_adopted + stats.seed_fallbacks, stats.neighbor_seeded)
      << "every seeded miss resolves to adopted or fallback";
  const PlanCacheStats cache_stats = service.plan_cache_stats();
  EXPECT_EQ(cache_stats.neighbor_probes, 2);  // both misses probed
  EXPECT_EQ(cache_stats.neighbor_hits, 1);    // only the second found a plan

  // The counters ride the /stats JSON like every other stat.
  const std::string json = service.StatsJson();
  EXPECT_NE(json.find("\"neighbor_seeded\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"seed_adopted\":"), std::string::npos);
  EXPECT_NE(json.find("\"seed_fallbacks\":"), std::string::npos);
}

TEST(PlanServiceTest, NeighborSeedingAdaptsAcrossDeviceCounts) {
  // The neighbor's plan was searched for 4 GPUs; the request asks for 8.
  // Adaptation re-maps devices (src/core/seed_adapt.h) and the search still
  // completes with the invariant intact.
  PlanService service;
  ASSERT_TRUE(service.Handle(FastRequest()).status.ok());
  PlanRequest bigger = FastRequest();
  bigger.gpus = 8;
  const PlanService::Response response = service.Handle(bigger);
  ASSERT_TRUE(response.status.ok());
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.neighbor_seeded, 1);
  EXPECT_EQ(stats.seed_adopted + stats.seed_fallbacks, 1);
}

TEST(PlanServiceTest, NeighborSeedOffNeverProbesTheIndex) {
  ServeOptions options;
  options.neighbor_seed = false;
  PlanService service(options);
  ASSERT_TRUE(service.Handle(FastRequest()).status.ok());
  PlanRequest other = FastRequest();
  other.seed = 7;
  ASSERT_TRUE(service.Handle(other).status.ok());
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.neighbor_seeded, 0);
  EXPECT_EQ(service.plan_cache_stats().neighbor_probes, 0);
  EXPECT_EQ(service.plan_cache_stats().neighbor_hits, 0);
}

TEST(PlanServiceTest, SeededAnswerNeverWorseThanUnseededAtEqualBudget) {
  // The §17 floor, end to end: for the same request sequence at the same
  // evaluation budget, a neighbor-seeding service must answer the perturbed
  // request with a plan at least as good as the strictly-unseeded service's.
  // This checks one instance, not a guarantee: the re-verdict compares the
  // seeded result only with the adapted seed and the even-split init, so an
  // adopted plan can in general be worse than the unseeded search's.
  auto iteration_time_of = [](const PlanService::Response& response) {
    auto doc = JsonParse(response.body());
    EXPECT_TRUE(doc.ok());
    const JsonValue* payload = doc->Find("payload");
    const JsonValue* plan = payload ? payload->Find("plan") : nullptr;
    const JsonValue* time = plan ? plan->Find("iteration_time") : nullptr;
    return time != nullptr && time->is_number() ? time->number_value() : 1e300;
  };

  ServeOptions off;
  off.neighbor_seed = false;
  PlanService seeded_service;
  PlanService unseeded_service(off);

  PlanRequest perturbed = FastRequest();
  perturbed.gpus = 8;
  double seeded_time = 0.0, unseeded_time = 0.0;
  for (auto& [service, time] :
       {std::pair<PlanService*, double*>{&seeded_service, &seeded_time},
        {&unseeded_service, &unseeded_time}}) {
    ASSERT_TRUE(service->Handle(FastRequest()).status.ok());
    const PlanService::Response response = service->Handle(perturbed);
    ASSERT_TRUE(response.status.ok());
    *time = iteration_time_of(response);
  }
  EXPECT_LE(seeded_time, unseeded_time + 1e-12)
      << "the re-verdict + fallback must hold the unseeded floor";
}

TEST(PlanServiceTest, UnknownModelErrorListsZooNames) {
  PlanService service;
  PlanRequest request = FastRequest();
  request.model = "gpt5";
  const PlanService::Response response = service.Handle(request);
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(response.status.message().find("known models"),
            std::string::npos);
  EXPECT_EQ(service.stats().errors, 1);
  // The error envelope is well-formed JSON with the status code name.
  auto doc = JsonParse(response.body());
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("status")->string_value(), "error");
  EXPECT_EQ(doc->Find("code")->string_value(), "INVALID_ARGUMENT");
}

TEST(PlanServiceTest, UnbuildableGpuCountIsAnErrorNotAnAbort) {
  // A request built in code skips ParsePlanRequest; Handle still refuses it.
  PlanService service;
  PlanRequest request = FastRequest();
  request.gpus = 12;
  const PlanService::Response response = service.Handle(request);
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(response.status.message().find("12"), std::string::npos);
  EXPECT_EQ(service.stats().errors, 1);
}

TEST(PlanServiceTest, EvalThreadsBodyIsInvalidArgument) {
  // A body reaches Handle only as a parsed PlanRequest, which has no thread
  // count. A body naming eval_threads — even 1e9 — fails the parse with
  // InvalidArgument, which the daemon answers with 400. Parsing only: no
  // search, and so no thread, is started.
  auto parsed = ParsePlanRequestJson(
      R"({"model":"gpt3-0.35b","gpus":4,"eval_threads":1000000000})");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(HttpStatusForStatus(parsed.status()), 400);
  auto envelope = JsonParse(BuildErrorEnvelope("r1", parsed.status()));
  ASSERT_TRUE(envelope.ok());
  EXPECT_EQ(envelope->Find("code")->string_value(), "INVALID_ARGUMENT");
  EXPECT_NE(envelope->Find("message")->string_value().find("eval_threads"),
            std::string::npos);
}

TEST(PlanServiceTest, AdmissionRejectsWhenSaturated) {
  // max_inflight_searches = 0 makes every search inadmissible, so the
  // rejection path is exercised deterministically.
  ServeOptions options;
  options.max_inflight_searches = 0;
  PlanService service(options);
  const PlanService::Response response = service.Handle(FastRequest());
  EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.stats().rejected, 1);
  EXPECT_EQ(service.stats().completed, 0);
  // Rejection happens before any caching: a retry once capacity exists
  // (not here) would still be a miss, not a stale hit.
  EXPECT_EQ(service.plan_cache_stats().inserts, 0);
}

TEST(PlanServiceTest, ConcurrentDuplicatesRunOneSearch) {
  PlanService service;
  constexpr int kClients = 8;
  std::vector<PlanService::Response> responses(kClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&service, &responses, i] {
      responses[static_cast<size_t>(i)] = service.Handle(FastRequest());
    });
  }
  for (auto& thread : threads) thread.join();

  // However the arrivals interleave (single-flight wait, cache hit, or the
  // one real search), exactly one search ran and every client got the same
  // payload.
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.requests, kClients);
  EXPECT_EQ(stats.completed, 1);
  // Every request probes the cache exactly once (coalesced requests probed
  // and missed before attaching to the in-flight search).
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, kClients);
  EXPECT_LE(stats.coalesced, stats.cache_misses - 1);
  auto first_payload = JsonParse(responses[0].body());
  ASSERT_TRUE(first_payload.ok());
  const std::string want = first_payload->Find("payload")->ToJson();
  for (const PlanService::Response& response : responses) {
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    auto doc = JsonParse(response.body());
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc->Find("payload")->ToJson(), want);
  }
}

TEST(PlanServiceTest, StreamingRequestEmitsEventsAndFinalPayload) {
  PlanService service;
  std::atomic<int> events{0};
  const PlanService::Response response =
      service.Handle(FastRequest(), [&events](const std::string& line) {
        // Every streamed line is one well-formed JSON event.
        EXPECT_TRUE(JsonValidate(line).ok()) << line;
        events.fetch_add(1);
      });
  ASSERT_TRUE(response.status.ok());
  EXPECT_GT(events.load(), 0);
  EXPECT_EQ(response.cache, "miss");
}

// ---- budget sweeps: the frontier answers without a search ----

TEST(PlanServiceTest, ColdSweepRunsOneFrontierSearchForAllBudgets) {
  PlanService service;
  PlanRequest sweep = FastRequest();
  sweep.memory_budgets = {8LL * (1LL << 30), 30LL * (1LL << 30)};
  const PlanService::Response response = service.Handle(sweep);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.completed, 1) << "one search covers every listed budget";
  EXPECT_EQ(stats.budget_sweeps, 1);
  EXPECT_EQ(stats.sweeps_from_cache, 0);

  auto doc = JsonParse(response.body());
  ASSERT_TRUE(doc.ok()) << response.body();
  const JsonValue* sweep_doc = doc->Find("payload")->Find("sweep");
  ASSERT_NE(sweep_doc, nullptr) << response.body();
  ASSERT_EQ(sweep_doc->size(), 2u);
  for (size_t i = 0; i < sweep_doc->size(); ++i) {
    const JsonValue& entry = sweep_doc->item(i);
    EXPECT_EQ(entry.Find("memory_budget_bytes")->int_value(),
              sweep.memory_budgets[i]);
    if (entry.Find("found")->bool_value()) {
      EXPECT_GT(entry.Find("iteration_time")->number_value(), 0.0);
      EXPECT_LE(entry.Find("peak_memory_bytes")->int_value(),
                sweep.memory_budgets[i]);
      EXPECT_FALSE(entry.Find("config_text")->string_value().empty());
    }
  }
  // At device capacity an answer must exist: the base search found one.
  EXPECT_TRUE(sweep_doc->item(1).Find("found")->bool_value());
}

TEST(PlanServiceTest, WarmSweepIsAnsweredFromTheCachedFrontier) {
  // ISSUE-8 acceptance: after one frontier request, a budget-sweep query
  // over the same (model, cluster, options) never re-enters AcesoSearch —
  // the counters are the proof.
  PlanService service;
  PlanRequest frontier_request = FastRequest();
  frontier_request.frontier = true;
  const PlanService::Response first = service.Handle(frontier_request);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_EQ(first.cache, "miss");
  ASSERT_EQ(service.stats().completed, 1);

  PlanRequest sweep = FastRequest();
  sweep.memory_budgets = {4LL * (1LL << 30), 8LL * (1LL << 30),
                          30LL * (1LL << 30)};
  const PlanService::Response swept = service.Handle(sweep);
  ASSERT_TRUE(swept.status.ok()) << swept.status.ToString();
  EXPECT_EQ(swept.cache, "hit");
  EXPECT_EQ(swept.key, first.key) << "a sweep keys as its frontier request";

  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.completed, 1) << "the sweep must not run a second search";
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.budget_sweeps, 1);
  EXPECT_EQ(stats.sweeps_from_cache, 1);

  auto doc = JsonParse(swept.body());
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("payload")->Find("sweep")->size(), 3u);

  // A different budget list is still the same cached frontier.
  PlanRequest other = FastRequest();
  other.memory_budgets = {16LL * (1LL << 30)};
  const PlanService::Response again = service.Handle(other);
  ASSERT_TRUE(again.status.ok());
  EXPECT_EQ(again.cache, "hit");
  EXPECT_EQ(service.stats().completed, 1);
  EXPECT_EQ(service.stats().sweeps_from_cache, 2);
}

TEST(PlanServiceTest, CacheHitsSkipSerializationAndSweepRendersAreMemoized) {
  // ISSUE-9: a hit replays the pre-serialized payload by reference — no
  // JSON is rebuilt — and a sweep's rendered payload is itself cached per
  // budget list, so repeating the sweep skips even the sweep rendering.
  PlanService service;
  const PlanService::Response first = service.Handle(FastRequest());
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_EQ(service.stats().serializations_skipped, 0)
      << "a miss serializes once";

  PlanRequest hit_request = FastRequest();
  hit_request.request_id = "hit-1";  // non-semantic: still the same key
  const PlanService::Response hit = service.Handle(hit_request);
  ASSERT_TRUE(hit.status.ok());
  EXPECT_EQ(hit.cache, "hit");
  EXPECT_EQ(service.stats().serializations_skipped, 1);
  // The parts share one string: body_mid is the cached payload itself.
  ASSERT_NE(hit.body_mid, nullptr);
  EXPECT_EQ(hit.body(), BuildResponseEnvelope("hit-1", "hit", *hit.body_mid))
      << "parts must assemble bit-identically to full serialization";

  // Sweeps: the first render per budget list is a derived-cache miss that
  // gets memoized; the identical sweep again is served without rendering.
  PlanRequest frontier_request = FastRequest();
  frontier_request.frontier = true;
  ASSERT_TRUE(service.Handle(frontier_request).status.ok());
  PlanRequest sweep = FastRequest();
  sweep.memory_budgets = {8LL * (1LL << 30), 30LL * (1LL << 30)};
  const PlanService::Response rendered = service.Handle(sweep);
  ASSERT_TRUE(rendered.status.ok()) << rendered.status.ToString();
  const int64_t after_render = service.stats().serializations_skipped;
  EXPECT_EQ(after_render, 1) << "first render of this budget list is real";
  EXPECT_EQ(service.plan_cache_stats().derived_inserts, 1);

  const PlanService::Response replayed = service.Handle(sweep);
  ASSERT_TRUE(replayed.status.ok());
  EXPECT_EQ(service.stats().serializations_skipped, after_render + 1);
  EXPECT_EQ(service.plan_cache_stats().derived_hits, 1);
  EXPECT_EQ(replayed.body_mid.get(), rendered.body_mid.get())
      << "the very same rendered string is replayed";

  // A different budget list renders fresh (derived miss), then memoizes.
  PlanRequest other = FastRequest();
  other.memory_budgets = {16LL * (1LL << 30)};
  ASSERT_TRUE(service.Handle(other).status.ok());
  EXPECT_EQ(service.stats().serializations_skipped, after_render + 1);
  EXPECT_EQ(service.plan_cache_stats().derived_inserts, 2);
}

// ---- profile snapshots: the warm-start path ----

TEST(PlanServiceTest, WarmStartedServiceRunsZeroProfileMeasurements) {
  const std::string dir = ::testing::TempDir() + "/serve_warm_snapshots";

  // Cold service: search once (profiling happens here), persist profiles.
  uint64_t cold_key = 0;
  std::string cold_plan;
  {
    PlanService cold;
    const PlanService::Response response = cold.Handle(FastRequest());
    ASSERT_TRUE(response.status.ok());
    cold_key = response.key;
    auto doc = JsonParse(response.body());
    ASSERT_TRUE(doc.ok());
    cold_plan = doc->Find("payload")->Find("plan")->ToJson();
    EXPECT_GT(cold.stats().profile_misses, 0);
    ASSERT_TRUE(cold.SaveProfiles(dir).ok());
  }

  // Warm service: same request re-runs the search (its plan cache starts
  // empty), but every profile lookup hits the loaded snapshot — the
  // acceptance bar is literally zero measure calls.
  ServeOptions options;
  options.snapshot_dir = dir;
  PlanService warm(options);
  const PlanService::Response response = warm.Handle(FastRequest());
  ASSERT_TRUE(response.status.ok());
  EXPECT_EQ(response.cache, "miss");  // plan caches are per-process
  const ServeStats stats = warm.stats();
  EXPECT_EQ(stats.warm_starts, 1);
  EXPECT_EQ(stats.warm_start_errors, 0);
  EXPECT_GT(stats.profile_lookups, 0);
  EXPECT_EQ(stats.profile_misses, 0);

  // Determinism, end to end: the warm search reproduces the cold plan bit
  // for bit under the same cache key. (Only the plan object — the payload's
  // search timings and convergence timestamps are wall-clock.)
  EXPECT_EQ(response.key, cold_key);
  auto doc = JsonParse(response.body());
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("payload")->Find("plan")->ToJson(), cold_plan);

  std::remove(ProfileSnapshotPath(
                  dir, ClusterSpec::WithGpuCount(FastRequest().gpus)
                           .Fingerprint())
                  .c_str());
}

TEST(PlanServiceTest, CorruptSnapshotFallsBackToColdStart) {
  const std::string dir = ::testing::TempDir() + "/serve_corrupt_snapshots";
  PlanService preparer;
  ASSERT_TRUE(preparer.Handle(FastRequest()).status.ok());
  ASSERT_TRUE(preparer.SaveProfiles(dir).ok());
  const std::string path = ProfileSnapshotPath(
      dir,
      ClusterSpec::WithGpuCount(FastRequest().gpus).Fingerprint());
  // Stomp the file: the warm-start probe must refuse it and run cold.
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("garbage", f);
    std::fclose(f);
  }

  ServeOptions options;
  options.snapshot_dir = dir;
  PlanService service(options);
  const PlanService::Response response = service.Handle(FastRequest());
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.warm_starts, 0);
  EXPECT_EQ(stats.warm_start_errors, 1);
  EXPECT_GT(stats.profile_misses, 0);  // it really profiled from scratch
  std::remove(path.c_str());
}

// ---- the HTTP daemon ----

class PlanDaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(daemon_.Start("127.0.0.1", 0).ok());
    port_ = daemon_.port();
    ASSERT_GT(port_, 0);
  }

  PlanDaemon daemon_;
  int port_ = 0;
};

TEST_F(PlanDaemonTest, HealthzAndStats) {
  auto health = HttpCall("127.0.0.1", port_, "GET", "/healthz", "");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status_code, 200);
  EXPECT_EQ(health->body, "{\"status\":\"ok\"}");

  auto stats = HttpCall("127.0.0.1", port_, "GET", "/stats", "");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->status_code, 200);
  auto doc = JsonParse(stats->body);
  ASSERT_TRUE(doc.ok()) << stats->body;
  EXPECT_EQ(doc->Find("requests")->int_value(), 0);
}

TEST_F(PlanDaemonTest, PlanRoundTripAndDuplicateHit) {
  const std::string body =
      R"({"model":"gpt3-0.35b","gpus":4,"max_evaluations":40,
          "budget_seconds":60})";
  auto first = HttpCall("127.0.0.1", port_, "POST", "/plan", body);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->status_code, 200);
  auto first_doc = JsonParse(first->body);
  ASSERT_TRUE(first_doc.ok()) << first->body;
  EXPECT_EQ(first_doc->Find("status")->string_value(), "ok");
  EXPECT_EQ(first_doc->Find("cache")->string_value(), "miss");
  EXPECT_TRUE(first_doc->Find("payload")->Find("found")->bool_value());

  auto second = HttpCall("127.0.0.1", port_, "POST", "/plan", body);
  ASSERT_TRUE(second.ok());
  auto second_doc = JsonParse(second->body);
  ASSERT_TRUE(second_doc.ok());
  EXPECT_EQ(second_doc->Find("cache")->string_value(), "hit");

  // /stats agrees over the wire: one search, one hit.
  auto stats = HttpCall("127.0.0.1", port_, "GET", "/stats", "");
  ASSERT_TRUE(stats.ok());
  auto stats_doc = JsonParse(stats->body);
  ASSERT_TRUE(stats_doc.ok());
  EXPECT_EQ(stats_doc->Find("completed")->int_value(), 1);
  EXPECT_EQ(stats_doc->Find("cache_hits")->int_value(), 1);
}

TEST_F(PlanDaemonTest, StreamingPlanEmitsNdjson) {
  const std::string body =
      R"({"model":"gpt3-0.35b","gpus":4,"max_evaluations":40,
          "budget_seconds":60,"stream":true})";
  std::vector<std::string> lines;
  auto response = HttpCallStreaming(
      "127.0.0.1", port_, "POST", "/plan", body,
      [&lines](std::string_view line) { lines.emplace_back(line); });
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 200);
  ASSERT_GT(lines.size(), 1u);  // events, then the envelope
  for (const std::string& line : lines) {
    EXPECT_TRUE(JsonValidate(line).ok()) << line;
  }
  auto final_doc = JsonParse(lines.back());
  ASSERT_TRUE(final_doc.ok());
  EXPECT_EQ(final_doc->Find("status")->string_value(), "ok");
  EXPECT_TRUE(final_doc->Find("payload")->Find("found")->bool_value());
}

TEST_F(PlanDaemonTest, ErrorStatusesMapOntoHttp) {
  // Parse error → 400.
  auto bad = HttpCall("127.0.0.1", port_, "POST", "/plan", "{\"gpus\":4}");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status_code, 400);
  auto bad_doc = JsonParse(bad->body);
  ASSERT_TRUE(bad_doc.ok());
  EXPECT_EQ(bad_doc->Find("status")->string_value(), "error");

  // Unknown endpoint → 404; wrong verb → 405.
  auto missing = HttpCall("127.0.0.1", port_, "GET", "/nope", "");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status_code, 404);
  auto verb = HttpCall("127.0.0.1", port_, "GET", "/plan", "");
  ASSERT_TRUE(verb.ok());
  EXPECT_EQ(verb->status_code, 405);

  // /profile/save without a snapshot dir → 400 (InvalidArgument).
  auto save = HttpCall("127.0.0.1", port_, "POST", "/profile/save", "");
  ASSERT_TRUE(save.ok());
  EXPECT_EQ(save->status_code, 400);
}

TEST_F(PlanDaemonTest, UnbuildableGpuCountIs400AndTheDaemonKeepsServing) {
  auto bad = HttpCall("127.0.0.1", port_, "POST", "/plan",
                      R"({"model":"gpt3-0.35b","gpus":12})");
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  EXPECT_EQ(bad->status_code, 400);
  EXPECT_NE(bad->body.find("gpus"), std::string::npos) << bad->body;

  // The same daemon answers the next request.
  auto next = HttpCall("127.0.0.1", port_, "POST", "/plan",
                       R"({"model":"gpt3-0.35b","gpus":4,
                           "max_evaluations":40,"budget_seconds":60})");
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->status_code, 200);
  auto doc = JsonParse(next->body);
  ASSERT_TRUE(doc.ok()) << next->body;
  EXPECT_EQ(doc->Find("status")->string_value(), "ok");
}

TEST_F(PlanDaemonTest, EvalThreadsFieldIs400) {
  auto bad = HttpCall("127.0.0.1", port_, "POST", "/plan",
                      R"({"model":"gpt3-0.35b","gpus":4,"eval_threads":4})");
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  EXPECT_EQ(bad->status_code, 400);
  EXPECT_NE(bad->body.find("unknown request field"), std::string::npos)
      << bad->body;
  EXPECT_EQ(daemon_.service().stats().requests, 0);
}

// Sends raw bytes and returns everything the server writes back. HttpCall
// cannot emit an invalid Content-Length by construction, so the header
// hardening below needs a transport that can.
std::string RawHttp(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST_F(PlanDaemonTest, MalformedContentLengthIsRejectedNotTrusted) {
  // RawHttp is close-delimited, so ask the server to close (the reactor
  // keeps HTTP/1.1 connections alive by default).
  auto post = [&](const std::string& content_length) {
    return RawHttp(port_,
                   "POST /plan HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
                   "Content-Length: " +
                       content_length + "\r\n\r\n{}");
  };
  // 20 digits: strtoull would silently wrap modulo 2^64 and the server
  // would then trust a tiny bogus body size. The strict parse rejects the
  // value the moment it exceeds the body cap.
  EXPECT_NE(post("99999999999999999999").find(" 400 "), std::string::npos);
  // Signs and whitespace are not digits, even though strtoull accepts them.
  EXPECT_NE(post("+2").find(" 400 "), std::string::npos);
  EXPECT_NE(post("-2").find(" 400 "), std::string::npos);
  EXPECT_NE(post("2x").find(" 400 "), std::string::npos);
  EXPECT_NE(post("").find(" 400 "), std::string::npos);
  // Just over the 8 MiB body cap is rejected too, not buffered.
  EXPECT_NE(post("8388609").find(" 400 "), std::string::npos);
  // The same request with an honest length still works.
  const std::string ok = post("2");
  EXPECT_NE(ok.find(" 400 "), std::string::npos)
      << "\"{}\" has no model field: parse error, but an HTTP-level accept";
  EXPECT_NE(ok.find("model"), std::string::npos)
      << "the 400 must come from the JSON layer, not the header parser";
}

}  // namespace
}  // namespace serve
}  // namespace aceso
