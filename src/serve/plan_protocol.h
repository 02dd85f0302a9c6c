// Wire protocol of the planning daemon (DESIGN.md §14).
//
// A plan request is one JSON object carrying the model name, the cluster
// size, and the SearchOptions budget knobs. Parsing is *strict*: unknown
// fields are rejected (a typo'd "max_evals" must not silently run with the
// default budget), types are checked, and every error carries the offending
// field. The request splits into two kinds of fields:
//
//   * semantic fields — model, gpus, budgets, toggles, seed, stage range —
//     which determine the answer and therefore feed the plan-cache key
//     (PlanCacheKey below composes the model / cluster / options
//     fingerprints from src/ir, src/hw, and src/core);
//   * non-semantic fields — request_id, client, stream — which shape
//     bookkeeping or delivery but never the plan, and are excluded from the
//     key.
//
// The response payload (BuildPlanPayload) is a self-contained JSON object —
// plan, predicted performance, search stats, capped convergence trend — and
// is exactly what the PlanCache stores: a cache hit replays the stored
// payload byte for byte.

#ifndef SRC_SERVE_PLAN_PROTOCOL_H_
#define SRC_SERVE_PLAN_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/json.h"
#include "src/common/status.h"
#include "src/core/search.h"
#include "src/hw/cluster.h"
#include "src/ir/op_graph.h"

namespace aceso {
namespace serve {

// One parsed plan request. Field defaults match the CLI tools'.
struct PlanRequest {
  // ---- semantic fields (feed the plan-cache key) ----
  std::string model;            // required: zoo name, e.g. "gpt3-1.3b"
  int gpus = 8;                 // cluster size (nodes of 8, like the tools)
  double budget_seconds = 2.0;  // wall-clock search budget
  int64_t max_evaluations = 0;  // deterministic budget (0 = wall-clock only)
  int max_hops = 7;
  int stages = 0;      // fixed stage count (0 = search the full range)
  int min_stages = 1;  // ignored when `stages` is set
  int max_stages = 0;
  uint64_t seed = 20240422;
  SeedMode seed_mode = SeedMode::kHeuristic;
  int top_k = 5;
  // Track the throughput–memory Pareto frontier and embed it in the payload
  // (DESIGN.md §15). Semantic: it adds a member to the answer.
  bool frontier = false;
  // Per-device memory budget (bytes): the search plans as for a device of
  // this capacity; 0 or a budget above capacity answers at capacity
  // (EffectiveMemoryLimit). Semantic: it changes every verdict.
  int64_t memory_budget_bytes = 0;

  // ---- sweep lookup ----
  // Non-empty turns the request into a budget sweep: the search runs once
  // in frontier mode at device capacity (the key is the base frontier
  // request's, so `memory_budgets` itself never feeds the cache key), and
  // each listed budget is answered from the frontier via BestUnderBudget —
  // a warm cache answers the whole sweep without entering AcesoSearch.
  // Mutually exclusive with memory_budget_bytes.
  std::vector<int64_t> memory_budgets;

  // ---- non-semantic fields ----
  std::string request_id;  // echoed in the response; empty = daemon assigns
  std::string client;      // free-form client tag for logs
  bool stream = false;     // stream telemetry/convergence events (NDJSON)
};

// Strict parse of a request document: every member must be a known field of
// the right type; `model` is required. Does not validate the model name
// against the zoo (the service does, so the error can list valid names).
StatusOr<PlanRequest> ParsePlanRequest(const JsonValue& doc);

// ParsePlanRequest over raw bytes (JsonParse + parse).
StatusOr<PlanRequest> ParsePlanRequestJson(std::string_view body);

// The SearchOptions a request denotes. A fixed `stages` collapses the stage
// range to [stages, stages] so the request always runs through AcesoSearch
// (one code path, one cache-key shape).
SearchOptions ToSearchOptions(const PlanRequest& request);

// The former two-argument form, whose second argument (a default
// intra-search evaluation thread count) no longer exists; it is ignored.
// Kept only so perfbench/ keeps compiling; drop it when the benchmark next
// changes.
inline SearchOptions ToSearchOptions(const PlanRequest& request,
                                     int /*ignored*/) {
  return ToSearchOptions(request);
}

// The cross-request cache key: model structure (OpGraph::SemanticFingerprint,
// name excluded), cluster (ClusterSpec::Fingerprint), and the
// answer-determining SearchOptions fields (SearchOptionsSemanticHash). Each
// component is Mix64-finalized before combining (src/common/hash.h).
uint64_t PlanCacheKey(const OpGraph& graph, const ClusterSpec& cluster,
                      const SearchOptions& options);

// Family fingerprints for the plan cache's similarity index (DESIGN.md
// §17). ModelFamilyFingerprint hashes the model's *distinct* op-signature
// skeleton (first-appearance order) plus precision — invariant under layer-
// count changes of repeated-block models. ClusterFamilyFingerprint hashes
// the GPU type and link parameters, excluding node/device counts.
// NeighborFamilyKey combines both into the similarity-index bucket key;
// layer count, device count, and memory budget stay out of the key because
// they are the probe's scored distance features.
uint64_t ModelFamilyFingerprint(const OpGraph& graph);
uint64_t ClusterFamilyFingerprint(const ClusterSpec& cluster);
uint64_t NeighborFamilyKey(const OpGraph& graph, const ClusterSpec& cluster);

// Serializes the search outcome as the cacheable response payload (one JSON
// object; see the module comment). `convergence_cap` bounds the embedded
// trend (the full trend can run to thousands of points on long budgets).
std::string BuildPlanPayload(const OpGraph& graph, const ClusterSpec& cluster,
                             const SearchResult& result,
                             size_t convergence_cap = 64);

// Derives a budget-sweep payload from a (possibly cached) plan payload that
// embeds a frontier: per budget, the best archived config that fits. Echoes
// the base payload's model/cluster members so the sweep is self-contained.
// Fails (FailedPrecondition) when the payload carries no frontier — e.g. it
// was cached by a non-frontier request — and the caller falls back to a
// fresh frontier search.
StatusOr<std::string> BuildBudgetSweepPayload(
    const std::string& plan_payload_json,
    const std::vector<int64_t>& budgets);

// Wraps a payload (or an error) in the response envelope:
//   {"status":"ok","request_id":...,"cache":"miss|hit|coalesced",
//    "payload":{...}}
//   {"status":"error","request_id":...,"code":"INVALID_ARGUMENT",
//    "message":"..."}
std::string BuildResponseEnvelope(const std::string& request_id,
                                  std::string_view cache,
                                  const std::string& payload_json);
// The envelope prefix up to and including `"payload":`. The full ok
// envelope is exactly Head + payload + "}" — the daemon sends cached
// payloads as [head | shared payload | "}"] iovecs, and the concatenation
// is bit-identical to BuildResponseEnvelope (asserted by the serve bench).
std::string BuildResponseEnvelopeHead(const std::string& request_id,
                                      std::string_view cache);
std::string BuildErrorEnvelope(const std::string& request_id,
                               const Status& error);

}  // namespace serve
}  // namespace aceso

#endif  // SRC_SERVE_PLAN_PROTOCOL_H_
