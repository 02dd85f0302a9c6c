#include "src/serve/plan_protocol.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <unordered_set>

#include "src/common/hash.h"
#include "src/config/config_io.h"

namespace aceso {
namespace serve {
namespace {

std::string HexFingerprint(uint64_t fp) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, fp);
  return buf;
}

Status FieldError(std::string_view key, const char* want) {
  return InvalidArgument("request field \"" + std::string(key) + "\": " +
                         want);
}

// Typed field extraction; every mismatch names the field and what it wants.
Status TakeString(std::string_view key, const JsonValue& v,
                  std::string* out) {
  if (!v.is_string()) {
    return FieldError(key, "expected a string");
  }
  *out = v.string_value();
  return OkStatus();
}

Status TakeInt(std::string_view key, const JsonValue& v, int64_t min_value,
               int64_t* out) {
  if (!v.is_number() || !v.number_is_int()) {
    return FieldError(key, "expected an integer");
  }
  if (v.int_value() < min_value) {
    return FieldError(key, min_value == 0 ? "must be >= 0" : "must be >= 1");
  }
  *out = v.int_value();
  return OkStatus();
}

Status TakeIntField(std::string_view key, const JsonValue& v,
                    int64_t min_value, int* out) {
  int64_t wide = 0;
  ACESO_RETURN_IF_ERROR(TakeInt(key, v, min_value, &wide));
  if (wide > 1'000'000'000) {
    return FieldError(key, "out of range");
  }
  *out = static_cast<int>(wide);
  return OkStatus();
}

Status TakeBool(std::string_view key, const JsonValue& v, bool* out) {
  if (!v.is_bool()) {
    return FieldError(key, "expected a boolean");
  }
  *out = v.bool_value();
  return OkStatus();
}

Status TakeNumber(std::string_view key, const JsonValue& v, double* out) {
  if (!v.is_number()) {
    return FieldError(key, "expected a number");
  }
  *out = v.number_value();
  return OkStatus();
}

}  // namespace

StatusOr<PlanRequest> ParsePlanRequest(const JsonValue& doc) {
  if (!doc.is_object()) {
    return InvalidArgument("plan request must be a JSON object");
  }
  PlanRequest req;
  bool have_model = false;
  for (const auto& [key, value] : doc.members()) {
    Status st;
    if (key == "model") {
      st = TakeString(key, value, &req.model);
      have_model = true;
    } else if (key == "gpus") {
      st = TakeIntField(key, value, 1, &req.gpus);
      if (st.ok()) {
        const Status count = ClusterSpec::CheckGpuCount(req.gpus);
        if (!count.ok()) {
          st = FieldError(key, count.message().c_str());
        }
      }
    } else if (key == "budget_seconds") {
      st = TakeNumber(key, value, &req.budget_seconds);
      if (st.ok() && !(req.budget_seconds > 0.0)) {
        st = FieldError(key, "must be > 0");
      }
    } else if (key == "max_evaluations") {
      st = TakeInt(key, value, 0, &req.max_evaluations);
    } else if (key == "max_hops") {
      st = TakeIntField(key, value, 1, &req.max_hops);
    } else if (key == "stages") {
      st = TakeIntField(key, value, 0, &req.stages);
    } else if (key == "min_stages") {
      st = TakeIntField(key, value, 1, &req.min_stages);
    } else if (key == "max_stages") {
      st = TakeIntField(key, value, 0, &req.max_stages);
    } else if (key == "seed") {
      int64_t wide = 0;
      st = TakeInt(key, value, 0, &wide);
      req.seed = static_cast<uint64_t>(wide);
    } else if (key == "seed_mode") {
      std::string mode;
      st = TakeString(key, value, &mode);
      if (st.ok()) {
        if (mode == "heuristic") {
          req.seed_mode = SeedMode::kHeuristic;
        } else if (mode == "dp") {
          req.seed_mode = SeedMode::kDp;
        } else {
          st = FieldError(key, "expected one of heuristic|dp");
        }
      }
    } else if (key == "top_k") {
      st = TakeIntField(key, value, 1, &req.top_k);
    } else if (key == "frontier") {
      st = TakeBool(key, value, &req.frontier);
    } else if (key == "memory_budget_bytes") {
      st = TakeInt(key, value, 0, &req.memory_budget_bytes);
    } else if (key == "memory_budgets") {
      if (!value.is_array() || value.size() == 0) {
        st = FieldError(key, "expected a non-empty array of integers >= 1");
      }
      for (size_t i = 0; st.ok() && i < value.size(); ++i) {
        const JsonValue& item = value.item(i);
        if (!item.is_number() || !item.number_is_int() ||
            item.int_value() < 1) {
          st = FieldError(key, "expected a non-empty array of integers >= 1");
        } else {
          req.memory_budgets.push_back(item.int_value());
        }
      }
    } else if (key == "request_id") {
      st = TakeString(key, value, &req.request_id);
    } else if (key == "client") {
      st = TakeString(key, value, &req.client);
    } else if (key == "stream") {
      st = TakeBool(key, value, &req.stream);
    } else {
      st = InvalidArgument("unknown request field \"" + key + "\"");
    }
    if (!st.ok()) {
      return st;
    }
  }
  if (!have_model || req.model.empty()) {
    return InvalidArgument("request field \"model\" is required");
  }
  if (!req.memory_budgets.empty() && req.memory_budget_bytes > 0) {
    return InvalidArgument(
        "\"memory_budgets\" (a frontier sweep, answered at device capacity) "
        "cannot be combined with \"memory_budget_bytes\"");
  }
  return req;
}

StatusOr<PlanRequest> ParsePlanRequestJson(std::string_view body) {
  auto doc = JsonParse(body);
  if (!doc.ok()) {
    return InvalidArgument("request body is not valid JSON: " +
                           doc.status().message());
  }
  return ParsePlanRequest(*doc);
}

SearchOptions ToSearchOptions(const PlanRequest& request) {
  SearchOptions options;
  options.time_budget_seconds = request.budget_seconds;
  options.max_evaluations = request.max_evaluations;
  options.max_hops = request.max_hops;
  options.seed = request.seed;
  options.seed_mode = request.seed_mode;
  options.top_k = request.top_k;
  if (request.stages > 0) {
    options.min_stages = request.stages;
    options.max_stages = request.stages;
  } else {
    options.min_stages = request.min_stages;
    options.max_stages = request.max_stages;
  }
  // A sweep runs the base frontier search (capacity verdicts, frontier on):
  // its cache key is shared with plain `frontier` requests, so one archived
  // search answers every later sweep.
  options.track_frontier = request.frontier || !request.memory_budgets.empty();
  options.memory_budget_bytes =
      request.memory_budgets.empty() ? request.memory_budget_bytes : 0;
  return options;
}

uint64_t PlanCacheKey(const OpGraph& graph, const ClusterSpec& cluster,
                      const SearchOptions& options) {
  Hasher h;
  h.Add(Mix64(graph.SemanticFingerprint()));
  h.Add(Mix64(cluster.Fingerprint()));
  h.Add(Mix64(SearchOptionsSemanticHash(options)));
  return Mix64(h.Digest());
}

uint64_t ModelFamilyFingerprint(const OpGraph& graph) {
  // Distinct op signatures in first-appearance order: a deeper stack of the
  // same repeated block introduces no new signature, so deepnet-24 and
  // deepnet-48 share a family, while any change to hidden sizes, per-op
  // shapes, or precision starts a new one. Batch size and layer count are
  // deliberately excluded — they are exactly what seed adaptation reshapes.
  Hasher h;
  h.Add(static_cast<int>(graph.precision()));
  std::unordered_set<uint64_t, IdentityHash> seen;
  for (const uint64_t sig : graph.op_signatures()) {
    if (seen.insert(sig).second) {
      h.Add(sig);
    }
  }
  h.Add(static_cast<int64_t>(seen.size()));
  return Mix64(h.Digest());
}

uint64_t ClusterFamilyFingerprint(const ClusterSpec& cluster) {
  // The cluster minus its size: GPU type and link performance only. Node
  // and per-node device counts are similarity *features* (device-count
  // delta), not family keys.
  Hasher h;
  h.Add(cluster.gpu.Fingerprint());
  h.Add(cluster.nvlink_bandwidth);
  h.Add(cluster.nvlink_latency);
  h.Add(cluster.ib_bandwidth);
  h.Add(cluster.ib_latency);
  return Mix64(h.Digest());
}

uint64_t NeighborFamilyKey(const OpGraph& graph, const ClusterSpec& cluster) {
  return HashCombine(ModelFamilyFingerprint(graph),
                     ClusterFamilyFingerprint(cluster));
}

std::string BuildPlanPayload(const OpGraph& graph, const ClusterSpec& cluster,
                             const SearchResult& result,
                             size_t convergence_cap) {
  std::string out;
  out += "{\"found\":";
  out += result.found ? "true" : "false";

  out += ",\"model\":{\"name\":\"";
  AppendJsonEscaped(out, graph.name());
  out += "\",\"summary\":\"";
  AppendJsonEscaped(out, graph.Summary());
  out += "\",\"fingerprint\":\"";
  out += HexFingerprint(graph.SemanticFingerprint());
  out += "\"}";

  out += ",\"cluster\":{\"gpus\":";
  out += std::to_string(cluster.num_gpus());
  out += ",\"summary\":\"";
  AppendJsonEscaped(out, cluster.ToString());
  out += "\",\"fingerprint\":\"";
  out += HexFingerprint(cluster.Fingerprint());
  out += "\"}";

  if (result.found) {
    const ScoredConfig& best = result.best;
    out += ",\"plan\":{\"num_stages\":";
    out += std::to_string(best.config.num_stages());
    out += ",\"microbatch_size\":";
    out += std::to_string(best.config.microbatch_size());
    out += ",\"iteration_time\":";
    AppendJsonNumber(out, best.perf.iteration_time);
    out += ",\"throughput\":";
    AppendJsonNumber(out, best.perf.Throughput(graph.global_batch_size()));
    out += ",\"oom\":";
    out += best.perf.oom ? "true" : "false";
    out += ",\"summary\":\"";
    AppendJsonEscaped(out, best.perf.Summary());
    out += "\",\"config_text\":\"";
    AppendJsonEscaped(out, SerializeConfig(best.config, graph.name()));
    out += "\"}";
  }

  out += ",\"search\":{\"seconds\":";
  AppendJsonNumber(out, result.search_seconds);
  out += ",\"iterations\":";
  out += std::to_string(result.stats.iterations);
  out += ",\"improvements\":";
  out += std::to_string(result.stats.improvements);
  out += ",\"configs_explored\":";
  out += std::to_string(result.stats.configs_explored);
  out += ",\"cache_hits\":";
  out += std::to_string(result.stats.cache_hits);
  out += ",\"cache_misses\":";
  out += std::to_string(result.stats.cache_misses);
  out += "}";

  // The frontier archive, when the search tracked one (a tracked search
  // always offers at least its initial configuration). Cached alongside the
  // plan: budget sweeps replay from here without re-entering the search.
  if (result.stats.frontier_offered > 0 || !result.frontier.empty()) {
    out += ",\"frontier\":";
    out += result.frontier.ToJson(graph.name());
  }

  // Convergence trend, thinned to at most `convergence_cap` points: keep an
  // even stride plus always the last point (the final best).
  const auto& trend = result.convergence;
  out += ",\"convergence_total\":";
  out += std::to_string(trend.size());
  out += ",\"convergence\":[";
  if (!trend.empty() && convergence_cap > 0) {
    const size_t stride =
        std::max<size_t>(1, (trend.size() + convergence_cap - 1) /
                                convergence_cap);
    bool first = true;
    for (size_t i = 0; i < trend.size(); ++i) {
      if (i % stride != 0 && i + 1 != trend.size()) {
        continue;
      }
      if (!first) {
        out += ',';
      }
      first = false;
      out += "{\"elapsed\":";
      AppendJsonNumber(out, trend[i].elapsed_seconds);
      out += ",\"iteration_time\":";
      AppendJsonNumber(out, trend[i].best_iteration_time);
      out += ",\"evaluations\":";
      out += std::to_string(trend[i].evaluations);
      out += "}";
    }
  }
  out += "]}";
  return out;
}

StatusOr<std::string> BuildBudgetSweepPayload(
    const std::string& plan_payload_json,
    const std::vector<int64_t>& budgets) {
  auto doc = JsonParse(plan_payload_json);
  if (!doc.ok()) {
    return Internal("plan payload is not valid JSON: " +
                    doc.status().message());
  }
  const JsonValue* frontier_doc = doc->Find("frontier");
  if (frontier_doc == nullptr) {
    return FailedPrecondition(
        "plan payload carries no frontier (the search ran without "
        "track_frontier)");
  }
  auto archive = FrontierArchive::FromJson(*frontier_doc);
  if (!archive.ok()) {
    return archive.status();
  }

  std::string out = "{";
  const JsonValue* model = doc->Find("model");
  if (model != nullptr) {
    out += "\"model\":" + model->ToJson() + ",";
  }
  const JsonValue* cluster = doc->Find("cluster");
  if (cluster != nullptr) {
    out += "\"cluster\":" + cluster->ToJson() + ",";
  }
  out += "\"frontier_points\":" + std::to_string(archive->size());
  out += ",\"sweep\":[";
  bool first = true;
  for (const int64_t budget : budgets) {
    if (!first) {
      out += ',';
    }
    first = false;
    const FrontierPoint* best = archive->BestUnderBudget(budget);
    out += "{\"memory_budget_bytes\":" + std::to_string(budget);
    out += ",\"found\":";
    out += best != nullptr ? "true" : "false";
    if (best != nullptr) {
      out += ",\"iteration_time\":";
      AppendJsonNumber(out, best->iteration_time);
      out += ",\"peak_memory_bytes\":" +
             std::to_string(best->peak_memory_bytes);
      out += ",\"cost_per_step_usd\":";
      AppendJsonNumber(out, best->cost_per_step_usd);
      out += ",\"num_stages\":" + std::to_string(best->num_stages);
      out += ",\"microbatch_size\":" + std::to_string(best->microbatch_size);
      // Feasibility under the *searched* device; a point above capacity
      // answers budgets larger than the modelled device.
      out += ",\"feasible\":";
      out += best->feasible ? "true" : "false";
      out += ",\"config_text\":\"";
      AppendJsonEscaped(out, best->config_text);
      out += "\"";
    }
    out += "}";
  }
  out += "]}";
  return out;
}

std::string BuildResponseEnvelopeHead(const std::string& request_id,
                                      std::string_view cache) {
  std::string out = "{\"status\":\"ok\",\"request_id\":\"";
  AppendJsonEscaped(out, request_id);
  out += "\",\"cache\":\"";
  out.append(cache.data(), cache.size());
  out += "\",\"payload\":";
  return out;
}

std::string BuildResponseEnvelope(const std::string& request_id,
                                  std::string_view cache,
                                  const std::string& payload_json) {
  std::string out = BuildResponseEnvelopeHead(request_id, cache);
  out += payload_json;
  out += "}";
  return out;
}

std::string BuildErrorEnvelope(const std::string& request_id,
                               const Status& error) {
  std::string out = "{\"status\":\"error\",\"request_id\":\"";
  AppendJsonEscaped(out, request_id);
  out += "\",\"code\":\"";
  AppendJsonEscaped(out, StatusCodeName(error.code()));
  out += "\",\"message\":\"";
  AppendJsonEscaped(out, error.message());
  out += "\"}";
  return out;
}

}  // namespace serve
}  // namespace aceso
