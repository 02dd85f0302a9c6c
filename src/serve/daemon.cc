#include "src/serve/daemon.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/common/logging.h"
#include "src/common/stat_fields.h"
#include "src/serve/plan_protocol.h"

namespace aceso {
namespace serve {

namespace {

constexpr char kJsonType[] = "application/json";
constexpr char kNdjsonType[] = "application/x-ndjson";

}  // namespace

int HttpStatusForStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return 200;
    case StatusCode::kInvalidArgument: return 400;
    case StatusCode::kNotFound: return 404;
    case StatusCode::kFailedPrecondition: return 412;
    case StatusCode::kResourceExhausted: return 429;
    default: return 500;
  }
}

PlanDaemon::PlanDaemon(ServeOptions options)
    : service_(std::move(options)) {}

Status PlanDaemon::Start(const std::string& host, int port) {
  HttpServerOptions http;
  http.num_workers = std::max(1, service_.options().http_workers);
  http.idle_timeout_seconds = service_.options().http_idle_timeout_seconds;
  http.read_timeout_seconds = service_.options().http_read_timeout_seconds;
  return server_.Start(host, port,
                       [this](const HttpRequest& request,
                              HttpResponseWriter& writer) {
                         Handle(request, writer);
                       },
                       http);
}

void PlanDaemon::Stop() { server_.Stop(); }

void PlanDaemon::Handle(const HttpRequest& request,
                        HttpResponseWriter& writer) {
  if (request.path == "/healthz" && request.method == "GET") {
    writer.Respond(200, kJsonType, "{\"status\":\"ok\"}");
    return;
  }
  if (request.path == "/stats" && request.method == "GET") {
    writer.Respond(200, kJsonType, StatsJson());
    return;
  }
  if (request.path == "/plan" && request.method == "POST") {
    HandlePlan(request, writer);
    return;
  }
  if (request.path == "/profile/save" && request.method == "POST") {
    Status s = service_.SaveProfiles();
    if (s.ok()) {
      writer.Respond(200, kJsonType, "{\"status\":\"ok\"}");
    } else {
      writer.Respond(HttpStatusForStatus(s), kJsonType,
                     BuildErrorEnvelope("", s));
    }
    return;
  }
  // Known paths with the wrong verb get a 405; everything else a 404.
  if (request.path == "/plan" || request.path == "/profile/save" ||
      request.path == "/stats" || request.path == "/healthz") {
    writer.Respond(405, kJsonType,
                   BuildErrorEnvelope("", InvalidArgument(
                                              "method not allowed for " +
                                              request.path)));
    return;
  }
  writer.Respond(404, kJsonType,
                 BuildErrorEnvelope(
                     "", NotFound("no such endpoint: " + request.path)));
}

void PlanDaemon::HandlePlan(const HttpRequest& request,
                            HttpResponseWriter& writer) {
  StatusOr<PlanRequest> parsed = ParsePlanRequestJson(request.body);
  if (!parsed.ok()) {
    writer.Respond(HttpStatusForStatus(parsed.status()), kJsonType,
                   BuildErrorEnvelope("", parsed.status()));
    return;
  }
  PlanRequest plan_request = std::move(parsed).value();

  if (!plan_request.stream) {
    PlanService::Response response = service_.Handle(plan_request);
    // The body parts go straight into the connection's writev: on a cache
    // hit the shared middle is the cached payload by reference.
    writer.RespondParts(HttpStatusForStatus(response.status), kJsonType,
                        response.body_head, std::move(response.body_mid),
                        response.body_tail);
    return;
  }

  // Streaming mode: the HTTP status goes out before the search runs, so it
  // is always 200; request-level failures arrive as the final envelope line.
  if (!writer.BeginStream(200, kNdjsonType)) {
    ACESO_LOG(WARNING) << "serve: client gone before stream start";
    return;
  }
  PlanService::Response response = service_.Handle(
      plan_request, [&writer](const std::string& line) {
        // A false return means the client hung up; the search still runs to
        // completion so its result lands in the plan cache.
        writer.WriteChunk(line + "\n");
      });
  writer.WriteChunk(response.body() + "\n");
}

std::string PlanDaemon::StatsJson() const {
  // Service counters stay top-level (CI and tests grep them flat); the
  // io-layer counters nest under "http".
  std::string out = "{";
  AppendStatsJson(out, service_.stats());
  out += ",\"http\":{";
  AppendStatsJson(out, server_.stats());
  out += "}}";
  return out;
}

}  // namespace serve
}  // namespace aceso
