// Event-driven HTTP/1.1 transport for the planning daemon (DESIGN.md §16).
//
// The repo carries no networking dependency, so this is a self-contained
// epoll reactor over POSIX sockets: one blocking acceptor thread plus N
// event-loop workers, each owning an epoll instance and the connections
// assigned to it (round-robin). Connections are non-blocking with a
// per-connection incremental parser state machine, so a slow or hostile
// client never pins a worker: partially received requests sit in the
// connection's buffer until more bytes arrive, and idle/read deadlines
// evict connections that stall.
//
// Framing (the same strict rules PR 8 hardened — digit-only Content-Length,
// overflow rejected against the body cap):
//
//   * Respond()/RespondParts() — complete body, Content-Length framed, and
//     the connection stays open for the next request (HTTP/1.1 keep-alive;
//     pipelined requests on one connection are answered in order). The
//     parts variant scatter-gathers head + shared middle + tail with
//     writev(), so a pre-serialized cached payload goes out with zero
//     copies into the response buffer.
//   * BeginStream() + WriteChunk() — headers with `Connection: close` and
//     no Content-Length; the body is whatever the handler writes until it
//     returns, and the connection close delimits it. (No chunked encoding:
//     every client the repo ships — HttpClient below, curl, the bench —
//     handles close-delimited bodies, and the framing stays greppable on
//     the wire.) Streams are written synchronously from the handler.
//
// Handlers run synchronously on the event-loop worker that owns the
// connection. That is the right trade for the daemon's workload: the
// dominant request is a plan-cache hit answered in microseconds, and the
// rare search-bound request is already bounded by the service's admission
// control. Stop() drains: it joins the acceptor and every worker, so no
// handler can touch freed server state after Stop() returns (the PR-7
// thread-per-connection server detached its handler threads, which could
// outlive Stop() and notify a destroyed condition variable).

#ifndef SRC_SERVE_HTTP_H_
#define SRC_SERVE_HTTP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/stat_fields.h"
#include "src/common/status.h"

namespace aceso {
namespace serve {

struct HttpRequest {
  std::string method;  // "GET", "POST", ...
  std::string path;    // path + query, verbatim
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  // Case-insensitive header lookup; nullptr when absent.
  const std::string* FindHeader(std::string_view name) const;
};

// The reason phrase for a status code this server emits (400, 404, ...).
const char* HttpStatusText(int code);

// Reactor tuning knobs. The defaults fit the daemon; tests shrink the
// limits and timeouts to exercise the eviction paths deterministically.
struct HttpServerOptions {
  int num_workers = 2;  // event-loop workers (>= 1)
  // Deadline for a keep-alive connection with no request in progress.
  double idle_timeout_seconds = 30.0;
  // Deadline for finishing a partially received request head or body.
  double read_timeout_seconds = 30.0;
  // Per-write stall bound for streamed responses and response flushes that
  // outlive the event loop's non-blocking budget.
  double write_timeout_seconds = 30.0;
  size_t max_header_bytes = 64 * 1024;
  size_t max_body_bytes = 8 * 1024 * 1024;
};

// Monotonic io-layer counters. `keepalive_reuses` counts requests served on
// a connection that had already served one, so
// requests_served == keepalive_reuses + <connections that served >= 1>.
struct HttpServerStats : StatsSnapshot<HttpServerStats> {
  int64_t connections_accepted = 0;
  int64_t connections_closed = 0;
  int64_t requests_served = 0;
  int64_t keepalive_reuses = 0;
  int64_t bytes_in = 0;
  int64_t bytes_out = 0;
  int64_t timeout_evictions = 0;  // idle/read deadline expiries
  int64_t parse_errors = 0;       // malformed requests answered with a 400

  static constexpr StatField<HttpServerStats> kFields[] = {
      {"connections_accepted", &HttpServerStats::connections_accepted},
      {"connections_closed", &HttpServerStats::connections_closed},
      {"requests_served", &HttpServerStats::requests_served},
      {"keepalive_reuses", &HttpServerStats::keepalive_reuses},
      {"bytes_in", &HttpServerStats::bytes_in},
      {"bytes_out", &HttpServerStats::bytes_out},
      {"timeout_evictions", &HttpServerStats::timeout_evictions},
      {"parse_errors", &HttpServerStats::parse_errors},
  };
};
static_assert(StatTableCovers<HttpServerStats>(/*gauges=*/0));

class HttpServer;

// Per-connection response channel handed to the handler. Exactly one of
// Respond / RespondParts / BeginStream may be called, once. Respond and
// RespondParts fill the connection's output buffers; the event loop flushes
// them (possibly across several writability rounds). BeginStream/WriteChunk
// write synchronously from the handler.
class HttpResponseWriter {
 public:
  // Complete response, Content-Length framed, keep-alive eligible.
  void Respond(int status, std::string_view content_type,
               std::string_view body);

  // Scatter-gather variant: the body on the wire is head + *middle + tail
  // (middle may be null). The middle buffer is not copied — the connection
  // holds the shared_ptr until the bytes are flushed, which is what makes
  // zero-serialization cache hits possible (DESIGN.md §16).
  void RespondParts(int status, std::string_view content_type,
                    std::string_view head,
                    std::shared_ptr<const std::string> middle,
                    std::string_view tail);

  // Starts a close-delimited stream. Returns false when the client is gone.
  bool BeginStream(int status, std::string_view content_type);
  // Appends raw bytes to a started stream. Returns false once the client
  // disconnects (callers should stop producing).
  bool WriteChunk(std::string_view data);

  bool responded() const;

 private:
  friend class HttpServer;
  HttpResponseWriter(HttpServer* server, void* conn)
      : server_(server), conn_(conn) {}

  HttpServer* server_;
  void* conn_;  // HttpServer::Conn, opaque here
};

using HttpHandler =
    std::function<void(const HttpRequest&, HttpResponseWriter&)>;

// The epoll reactor. Start binds, spawns the acceptor and the event-loop
// workers; Stop (also run by the destructor) closes the listener, wakes the
// workers, and joins everything — in-flight handlers finish and their
// responses flush before Stop returns.
class HttpServer {
 public:
  HttpServer();
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // `port` 0 binds an ephemeral port (read it back with port()). `host`
  // should stay "127.0.0.1": the daemon speaks plaintext with no auth.
  Status Start(const std::string& host, int port, HttpHandler handler,
               HttpServerOptions options = {});
  void Stop();

  // The bound port (after a successful Start).
  int port() const { return port_; }

  HttpServerStats stats() const { return counters_.Snapshot(); }

 private:
  friend class HttpResponseWriter;
  struct Conn;
  struct Worker;

  void AcceptLoop();
  void WorkerLoop(Worker* worker);
  // Advances the connection's parser over buffered input, dispatching every
  // complete request. Returns false when the connection must close.
  bool ProcessInput(Worker* worker, Conn* conn);
  bool DispatchRequest(Worker* worker, Conn* conn);
  // Non-blocking flush of the pending response. Returns false on a dead
  // peer; *done is true once every pending byte is out.
  bool FlushOutput(Conn* conn, bool* done);
  void CloseConn(Worker* worker, Conn* conn);
  bool SendNow(Conn* conn, std::string_view data);  // blocking (streams)

  int listen_fd_ = -1;
  int port_ = 0;
  HttpHandler handler_;
  HttpServerOptions options_;
  std::thread accept_thread_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stopping_{false};
  std::atomic<size_t> next_worker_{0};

  AtomicStats<HttpServerStats> counters_;
};

// A parsed HTTP response, shared by every client below.
struct HttpResponse {
  int status_code = 0;
  std::string content_type;
  std::string body;
};

// Blocking HTTP client over one persistent keep-alive connection: Call()
// sends a request and reads the Content-Length framed response, leaving the
// connection open for the next Call. A `Connection: close` response (or a
// response with no Content-Length) is read to EOF and the next Call
// reconnects transparently; a connection the server idle-closed between
// calls is retried once. Not thread-safe — one client per thread.
class HttpClient {
 public:
  HttpClient(std::string host, int port, double timeout_seconds = 120.0);
  ~HttpClient();

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  StatusOr<HttpResponse> Call(const std::string& method,
                              const std::string& path,
                              const std::string& body);

  bool connected() const { return fd_ >= 0; }
  int64_t reconnects() const { return reconnects_; }

 private:
  Status EnsureConnected();
  void Disconnect();
  StatusOr<HttpResponse> CallOnce(const std::string& method,
                                  const std::string& path,
                                  const std::string& body,
                                  bool* retry_safe);

  std::string host_;
  int port_;
  double timeout_seconds_;
  int fd_ = -1;
  int64_t reconnects_ = 0;  // reconnections after the first connect
  std::string rbuf_;        // bytes read past the previous response
};

// One-shot call used by the tests and curl-style tooling. Sends a single
// request with `Connection: close` and reads the response to EOF, so it
// handles both framed and streamed bodies; for a streamed response the
// returned body is the concatenation of every chunk.
StatusOr<HttpResponse> HttpCall(const std::string& host, int port,
                                const std::string& method,
                                const std::string& path,
                                const std::string& body,
                                double timeout_seconds = 120.0);

// Streaming client variant: `on_line` is invoked for every complete
// '\n'-terminated line of the response body as it arrives (NDJSON framing);
// the returned HttpResponse carries the final line count in body (empty) and
// the status line. Used to consume streamed plan requests.
StatusOr<HttpResponse> HttpCallStreaming(
    const std::string& host, int port, const std::string& method,
    const std::string& path, const std::string& body,
    const std::function<void(std::string_view line)>& on_line,
    double timeout_seconds = 120.0);

}  // namespace serve
}  // namespace aceso

#endif  // SRC_SERVE_HTTP_H_
