#include "src/serve/http.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <limits>
#include <mutex>
#include <unordered_map>

#include "src/common/logging.h"

namespace aceso {
namespace serve {
namespace {

using Clock = std::chrono::steady_clock;

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

void SetIoTimeout(int fd, double seconds) {
  timeval tv;
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>(
      (seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// send() with MSG_NOSIGNAL so a vanished client surfaces as an error return
// instead of SIGPIPE. Used by the *blocking* client sockets: short writes
// continue from the unsent offset and EINTR retries, so a signal
// mid-request never truncates a payload.
bool SendAllFd(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

// The strict Content-Length parse shared by the server and the keep-alive
// client (PR 8): digits only — strtoull would accept whitespace and a sign
// and *wraps* on overflow, so a 20-digit value could alias a small body
// size and desynchronize the framing. The accumulator is rejected the
// moment it exceeds `cap`.
bool ParseContentLength(const std::string& value, size_t cap, size_t* out) {
  if (value.empty()) {
    return false;
  }
  size_t parsed = 0;
  for (const char c : value) {
    if (c < '0' || c > '9') {
      return false;
    }
    parsed = parsed * 10 + static_cast<size_t>(c - '0');
    if (parsed > cap) {
      return false;
    }
  }
  *out = parsed;
  return true;
}

// Parses "<METHOD> <path> HTTP/1.x" plus headers out of `head`.
// `keep_alive_default` reflects the version: HTTP/1.1 persists unless the
// client says close; HTTP/1.0 closes unless it says keep-alive.
bool ParseRequestHead(std::string_view head, HttpRequest* out,
                      bool* keep_alive) {
  const size_t line_end = head.find("\r\n");
  if (line_end == std::string_view::npos) {
    return false;
  }
  const std::string_view request_line = head.substr(0, line_end);
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) {
    return false;
  }
  out->method = std::string(request_line.substr(0, sp1));
  out->path = std::string(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
  const std::string_view version = request_line.substr(sp2 + 1);
  if (version.rfind("HTTP/1.", 0) != 0) {
    return false;
  }
  *keep_alive = version != "HTTP/1.0";

  out->headers.clear();
  size_t pos = line_end + 2;
  while (pos < head.size()) {
    const size_t eol = head.find("\r\n", pos);
    const std::string_view line =
        head.substr(pos, eol == std::string_view::npos ? std::string_view::npos
                                                       : eol - pos);
    if (line.empty()) {
      break;
    }
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      return false;
    }
    std::string_view value = line.substr(colon + 1);
    while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
      value.remove_prefix(1);
    }
    out->headers.emplace_back(std::string(line.substr(0, colon)),
                              std::string(value));
    if (eol == std::string_view::npos) {
      break;
    }
    pos = eol + 2;
  }
  if (const std::string* connection = out->FindHeader("connection")) {
    if (EqualsIgnoreCase(*connection, "close")) {
      *keep_alive = false;
    } else if (EqualsIgnoreCase(*connection, "keep-alive")) {
      *keep_alive = true;
    }
  }
  return true;
}

int ConnectTo(const std::string& host, int port, double timeout_seconds) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  SetIoTimeout(fd, timeout_seconds);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

std::string BuildRequestHead(const std::string& method,
                             const std::string& path, const std::string& host,
                             size_t body_size, bool keep_alive) {
  std::string req = method + " " + path + " HTTP/1.1\r\n";
  req += "Host: " + host + "\r\n";
  req += "Content-Type: application/json\r\n";
  req += "Content-Length: " + std::to_string(body_size) + "\r\n";
  req += keep_alive ? "\r\n" : "Connection: close\r\n\r\n";
  return req;
}

// Reads an HTTP response to EOF, invoking `on_body` with each chunk of body
// bytes as they arrive. Fills status/content-type from the head.
Status ReadResponseToEof(int fd, HttpResponse* out,
                         const std::function<void(std::string_view)>& on_body) {
  std::string buf;
  char chunk[8192];
  size_t head_end = std::string::npos;
  size_t body_emitted = 0;
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return DeadlineExceeded("timed out reading HTTP response");
    }
    if (n == 0) {
      break;
    }
    buf.append(chunk, static_cast<size_t>(n));
    if (head_end == std::string::npos) {
      head_end = buf.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        // Parse the status line + headers once.
        const std::string_view head = std::string_view(buf).substr(0, head_end);
        const size_t sp = head.find(' ');
        if (sp == std::string_view::npos || head.rfind("HTTP/1.", 0) != 0) {
          return Internal("malformed HTTP status line");
        }
        out->status_code =
            std::atoi(std::string(head.substr(sp + 1, 3)).c_str());
        size_t pos = head.find("\r\n");
        while (pos != std::string_view::npos && pos + 2 < head.size()) {
          const size_t eol = head.find("\r\n", pos + 2);
          const std::string_view line = head.substr(
              pos + 2, eol == std::string_view::npos ? std::string_view::npos
                                                     : eol - pos - 2);
          const size_t colon = line.find(':');
          if (colon != std::string_view::npos &&
              EqualsIgnoreCase(line.substr(0, colon), "content-type")) {
            std::string_view v = line.substr(colon + 1);
            while (!v.empty() && v.front() == ' ') {
              v.remove_prefix(1);
            }
            out->content_type = std::string(v);
          }
          pos = eol;
        }
        body_emitted = head_end + 4;
      }
    }
    if (head_end != std::string::npos && buf.size() > body_emitted) {
      on_body(std::string_view(buf).substr(body_emitted));
      body_emitted = buf.size();
    }
  }
  if (head_end == std::string::npos) {
    return Internal("connection closed before HTTP response head");
  }
  return OkStatus();
}

constexpr char kBadRequestBody[] =
    "{\"status\":\"error\",\"code\":\"INVALID_ARGUMENT\","
    "\"message\":\"malformed HTTP request\"}";

}  // namespace

const std::string* HttpRequest::FindHeader(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (EqualsIgnoreCase(key, name)) {
      return &value;
    }
  }
  return nullptr;
}

const char* HttpStatusText(int code) {
  switch (code) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 412: return "Precondition Failed";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

// ---------------------------------------------------------------------------
// Reactor internals
// ---------------------------------------------------------------------------

// One connection, owned by exactly one worker — no locking anywhere on the
// per-connection state. Buffers are reused across keep-alive requests.
struct HttpServer::Conn {
  int fd = -1;

  // ---- input / parser state machine ----
  enum class Read { kHead, kBody };
  Read rstate = Read::kHead;
  std::string in;       // received, not yet fully parsed
  size_t consumed = 0;  // prefix of `in` already turned into requests
  size_t head_len = 0;  // current request head incl. terminator
  size_t body_len = 0;  // current request body (from Content-Length)
  HttpRequest request;
  bool req_keep_alive = true;

  // ---- output (Content-Length framed responses) ----
  // Responses queue as segments — owned bytes or shared pre-serialized
  // payloads — and flush in one scatter-gather sendmsg per event-loop
  // pass, so a pipelined batch costs one syscall instead of one per
  // response.
  struct OutSeg {
    std::string owned;
    std::shared_ptr<const std::string> shared;  // used when non-null
    std::string_view view() const {
      return shared != nullptr ? std::string_view(*shared)
                               : std::string_view(owned);
    }
  };
  std::deque<OutSeg> outq;
  size_t out_sent = 0;     // sent prefix of outq.front()
  size_t out_pending = 0;  // unsent bytes across outq
  bool flushing = false;   // unsent output; EPOLLOUT may be armed

  // ---- lifecycle ----
  bool responded = false;  // current request produced a response
  bool streamed = false;
  bool close_after = false;
  int64_t served = 0;  // completed requests on this connection
  Clock::time_point deadline;
};

struct HttpServer::Worker {
  int epoll_fd = -1;
  int wake_fd = -1;  // eventfd: new connections + stop
  std::thread thread;
  std::mutex mu;
  std::deque<int> pending;  // fds handed over by the acceptor
  std::unordered_map<int, std::unique_ptr<Conn>> conns;
};

HttpServer::HttpServer() = default;
HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start(const std::string& host, int port,
                         HttpHandler handler, HttpServerOptions options) {
  if (listen_fd_ >= 0) {
    return FailedPrecondition("HTTP server already started");
  }
  if (options.num_workers < 1) {
    return InvalidArgument("num_workers must be >= 1");
  }
  handler_ = std::move(handler);
  options_ = options;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Internal("socket() failed: " + std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return InvalidArgument("bad listen address: " + host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status st = Internal("bind(" + host + ":" + std::to_string(port) +
                               ") failed: " + std::strerror(errno));
    ::close(fd);
    return st;
  }
  if (::listen(fd, 128) != 0) {
    const Status st =
        Internal("listen() failed: " + std::string(std::strerror(errno)));
    ::close(fd);
    return st;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    ::close(fd);
    return Internal("getsockname() failed");
  }
  port_ = static_cast<int>(ntohs(bound.sin_port));
  stopping_.store(false, std::memory_order_relaxed);
  next_worker_.store(0, std::memory_order_relaxed);

  workers_.clear();
  for (int i = 0; i < options_.num_workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    worker->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (worker->epoll_fd < 0 || worker->wake_fd < 0) {
      if (worker->epoll_fd >= 0) ::close(worker->epoll_fd);
      if (worker->wake_fd >= 0) ::close(worker->wake_fd);
      for (auto& started : workers_) {
        ::close(started->epoll_fd);
        ::close(started->wake_fd);
      }
      workers_.clear();
      ::close(fd);
      return Internal("epoll/eventfd setup failed: " +
                      std::string(std::strerror(errno)));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = worker->wake_fd;
    ::epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, worker->wake_fd, &ev);
    workers_.push_back(std::move(worker));
  }
  listen_fd_ = fd;
  for (auto& worker : workers_) {
    Worker* raw = worker.get();
    worker->thread = std::thread([this, raw] { WorkerLoop(raw); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return OkStatus();
}

void HttpServer::Stop() {
  const int fd = listen_fd_;
  if (fd < 0) {
    return;
  }
  stopping_.store(true, std::memory_order_release);
  // shutdown() unblocks accept(); the acceptor observes the stop flag and
  // exits. The descriptor is closed only after the join, so its number
  // cannot be reused while the acceptor might still pass it to accept().
  ::shutdown(fd, SHUT_RDWR);
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  ::close(fd);
  listen_fd_ = -1;
  // Wake and join every worker. A worker mid-handler finishes the handler,
  // flushes its response, and only then observes the stop flag — so no
  // handler can touch freed daemon/service state after Stop() returns.
  for (auto& worker : workers_) {
    const uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(worker->wake_fd, &one, sizeof(one));
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) {
      worker->thread.join();
    }
    ::close(worker->epoll_fd);
    ::close(worker->wake_fd);
  }
  workers_.clear();
}

void HttpServer::AcceptLoop() {
  // Snapshot the listener fd: the member is written by Start() before this
  // thread exists and by Stop() only after joining it, so the local copy is
  // the whole synchronization story.
  const int listen_fd = listen_fd_;
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EMFILE || errno == ENFILE) {
        // Out of descriptors: shed load instead of spinning.
        ACESO_LOG(WARNING) << "serve: accept failed: " << std::strerror(errno);
        struct timespec ts = {0, 10 * 1000 * 1000};
        ::nanosleep(&ts, nullptr);
        continue;
      }
      break;  // listener closed (Stop) or fatal
    }
    if (!SetNonBlocking(fd)) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    counters_.Add<&HttpServerStats::connections_accepted>();

    Worker* worker =
        workers_[next_worker_.fetch_add(1, std::memory_order_relaxed) %
                 workers_.size()]
            .get();
    {
      std::lock_guard<std::mutex> lock(worker->mu);
      worker->pending.push_back(fd);
    }
    const uint64_t one64 = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(worker->wake_fd, &one64, sizeof(one64));
  }
}

void HttpServer::CloseConn(Worker* worker, Conn* conn) {
  ::epoll_ctl(worker->epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  counters_.Add<&HttpServerStats::connections_closed>();
  worker->conns.erase(conn->fd);  // frees conn
}

// Non-blocking scatter-gather flush of every queued response segment, up to
// 64 iovecs per sendmsg. Fully-sent segments are popped as the offset
// advances; `out_sent` tracks the sent prefix of the front segment.
bool HttpServer::FlushOutput(Conn* conn, bool* done) {
  *done = false;
  constexpr int kMaxIov = 64;
  while (conn->out_pending > 0) {
    iovec iov[kMaxIov];
    int iovcnt = 0;
    size_t skip = conn->out_sent;
    for (const Conn::OutSeg& seg : conn->outq) {
      if (iovcnt == kMaxIov) {
        break;
      }
      const std::string_view part = seg.view();
      if (skip >= part.size()) {
        skip -= part.size();
        continue;
      }
      iov[iovcnt].iov_base = const_cast<char*>(part.data() + skip);
      iov[iovcnt].iov_len = part.size() - skip;
      ++iovcnt;
      skip = 0;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(iovcnt);
    const ssize_t n = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return true;  // not done; caller arms EPOLLOUT
      }
      return false;  // peer gone
    }
    counters_.Add<&HttpServerStats::bytes_out>(n);
    conn->out_pending -= static_cast<size_t>(n);
    size_t advanced = conn->out_sent + static_cast<size_t>(n);
    while (!conn->outq.empty() &&
           advanced >= conn->outq.front().view().size()) {
      advanced -= conn->outq.front().view().size();
      conn->outq.pop_front();
    }
    conn->out_sent = advanced;
  }
  *done = true;
  return true;
}

// Blocking send used for streamed responses: the handler owns the worker
// thread while it streams, so EAGAIN waits for writability (bounded by the
// write timeout) instead of queueing.
bool HttpServer::SendNow(Conn* conn, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(conn->fd, data.data() + sent,
                             data.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      counters_.Add<&HttpServerStats::bytes_out>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{conn->fd, POLLOUT, 0};
      const int timeout_ms =
          static_cast<int>(options_.write_timeout_seconds * 1e3);
      const int r = ::poll(&pfd, 1, timeout_ms > 0 ? timeout_ms : 1);
      if (r > 0 || (r < 0 && errno == EINTR)) {
        continue;
      }
      return false;  // stalled past the write deadline
    }
    return false;
  }
  return true;
}

bool HttpServer::DispatchRequest(Worker* worker, Conn* conn) {
  conn->responded = false;
  conn->streamed = false;
  HttpResponseWriter writer(this, conn);
  handler_(conn->request, writer);
  if (!conn->responded) {
    writer.Respond(500, "application/json",
                   "{\"status\":\"error\",\"code\":\"INTERNAL\","
                   "\"message\":\"handler produced no response\"}");
  }
  counters_.Add<&HttpServerStats::requests_served>();
  if (conn->served > 0) {
    counters_.Add<&HttpServerStats::keepalive_reuses>();
  }
  ++conn->served;
  if (conn->streamed || !conn->req_keep_alive) {
    conn->close_after = true;
  }
  (void)worker;
  return true;
}

// Advances the parser over everything buffered, dispatching complete
// requests (pipelining: several may complete in one pass). Responses queue
// in dispatch order and flush once per pass in a single scatter-gather
// sendmsg — a pipelined batch costs one flush syscall, not one per
// response. Returns false when the connection must close now; leaves
// `flushing` set when queued output is still partially unsent (the event
// loop arms EPOLLOUT).
bool HttpServer::ProcessInput(Worker* worker, Conn* conn) {
  // Backpressure: past this much queued-but-unsent response data the parser
  // stops consuming requests until the peer drains what it already asked
  // for, bounding memory against a pipelining client that never reads.
  constexpr size_t kMaxPendingOutputBytes = 8 << 20;
  const Clock::time_point now = Clock::now();
  while (true) {
    bool waiting = false;  // parser needs more bytes from the socket
    while (!conn->close_after &&
           conn->out_pending <= kMaxPendingOutputBytes) {
      const size_t available = conn->in.size() - conn->consumed;
      if (conn->rstate == Conn::Read::kHead) {
        const size_t head_end = conn->in.find("\r\n\r\n", conn->consumed);
        if (head_end == std::string::npos) {
          if (available > options_.max_header_bytes) {
            counters_.Add<&HttpServerStats::parse_errors>();
            HttpResponseWriter writer(this, conn);
            conn->req_keep_alive = false;
            conn->close_after = true;  // the parser cannot resync past this
            writer.Respond(431, "application/json", kBadRequestBody);
            break;
          }
          // Waiting for bytes: idle between requests, read-deadline once a
          // partial request has landed.
          conn->deadline =
              now + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            available == 0 ? options_.idle_timeout_seconds
                                           : options_.read_timeout_seconds));
          waiting = true;
          break;
        }
        conn->head_len = head_end + 4 - conn->consumed;
        bool parsed = ParseRequestHead(
            std::string_view(conn->in)
                .substr(conn->consumed, conn->head_len - 4),
            &conn->request, &conn->req_keep_alive);
        conn->body_len = 0;
        if (parsed) {
          if (conn->request.FindHeader("transfer-encoding") != nullptr) {
            parsed = false;  // chunked request bodies are not supported
          } else if (const std::string* cl =
                         conn->request.FindHeader("content-length")) {
            parsed = ParseContentLength(*cl, options_.max_body_bytes,
                                        &conn->body_len);
          }
        }
        if (!parsed) {
          counters_.Add<&HttpServerStats::parse_errors>();
          HttpResponseWriter writer(this, conn);
          conn->req_keep_alive = false;
          conn->close_after = true;  // the parser cannot resync past this
          writer.Respond(400, "application/json", kBadRequestBody);
          break;
        }
        conn->rstate = Conn::Read::kBody;
      }
      if (conn->in.size() - conn->consumed - conn->head_len <
          conn->body_len) {
        conn->deadline = now + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       options_.read_timeout_seconds));
        waiting = true;
        break;
      }
      conn->request.body.assign(
          conn->in, conn->consumed + conn->head_len, conn->body_len);
      conn->consumed += conn->head_len + conn->body_len;
      conn->rstate = Conn::Read::kHead;

      DispatchRequest(worker, conn);
      if (conn->streamed) {
        return false;  // stream done; close-delimited
      }
    }
    // One flush for everything the pass queued.
    if (conn->out_pending > 0) {
      bool done = false;
      if (!FlushOutput(conn, &done)) {
        return false;
      }
      if (!done) {
        conn->flushing = true;
        return true;  // event loop arms EPOLLOUT; close_after honored there
      }
    }
    conn->flushing = false;
    if (conn->close_after) {
      return false;
    }
    if (waiting) {
      break;
    }
    // The parse loop stopped on backpressure and the flush fully drained:
    // go parse the rest of the buffer.
  }
  // Keep-alive: recycle the input buffer once per pass.
  if (conn->consumed > 0) {
    if (conn->consumed == conn->in.size()) {
      conn->in.clear();
    } else {
      conn->in.erase(0, conn->consumed);
    }
    conn->consumed = 0;
  }
  return true;
}

void HttpServer::WorkerLoop(Worker* worker) {
  std::vector<epoll_event> events(64);
  char chunk[16 * 1024];
  while (true) {
    const int n = ::epoll_wait(worker->epoll_fd, events.data(),
                               static_cast<int>(events.size()), 100);
    if (n < 0 && errno != EINTR) {
      break;
    }
    bool woke = false;
    for (int i = 0; i < std::max(n, 0); ++i) {
      const epoll_event& ev = events[static_cast<size_t>(i)];
      if (ev.data.fd == worker->wake_fd) {
        woke = true;  // drained after the batch, so fd reuse can't alias
        continue;
      }
      auto it = worker->conns.find(ev.data.fd);
      if (it == worker->conns.end()) {
        continue;  // closed earlier in this batch
      }
      Conn* conn = it->second.get();
      if ((ev.events & (EPOLLERR | EPOLLHUP)) != 0) {
        CloseConn(worker, conn);
        continue;
      }
      if ((ev.events & EPOLLOUT) != 0 && conn->flushing) {
        bool done = false;
        if (!FlushOutput(conn, &done)) {
          CloseConn(worker, conn);
          continue;
        }
        if (done) {
          conn->flushing = false;
          if (conn->close_after) {
            CloseConn(worker, conn);
            continue;
          }
          if (!ProcessInput(worker, conn)) {  // pipelined leftovers
            CloseConn(worker, conn);
            continue;
          }
          // The leftovers may have queued (and partially flushed) more
          // responses, so EPOLLOUT stays armed while any output is pending.
          epoll_event mod{};
          mod.events = conn->flushing ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
          mod.data.fd = conn->fd;
          ::epoll_ctl(worker->epoll_fd, EPOLL_CTL_MOD, conn->fd, &mod);
        }
      }
      if ((ev.events & EPOLLIN) != 0) {
        bool peer_closed = false;
        bool io_error = false;
        while (true) {
          const ssize_t r = ::recv(conn->fd, chunk, sizeof(chunk), 0);
          if (r > 0) {
            conn->in.append(chunk, static_cast<size_t>(r));
            counters_.Add<&HttpServerStats::bytes_in>(r);
            // Oversized pipelining is bounded like oversized heads.
            if (conn->in.size() >
                options_.max_header_bytes + options_.max_body_bytes + 4096) {
              break;
            }
            continue;
          }
          if (r == 0) {
            peer_closed = true;
          } else if (errno == EINTR) {
            continue;
          } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
            io_error = true;
          }
          break;
        }
        if (io_error) {
          CloseConn(worker, conn);
          continue;
        }
        if (!ProcessInput(worker, conn)) {
          CloseConn(worker, conn);
          continue;
        }
        if (peer_closed) {
          // Whatever was parseable has been answered; the rest can never
          // complete.
          bool done = true;
          if (conn->flushing) {
            FlushOutput(conn, &done);  // best effort
          }
          CloseConn(worker, conn);
          continue;
        }
        if (conn->flushing) {
          epoll_event mod{};
          mod.events = EPOLLIN | EPOLLOUT;
          mod.data.fd = conn->fd;
          ::epoll_ctl(worker->epoll_fd, EPOLL_CTL_MOD, conn->fd, &mod);
        }
      }
    }

    if (woke) {
      uint64_t drained = 0;
      while (::read(worker->wake_fd, &drained, sizeof(drained)) > 0) {
      }
      std::vector<int> adopted;
      {
        std::lock_guard<std::mutex> lock(worker->mu);
        adopted.assign(worker->pending.begin(), worker->pending.end());
        worker->pending.clear();
      }
      const Clock::time_point now = Clock::now();
      for (const int fd : adopted) {
        auto conn = std::make_unique<Conn>();
        conn->fd = fd;
        conn->deadline =
            now + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          options_.idle_timeout_seconds));
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = fd;
        if (::epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
          ::close(fd);
          counters_.Add<&HttpServerStats::connections_closed>();
          continue;
        }
        worker->conns.emplace(fd, std::move(conn));
      }
    }

    if (stopping_.load(std::memory_order_acquire)) {
      break;
    }

    // Evict connections past their idle/read deadline. The scan is O(conns)
    // at most every epoll round (the wait is capped at 100 ms) — fine for
    // the daemon's connection counts, and it keeps deadlines lock-free.
    const Clock::time_point now = Clock::now();
    for (auto it = worker->conns.begin(); it != worker->conns.end();) {
      Conn* conn = it->second.get();
      ++it;  // CloseConn erases; advance first
      if (now >= conn->deadline && !conn->flushing) {
        counters_.Add<&HttpServerStats::timeout_evictions>();
        CloseConn(worker, conn);
      }
    }
  }

  // Teardown: close everything this worker still owns.
  for (auto& [fd, conn] : worker->conns) {
    ::epoll_ctl(worker->epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    counters_.Add<&HttpServerStats::connections_closed>();
  }
  worker->conns.clear();
}

// ---------------------------------------------------------------------------
// HttpResponseWriter
// ---------------------------------------------------------------------------

bool HttpResponseWriter::responded() const {
  return static_cast<HttpServer::Conn*>(conn_)->responded;
}

void HttpResponseWriter::Respond(int status, std::string_view content_type,
                                 std::string_view body) {
  RespondParts(status, content_type, body, nullptr, std::string_view());
}

void HttpResponseWriter::RespondParts(
    int status, std::string_view content_type, std::string_view head,
    std::shared_ptr<const std::string> middle, std::string_view tail) {
  auto* conn = static_cast<HttpServer::Conn*>(conn_);
  if (conn->responded) {
    return;
  }
  conn->responded = true;
  const size_t body_size = head.size() +
                           (middle != nullptr ? middle->size() : 0) +
                           tail.size();
  HttpServer::Conn::OutSeg head_seg;
  std::string& out = head_seg.owned;
  out += "HTTP/1.1 ";
  out += std::to_string(status);
  out += ' ';
  out += HttpStatusText(status);
  out += "\r\nContent-Type: ";
  out.append(content_type.data(), content_type.size());
  out += "\r\nContent-Length: ";
  out += std::to_string(body_size);
  out += conn->req_keep_alive ? "\r\nConnection: keep-alive\r\n\r\n"
                              : "\r\nConnection: close\r\n\r\n";
  out.append(head.data(), head.size());
  conn->out_pending += out.size();
  conn->outq.push_back(std::move(head_seg));
  if (middle != nullptr && !middle->empty()) {
    HttpServer::Conn::OutSeg seg;
    conn->out_pending += middle->size();
    seg.shared = std::move(middle);
    conn->outq.push_back(std::move(seg));
  }
  if (!tail.empty()) {
    HttpServer::Conn::OutSeg seg;
    seg.owned.assign(tail.data(), tail.size());
    conn->out_pending += seg.owned.size();
    conn->outq.push_back(std::move(seg));
  }
}

bool HttpResponseWriter::BeginStream(int status,
                                     std::string_view content_type) {
  auto* conn = static_cast<HttpServer::Conn*>(conn_);
  if (conn->responded) {
    return false;
  }
  conn->responded = true;
  conn->streamed = true;
  // Responses go out in order: anything still queued from earlier pipelined
  // requests must hit the wire before the stream's head.
  size_t skip = conn->out_sent;
  for (const HttpServer::Conn::OutSeg& seg : conn->outq) {
    const std::string_view part = seg.view();
    if (skip >= part.size()) {
      skip -= part.size();
      continue;
    }
    if (!server_->SendNow(conn, part.substr(skip))) {
      return false;
    }
    skip = 0;
  }
  conn->outq.clear();
  conn->out_sent = 0;
  conn->out_pending = 0;
  conn->flushing = false;
  std::string head = "HTTP/1.1 " + std::to_string(status) + " " +
                     HttpStatusText(status) + "\r\n";
  head += "Content-Type: " + std::string(content_type) + "\r\n";
  head += "Connection: close\r\n\r\n";
  return server_->SendNow(conn, head);
}

bool HttpResponseWriter::WriteChunk(std::string_view data) {
  auto* conn = static_cast<HttpServer::Conn*>(conn_);
  if (!conn->streamed) {
    return false;
  }
  return server_->SendNow(conn, data);
}

// ---------------------------------------------------------------------------
// Clients
// ---------------------------------------------------------------------------

HttpClient::HttpClient(std::string host, int port, double timeout_seconds)
    : host_(std::move(host)), port_(port), timeout_seconds_(timeout_seconds) {}

HttpClient::~HttpClient() { Disconnect(); }

Status HttpClient::EnsureConnected() {
  if (fd_ >= 0) {
    return OkStatus();
  }
  fd_ = ConnectTo(host_, port_, timeout_seconds_);
  if (fd_ < 0) {
    return Internal("cannot connect to " + host_ + ":" +
                    std::to_string(port_));
  }
  rbuf_.clear();
  return OkStatus();
}

void HttpClient::Disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  rbuf_.clear();
}

StatusOr<HttpResponse> HttpClient::Call(const std::string& method,
                                        const std::string& path,
                                        const std::string& body) {
  const bool had_connection = fd_ >= 0;
  bool retry_safe = false;
  auto response = CallOnce(method, path, body, &retry_safe);
  if (response.ok()) {
    return response;
  }
  Disconnect();
  // A reused connection the server closed between calls (idle timeout, rude
  // restart) fails before any response byte arrives; that request was never
  // answered, so one transparent retry on a fresh connection is safe.
  if (had_connection && retry_safe) {
    ++reconnects_;
    response = CallOnce(method, path, body, &retry_safe);
    if (!response.ok()) {
      Disconnect();
    }
  }
  return response;
}

StatusOr<HttpResponse> HttpClient::CallOnce(const std::string& method,
                                            const std::string& path,
                                            const std::string& body,
                                            bool* retry_safe) {
  *retry_safe = true;
  ACESO_RETURN_IF_ERROR(EnsureConnected());
  if (!SendAllFd(fd_, BuildRequestHead(method, path, host_, body.size(),
                                       /*keep_alive=*/true)) ||
      !SendAllFd(fd_, body)) {
    return Internal("failed to send HTTP request");
  }

  // Read the head.
  char chunk[16 * 1024];
  size_t head_end;
  while ((head_end = rbuf_.find("\r\n\r\n")) == std::string::npos) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      if (!rbuf_.empty()) {
        *retry_safe = false;  // a partial response arrived: it was processed
      }
      return n == 0 ? Internal("connection closed before HTTP response head")
                    : DeadlineExceeded("timed out reading HTTP response");
    }
    *retry_safe = false;
    rbuf_.append(chunk, static_cast<size_t>(n));
  }
  *retry_safe = false;

  HttpResponse out;
  const std::string_view head = std::string_view(rbuf_).substr(0, head_end);
  const size_t sp = head.find(' ');
  if (sp == std::string_view::npos || head.rfind("HTTP/1.", 0) != 0) {
    return Internal("malformed HTTP status line");
  }
  out.status_code = std::atoi(std::string(head.substr(sp + 1, 3)).c_str());
  bool close_after = false;
  bool have_length = false;
  size_t content_length = 0;
  size_t pos = head.find("\r\n");
  while (pos != std::string_view::npos && pos + 2 < head.size()) {
    const size_t eol = head.find("\r\n", pos + 2);
    const std::string_view line = head.substr(
        pos + 2, eol == std::string_view::npos ? std::string_view::npos
                                               : eol - pos - 2);
    const size_t colon = line.find(':');
    if (colon != std::string_view::npos) {
      std::string_view name = line.substr(0, colon);
      std::string_view v = line.substr(colon + 1);
      while (!v.empty() && v.front() == ' ') {
        v.remove_prefix(1);
      }
      if (EqualsIgnoreCase(name, "content-type")) {
        out.content_type = std::string(v);
      } else if (EqualsIgnoreCase(name, "content-length")) {
        if (!ParseContentLength(std::string(v),
                                std::numeric_limits<size_t>::max() / 16,
                                &content_length)) {
          return Internal("malformed Content-Length in response");
        }
        have_length = true;
      } else if (EqualsIgnoreCase(name, "connection") &&
                 EqualsIgnoreCase(v, "close")) {
        close_after = true;
      }
    }
    pos = eol;
  }
  rbuf_.erase(0, head_end + 4);

  if (have_length) {
    while (rbuf_.size() < content_length) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        return n == 0 ? Internal("connection closed mid-response")
                      : DeadlineExceeded("timed out reading HTTP response");
      }
      rbuf_.append(chunk, static_cast<size_t>(n));
    }
    out.body = rbuf_.substr(0, content_length);
    rbuf_.erase(0, content_length);
    if (close_after) {
      Disconnect();
    }
  } else {
    // No framing: close-delimited (streamed) body. Read to EOF and drop the
    // connection; the next Call reconnects.
    out.body = std::move(rbuf_);
    rbuf_.clear();
    while (true) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n < 0) {
        return DeadlineExceeded("timed out reading HTTP response");
      }
      if (n == 0) {
        break;
      }
      out.body.append(chunk, static_cast<size_t>(n));
    }
    Disconnect();
  }
  return out;
}

StatusOr<HttpResponse> HttpCall(const std::string& host, int port,
                                const std::string& method,
                                const std::string& path,
                                const std::string& body,
                                double timeout_seconds) {
  const int fd = ConnectTo(host, port, timeout_seconds);
  if (fd < 0) {
    return Internal("cannot connect to " + host + ":" + std::to_string(port));
  }
  HttpResponse response;
  Status st;
  if (!SendAllFd(fd, BuildRequestHead(method, path, host, body.size(),
                                      /*keep_alive=*/false)) ||
      !SendAllFd(fd, body)) {
    st = Internal("failed to send HTTP request");
  } else {
    st = ReadResponseToEof(fd, &response, [&response](std::string_view bytes) {
      response.body.append(bytes.data(), bytes.size());
    });
  }
  ::close(fd);
  if (!st.ok()) {
    return st;
  }
  return response;
}

StatusOr<HttpResponse> HttpCallStreaming(
    const std::string& host, int port, const std::string& method,
    const std::string& path, const std::string& body,
    const std::function<void(std::string_view line)>& on_line,
    double timeout_seconds) {
  const int fd = ConnectTo(host, port, timeout_seconds);
  if (fd < 0) {
    return Internal("cannot connect to " + host + ":" + std::to_string(port));
  }
  HttpResponse response;
  std::string pending;
  Status st;
  if (!SendAllFd(fd, BuildRequestHead(method, path, host, body.size(),
                                      /*keep_alive=*/false)) ||
      !SendAllFd(fd, body)) {
    st = Internal("failed to send HTTP request");
  } else {
    st = ReadResponseToEof(fd, &response, [&](std::string_view bytes) {
      pending.append(bytes.data(), bytes.size());
      size_t start = 0;
      while (true) {
        const size_t nl = pending.find('\n', start);
        if (nl == std::string::npos) {
          break;
        }
        on_line(std::string_view(pending).substr(start, nl - start));
        start = nl + 1;
      }
      pending.erase(0, start);
    });
  }
  ::close(fd);
  if (!st.ok()) {
    return st;
  }
  if (!pending.empty()) {
    on_line(pending);  // unterminated final line
  }
  return response;
}

}  // namespace serve
}  // namespace aceso
