#include "net/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <limits>
#include <system_error>
#include <utility>

#include "net/wire_util.h"

namespace pdx {

namespace {

using net_internal::SendAll;
using net_internal::ToLower;
using net_internal::Trim;

std::string SerializeResponse(const HttpResponse& response, bool close) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    HttpReasonPhrase(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  for (const auto& [name, value] : response.headers) {
    out += name + ": " + value + "\r\n";
  }
  out += close ? "Connection: close\r\n" : "Connection: keep-alive\r\n";
  out += "\r\n";
  out += response.body;
  return out;
}

}  // namespace

int HttpStatusFromStatus(const Status& status) {
  switch (status.code()) {
    case Status::Code::kOk:
      return 200;
    case Status::Code::kInvalidArgument:
      return 400;
    case Status::Code::kNotFound:
      return 404;
    case Status::Code::kResourceExhausted:
      return 429;
    case Status::Code::kDeadlineExceeded:
      return 504;
    case Status::Code::kCancelled:
      return 503;
    case Status::Code::kUnsupported:
      return 501;
    case Status::Code::kIoError:
    case Status::Code::kCorruption:
    case Status::Code::kInternal:
      return 500;
  }
  return 500;
}

const char* HttpReasonPhrase(int status) {
  switch (status) {
    case 100:
      return "Continue";
    case 200:
      return "OK";
    case 201:
      return "Created";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 413:
      return "Payload Too Large";
    case 429:
      return "Too Many Requests";
    case 431:
      return "Request Header Fields Too Large";
    case 500:
      return "Internal Server Error";
    case 501:
      return "Not Implemented";
    case 503:
      return "Service Unavailable";
    case 504:
      return "Gateway Timeout";
    default:
      return "Status";
  }
}

/// One live client connection. The reader thread parses requests and
/// allocates response slots in arrival order; responders complete slots
/// from any thread; whoever completes the oldest outstanding slot drains
/// every ready-in-order response to the socket. `front_seq` names the slot
/// at slots.front(), so a responder maps its sequence number to a deque
/// index without searching.
struct HttpServer::Connection {
  explicit Connection(int fd_in, size_t max_pipelined_in)
      : fd(fd_in), max_pipelined(max_pipelined_in) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  const int fd;
  const size_t max_pipelined;
  std::thread thread;
  std::atomic<bool> done{false};

  struct Slot {
    bool ready = false;
    bool close_after = false;
    HttpResponse response;
  };

  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Slot> slots;
  uint64_t front_seq = 0;    ///< Sequence number of slots.front().
  uint64_t next_seq = 0;     ///< Assigned to the next parsed request.
  bool writing = false;      ///< One flusher at a time.
  bool closed = false;       ///< Socket shut down; flushes become drops.

  void ShutdownLocked() {
    if (!closed) {
      closed = true;
      ::shutdown(fd, SHUT_RDWR);
    }
  }

  /// Marks slot `seq` complete and drains every leading completed slot to
  /// the socket, in order. Safe from any thread; extra completions of the
  /// same slot are ignored.
  void Complete(uint64_t seq, HttpResponse response) {
    std::unique_lock<std::mutex> lock(mutex);
    if (seq < front_seq) return;  // Already flushed: a double completion.
    const size_t index = static_cast<size_t>(seq - front_seq);
    if (index >= slots.size() || slots[index].ready) return;
    slots[index].ready = true;
    slots[index].response = std::move(response);
    if (writing) return;  // The current flusher will pick this up.
    writing = true;
    while (!slots.empty() && slots.front().ready) {
      Slot slot = std::move(slots.front());
      slots.pop_front();
      ++front_seq;
      const bool drop = closed;
      lock.unlock();
      bool sent = false;
      if (!drop) {
        sent = SendAll(fd, SerializeResponse(slot.response, slot.close_after));
      }
      lock.lock();
      if (drop || !sent || slot.close_after) {
        ShutdownLocked();
        // Keep draining: later slots must still be popped so the reader's
        // final wait (slots.empty()) terminates — they just go nowhere.
      }
    }
    writing = false;
    lock.unlock();
    cv.notify_all();
  }
};

HttpServer::HttpServer(HttpServerConfig config) : config_(std::move(config)) {}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start(HttpHandler handler) {
  if (running_.load()) return Status::InvalidArgument("server already running");
  if (!handler) return Status::InvalidArgument("null handler");
  if (config_.max_pipelined == 0) {
    // The reader waits for slots.size() < max_pipelined before each request.
    return Status::InvalidArgument("max_pipelined must be at least 1");
  }
  handler_ = std::move(handler);
  stopping_.store(false);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address: " + config_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status failed =
        Status::IoError(std::string("bind: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return failed;
  }
  if (::listen(listen_fd_, config_.backlog) != 0) {
    const Status failed =
        Status::IoError(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return failed;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void HttpServer::Stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  // Shut the listener down first so the accept loop unblocks and exits.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  // Wake every connection: shutdown unblocks recv; the reader threads then
  // run their drain-and-exit path.
  std::vector<std::shared_ptr<Connection>> doomed;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    doomed = connections_;
  }
  for (const std::shared_ptr<Connection>& conn : doomed) {
    std::lock_guard<std::mutex> lock(conn->mutex);
    conn->ShutdownLocked();
    conn->cv.notify_all();
  }
  for (const std::shared_ptr<Connection>& conn : doomed) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  std::lock_guard<std::mutex> lock(connections_mutex_);
  connections_.clear();
}

size_t HttpServer::connection_count() const {
  std::lock_guard<std::mutex> lock(connections_mutex_);
  size_t live = 0;
  for (const std::shared_ptr<Connection>& conn : connections_) {
    if (!conn->done.load()) ++live;
  }
  return live;
}

void HttpServer::ReapConnectionsLocked() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load()) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void HttpServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (stopping_.load()) return;
      if (errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Transient fd/memory pressure (plausible at max_connections plus
        // client churn): pending connections stay in the backlog, so back
        // off briefly and retry instead of silently never accepting again
        // while running() still reports true. Reap first — finished
        // connections keep their fds until reaped, and reaping otherwise
        // only runs after a successful accept, so skipping it here would
        // livelock when the exhausted fds are our own. Stop() unblocks
        // the sleep's follow-up accept by shutting the listener down.
        {
          std::lock_guard<std::mutex> lock(connections_mutex_);
          ReapConnectionsLocked();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        continue;
      }
      return;  // Listener broken: nothing more to accept.
    }
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    // Nagle off: each response leaves in one SendAll, so Nagle would merge
    // nothing and only hold a response for the client's ACK (see the class
    // comment).
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (config_.send_timeout.count() > 0) {
      // Bounds how long a response flush can block on a client that
      // stopped reading: past the timeout the send fails and the
      // connection is dropped, instead of parking the completing thread
      // (often a service dispatcher) forever.
      timeval timeout{};
      timeout.tv_sec = static_cast<time_t>(config_.send_timeout.count());
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    }
    std::lock_guard<std::mutex> lock(connections_mutex_);
    ReapConnectionsLocked();
    if (connections_.size() >= config_.max_connections) {
      // Over capacity: the wire analog of admission control. Answered
      // directly — there is no connection thread to order against.
      HttpResponse full;
      full.status = 503;
      full.headers.emplace("Retry-After", "1");
      full.body = "{\"error\":\"too many connections\"}";
      SendAll(fd, SerializeResponse(full, /*close=*/true));
      ::close(fd);
      continue;
    }
    auto conn = std::make_shared<Connection>(fd, config_.max_pipelined);
    connections_.push_back(conn);
    conn->thread = std::thread([this, conn] { ConnectionLoop(conn); });
  }
}

namespace {

/// Parsed request head or the protocol error to answer with.
struct RequestHead {
  HttpRequest request;
  size_t content_length = 0;
  bool keep_alive = true;
  bool expects_continue = false;
  int error_status = 0;  ///< Non-zero: answer this and close.
  std::string error;
};

RequestHead ParseRequestHead(const std::string& head) {
  RequestHead out;
  const size_t line_end = head.find("\r\n");
  const std::string request_line = head.substr(0, line_end);
  const size_t method_end = request_line.find(' ');
  const size_t target_end = request_line.rfind(' ');
  if (method_end == std::string::npos || target_end == method_end) {
    out.error_status = 400;
    out.error = "malformed request line";
    return out;
  }
  out.request.method = request_line.substr(0, method_end);
  std::string target =
      request_line.substr(method_end + 1, target_end - method_end - 1);
  const std::string version = request_line.substr(target_end + 1);
  if (version != "HTTP/1.1" && version != "HTTP/1.0") {
    out.error_status = 400;
    out.error = "unsupported HTTP version";
    return out;
  }
  out.keep_alive = version == "HTTP/1.1";
  const size_t question = target.find('?');
  if (question != std::string::npos) {
    out.request.query = target.substr(question + 1);
    target.resize(question);
  }
  if (target.empty() || target[0] != '/') {
    out.error_status = 400;
    out.error = "request target must be an absolute path";
    return out;
  }
  out.request.path = std::move(target);

  size_t pos = line_end == std::string::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    const size_t eol = head.find("\r\n", pos);
    const std::string line =
        head.substr(pos, eol == std::string::npos ? std::string::npos
                                                  : eol - pos);
    pos = eol == std::string::npos ? head.size() : eol + 2;
    if (line.empty()) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) {
      out.error_status = 400;
      out.error = "malformed header line";
      return out;
    }
    // A field name is a token (RFC 9112 §5.1): `Content-Length : 38` must
    // not frame a body, nor an obsolete folded line (leading whitespace)
    // land under a name of its own.
    if (colon == 0 || line.find_first_of(" \t") < colon) {
      out.error_status = 400;
      out.error = "malformed header name";
      return out;
    }
    const std::string name = ToLower(line.substr(0, colon));
    if (name == "content-length" && out.request.headers.count(name) != 0) {
      // Repeated framing headers must be a hard error, not last-one-wins:
      // two conflicting Content-Length values are the classic
      // request-smuggling vector behind an intermediary that picks the
      // other one.
      out.error_status = 400;
      out.error = "duplicate Content-Length header";
      return out;
    }
    out.request.headers[name] = Trim(line.substr(colon + 1));
  }

  const auto& headers = out.request.headers;
  if (headers.count("transfer-encoding") != 0) {
    out.error_status = 501;
    out.error = "Transfer-Encoding is not supported; use Content-Length";
    return out;
  }
  if (auto it = headers.find("content-length"); it != headers.end()) {
    // 1*DIGIT (RFC 9110): no sign, no base prefix. An all-digit value too
    // large for size_t is well formed, and the body guard answers it 413.
    const std::string& value = it->second;
    const char* last = value.data() + value.size();
    const auto [end, error] =
        std::from_chars(value.data(), last, out.content_length);
    if (error == std::errc::invalid_argument || end != last) {
      out.error_status = 400;
      out.error = "malformed Content-Length";
      return out;
    }
    if (error == std::errc::result_out_of_range) {
      out.content_length = std::numeric_limits<size_t>::max();
    }
  }
  if (auto it = headers.find("connection"); it != headers.end()) {
    const std::string value = ToLower(it->second);
    if (value == "close") out.keep_alive = false;
    if (value == "keep-alive") out.keep_alive = true;
  }
  if (auto it = headers.find("expect"); it != headers.end()) {
    out.expects_continue = ToLower(it->second) == "100-continue";
  }
  return out;
}

}  // namespace

void HttpServer::ConnectionLoop(std::shared_ptr<Connection> conn) {
  std::string buffer;
  char chunk[64 * 1024];
  bool reading = true;

  // Answers a protocol violation through the ordered response path (it
  // must not overtake earlier pipelined responses still in flight) and
  // stops reading — after a framing error the byte stream is garbage.
  const auto answer_violation = [&](int status, const std::string& message) {
    uint64_t seq;
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      seq = conn->next_seq++;
      Connection::Slot slot;
      slot.close_after = true;
      conn->slots.push_back(std::move(slot));
    }
    HttpResponse response;
    response.status = status;
    response.body = "{\"error\":\"" + message + "\"}";
    conn->Complete(seq, std::move(response));
    reading = false;
  };

  while (reading) {
    // Frame the next request head.
    size_t head_end;
    while ((head_end = buffer.find("\r\n\r\n")) == std::string::npos) {
      if (buffer.size() > config_.max_header_bytes) break;
      const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;  // Signal, not a hang-up.
      if (n <= 0) {
        reading = false;
        break;
      }
      buffer.append(chunk, static_cast<size_t>(n));
    }
    if (!reading) {
      if (!buffer.empty() && buffer.find("\r\n\r\n") == std::string::npos &&
          buffer.size() <= config_.max_header_bytes) {
        // Trailing partial request: the client hung up mid-head. Nothing
        // to answer.
      }
      break;
    }
    if (head_end == std::string::npos) {
      answer_violation(431, "request head too large");
      break;
    }

    RequestHead head = ParseRequestHead(buffer.substr(0, head_end));
    buffer.erase(0, head_end + 4);
    if (head.error_status != 0) {
      answer_violation(head.error_status, head.error);
      break;
    }
    if (head.content_length > config_.max_body_bytes) {
      // Refused before buffering: an oversized payload must cost the
      // server a header read, not gigabytes of memory.
      answer_violation(413, "body exceeds " +
                               std::to_string(config_.max_body_bytes) +
                               " bytes");
      break;
    }
    if (head.expects_continue) {
      // The body is acceptable size-wise; tell the client to send it —
      // but ONLY while the connection is quiescent. With responses
      // outstanding, a flusher thread may be mid-send on this fd, and an
      // interim line would interleave into its byte stream (it would also
      // overtake earlier pipelined responses). Holding the mutex while
      // quiescent keeps any new completion parked until the interim line
      // is out. Skipping is legal: clients fall back to sending the body
      // after their continue timeout.
      std::lock_guard<std::mutex> lock(conn->mutex);
      if (conn->slots.empty() && !conn->writing && !conn->closed) {
        if (!SendAll(conn->fd, "HTTP/1.1 100 Continue\r\n\r\n")) break;
      }
    }
    while (buffer.size() < head.content_length) {
      const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;  // Signal, not a hang-up.
      if (n <= 0) {
        reading = false;
        break;
      }
      buffer.append(chunk, static_cast<size_t>(n));
    }
    if (!reading) break;  // Hung up mid-body.
    head.request.body = buffer.substr(0, head.content_length);
    buffer.erase(0, head.content_length);

    // Pipelining backpressure: bound the unanswered requests buffered per
    // connection; resume when responses drain (or give up when closed).
    uint64_t seq;
    {
      std::unique_lock<std::mutex> lock(conn->mutex);
      conn->cv.wait(lock, [&] {
        return conn->slots.size() < conn->max_pipelined || conn->closed;
      });
      if (conn->closed) break;
      seq = conn->next_seq++;
      Connection::Slot slot;
      slot.close_after = !head.keep_alive;
      conn->slots.push_back(std::move(slot));
    }
    if (!head.keep_alive) reading = false;

    HttpResponder responder = [conn, seq](HttpResponse response) {
      conn->Complete(seq, std::move(response));
    };
    try {
      handler_(std::move(head.request), responder);
    } catch (const std::exception& e) {
      HttpResponse failed;
      failed.status = 500;
      failed.body = "{\"error\":\"handler threw\"}";
      responder(std::move(failed));
      (void)e;
    } catch (...) {
      HttpResponse failed;
      failed.status = 500;
      failed.body = "{\"error\":\"handler threw\"}";
      responder(std::move(failed));
    }
  }

  // Reader done (client hung up, Connection: close, or violation). The
  // socket stays open until every outstanding response flushed — the
  // client may have half-closed and still be reading answers.
  {
    std::unique_lock<std::mutex> lock(conn->mutex);
    conn->cv.wait(lock, [&] {
      return (conn->slots.empty() && !conn->writing) || conn->closed;
    });
    conn->ShutdownLocked();
  }
  conn->done.store(true);
}

}  // namespace pdx
