#ifndef PDX_NET_HTTP_SERVER_H_
#define PDX_NET_HTTP_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

namespace pdx {

/// One parsed HTTP/1.1 request, as handed to the handler. Header names are
/// lower-cased at parse time (HTTP headers are case-insensitive on the
/// wire); the body is fully read before the handler runs.
struct HttpRequest {
  std::string method;  ///< Uppercase verb: "GET", "POST", ...
  std::string path;    ///< Request target before any '?', percent-unescaped NOT applied.
  std::string query;   ///< Raw query string after '?', empty when absent.
  std::map<std::string, std::string> headers;  ///< Lower-cased names.
  std::string body;
};

/// The response a handler completes a request with. Content-Length and the
/// Connection header are the server's business; everything else rides in
/// `headers` (e.g. Retry-After on a 429).
struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::map<std::string, std::string> headers;
  std::string body;
};

/// One-shot completion handle for a request: call exactly once, from any
/// thread — the handler's thread or a SearchService callback. Extra calls
/// are ignored (first writer wins), and a responder outliving its
/// connection (client hung up, server stopped) degrades to a no-op, so an
/// async search completing after disconnect is safe. This indirection is
/// what lets connection threads hand a /search request to the service and
/// go straight back to reading the next pipelined request instead of
/// blocking on the search.
using HttpResponder = std::function<void(HttpResponse)>;

/// Request handler: runs on the connection's thread, must not block on
/// long work — kick the work off and let it complete `respond` later.
/// Responses are delivered to the client in request order per connection
/// (HTTP/1.1 pipelining), whatever order the responders fire in.
using HttpHandler = std::function<void(HttpRequest, HttpResponder)>;

struct HttpServerConfig {
  /// Port to bind; 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Bind address. The default serves loopback only — this is a front end
  /// for tests/benches/demos, not a hardened public listener.
  std::string bind_address = "127.0.0.1";
  /// Listen backlog handed to ::listen.
  int backlog = 64;
  /// Concurrent connections; accepts beyond this are answered 503 and
  /// closed before a connection thread is spawned.
  size_t max_connections = 64;
  /// Bodies above this are answered 413 without buffering the excess
  /// (admission control for memory, the wire analog of max_pending).
  size_t max_body_bytes = 32u << 20;
  /// Request line + headers above this are answered 431 and the
  /// connection closed.
  size_t max_header_bytes = 16u << 10;
  /// Unanswered pipelined requests per connection before the reader stops
  /// reading until responses drain — bounds per-connection memory under a
  /// client that pipelines faster than searches complete. At least 1:
  /// Start rejects 0, which would park the reader before every request.
  size_t max_pipelined = 64;
  /// SO_SNDTIMEO on every accepted socket: a client that stops reading its
  /// responses can stall a blocking send for at most this long before the
  /// connection is dropped. Response flushes run on whichever thread
  /// completes the slot — often a SearchService dispatcher — so an
  /// unbounded send would park the serving layer behind one dead client.
  /// <= 0 disables the bound.
  std::chrono::seconds send_timeout{30};
};

/// A small dependency-free HTTP/1.1 server on POSIX sockets: one accept
/// thread, one thread per live connection (bounded by max_connections),
/// keep-alive and pipelining supported, responses completed asynchronously
/// through HttpResponder and written strictly in request order.
///
/// Accepted sockets run with Nagle's algorithm off (TCP_NODELAY). Each
/// response is written by one send, so Nagle has nothing to merge; left
/// on, a response that follows an unacknowledged one waits for the ACK
/// riding on the client's next request, or for the client's delayed-ACK
/// timer (about 40 ms) when no request follows.
///
/// Protocol subset — deliberately: GET/POST/PUT/DELETE with
/// Content-Length bodies. Transfer-Encoding (chunked) is answered 501; a
/// header name that is empty or holds whitespace (including an obsolete
/// folded line) is answered 400 and the connection closed.
/// Expect: 100-continue gets an interim "100 Continue" only when the
/// connection is quiescent (no pipelined responses outstanding — an
/// interim line must not interleave with an in-flight response write);
/// otherwise the server just reads the body, which RFC 7231 permits and
/// clients handle via their continue timeout. HTTP/1.0 clients get
/// Connection: close semantics.
///
/// Thread safety: Start/Stop from one controlling thread; handlers and
/// responders run on/against internal threads as documented above.
class HttpServer {
 public:
  explicit HttpServer(HttpServerConfig config = {});
  ~HttpServer();  ///< Calls Stop().

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and starts the accept thread. Fails with IoError when
  /// the socket/bind/listen fails (e.g. port in use), and with
  /// InvalidArgument on a null handler or a zero max_pipelined. `handler`
  /// is invoked for every well-formed request; protocol violations are
  /// answered by the server itself (400/413/431/501/503).
  Status Start(HttpHandler handler);

  /// Stops accepting, shuts every connection socket, joins every thread.
  /// In-flight responders may still fire afterwards; they no-op. Idempotent.
  void Stop();

  /// The bound port (the ephemeral one when config.port was 0); 0 before
  /// Start.
  uint16_t port() const { return port_; }

  bool running() const { return running_.load(); }

  /// Live connection count (diagnostics; racy by nature).
  size_t connection_count() const;

 private:
  struct Connection;

  void AcceptLoop();
  void ConnectionLoop(std::shared_ptr<Connection> conn);
  /// Joins finished connection threads and drops their slots. Called from
  /// the accept loop (steady state) and Stop (finally).
  void ReapConnectionsLocked();

  const HttpServerConfig config_;
  HttpHandler handler_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread accept_thread_;

  mutable std::mutex connections_mutex_;
  std::vector<std::shared_ptr<Connection>> connections_;
};

/// Maps a Status onto the HTTP status code the wire front end answers
/// with. The serving-layer codes map one-to-one so a client can tell
/// backpressure (429, retry later) from a missed deadline (504) from a
/// missing collection (404):
///   kOk -> 200, kInvalidArgument -> 400, kNotFound -> 404,
///   kResourceExhausted -> 429, kDeadlineExceeded -> 504,
///   kCancelled -> 503 (shutting down / collection yanked: retryable),
///   kUnsupported -> 501, everything else -> 500.
int HttpStatusFromStatus(const Status& status);

/// Human name for an HTTP status code ("OK", "Too Many Requests", ...).
const char* HttpReasonPhrase(int status);

}  // namespace pdx

#endif  // PDX_NET_HTTP_SERVER_H_
