#include "http_load.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <stdexcept>

namespace perfbench {
namespace {

struct Connection {
  int fd = -1;
  std::string in;  ///< Bytes read, not yet parsed into responses.
  struct Pending {
    size_t index = 0;  ///< Into HttpLoadResult::responses.
    Clock::time_point due;
    Clock::time_point sent;
  };
  std::deque<Pending> pending;
};

int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void SendAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("send failed");
    sent += static_cast<size_t>(n);
  }
}

/// Pops every complete response at the front of `c.in`; returns the bytes
/// consumed per response through `on_response(status, body, wire_bytes)`.
template <typename F>
void ParseResponses(Connection& c, F&& on_response) {
  for (;;) {
    const size_t head_end = c.in.find("\r\n\r\n");
    if (head_end == std::string::npos) return;
    int status = 0;
    if (c.in.compare(0, 5, "HTTP/") == 0) {
      const size_t space = c.in.find(' ');
      if (space != std::string::npos && space < head_end) {
        status = std::atoi(c.in.c_str() + space + 1);
      }
    }
    size_t length = 0;
    size_t line = c.in.find("\r\n");
    while (line != std::string::npos && line < head_end) {
      const size_t next = c.in.find("\r\n", line + 2);
      const std::string header = c.in.substr(line + 2, next - line - 2);
      if (header.size() > 15 &&
          strncasecmp(header.c_str(), "content-length:", 15) == 0) {
        length = std::strtoull(header.c_str() + 15, nullptr, 10);
      }
      line = next;
    }
    const size_t total = head_end + 4 + length;
    if (c.in.size() < total) return;
    on_response(status, c.in.substr(head_end + 4, length), total);
    c.in.erase(0, total);
  }
}

}  // namespace

HttpLoadResult RunOpenLoop(uint16_t port, const std::string& target,
                           const std::vector<std::string>& bodies, double rate,
                           double seconds, size_t connections,
                           const SpanLog& log) {
  HttpLoadResult out;
  std::vector<std::string> requests;
  for (const std::string& body : bodies) {
    requests.push_back("POST " + target +
                       " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                       "Content-Type: application/json\r\nContent-Length: " +
                       std::to_string(body.size()) + "\r\n\r\n" + body);
  }
  std::vector<Connection> conns(connections);
  for (Connection& c : conns) c.fd = Connect(port);

  const size_t total = static_cast<size_t>(rate * seconds);
  out.responses.resize(total);
  const Clock::time_point start = Clock::now();
  auto due = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(i / rate));
  };
  size_t next = 0;
  size_t outstanding = 0;
  double late_sum = 0.0;
  const Clock::time_point give_up_after_send =
      due(total) + std::chrono::seconds(30);
  std::vector<pollfd> fds(connections);
  char buffer[1 << 16];
  while (next < total || outstanding > 0) {
    Clock::time_point now = Clock::now();
    while (next < total && due(next) <= now) {
      Connection& c = conns[next % connections];
      const size_t q = next % requests.size();
      out.responses[next].query = q;
      SendAll(c.fd, requests[q]);
      const Clock::time_point sent = Clock::now();
      out.responses[next].sent_ms = log.ToMs(sent);
      const double late = Ms(due(next), sent);
      late_sum += late;
      out.max_late_ms = std::max(out.max_late_ms, late);
      out.bytes += static_cast<double>(requests[q].size());
      c.pending.push_back({next, due(next), sent});
      ++out.attempted;
      ++outstanding;
      ++next;
      now = Clock::now();
    }
    if (next >= total && now > give_up_after_send) break;
    for (size_t i = 0; i < connections; ++i) {
      fds[i] = {conns[i].fd, POLLIN, 0};
    }
    const Clock::duration wait =
        next < total ? due(next) - now : std::chrono::milliseconds(50);
    const int64_t ns = std::max<int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count());
    timespec timeout{static_cast<time_t>(ns / 1000000000),
                     static_cast<long>(ns % 1000000000)};
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready < 0 && errno != EINTR) throw std::runtime_error("poll failed");
    if (ready <= 0) continue;
    for (size_t i = 0; i < connections; ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Connection& c = conns[i];
      const ssize_t n = ::recv(c.fd, buffer, sizeof(buffer), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        throw std::runtime_error("server closed a connection");
      }
      c.in.append(buffer, static_cast<size_t>(n));
      const Clock::time_point received = Clock::now();
      ParseResponses(c, [&](int status, std::string body, size_t bytes) {
        if (c.pending.empty()) throw std::runtime_error("unexpected response");
        const Connection::Pending p = c.pending.front();
        c.pending.pop_front();
        HttpLoadResult::Response& r = out.responses[p.index];
        r.status = status;
        r.latency_ms = Ms(p.due, received);
        r.rtt_ms = Ms(p.sent, received);
        r.done_s = Ms(start, received) / 1000.0;
        r.body = std::move(body);
        out.bytes += static_cast<double>(bytes);
        --outstanding;
      });
    }
  }
  for (Connection& c : conns) ::close(c.fd);
  out.mean_late_ms = out.attempted > 0 ? late_sum / out.attempted : 0.0;
  return out;
}

}  // namespace perfbench
