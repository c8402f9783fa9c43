// Open-loop HTTP load generator for the ann-http workload: requests are
// sent on a fixed schedule over a few pipelined keep-alive connections,
// whatever the server's progress, and each is timed from when it was due.

#ifndef PERFBENCH_HTTP_LOAD_H_
#define PERFBENCH_HTTP_LOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

struct HttpLoadResult {
  struct Response {
    size_t query = 0;        ///< Pool index of the request body.
    int status = 0;          ///< HTTP status; 0 = no response.
    double latency_ms = 0;   ///< Due time -> response read.
    double rtt_ms = 0;       ///< Actual send -> response read.
    double sent_ms = 0;      ///< Send time on the span log's clock.
    double done_s = 0;       ///< Response time since the schedule began.
    std::string body;
  };
  std::vector<Response> responses;
  uint64_t attempted = 0;
  double bytes = 0.0;           ///< Request plus response bytes.
  double max_late_ms = 0.0;     ///< Worst send lateness against schedule.
  double mean_late_ms = 0.0;
};

/// Sends POST `target` with `bodies[i % bodies.size()]` at `rate` requests
/// per second for `seconds`, round-robin over `connections` connections to
/// 127.0.0.1:`port`, then waits for every outstanding response.
HttpLoadResult RunOpenLoop(uint16_t port, const std::string& target,
                           const std::vector<std::string>& bodies, double rate,
                           double seconds, size_t connections,
                           const SpanLog& log);

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_LOAD_H_
