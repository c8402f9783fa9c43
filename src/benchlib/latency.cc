#include "benchlib/latency.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace pdx {

namespace {

/// Nearest-rank percentile of an already-sorted sample vector.
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<size_t>(1, rank)) - 1];
}

}  // namespace

std::string LatencySummary::ToString() const {
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer),
                "n=%zu p50=%.2fms p95=%.2fms p99=%.2fms", count, p50_ms,
                p95_ms, p99_ms);
  return buffer;
}

LatencyRecorder::LatencyRecorder(size_t window)
    : window_(std::max<size_t>(1, window)) {}

void LatencyRecorder::Record(double ms) {
  if (total_ == 0 || ms < min_) min_ = ms;
  if (total_ == 0 || ms > max_) max_ = ms;
  ++total_;
  sum_ += ms;
  if (samples_.size() < window_) {
    samples_.push_back(ms);
  } else {
    samples_[next_] = ms;
    next_ = (next_ + 1) % window_;
  }
}

void LatencyRecorder::Reset() {
  total_ = 0;
  sum_ = min_ = max_ = 0.0;
  samples_.clear();
  next_ = 0;
}

LatencySummary LatencyRecorder::Summary() const {
  LatencySummary summary;
  summary.count = total_;
  if (total_ == 0) return summary;
  summary.min_ms = min_;
  summary.max_ms = max_;
  summary.mean_ms = sum_ / static_cast<double>(total_);
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  summary.p50_ms = Percentile(sorted, 0.50);
  summary.p95_ms = Percentile(sorted, 0.95);
  summary.p99_ms = Percentile(sorted, 0.99);
  return summary;
}

}  // namespace pdx
