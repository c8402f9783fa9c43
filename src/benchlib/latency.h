#ifndef PDX_BENCHLIB_LATENCY_H_
#define PDX_BENCHLIB_LATENCY_H_

#include <cstddef>
#include <string>
#include <vector>

namespace pdx {

/// Snapshot of a latency distribution in milliseconds. count/min/max/mean
/// cover every recorded sample; the percentiles are computed over the
/// recorder's sliding window (nearest-rank on the sorted window), which for
/// a long-running server is the operationally interesting "recent" view.
struct LatencySummary {
  size_t count = 0;
  double min_ms = 0.0;
  double max_ms = 0.0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;

  /// "n=120 p50=0.41ms p95=0.98ms p99=1.73ms" — for bench tables and logs.
  std::string ToString() const;
};

/// Fixed-memory latency tracker shared by the bench tables and
/// ServiceStats (per-collection percentiles): a ring buffer of the last
/// `window` samples plus running count/sum/min/max over everything ever
/// recorded. Deterministic — no sampling randomness — so
/// two runs over the same queries report the same percentiles.
///
/// Not internally synchronized: callers either own it exclusively or guard
/// it with their own mutex (the serving layer).
class LatencyRecorder {
 public:
  static constexpr size_t kDefaultWindow = 4096;

  LatencyRecorder() : LatencyRecorder(kDefaultWindow) {}
  explicit LatencyRecorder(size_t window);

  /// Records one sample; once the window is full the oldest sample falls
  /// out of the percentile view (count/min/max/mean still remember it).
  void Record(double ms);

  void Reset();

  /// Samples ever recorded (not capped by the window).
  size_t count() const { return total_; }

  LatencySummary Summary() const;

 private:
  size_t window_;
  size_t total_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::vector<double> samples_;
  size_t next_ = 0;  ///< Overwrite position once the ring is full.
};

}  // namespace pdx

#endif  // PDX_BENCHLIB_LATENCY_H_
