#ifndef PDX_OBS_METRICS_H_
#define PDX_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pdx {

/// Label set of one metric child, in declaration order ({{"collection",
/// "docs"}, {"stage", "queue"}}). Order is preserved in the exposition.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic counter. Inc is a relaxed atomic add — no locks, safe from
/// any number of threads, cheap enough for the dispatch hot path.
class MetricCounter {
 public:
  void Inc(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Point-in-time gauge (queue depth, pool size). Set/Add are lock-free.
class MetricGauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) {
    // CAS loop instead of C++20 fetch_add(double): identical semantics,
    // and it stays lock-free on toolchains where the member is not yet
    // wired to the native instruction.
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram in the Prometheus style: per-bucket atomic
/// counts (cumulative only at exposition time), an atomic count, and an
/// atomic sum. Observe is lock-free: one linear scan over the (small,
/// immutable) bound array plus three relaxed atomic adds — no allocation,
/// no mutex, so dispatcher threads can stamp stage latencies while a
/// scrape walks the same buckets.
///
/// Scrapes read every cell relaxed, so one exposition line can be torn
/// relative to another (count ahead of sum by an in-flight Observe).
/// Prometheus tolerates this by design — rates are computed across
/// scrapes, not within one.
class MetricHistogram {
 public:
  /// `bounds` are the ascending inclusive upper bounds; an implicit +Inf
  /// bucket is appended. Empty bounds => only the +Inf bucket.
  explicit MetricHistogram(std::vector<double> bounds);

  void Observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Non-cumulative count of bucket `i` (i == bounds().size() is +Inf).
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  const std::vector<double> bounds_;
  /// bounds_.size() + 1 cells; the last is the +Inf overflow bucket.
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// `count` log-scale bucket bounds: start, start*factor, start*factor^2...
/// The default serving histogram doubles from 10us to ~20s in 22 buckets.
std::vector<double> ExponentialBounds(double start, double factor,
                                      size_t count);
std::vector<double> DefaultLatencyBoundsMs();

/// Metric registry with Prometheus text exposition.
///
/// Families are keyed by metric name; children by label set. GetCounter /
/// GetGauge / GetHistogram return a get-or-create pointer that stays valid
/// for the registry's lifetime — callers resolve their instruments ONCE
/// (at collection-adopt time, at construction) and then touch only the
/// lock-free instrument on the hot path; the registry mutex guards only
/// registration and scraping. Re-registering an existing (name, labels)
/// pair returns the same instrument, so a collection removed and re-added
/// under one name keeps its cumulative series (the Prometheus contract:
/// counters only reset with the registry). Registering one name with
/// two different types or histogram bounds is a programming error and
/// throws std::logic_error.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  MetricCounter* GetCounter(const std::string& name, const std::string& help,
                            const MetricLabels& labels = {});
  MetricGauge* GetGauge(const std::string& name, const std::string& help,
                        const MetricLabels& labels = {});
  MetricHistogram* GetHistogram(const std::string& name,
                                const std::string& help,
                                std::vector<double> bounds,
                                const MetricLabels& labels = {});

  /// The full registry in Prometheus text exposition format 0.0.4:
  /// # HELP / # TYPE per family, one sample line per child (histograms
  /// expand to cumulative _bucket{le=...} lines plus _sum and _count).
  /// Values are read relaxed — safe to call while writers are live.
  std::string WritePrometheus() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Child {
    MetricLabels labels;
    std::unique_ptr<MetricCounter> counter;
    std::unique_ptr<MetricGauge> gauge;
    std::unique_ptr<MetricHistogram> histogram;
  };

  struct Family {
    Kind kind = Kind::kCounter;
    std::string help;
    std::vector<double> bounds;            ///< Histogram families only.
    std::map<std::string, Child> children;  ///< Keyed by serialized labels.
  };

  Family& ResolveFamily(const std::string& name, const std::string& help,
                        Kind kind);

  mutable std::mutex mutex_;
  std::map<std::string, Family> families_;
};

}  // namespace pdx

#endif  // PDX_OBS_METRICS_H_
