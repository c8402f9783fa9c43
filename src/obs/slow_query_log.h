#ifndef PDX_OBS_SLOW_QUERY_LOG_H_
#define PDX_OBS_SLOW_QUERY_LOG_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/pdxearch_profile.h"

namespace pdx {

/// One retained worst-case query: enough context to answer "where did this
/// slow query spend its time" from GET /collections/<name>/slowlog without
/// having traced it explicitly — queue/stage/search timings are stamped on
/// every served query, trace or not.
struct SlowQueryEntry {
  uint64_t id = 0;
  std::string request_id;   ///< Empty unless the query carried one.
  std::string outcome;      ///< StatusCodeName of the final status.
  size_t k = 0;
  size_t nprobe = 0;
  double queue_ms = 0.0;
  double stage_ms = 0.0;    ///< 0 for queries shed before dispatch.
  double search_ms = 0.0;   ///< 0 for queries shed before dispatch.
  double total_ms = 0.0;
  PdxearchProfile counters;  ///< All-zero for queries shed before dispatch.
};

/// Lock-bounded ring of the N worst queries (by total_ms) one collection
/// has served. The lock is held only for the O(N) insert/snapshot on a
/// tiny N (ServiceConfig::slowlog_capacity, default 8) — and the common
/// path never takes it at all: Qualifies() is a lock-free atomic read of
/// the current admission threshold, so a fast query (the overwhelming
/// majority) costs one relaxed load and no string materialization.
class SlowQueryLog {
 public:
  explicit SlowQueryLog(size_t capacity);

  /// True when a query with this total would enter the log — the cheap
  /// pre-check the serving layer gates entry construction on. Racy by
  /// design: a borderline query may be re-checked under the lock in Add.
  bool Qualifies(double total_ms) const;

  /// Inserts `entry` if it still qualifies under the lock (the threshold
  /// may have moved since Qualifies), evicting the mildest entry when
  /// full.
  void Add(SlowQueryEntry entry);

  /// The current worst-first contents.
  std::vector<SlowQueryEntry> Snapshot() const;

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  /// Sorted worst-first; size <= capacity_.
  std::vector<SlowQueryEntry> entries_;
  /// Admission threshold: the mildest retained total once full, else 0
  /// (everything qualifies until the log fills). Read lock-free by
  /// Qualifies; only Add (under the lock) stores it.
  std::atomic<double> threshold_{0.0};
};

}  // namespace pdx

#endif  // PDX_OBS_SLOW_QUERY_LOG_H_
