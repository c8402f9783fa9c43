#ifndef PDX_OBS_QUERY_TRACE_H_
#define PDX_OBS_QUERY_TRACE_H_

#include <string>

#include "obs/pdxearch_profile.h"

namespace pdx {

/// Per-query stage breakdown, attached to a QueryResult when the query was
/// submitted with QueryOptions::trace. The stage model (documented in the
/// README's Observability section) partitions a served query's life:
///
///   queue_ms    admission -> a dispatcher dequeued it
///   stage_ms    dequeue -> the batched search call began (deadline
///               re-check, staging the query into the dispatcher's
///               scratch, dispatch accounting)
///   search_ms   wall time of the SearchBatchWith call that carried the
///               query. Shared by every query coalesced into the same
///               micro-batch: the batch fans out (including shard
///               scatter-gather and the top-k merge) as one unit, so one
///               query's own share is not separable.
///   deliver_ms  search end -> its result was handed to the future or
///               callback (per-query: earlier completions in the batch
///               deliver sooner).
///   total_ms    admission -> delivery (= the QueryResult's total_ms).
///
/// `counters` is the query's OWN search work (blocks visited, lanes
/// pruned, values avoided) — per query, not per batch: SearchBatchWith
/// fills one work record per query even inside a coalesced batch.
///
/// The trace is heap-allocated only for traced queries; with trace off the
/// serving layer allocates nothing for it (QueryResult::trace stays null).
struct QueryTrace {
  std::string request_id;  ///< Echoed/generated X-Request-Id, may be empty.
  double queue_ms = 0.0;
  double stage_ms = 0.0;
  double search_ms = 0.0;
  double deliver_ms = 0.0;
  double total_ms = 0.0;
  PdxearchProfile counters;
};

}  // namespace pdx

#endif  // PDX_OBS_QUERY_TRACE_H_
