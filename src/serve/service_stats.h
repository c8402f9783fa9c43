#ifndef PDX_SERVE_SERVICE_STATS_H_
#define PDX_SERVE_SERVICE_STATS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "benchlib/latency.h"

namespace pdx {

/// Per-collection serving counters. Every admitted query ends in exactly
/// one of completed/expired/cancelled/failed, so at quiescence admitted ==
/// completed + expired + cancelled + failed; rejected queries were never
/// admitted. The counters (admitted through dispatches, rerank_candidates,
/// added/deleted/compactions) are read from the service's metrics registry:
/// they are the /metrics series, cumulative per collection name, and keep
/// counting across a remove + re-add (a PUT replace) of that name.
struct CollectionStats {
  size_t count = 0;       ///< Vectors hosted (the collection's size).
  size_t admitted = 0;    ///< Accepted into the queue.
  size_t completed = 0;   ///< Searched and delivered OK.
  size_t rejected = 0;    ///< Turned away with kResourceExhausted.
  size_t expired = 0;     ///< Deadline passed before dispatch.
  size_t cancelled = 0;   ///< Cancel()/RemoveCollection/Shutdown.
  size_t failed = 0;      ///< Search threw; resolved with kInternal.
  size_t dispatches = 0;  ///< Batched search calls; completed/dispatches
                          ///< is the achieved micro-batch size.
  /// Shards the hosted searcher fans each query out to (1 = unsharded).
  size_t shards = 1;
  /// How the collection got here: "built" from vectors, "mmap" restored
  /// from a collection file served off a live memory mapping, or "loaded"
  /// restored via the heap-copy fallback.
  std::string source = "built";
  /// Bytes of the collection file currently memory-mapped for this
  /// collection: 0 unless source == "mmap", and 0 again once a fold has
  /// replaced the base a live collection restored.
  uint64_t mapped_bytes = 0;
  /// Quantization tier this collection serves on ("none" or "u8").
  std::string quantization = "none";
  /// Over-fetch multiplier of the u8 tier's exact re-rank (0 = serve raw
  /// quantized distances); 0 on float collections.
  size_t rerank_factor = 0;
  /// Bytes of u8 codes resident for this collection (~count x dim on the
  /// u8 tier, summed across shards); 0 on float collections.
  uint64_t quantized_bytes = 0;
  /// Candidates the u8 tier re-ranked with exact float distances; 0 on
  /// float collections.
  uint64_t rerank_candidates = 0;
  /// Completions per second over the recent ServiceConfig::qps_window:
  /// (n - 1) / span of the completions inside the window. 0 when the
  /// collection has been idle longer than the window — this is a *current*
  /// throughput gauge, not a lifetime average, so idle gaps do not dilute
  /// it forever.
  double qps = 0.0;
  LatencySummary queue_wait;  ///< Admission -> dispatch, ms.
  LatencySummary latency;     ///< Admission -> completion, ms (p50/p95/p99).

  // -- Mutable-collection (streaming ingest) shape and counters. ----------
  /// True when the collection accepts AddVectors/DeleteVectors (built from
  /// vectors by the service); false for adopted or index-backed searchers.
  bool is_mutable = false;
  size_t delta = 0;         ///< Rows in the append delta region right now.
  size_t delta_blocks = 0;  ///< PDX blocks in the delta region.
  size_t base_blocks = 0;   ///< Blocks of the immutable base, all shards.
  size_t tombstones = 0;    ///< Dead slots awaiting compaction.
  uint64_t added = 0;       ///< Vectors ingested via AddVectors.
  uint64_t deleted = 0;     ///< Vectors removed via DeleteVectors.
  uint64_t compactions = 0; ///< Background compactions completed.
};

/// One replicated dispatcher's share of the serving work.
struct DispatcherStats {
  /// Batches this dispatcher popped and ran (pdx_dispatcher_batches_total).
  /// Summed over dispatchers, equals the sum of CollectionStats::dispatches
  /// while every collection name counted so far is still hosted.
  uint64_t dispatches = 0;
  /// Fraction of the recent ServiceConfig::qps_window this dispatcher
  /// spent inside dispatch (staging + search + result delivery), in
  /// [0, 1]. Windowed like CollectionStats::qps — a lifetime fraction
  /// would let one early idle period dilute the gauge forever — and
  /// covering completed DispatchBatch calls only, so it trails reality by
  /// at most one in-flight batch. Near-equal busy fractions mean the
  /// replicas split the load evenly; all near 1.0 means dispatch itself
  /// is the bottleneck — add dispatchers.
  double busy_fraction = 0.0;
};

/// Snapshot returned by SearchService::Stats(): consistent at the instant
/// it was taken, then a plain value the caller owns.
struct ServiceStats {
  size_t queue_depth = 0;   ///< Queries waiting for dispatch right now.
  size_t pool_threads = 0;  ///< Size of the one shared pool.
  /// SIMD tier the runtime dispatcher resolved for this process
  /// ("scalar", "avx2", "avx512"); fixed for the process lifetime.
  std::string isa;
  /// One entry per dispatcher thread (ServiceConfig::dispatchers).
  std::vector<DispatcherStats> dispatchers;
  std::map<std::string, CollectionStats> collections;
};

}  // namespace pdx

#endif  // PDX_SERVE_SERVICE_STATS_H_
