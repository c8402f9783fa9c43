#ifndef PDX_SERVE_SEARCH_SERVICE_H_
#define PDX_SERVE_SEARCH_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "core/any_searcher.h"
#include "core/mutable_searcher.h"
#include "core/sharded_searcher.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "serve/query.h"
#include "serve/service_stats.h"
#include "storage/vector_set.h"

namespace pdx {

/// Construction-time knobs for SearchService.
struct ServiceConfig {
  /// Size of the one shared ThreadPool every hosted collection's batches
  /// run on; 0 = one per hardware thread (ResolveThreadCount semantics).
  size_t threads = 0;
  /// Admission bound: queries waiting for dispatch beyond this are turned
  /// away with kResourceExhausted instead of growing the queue (or
  /// blocking the submitter). Must be > 0.
  size_t max_pending = 1024;
  /// Micro-batching cap: a dispatcher coalesces up to this many queued
  /// queries for the same (collection, k, nprobe) into one SearchBatchWith
  /// call. 1 disables batching. Must be > 0.
  size_t max_batch = 8;
  /// Dispatcher threads draining the admission queue concurrently. Each
  /// pops a batch independently and runs it through the knob-explicit
  /// Searcher::SearchBatchWith on its own slot band, so batches for
  /// different collections — and consecutive batches against one hot
  /// collection — execute in parallel over the shared pool. 1 restores
  /// the strictly serial dispatch order. Clamped to [1, kMaxPoolThreads].
  size_t dispatchers = 2;
  /// Horizon of the per-collection QPS gauge: Stats() computes QPS over
  /// the completions inside this window, so an idle gap drops the gauge to
  /// zero instead of diluting a lifetime average. Also the horizon of
  /// DispatcherStats::busy_fraction. Must be > 0.
  std::chrono::milliseconds qps_window{10'000};
  /// Registry the service reports its serving metrics into (counters,
  /// stage histograms, queue-depth gauge) — the one source both GET
  /// /metrics and Stats()/GET /stats read. nullptr = a registry private to
  /// this service, so two services in one process never count each other's
  /// queries. Inject one to share it: services reporting into the same
  /// registry add to the same per-collection-name series. Must outlive the
  /// service.
  MetricsRegistry* metrics = nullptr;
  /// Worst traces retained per collection (GET .../slowlog). Clamped >= 1.
  size_t slowlog_capacity = 8;
  /// Live-collection knobs applied to every collection the service builds
  /// from vectors: the delta block size appends repack, and the delta /
  /// tombstone count that triggers a background compaction.
  MutationConfig mutation;
  /// Fraction of admitted queries traced even without QueryOptions::trace,
  /// so operators can sample production traffic instead of opting in per
  /// request. Clamped to [0, 1]; 0 (default) keeps tracing strictly
  /// opt-in. Selection is a deterministic error accumulator (every
  /// 1/rate-th admitted query), and a query NOT selected allocates nothing
  /// for observability — the zero-cost-off contract holds per query.
  double trace_sample_rate = 0.0;
};

/// Shape of one hosted collection, as captured at AddCollection time plus
/// the live count: what a wire front end needs to validate and describe
/// requests without touching the searcher itself.
struct CollectionInfo {
  std::string name;
  size_t dim = 0;
  size_t count = 0;
  size_t default_k = 0;
  size_t default_nprobe = 0;
  size_t max_nprobe = 0;
  size_t shards = 1;
  SearcherLayout layout = SearcherLayout::kFlat;
  PrunerKind pruner = PrunerKind::kBond;
  /// Quantization tier the collection serves on (kNone = exact float).
  QuantizationKind quantization = QuantizationKind::kNone;
  /// The u8 tier's exact-rerank over-fetch multiplier (0 = raw quantized
  /// distances); always 0 when quantization == kNone.
  size_t rerank_factor = 0;
  /// Resident bytes of u8 codes (~count x dim on the u8 tier, summed
  /// across shards); 0 on float collections.
  uint64_t quantized_bytes = 0;
  /// How the collection got here: "built" (constructed from vectors),
  /// "mmap" (restored from a collection file served from a live mapping),
  /// or "loaded" (restored via the heap-copy fallback).
  std::string source = "built";
};

/// An async serving shell over the Searcher facade: hosts multiple named
/// collections, multiplexes every client over ONE shared ThreadPool, and
/// answers Submit with a future (or callback) instead of blocking the
/// caller on the search.
///
/// Architecture — ServiceConfig::dispatchers replicated dispatcher
/// threads drain a bounded FIFO admission queue; per pop a dispatcher
/// opportunistically coalesces queued queries for the same collection
/// (and same k/nprobe) into one
/// Searcher::SearchBatchWith(slot, QueryKnobs, ..., &pool) call, which
/// fans out over the shared pool passed on every call (no hosted searcher
/// holds a pool, so the query path never constructs one). Dispatcher d
/// owns slot band [d * pool_threads, (d+1) * pool_threads) of every hosted
/// searcher's per-slot scratch — reserved at adoption time — and
/// concurrent SearchBatchWith calls on disjoint reserved bands are safe
/// with any caller pool, so two batches against the SAME collection
/// proceed concurrently on disjoint engines, with no shared-config
/// mutation anywhere on the dispatch path. Hosted searchers are never
/// queried through the band-0 wrappers (Search, SearchBatch), the only
/// surface that touches a searcher's owned pool.
/// Dispatchers also timed-wait on the earliest queued deadline and shed
/// expired queries even while paused, so a deadline never strands a future
/// behind other batch keys or a Pause().
///
/// Results are exactly what a direct sequential Searcher::Search over the
/// same collection returns — SearchBatchWith's parity guarantee, end to
/// end, regardless of which dispatcher ran the batch.
///
/// Thread safety: every public member is safe to call from any thread.
/// Destruction shuts the service down: in-flight searches finish, queries
/// still queued complete with kCancelled, and every future ever handed out
/// is resolved.
class SearchService {
 public:
  explicit SearchService(ServiceConfig config = {});
  ~SearchService();

  SearchService(const SearchService&) = delete;
  SearchService& operator=(const SearchService&) = delete;

  /// Hosts `vectors` under `name` as a LIVE collection: the service builds
  /// a MutableSearcher (and runs it on the shared pool), so the
  /// collection accepts AddVectors/DeleteVectors/Upsert while serving.
  /// `vectors` is copied — it need not outlive the collection.
  ///
  /// Every hosting call (the three AddCollection overloads and
  /// LoadCollection) REPLACES a collection already hosted under `name`, in
  /// one step: the new collection is built with no lock held and swapped
  /// in only once it is ready, so the name never reads as unhosted, a
  /// failed build leaves the old collection serving, and queries already
  /// queued for the old one finish on it. Fails with kCancelled after
  /// Shutdown, or with whatever MakeSearcher rejects.
  ///
  /// With config.quantization != kNone the collection is built on the
  /// quantized serving tier instead (MakeSearcher routes to the u8
  /// searcher) and is IMMUTABLE: AddVectors/DeleteVectors/Upsert fail
  /// with kUnsupported — the u8 tier has no streaming-ingest path yet.
  ///
  /// With sharding.num_shards above one the collection is split across
  /// that many searchers behind the one name (MakeShardedSearcher): every
  /// query fans out to all shards on the service's shared pool and merges
  /// into one exact global top-k. Submit/admission/micro-batching are
  /// unchanged; ServiceStats reports the per-shard dispatch counts.
  /// num_shards == 0 fails with InvalidArgument.
  Status AddCollection(const std::string& name, const VectorSet& vectors,
                       SearcherConfig config, ShardingOptions sharding = {});

  /// Same, over a caller-owned IVF index (`index` must outlive the
  /// collection; layout must be kIvf). Index-backed collections are
  /// IMMUTABLE (the service does not own the index it would have to
  /// rebuild): AddVectors/DeleteVectors fail with kUnsupported.
  Status AddCollection(const std::string& name, const VectorSet& vectors,
                       const IvfIndex& index, SearcherConfig config);

  /// Adopts an already-built searcher. On success the pointer is moved
  /// from and the searcher must not be queried by the caller again; its
  /// batches run on the shared pool whatever its threads setting. A
  /// custom searcher needs only SearchWith over per-slot scratch: the base
  /// SearchBatchWith fans its batches out over the dispatcher's band on
  /// that pool. On failure (null searcher, shut down) the caller
  /// keeps the searcher untouched — an expensively built index is never
  /// silently destroyed. Adopted collections are immutable through the
  /// service (AddVectors/DeleteVectors fail with kUnsupported).
  Status AddCollection(const std::string& name,
                       std::unique_ptr<Searcher>& searcher);

  /// Serializes the hosted collection `name` into the versioned collection
  /// file at `path` (storage/collection_format.h). Runs off the dispatch
  /// path: a mutable collection snapshots under its own reader lock, so
  /// queries keep flowing during the write. On success the path is
  /// remembered as the collection's persist path — after every background
  /// compaction the compactor re-saves there, keeping the on-disk snapshot
  /// current. Saves and those re-saves run one at a time, so an older
  /// snapshot never lands over a newer save to the same path. kNotFound for
  /// an unknown name; kUnsupported for adopted custom searchers with no
  /// serializable form.
  Status SaveCollection(const std::string& name, const std::string& path);

  /// Hosts the collection file at `path` under `name` — the instant-
  /// restart path: the file is validated and mapped (`allow_mmap`; pass
  /// false to force the heap-copy fallback), the searcher reconstructs as
  /// zero-copy views over the mapping with no k-means and no packing, and
  /// a mutable snapshot resumes exactly where Save left it (delta,
  /// tombstones, id allocation). Loading runs OFF the dispatch path;
  /// hosted collections, `name` included, keep serving while the file
  /// validates, and `path` becomes the new collection's persist path.
  /// Replaces like AddCollection. Fails with kCancelled after Shutdown, or
  /// whatever the format loader rejects (truncation, checksum mismatch,
  /// future version) — leaving any collection hosted under `name` as it
  /// was.
  Status LoadCollection(const std::string& name, const std::string& path,
                        bool allow_mmap = true);

  /// Appends `count` row-major `dim`-float rows to the live collection
  /// `name` while it keeps serving — no rebuild: rows land in the
  /// collection's append delta region (one tail-block repack each, cost
  /// independent of collection size). With `ids` == nullptr rows get
  /// consecutive auto ids; with `ids`, an id already present is an UPSERT
  /// (the old vector is tombstoned, the row inherits the id). Returns the
  /// assigned ids in row order. When the delta (or tombstone count)
  /// outgrows ServiceConfig::mutation.compact_threshold, a background
  /// compaction folds it into a fresh base — dispatchers are never
  /// blocked. Fails with kNotFound (unknown name), kUnsupported (immutable
  /// collection), or kInvalidArgument (dim mismatch, oversized ids).
  Result<std::vector<uint64_t>> AddVectors(const std::string& name,
                                           const float* rows, size_t count,
                                           size_t dim,
                                           const uint64_t* ids = nullptr);

  /// Tombstones `count` vectors of live collection `name` by external id;
  /// they disappear from results immediately and are reclaimed at the next
  /// compaction. Ids not present are reported through `missing` (when
  /// non-null) rather than failing the batch. Returns the number deleted.
  Result<size_t> DeleteVectors(const std::string& name, const uint64_t* ids,
                               size_t count,
                               std::vector<uint64_t>* missing = nullptr);

  /// Insert-or-replace sugar over AddVectors: `ids` is mandatory (that is
  /// what makes it an upsert).
  Result<std::vector<uint64_t>> Upsert(const std::string& name,
                                       const float* rows, size_t count,
                                       size_t dim, const uint64_t* ids);

  /// Unhosts `name`. Queries still queued for it complete with kCancelled;
  /// an in-flight batch finishes first (the dispatcher keeps the
  /// collection alive until it is done with it).
  Status RemoveCollection(const std::string& name);

  /// Names of the hosted collections, sorted.
  std::vector<std::string> CollectionNames() const;

  /// Shape of the hosted collection `name` (dimension, size, knob defaults
  /// and ceilings) — what the HTTP front end validates query payloads
  /// against. The dim it reports is a SNAPSHOT: a caller sizing a query
  /// buffer from it must also pass that size as QueryOptions::query_len so
  /// Submit re-checks it atomically with admission (the collection may be
  /// replaced, with a different dim, in between). NotFound when the name
  /// is not hosted.
  Result<CollectionInfo> GetCollectionInfo(const std::string& name) const;

  /// Submits `query` (collection-dim floats, copied — the pointer need not
  /// outlive the call) against `collection`. Set
  /// QueryOptions::query_len when the buffer was sized from a
  /// CollectionInfo snapshot rather than the live searcher: a length that
  /// no longer matches the hosted dim fails with kInvalidArgument instead
  /// of being read out of bounds. Never blocks on the search:
  /// returns a ticket whose future resolves when the query completes, is
  /// rejected (kNotFound / kResourceExhausted — the future is then already
  /// ready), expires, or is cancelled.
  QueryTicket Submit(const std::string& collection, const float* query,
                     QueryOptions options = {});

  /// Callback flavor: instead of a future, `callback` fires exactly once
  /// with the QueryResult (see QueryCallback for the threading contract).
  /// Returns the query id usable with Cancel.
  uint64_t Submit(const std::string& collection, const float* query,
                  QueryOptions options, QueryCallback callback);

  /// Cancels a still-queued query: its future/callback resolves with
  /// kCancelled and it is never dispatched. Returns false when the query
  /// is unknown, already dispatched, or already complete — best effort,
  /// never blocks.
  bool Cancel(uint64_t id);

  /// Pauses dispatch (in-flight batches finish; queued queries hold, and
  /// admission control keeps applying). Deadline shedding keeps running:
  /// a queued query whose deadline passes completes with
  /// kDeadlineExceeded even while paused — Pause() must never strand a
  /// future. For drain-style maintenance and deterministic tests.
  void Pause();
  /// Resumes dispatch after Pause().
  void Resume();

  /// Queries waiting for dispatch right now.
  size_t queue_depth() const;

  /// Point-in-time snapshot: queue depth, pool size, the per-collection
  /// and per-dispatcher counters (read from metrics(), so they are the
  /// /metrics series), and the windowed QPS/latency/busy views.
  ServiceStats Stats() const;

  /// The N worst queries (by total_ms) collection `name` has served,
  /// worst first — populated for every served query, traced or not.
  /// NotFound when the name is not hosted.
  Result<std::vector<SlowQueryEntry>> SlowLog(const std::string& name) const;

  /// The registry this service reports into (the injected one, or its
  /// own) — what a wire front end scrapes for GET /metrics.
  MetricsRegistry& metrics() const { return *metrics_; }

  /// Stops the dispatcher: in-flight work finishes, everything still
  /// queued completes with kCancelled, later Submits are rejected with
  /// kCancelled. Idempotent; the destructor calls it. Must not be called
  /// from a query callback (it joins the thread callbacks run on).
  void Shutdown();

  const ServiceConfig& options() const { return config_; }
  size_t pool_threads() const { return pool_.num_threads(); }

 private:
  struct Collection;
  struct Pending;

  /// The record of a collection about to be hosted as `name`: reserves
  /// every dispatcher's scratch band on `searcher` and resolves the name's
  /// instruments. Takes no service lock. `live` is the searcher downcast
  /// when the service built it as a MutableSearcher (the mutation surface
  /// routes through it); nullptr marks the collection immutable.
  std::shared_ptr<Collection> NewCollection(const std::string& name,
                                            std::unique_ptr<Searcher> searcher,
                                            MutableSearcher* live = nullptr);
  /// The one install step every hosting path ends in: under mutex_, hosts
  /// `collection` under its name, replacing any incarnation hosted there,
  /// and stamps the name's gauges. kCancelled after Shutdown.
  Status Install(const std::shared_ptr<Collection>& collection);
  /// The incarnation hosted as `name`: kNotFound when there is none and,
  /// with `want_live`, kUnsupported when it has no mutation surface.
  /// Caller holds mutex_.
  Result<std::shared_ptr<Collection>> FindLocked(const std::string& name,
                                                 bool want_live = false) const;
  /// True while `host` is the incarnation hosted under its name. Anything
  /// that can outlive a replace checks this before it acts on the name.
  /// Caller holds mutex_.
  bool IsHostedLocked(const Collection& host) const;
  /// Queues `host` for background compaction when its delta/tombstones
  /// crossed the threshold and it is not already queued. Caller holds
  /// mutex_.
  void MaybeScheduleCompactionLocked(const std::shared_ptr<Collection>& host);
  /// Re-reads `host`'s count and nprobe ceiling from its searcher's shape,
  /// then stamps the name's size gauges from it — only while it is the
  /// hosted incarnation, since every incarnation of a name shares them.
  /// Caller holds mutex_.
  void RefreshGaugesLocked(Collection& host);
  /// The dedicated compaction thread: drains compact_queue_, runs
  /// MutableSearcher::Compact() (expensive build off every lock, brief
  /// swap), then refreshes the collection's ceilings and re-checks the
  /// threshold — appends that landed during a rebuild can queue the next
  /// one immediately.
  void CompactorMain();
  /// Admission: queues `pending` (moving it out) or returns why not (queue
  /// full, unknown collection, shut down), leaving `pending` to the caller
  /// to fail. On success fills the query payload and per-collection
  /// defaults in first.
  Status Enqueue(const std::string& collection, const float* query,
                 const QueryOptions& options,
                 std::unique_ptr<Pending>& pending);
  uint64_t SubmitInternal(const std::string& collection, const float* query,
                          const QueryOptions& options, QueryCallback callback,
                          std::future<QueryResult>* future_out);
  /// Resolves one query (promise or callback) and records its stats. The
  /// queue_ms attribution is derived from the Pending itself: dispatched
  /// timestamp set -> waited submitted->dispatched; queued but never
  /// dispatched -> its whole life was queue wait; never queued -> 0.
  void Complete(std::unique_ptr<Pending> pending, Status status,
                std::vector<Neighbor> neighbors);
  void DispatcherMain(size_t dispatcher);
  /// Single queue scan under mutex_: moves every expired query into
  /// `*expired` and returns the earliest deadline still pending (or
  /// "none"). Runs regardless of paused_ — load shedding must not wait
  /// for Resume().
  std::chrono::steady_clock::time_point SweepDeadlinesLocked(
      std::vector<std::unique_ptr<Pending>>* expired);
  /// Pops the front query plus every coalescable follower (same
  /// collection/k/nprobe, up to max_batch). Caller holds mutex_.
  std::vector<std::unique_ptr<Pending>> CollectBatchLocked();
  /// Bookkeeping for every removal from queue_: keeps deadline_queued_
  /// exact so the deadline sweep can early-out. Caller holds mutex_.
  void NoteDequeuedLocked(const Pending& pending);
  /// Re-stamps the queue-depth gauge from queue_.size(); called at the end
  /// of every critical section that mutates queue_. Caller holds mutex_.
  void SetQueueDepthLocked();
  /// Resolves collection `name`'s metric instruments (get-or-create, so a
  /// re-added name keeps its cumulative series). Called from NewCollection.
  /// These are the collection's only serving counters: Stats() reads them
  /// too.
  void ResolveCollectionMetrics(Collection& collection);
  void DispatchBatch(size_t dispatcher,
                     std::vector<std::unique_ptr<Pending>> batch);
  /// Fails every not-yet-completed query in `live` with kInternal — the
  /// dispatcher's exception barrier.
  void FailBatch(std::vector<std::unique_ptr<Pending>>& live,
                 const std::string& reason);

  /// One replicated dispatcher: its thread, its private batch staging
  /// buffer, and its busy ring. Dispatcher d runs
  /// every batch through slot band
  /// [d * pool_threads, (d+1) * pool_threads) of the hosted searchers'
  /// per-slot scratch (reserved by NewCollection), so two dispatchers never
  /// share engine state even on the same collection.
  struct Dispatcher {
    std::thread thread;
    std::vector<float> scratch;  ///< This dispatcher's query staging buffer.
    /// Per-query work records for the batch in flight, sized max_batch at
    /// construction so the dispatch path never allocates for
    /// observability — the "tracing off costs nothing" contract.
    std::vector<PdxearchProfile> counters_scratch;
    /// Ring of completed batches' (end time, busy duration) — the windowed
    /// busy_fraction gauge. Guarded by mutex_.
    struct BusySample {
      std::chrono::steady_clock::time_point end{};
      std::chrono::steady_clock::duration busy{};
    };
    std::vector<BusySample> busy_ring;
    size_t busy_next = 0;
    /// Batches dispatched; bumped under mutex_ together with the
    /// collection's pdx_dispatches_total. Resolved at construction.
    MetricCounter* batches = nullptr;
  };

  const ServiceConfig config_;
  /// The private registry when ServiceConfig::metrics is null. Declared
  /// before every member that holds instruments, so it outlives them.
  const std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* const metrics_;  ///< Never null after construction.
  ThreadPool pool_;  ///< The one pool every collection's batches share.
  const std::chrono::steady_clock::time_point started_;

  // Process-level gauges, resolved once. queue_depth_gauge_ is re-stamped
  // at the end of every critical section that changes queue_ (see
  // SetQueueDepthLocked), the others at construction / collection churn.
  MetricGauge* queue_depth_gauge_ = nullptr;
  MetricGauge* collections_gauge_ = nullptr;

  mutable std::mutex mutex_;
  std::condition_variable dispatch_cv_;
  std::map<std::string, std::shared_ptr<Collection>> collections_;
  /// Admission FIFO, head first. A vector keeps its capacity, so a warm
  /// queue admits without allocating (a deque allocates a node every 64
  /// pushes); max_pending bounds the cost of erasing at the head.
  std::vector<std::unique_ptr<Pending>> queue_;
  /// Queued queries carrying a deadline — the per-iteration deadline sweep
  /// skips its O(queue) scan while this is zero (the common case). Every
  /// removal from queue_ goes through NoteDequeuedLocked to keep it exact.
  size_t deadline_queued_ = 0;
  bool paused_ = false;
  bool stopping_ = false;
  /// Error accumulator behind ServiceConfig::trace_sample_rate. Guarded by
  /// mutex_ (bumped in Enqueue, which already holds it).
  double trace_accum_ = 0.0;

  /// Collections awaiting background compaction (each at most once —
  /// Collection::compacting guards re-queueing). Guarded by mutex_; the
  /// compactor thread waits on compact_cv_.
  std::deque<std::shared_ptr<Collection>> compact_queue_;
  std::condition_variable compact_cv_;

  /// Held by SaveCollection and by the compactor's re-save from the
  /// incarnation check through the write to the persist_path update, so a
  /// stale snapshot cannot land after a newer save to the same path.
  /// Taken before mutex_, never while holding it.
  std::mutex persist_mutex_;

  std::atomic<uint64_t> next_id_{1};
  std::mutex shutdown_mutex_;  ///< Serializes concurrent Shutdown callers.
  std::vector<Dispatcher> dispatchers_;  ///< Sized once; never reallocated.
  std::thread compactor_;  ///< Background delta-into-base compactions.
};

}  // namespace pdx

#endif  // PDX_SERVE_SEARCH_SERVICE_H_
