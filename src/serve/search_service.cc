#include "serve/search_service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/persist.h"
#include "kernels/kernel_dispatch.h"

namespace pdx {

namespace {

using Clock = std::chrono::steady_clock;

constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

ServiceConfig Sanitize(ServiceConfig config) {
  config.max_pending = std::max<size_t>(1, config.max_pending);
  config.max_batch = std::max<size_t>(1, config.max_batch);
  config.dispatchers =
      std::min(std::max<size_t>(1, config.dispatchers), kMaxPoolThreads);
  if (config.qps_window.count() <= 0) {
    config.qps_window = ServiceConfig{}.qps_window;
  }
  config.slowlog_capacity = std::max<size_t>(1, config.slowlog_capacity);
  // NaN compares false both ways and falls through to 0 via the clamp.
  if (!(config.trace_sample_rate > 0.0)) {
    config.trace_sample_rate = 0.0;
  } else {
    config.trace_sample_rate = std::min(1.0, config.trace_sample_rate);
  }
  return config;
}

const char* kStageHelp =
    "Per-stage serving latency in ms (stage: queue=admission->dequeue, "
    "dispatch=dequeue->search, search=batched search wall, "
    "total=admission->delivery)";

}  // namespace

/// One hosted collection. The searcher is only ever touched by dispatcher
/// threads through the knob-explicit per-slot-band SearchBatchWith entry
/// point (each dispatcher owns a disjoint band, so concurrent batches are
/// race-free); its options() — default k/nprobe, layout, pruner, tier — are
/// fixed at build time and read from it directly. The serving counters
/// live only in the metric instruments below; the windows are guarded by
/// the service mutex.
struct SearchService::Collection {
  std::string name;
  std::unique_ptr<Searcher> searcher;
  /// Live vectors hosted; refreshed on every mutation. It also bounds
  /// per-query k at admission: more neighbors than vectors is never
  /// meaningful, and an absurd k must not reach the top-k heap's reserve().
  size_t count = 0;
  /// Ceiling for per-query nprobe overrides: the IVF bucket count, which a
  /// compaction may change (so cached here, refreshed with `count`).
  size_t max_nprobe = 1;
  /// The searcher downcast, set iff the service built it mutable (from
  /// vectors): the AddVectors/DeleteVectors surface and the compactor
  /// route through it. Never owning — `searcher` holds the same object.
  MutableSearcher* live = nullptr;
  /// True while queued for (or running) a background compaction, so the
  /// compact queue holds each collection at most once. Guarded by mutex_.
  bool compacting = false;
  /// "built", "mmap", or "loaded" (see CollectionInfo::source). Fixed
  /// before install.
  std::string source = "built";
  /// The file this incarnation was loaded from or SaveCollection last wrote
  /// it to; the compactor re-saves there after every fold so the on-disk
  /// snapshot tracks the live state. Empty = never persisted. Guarded by
  /// mutex_ once installed.
  std::string persist_path;

  // Windowed views with no registry equivalent (exact percentiles over the
  // last LatencyRecorder::kDefaultWindow samples; the recent-completion
  // ring). Each incarnation starts its own. Guarded by mutex_.
  LatencyRecorder queue_wait;
  LatencyRecorder latency;
  /// Ring of the most recent completion timestamps — the windowed QPS
  /// gauge. A lifetime first-done/last-done span would decay across idle
  /// gaps and never recover.
  std::vector<Clock::time_point> done_ring;
  size_t done_next = 0;

  void RecordDone(Clock::time_point now) {
    if (done_ring.size() < LatencyRecorder::kDefaultWindow) {
      done_ring.push_back(now);
    } else {
      done_ring[done_next] = now;
    }
    done_next = (done_next + 1) % LatencyRecorder::kDefaultWindow;
  }

  /// Metric instruments, resolved ONCE per incarnation (get-or-create on
  /// the service's registry, so a name replaced, or removed and re-added,
  /// keeps its cumulative series). The dispatch/completion paths then touch
  /// only these lock-free pointers — never the registry's mutex.
  struct Instruments {
    MetricCounter* admitted = nullptr;
    MetricCounter* completed = nullptr;
    MetricCounter* rejected = nullptr;
    MetricCounter* expired = nullptr;
    MetricCounter* cancelled = nullptr;
    MetricCounter* failed = nullptr;
    MetricCounter* dispatches = nullptr;
    MetricHistogram* queue_ms = nullptr;
    MetricHistogram* dispatch_ms = nullptr;
    MetricHistogram* search_ms = nullptr;
    MetricHistogram* total_ms = nullptr;
    MetricCounter* blocks_visited = nullptr;
    MetricCounter* vectors_pruned = nullptr;
    MetricCounter* values_scanned = nullptr;
    MetricCounter* values_avoided = nullptr;
    MetricCounter* dims_scanned = nullptr;
    MetricCounter* rerank_candidates = nullptr;
    MetricGauge* vectors = nullptr;
    MetricGauge* quantized_bytes = nullptr;
    MetricCounter* ingested = nullptr;
    MetricCounter* removed = nullptr;
    MetricCounter* compactions = nullptr;
    MetricHistogram* compaction_ms = nullptr;
    MetricGauge* delta_vectors = nullptr;
    MetricGauge* tombstones = nullptr;
    MetricHistogram* load_ms = nullptr;
    MetricGauge* mmap_bytes = nullptr;
  } metric;

  /// Worst-N queries this collection has served (GET .../slowlog).
  std::unique_ptr<SlowQueryLog> slowlog;
};

/// One admitted (or about-to-be-rejected) query. Owns a copy of the query
/// vector so the caller's buffer may die the moment Submit returns.
struct SearchService::Pending {
  uint64_t id = 0;
  std::shared_ptr<Collection> collection;  ///< Null when the name was unknown.
  std::string collection_name;
  std::vector<float> query;
  size_t k = 0;
  size_t nprobe = 0;
  Clock::time_point submitted{};
  Clock::time_point deadline = kNoDeadline;
  Clock::time_point dispatched{};
  /// True once the query entered queue_. Distinguishes "waited and was
  /// shed" (queue_ms = its whole life) from "turned away at admission"
  /// (queue_ms = 0 — it never waited anywhere).
  bool queued = false;
  /// True once SearchBatchWith returned for this query: the stage timings
  /// and counters below are meaningful.
  bool searched = false;
  bool trace = false;       ///< Build a QueryTrace at completion.
  std::string request_id;   ///< Stamped into the trace; empty untraced.
  double stage_ms = 0.0;    ///< dispatched -> the batched search began.
  double search_ms = 0.0;   ///< Wall of the SearchBatchWith that ran it.
  Clock::time_point search_end{};  ///< When that call returned.
  /// This query's own search work, copied from the dispatcher's
  /// pre-reserved scratch after the batch — a POD copy, no allocation.
  PdxearchProfile counters;
  std::promise<QueryResult> promise;
  QueryCallback callback;
};

SearchService::SearchService(ServiceConfig config)
    : config_(Sanitize(config)),
      owned_metrics_(config_.metrics != nullptr
                         ? nullptr
                         : std::make_unique<MetricsRegistry>()),
      metrics_(config_.metrics != nullptr ? config_.metrics
                                          : owned_metrics_.get()),
      pool_(config_.threads),
      started_(Clock::now()),
      dispatchers_(config_.dispatchers) {
  // Process gauges: fixed-for-lifetime shape (pool size, dispatcher
  // count, resolved SIMD tier as an info-style gauge) plus the live queue
  // depth the dispatch path re-stamps.
  queue_depth_gauge_ = metrics_->GetGauge(
      "pdx_queue_depth", "Queries waiting for dispatch right now");
  collections_gauge_ =
      metrics_->GetGauge("pdx_collections", "Collections currently hosted");
  metrics_
      ->GetGauge("pdx_pool_threads", "Size of the shared search thread pool")
      ->Set(static_cast<double>(pool_.num_threads()));
  metrics_
      ->GetGauge("pdx_dispatchers", "Replicated dispatcher threads")
      ->Set(static_cast<double>(dispatchers_.size()));
  metrics_
      ->GetGauge("pdx_isa_tier",
                 "Resolved SIMD tier (1 on the active tier's label)",
                 {{"isa", IsaName(DispatchedIsa())}})
      ->Set(1.0);
  for (size_t d = 0; d < dispatchers_.size(); ++d) {
    // Pre-reserved per dispatcher: the dispatch path hands this array to
    // SearchBatchWith instead of allocating per batch.
    dispatchers_[d].counters_scratch.resize(config_.max_batch);
    dispatchers_[d].busy_ring.reserve(LatencyRecorder::kDefaultWindow);
    dispatchers_[d].batches = metrics_->GetCounter(
        "pdx_dispatcher_batches_total", "Batches run, per dispatcher thread",
        {{"dispatcher", std::to_string(d)}});
    dispatchers_[d].thread = std::thread([this, d] { DispatcherMain(d); });
  }
  // ThreadPool only offers blocking ParallelFor, so compaction gets its own
  // thread: a rebuild may take seconds and must never occupy a dispatcher
  // or a pool worker the dispatchers are fanning searches over.
  compactor_ = std::thread([this] { CompactorMain(); });
}

SearchService::~SearchService() { Shutdown(); }

void SearchService::Shutdown() {
  // Serialized so two concurrent callers never race on join().
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  dispatch_cv_.notify_all();
  compact_cv_.notify_all();
  for (Dispatcher& dispatcher : dispatchers_) {
    if (dispatcher.thread.joinable()) dispatcher.thread.join();
  }
  // A compaction in flight finishes (its swap is brief); queued ones are
  // abandoned — compaction is an optimization, not pending user work.
  if (compactor_.joinable()) compactor_.join();
}

void SearchService::ResolveCollectionMetrics(Collection& collection) {
  const MetricLabels by_name = {{"collection", collection.name}};
  auto outcome = [&](const char* value) -> MetricCounter* {
    return metrics_->GetCounter(
        "pdx_queries_total", "Queries resolved, by collection and outcome",
        {{"collection", collection.name}, {"outcome", value}});
  };
  Collection::Instruments& m = collection.metric;
  m.admitted = metrics_->GetCounter(
      "pdx_queries_admitted_total",
      "Queries accepted into the admission queue, per collection", by_name);
  m.completed = outcome("completed");
  m.rejected = outcome("rejected");
  m.expired = outcome("expired");
  m.cancelled = outcome("cancelled");
  m.failed = outcome("failed");
  m.dispatches = metrics_->GetCounter(
      "pdx_dispatches_total", "Batched search calls, per collection",
      by_name);
  auto stage = [&](const char* value) -> MetricHistogram* {
    return metrics_->GetHistogram(
        "pdx_query_stage_ms", kStageHelp, DefaultLatencyBoundsMs(),
        {{"collection", collection.name}, {"stage", value}});
  };
  m.queue_ms = stage("queue");
  m.dispatch_ms = stage("dispatch");
  m.search_ms = stage("search");
  m.total_ms = stage("total");
  auto work = [&](const char* metric_name, const char* help) {
    return metrics_->GetCounter(metric_name, help, by_name);
  };
  m.blocks_visited = work("pdx_search_blocks_visited_total",
                          "PDX blocks visited by served queries");
  m.vectors_pruned = work("pdx_search_vectors_pruned_total",
                          "Vector lanes pruned before full distance");
  m.values_scanned = work("pdx_search_values_scanned_total",
                          "Dimension values fed to distance kernels");
  m.values_avoided = work("pdx_search_values_avoided_total",
                          "Dimension values skipped by pruning");
  m.dims_scanned = work("pdx_search_dims_scanned_total",
                        "Dimension steps walked across visited blocks");
  m.rerank_candidates =
      work("pdx_search_rerank_candidates_total",
           "Candidates the u8 quantized tier exact-reranked");
  m.vectors = metrics_->GetGauge("pdx_collection_vectors",
                                 "Vectors hosted, per collection", by_name);
  m.quantized_bytes = metrics_->GetGauge(
      "pdx_quantized_bytes",
      "Resident u8 code bytes of the quantized serving tier, per collection",
      by_name);
  // Streaming-ingest instruments. Resolved for every collection (an
  // immutable one just leaves them at zero) so a PUT replace that flips a
  // name between mutable and immutable keeps one cumulative series.
  m.ingested = metrics_->GetCounter(
      "pdx_ingested_vectors_total",
      "Vectors appended via AddVectors, per collection", by_name);
  m.removed = metrics_->GetCounter(
      "pdx_deleted_vectors_total",
      "Vectors tombstoned via DeleteVectors, per collection", by_name);
  m.compactions = metrics_->GetCounter(
      "pdx_compactions_total",
      "Background delta-into-base compactions completed", by_name);
  m.compaction_ms = metrics_->GetHistogram(
      "pdx_compaction_ms", "Wall time of one delta-into-base compaction",
      DefaultLatencyBoundsMs(), by_name);
  m.delta_vectors = metrics_->GetGauge(
      "pdx_delta_vectors", "Rows in the append delta region, per collection",
      by_name);
  m.tombstones = metrics_->GetGauge(
      "pdx_tombstones", "Tombstoned slots awaiting compaction, per collection",
      by_name);
  m.load_ms = metrics_->GetHistogram(
      "pdx_collection_load_ms",
      "Wall time of one LoadCollection (validate + map + reconstruct)",
      DefaultLatencyBoundsMs(), by_name);
  m.mmap_bytes = metrics_->GetGauge(
      "pdx_mmap_bytes",
      "Collection-file bytes served from a live memory mapping", by_name);
}

std::shared_ptr<SearchService::Collection> SearchService::NewCollection(
    const std::string& name, std::unique_ptr<Searcher> searcher,
    MutableSearcher* live) {
  // Reserve every dispatcher's slot band up front: per-slot scratch growth
  // reallocates (not thread-safe), so the dispatch path must never grow
  // it. Dispatcher d then runs its batches on the disjoint band
  // [d * pool_threads, (d+1) * pool_threads).
  searcher->ReserveScratch(config_.dispatchers * pool_.num_threads());
  auto collection = std::make_shared<Collection>();
  collection->name = name;
  // The shape sees through sharding: the logical collection size, and the
  // largest shard's bucket count (nprobe applies per shard).
  const SearcherShape shape = searcher->shape();
  collection->count = shape.count;
  collection->max_nprobe = std::max<size_t>(1, shape.max_nprobe);
  collection->live = live;
  collection->done_ring.reserve(LatencyRecorder::kDefaultWindow);
  collection->slowlog =
      std::make_unique<SlowQueryLog>(config_.slowlog_capacity);
  ResolveCollectionMetrics(*collection);
  collection->searcher = std::move(searcher);
  return collection;
}

Status SearchService::Install(const std::shared_ptr<Collection>& collection) {
  // Declared before the lock, so the replaced incarnation — possibly a
  // large searcher over a mapped file — is released after it, unless
  // queued queries or an in-flight batch still hold it and finish on it.
  std::shared_ptr<Collection> replaced;
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_) return Status::Cancelled("service shut down");
  replaced = std::exchange(collections_[collection->name], collection);
  collections_gauge_->Set(static_cast<double>(collections_.size()));
  RefreshGaugesLocked(*collection);
  return Status::OK();
}

Result<std::shared_ptr<SearchService::Collection>> SearchService::FindLocked(
    const std::string& name, bool want_live) const {
  auto it = collections_.find(name);
  if (it == collections_.end()) {
    return Status::NotFound("no collection named " + name);
  }
  if (want_live && it->second->live == nullptr) {
    return Status::Unsupported(
        "collection " + name +
        " is immutable (adopted or index-backed); PUT a rebuilt "
        "collection instead");
  }
  return it->second;
}

bool SearchService::IsHostedLocked(const Collection& host) const {
  auto it = collections_.find(host.name);
  return it != collections_.end() && it->second.get() == &host;
}

Status SearchService::AddCollection(const std::string& name,
                                    const VectorSet& vectors,
                                    SearcherConfig config,
                                    ShardingOptions sharding) {
  // The u8 tier has no streaming-ingest path: build it through the plain
  // (sharded) facade, which routes to the quantized searcher, and host it
  // with live = nullptr, so AddVectors/DeleteVectors/Upsert answer
  // kUnsupported instead of corrupting the code blocks.
  if (config.quantization != QuantizationKind::kNone) {
    auto made = MakeShardedSearcher(vectors, std::move(config), sharding);
    if (!made.ok()) return made.status();
    return Install(NewCollection(name, std::move(made).value()));
  }
  auto made = MutableSearcher::Make(vectors, std::move(config),
                                    config_.mutation, sharding);
  if (!made.ok()) return made.status();
  std::unique_ptr<MutableSearcher> typed = std::move(made).value();
  MutableSearcher* live = typed.get();
  return Install(NewCollection(name, std::move(typed), live));
}

Status SearchService::AddCollection(const std::string& name,
                                    const VectorSet& vectors,
                                    const IvfIndex& index,
                                    SearcherConfig config) {
  auto made = MakeSearcher(vectors, index, std::move(config));
  if (!made.ok()) return made.status();
  return Install(NewCollection(name, std::move(made).value()));
}

Status SearchService::AddCollection(const std::string& name,
                                    std::unique_ptr<Searcher>& searcher) {
  if (searcher == nullptr) {
    return Status::InvalidArgument("AddCollection: null searcher");
  }
  const std::shared_ptr<Collection> collection =
      NewCollection(name, std::move(searcher));
  const Status installed = Install(collection);
  // A refused install hands the (possibly expensive) searcher back: the
  // caller keeps it untouched and can retry.
  if (!installed.ok()) searcher = std::move(collection->searcher);
  return installed;
}

Status SearchService::SaveCollection(const std::string& name,
                                     const std::string& path) {
  std::lock_guard<std::mutex> persist(persist_mutex_);
  std::shared_ptr<Collection> host;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return Status::Cancelled("service shut down");
    Result<std::shared_ptr<Collection>> found = FindLocked(name);
    if (!found.ok()) return found.status();
    host = std::move(found).value();
  }
  // The write runs outside the service mutex: a mutable collection
  // snapshots under its own reader lock (searches flow; mutations wait),
  // an immutable one needs no lock at all — either way dispatchers are
  // never stalled behind the disk.
  PDX_RETURN_IF_ERROR(host->searcher->Save(path));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Re-saved by the compactor after each fold — but only while this
    // exact incarnation is still hosted (a replace-under-same-name must
    // not inherit the path).
    if (IsHostedLocked(*host)) host->persist_path = path;
  }
  return Status::OK();
}

Status SearchService::LoadCollection(const std::string& name,
                                     const std::string& path,
                                     bool allow_mmap) {
  // The expensive part — reading, checksumming, and reconstructing —
  // runs with no service lock held; hosted collections keep serving.
  const Clock::time_point begin = Clock::now();
  LoadOptions options;
  options.allow_mmap = allow_mmap;
  auto loaded = ::pdx::LoadCollection(path, options);
  if (!loaded.ok()) return loaded.status();
  LoadedCollection restored = std::move(loaded).value();
  const double wall_ms = MillisBetween(begin, Clock::now());
  const std::shared_ptr<Collection> collection =
      NewCollection(name, std::move(restored.searcher), restored.live);
  collection->source = restored.source;
  collection->persist_path = path;
  collection->metric.load_ms->Observe(wall_ms);
  return Install(collection);
}

void SearchService::RefreshGaugesLocked(Collection& host) {
  // shape() and mutation_stats() take a live searcher's shared lock under
  // mutex_ — the service-then-searcher lock order every path here follows.
  const SearcherShape shape = host.searcher->shape();
  host.count = shape.count;
  host.max_nprobe = std::max<size_t>(1, shape.max_nprobe);
  MutationStats stats;
  if (host.live != nullptr) stats = host.live->mutation_stats();
  if (!IsHostedLocked(host)) return;
  Collection::Instruments& m = host.metric;
  m.vectors->Set(static_cast<double>(shape.count));
  m.delta_vectors->Set(static_cast<double>(stats.delta_rows));
  m.tombstones->Set(static_cast<double>(stats.tombstones));
  m.mmap_bytes->Set(static_cast<double>(shape.mapped_bytes));
  m.quantized_bytes->Set(static_cast<double>(shape.quantized_bytes));
}

void SearchService::MaybeScheduleCompactionLocked(
    const std::shared_ptr<Collection>& host) {
  if (stopping_ || host->live == nullptr || host->compacting) return;
  // NeedsCompaction takes the searcher's shared lock under mutex_ — the
  // service-then-searcher lock order every path here follows (the inverse
  // never happens: MutableSearcher knows nothing about the service).
  if (!host->live->NeedsCompaction()) return;
  host->compacting = true;
  compact_queue_.push_back(host);
  compact_cv_.notify_one();
}

Result<std::vector<uint64_t>> SearchService::AddVectors(
    const std::string& name, const float* rows, size_t count, size_t dim,
    const uint64_t* ids) {
  std::shared_ptr<Collection> host;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return Status::Cancelled("service shut down");
    Result<std::shared_ptr<Collection>> found =
        FindLocked(name, /*want_live=*/true);
    if (!found.ok()) return found.status();
    host = std::move(found).value();
  }
  if (dim != host->searcher->dim()) {
    return Status::InvalidArgument(
        "rows have " + std::to_string(dim) + " dimensions, expected " +
        std::to_string(host->searcher->dim()));
  }
  // The append itself runs OUTSIDE mutex_: MutableSearcher serializes
  // against in-flight SearchBatchWith with its own reader-writer lock, and
  // holding the service mutex across it would stall admission and Stats.
  // (The shared_ptr keeps the collection alive across a concurrent remove
  // or replace; mutating an unhosted incarnation is harmless.)
  auto added = host->live->Add(rows, count, ids);
  if (!added.ok()) return added;
  std::lock_guard<std::mutex> lock(mutex_);
  host->metric.ingested->Inc(count);
  RefreshGaugesLocked(*host);
  MaybeScheduleCompactionLocked(host);
  return added;
}

Result<size_t> SearchService::DeleteVectors(const std::string& name,
                                            const uint64_t* ids, size_t count,
                                            std::vector<uint64_t>* missing) {
  std::shared_ptr<Collection> host;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return Status::Cancelled("service shut down");
    Result<std::shared_ptr<Collection>> found =
        FindLocked(name, /*want_live=*/true);
    if (!found.ok()) return found.status();
    host = std::move(found).value();
  }
  const size_t deleted = host->live->DeleteBatch(ids, count, missing);
  std::lock_guard<std::mutex> lock(mutex_);
  host->metric.removed->Inc(deleted);
  RefreshGaugesLocked(*host);
  MaybeScheduleCompactionLocked(host);
  return deleted;
}

Result<std::vector<uint64_t>> SearchService::Upsert(const std::string& name,
                                                    const float* rows,
                                                    size_t count, size_t dim,
                                                    const uint64_t* ids) {
  if (ids == nullptr) {
    return Status::InvalidArgument(
        "Upsert: ids are required (use AddVectors for auto-assigned ids)");
  }
  return AddVectors(name, rows, count, dim, ids);
}

void SearchService::CompactorMain() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    while (!stopping_ && compact_queue_.empty()) compact_cv_.wait(lock);
    if (stopping_) break;
    std::shared_ptr<Collection> host = compact_queue_.front();
    compact_queue_.pop_front();
    // The collection may have been removed or replaced while queued; its
    // delta dies with it, so there is nothing to fold.
    if (!IsHostedLocked(*host)) {
      host->compacting = false;
      continue;
    }
    lock.unlock();
    const Clock::time_point begin = Clock::now();
    // Compact() holds no lock during the rebuild and releases all of its
    // own locks before returning — dispatchers and mutators keep flowing;
    // only the brief swap at its end excludes them.
    const Status done = host->live->Compact();
    const double wall_ms = MillisBetween(begin, Clock::now());
    if (done.ok()) host->metric.compaction_ms->Observe(wall_ms);
    // Taken before mutex_, as SaveCollection does, and held from the
    // incarnation check below through the re-save.
    std::unique_lock<std::mutex> persist(persist_mutex_);
    lock.lock();
    host->compacting = false;
    // A failed compaction (allocation pressure, searcher build error) is
    // NOT rescheduled from here: NeedsCompaction still holds, so the next
    // mutation retries — without it, an always-failing build would spin.
    if (!done.ok()) continue;
    host->metric.compactions->Inc();
    // An IVF base rebuilt over more vectors may cluster into more buckets,
    // and a base restored from a file no longer maps it: the admission
    // clamp and the gauges follow the new base.
    RefreshGaugesLocked(*host);
    // The rest acts on the name: a removed or replaced incarnation must
    // neither queue another fold nor overwrite its successor's snapshot.
    if (!IsHostedLocked(*host)) continue;
    // Appends that landed during the rebuild may already exceed the
    // threshold again.
    MaybeScheduleCompactionLocked(host);
    // A persisted collection keeps its on-disk snapshot current: the fold
    // just rewrote the base, so the saved file would otherwise replay an
    // ever-longer delta on every restart.
    const std::string persist_to = host->persist_path;
    if (persist_to.empty()) continue;
    lock.unlock();
    // Best effort: a full disk or yanked directory must not kill the
    // compactor; the snapshot simply goes stale until the next save.
    (void)host->live->Save(persist_to);
    lock.lock();
  }
}

Status SearchService::RemoveCollection(const std::string& name) {
  std::vector<std::unique_ptr<Pending>> orphans;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Result<std::shared_ptr<Collection>> found = FindLocked(name);
    if (!found.ok()) return found.status();
    const std::shared_ptr<Collection> removed = std::move(found).value();
    collections_.erase(name);
    for (auto q = queue_.begin(); q != queue_.end();) {
      if ((*q)->collection == removed) {
        NoteDequeuedLocked(**q);
        orphans.push_back(std::move(*q));
        q = queue_.erase(q);
      } else {
        ++q;
      }
    }
    SetQueueDepthLocked();
    collections_gauge_->Set(static_cast<double>(collections_.size()));
    // The counters keep their cumulative series (Prometheus semantics); a
    // size gauge for an unhosted collection honestly reads 0.
    removed->metric.vectors->Set(0.0);
    removed->metric.delta_vectors->Set(0.0);
    removed->metric.tombstones->Set(0.0);
  }
  // An in-flight batch keeps the collection alive through its own
  // shared_ptr; only the queued queries are failed here.
  for (auto& pending : orphans) {
    Complete(std::move(pending), Status::Cancelled("collection removed: " + name), {});
  }
  return Status::OK();
}

std::vector<std::string> SearchService::CollectionNames() const {
  std::vector<std::string> names;
  std::lock_guard<std::mutex> lock(mutex_);
  names.reserve(collections_.size());
  for (const auto& [name, collection] : collections_) names.push_back(name);
  return names;
}

Result<CollectionInfo> SearchService::GetCollectionInfo(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  Result<std::shared_ptr<Collection>> found = FindLocked(name);
  if (!found.ok()) return found.status();
  const Collection& host = *found.value();
  const SearcherConfig& options = host.searcher->options();
  // shape() is safe against concurrent dispatch (see Searcher::shape).
  const SearcherShape shape = host.searcher->shape();
  CollectionInfo info;
  info.name = name;
  info.dim = host.searcher->dim();
  info.count = host.count;
  info.default_k = std::max<size_t>(1, options.k);
  info.default_nprobe = std::max<size_t>(1, options.nprobe);
  info.max_nprobe = host.max_nprobe;
  info.shards = shape.num_shards;
  info.layout = options.layout;
  info.pruner = options.pruner;
  info.quantization = options.quantization;
  info.rerank_factor = options.rerank_factor;
  info.quantized_bytes = shape.quantized_bytes;
  info.source = host.source;
  return info;
}

QueryTicket SearchService::Submit(const std::string& collection,
                                  const float* query, QueryOptions options) {
  QueryTicket ticket;
  ticket.id =
      SubmitInternal(collection, query, options, nullptr, &ticket.result);
  return ticket;
}

uint64_t SearchService::Submit(const std::string& collection,
                               const float* query, QueryOptions options,
                               QueryCallback callback) {
  return SubmitInternal(collection, query, options, std::move(callback),
                        nullptr);
}

uint64_t SearchService::SubmitInternal(const std::string& collection,
                                       const float* query,
                                       const QueryOptions& options,
                                       QueryCallback callback,
                                       std::future<QueryResult>* future_out) {
  auto pending = std::make_unique<Pending>();
  pending->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  pending->collection_name = collection;
  pending->callback = std::move(callback);
  pending->submitted = Clock::now();
  if (future_out != nullptr) *future_out = pending->promise.get_future();
  const uint64_t id = pending->id;

  Status admitted = Enqueue(collection, query, options, pending);
  if (!admitted.ok()) {
    // Rejection resolves through the same future/callback as success, so
    // backpressure (kResourceExhausted) is explicit, immediate, and never
    // silently dropped.
    Complete(std::move(pending), std::move(admitted), {});
  }
  return id;
}

Status SearchService::Enqueue(const std::string& collection,
                              const float* query, const QueryOptions& options,
                              std::unique_ptr<Pending>& pending) {
  if (query == nullptr) {
    return Status::InvalidArgument("Submit: null query");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_) return Status::Cancelled("service shut down");
  Result<std::shared_ptr<Collection>> found = FindLocked(collection);
  if (!found.ok()) return found.status();
  // Attributed before the admission check so a rejection is counted
  // against the collection it targeted. The query stays bound to this
  // incarnation: a replace after admission does not move or cancel it.
  pending->collection = std::move(found).value();
  // The length check lives HERE, under mutex_, because dim is only stable
  // under mutex_: a wire handler validates the payload against a
  // CollectionInfo snapshot, and a concurrent PUT can swap the name to a
  // different-dim collection between that snapshot and this Submit. The
  // copy below reads dim() floats, so a stated length that no longer
  // matches must be a kInvalidArgument, never an out-of-bounds read.
  Collection& host = *pending->collection;
  const size_t d = host.searcher->dim();
  if (options.query_len != 0 && options.query_len != d) {
    return Status::InvalidArgument(
        "query has " + std::to_string(options.query_len) +
        " dimensions, expected " + std::to_string(d));
  }
  if (queue_.size() >= config_.max_pending) {
    return Status::ResourceExhausted(
        "admission queue full (" + std::to_string(config_.max_pending) +
        " pending); retry later");
  }
  pending->query.assign(query, query + d);
  // Untrusted per-query overrides are clamped to the collection's
  // ceilings: k to the live count, nprobe (below) to the bucket count.
  const SearcherConfig& defaults = host.searcher->options();
  pending->k = std::clamp<size_t>(options.k > 0 ? options.k : defaults.k, 1,
                                  std::max<size_t>(1, host.count));
  pending->nprobe = std::max<size_t>(
      1, options.nprobe > 0 ? options.nprobe : defaults.nprobe);
  // The bucket-count clamp only makes sense where nprobe is applied; on
  // kFlat the knob never reaches the searcher.
  if (defaults.layout == SearcherLayout::kIvf) {
    pending->nprobe = std::min(pending->nprobe, host.max_nprobe);
  }
  if (options.timeout.count() > 0) {
    pending->deadline = pending->submitted + options.timeout;
    ++deadline_queued_;
  }
  // Tracing rides on the Pending; with trace off this copies a bool and
  // an (empty) string — nothing is allocated for observability.
  pending->trace = options.trace;
  if (options.trace) pending->request_id = options.request_id;
  // Sampled tracing: a deterministic error accumulator (no RNG, no state
  // per query) promotes every 1/rate-th admitted query. Unselected queries
  // pay one double add — still zero allocations.
  if (!pending->trace && config_.trace_sample_rate > 0.0) {
    trace_accum_ += config_.trace_sample_rate;
    if (trace_accum_ >= 1.0) {
      trace_accum_ -= 1.0;
      pending->trace = true;
      pending->request_id = options.request_id;
    }
  }
  host.metric.admitted->Inc();
  pending->queued = true;
  queue_.push_back(std::move(pending));
  SetQueueDepthLocked();
  dispatch_cv_.notify_one();
  return Status::OK();
}

bool SearchService::Cancel(uint64_t id) {
  std::unique_ptr<Pending> found;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if ((*it)->id == id) {
        NoteDequeuedLocked(**it);
        found = std::move(*it);
        queue_.erase(it);
        SetQueueDepthLocked();
        break;
      }
    }
  }
  if (found == nullptr) return false;  // Unknown, dispatched, or done.
  Complete(std::move(found), Status::Cancelled("cancelled by caller"), {});
  return true;
}

void SearchService::Pause() {
  std::lock_guard<std::mutex> lock(mutex_);
  paused_ = true;
}

void SearchService::Resume() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  dispatch_cv_.notify_all();
}

size_t SearchService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void SearchService::SetQueueDepthLocked() {
  queue_depth_gauge_->Set(static_cast<double>(queue_.size()));
}

Result<std::vector<SlowQueryEntry>> SearchService::SlowLog(
    const std::string& name) const {
  std::shared_ptr<Collection> host;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Result<std::shared_ptr<Collection>> found = FindLocked(name);
    if (!found.ok()) return found.status();
    host = std::move(found).value();
  }
  // Snapshot outside the service mutex: the log has its own (briefly held)
  // lock, and the shared_ptr keeps the collection alive across a
  // concurrent RemoveCollection.
  return host->slowlog->Snapshot();
}

ServiceStats SearchService::Stats() const {
  ServiceStats stats;
  stats.pool_threads = pool_.num_threads();
  stats.isa = IsaName(DispatchedIsa());
  const Clock::time_point now = Clock::now();
  const Clock::time_point cutoff = now - config_.qps_window;
  std::lock_guard<std::mutex> lock(mutex_);
  stats.queue_depth = queue_.size();
  // Per-dispatcher accounting: how evenly the replicated dispatchers split
  // the load, and how saturated each is. Busy covers completed
  // DispatchBatch calls only (an in-flight batch lands on the next
  // snapshot), so the fraction trails reality by at most one batch — and
  // it is WINDOWED over qps_window, like the QPS gauge: summing lifetime
  // busy over lifetime uptime would let one early idle stretch dilute the
  // gauge forever (the same bug class the windowed QPS fix closed).
  const double window_ms = std::min(
      MillisBetween(started_, now),
      std::chrono::duration<double, std::milli>(config_.qps_window).count());
  stats.dispatchers.reserve(dispatchers_.size());
  for (const Dispatcher& dispatcher : dispatchers_) {
    DispatcherStats ds;
    ds.dispatches = dispatcher.batches->value();
    Clock::duration busy{};
    for (const Dispatcher::BusySample& sample : dispatcher.busy_ring) {
      // A batch is scored into the window its END falls in; a long batch
      // straddling the cutoff counts whole (clamped below), which biases
      // toward "busy" exactly when batches outlast the window — the
      // honest direction for a saturation gauge.
      if (sample.end >= cutoff) busy += sample.busy;
    }
    const double busy_ms =
        std::chrono::duration<double, std::milli>(busy).count();
    ds.busy_fraction =
        window_ms > 0.0 ? std::min(1.0, busy_ms / window_ms) : 0.0;
    stats.dispatchers.push_back(ds);
  }
  for (const auto& [name, collection] : collections_) {
    // The counters are the registry's instruments. Each one moves inside a
    // mutex_ section alongside whatever it must agree with (outcomes with
    // the latency windows, collection with dispatcher dispatches), so this
    // snapshot, taken under mutex_, is self-consistent.
    const Collection::Instruments& m = collection->metric;
    const SearcherConfig& options = collection->searcher->options();
    CollectionStats cs;
    cs.count = collection->count;
    cs.admitted = m.admitted->value();
    cs.completed = m.completed->value();
    cs.rejected = m.rejected->value();
    cs.expired = m.expired->value();
    cs.cancelled = m.cancelled->value();
    cs.failed = m.failed->value();
    cs.dispatches = m.dispatches->value();
    // shape() is safe against the dispatchers' concurrent use of the
    // searcher, which mutex_ does not serialize (see Searcher::shape).
    const SearcherShape shape = collection->searcher->shape();
    cs.shards = shape.num_shards;
    cs.source = collection->source;
    cs.mapped_bytes = shape.mapped_bytes;
    cs.quantization = QuantizationKindName(options.quantization);
    cs.rerank_factor = options.rerank_factor;
    cs.quantized_bytes = shape.quantized_bytes;
    cs.rerank_candidates = m.rerank_candidates->value();
    cs.queue_wait = collection->queue_wait.Summary();
    cs.latency = collection->latency.Summary();
    if (collection->live != nullptr) {
      // mutation_stats() takes the searcher's shared lock under mutex_ —
      // the service-first lock order, same as the mutation paths.
      const MutationStats ms = collection->live->mutation_stats();
      cs.is_mutable = true;
      cs.delta = ms.delta_rows;
      cs.delta_blocks = ms.delta_blocks;
      cs.base_blocks = shape.num_blocks;
      cs.tombstones = ms.tombstones;
    }
    cs.added = m.ingested->value();
    cs.deleted = m.removed->value();
    cs.compactions = m.compactions->value();
    // QPS over the completions inside the recent window only: a lifetime
    // first-to-last span would report near-zero forever after one long
    // idle gap. n samples bound n-1 intervals; a single in-window sample
    // is scored against the whole window.
    size_t in_window = 0;
    Clock::time_point oldest = Clock::time_point::max();
    Clock::time_point newest = Clock::time_point::min();
    for (const Clock::time_point done : collection->done_ring) {
      if (done < cutoff) continue;
      ++in_window;
      oldest = std::min(oldest, done);
      newest = std::max(newest, done);
    }
    // oldest/newest are sentinels until the first in-window sample; only
    // subtract them once at least two real timestamps are in hand.
    const double span_s =
        in_window >= 2 ? MillisBetween(oldest, newest) / 1e3 : 0.0;
    if (in_window >= 2 && span_s > 0.0) {
      cs.qps = static_cast<double>(in_window - 1) / span_s;
    } else if (in_window >= 1) {
      const double window_s =
          std::chrono::duration<double>(config_.qps_window).count();
      cs.qps = static_cast<double>(in_window) / window_s;
    }
    stats.collections.emplace(name, cs);
  }
  return stats;
}

void SearchService::DispatcherMain(size_t dispatcher) {
  Dispatcher& self = dispatchers_[dispatcher];
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    // Deadline shedding first, independent of paused_: a query whose
    // deadline passed while it waited — behind other batch keys, or
    // behind a Pause() — must resolve now, not when a dispatch happens to
    // pop it (or never, while paused).
    std::vector<std::unique_ptr<Pending>> expired;
    const Clock::time_point earliest = SweepDeadlinesLocked(&expired);
    if (!expired.empty()) {
      SetQueueDepthLocked();
      lock.unlock();
      for (auto& pending : expired) {
        Complete(std::move(pending),
                 Status::DeadlineExceeded("deadline passed in queue"), {});
      }
      lock.lock();
      continue;  // Re-evaluate: the queue changed.
    }
    if (stopping_) break;
    if (!paused_ && !queue_.empty()) {
      std::vector<std::unique_ptr<Pending>> batch = CollectBatchLocked();
      SetQueueDepthLocked();
      lock.unlock();
      const Clock::time_point begin = Clock::now();
      DispatchBatch(dispatcher, std::move(batch));
      const Clock::time_point end = Clock::now();
      lock.lock();
      // Ring of (end, duration) samples: Stats() sums the ones ending
      // inside qps_window for the windowed busy_fraction.
      Dispatcher::BusySample sample{end, end - begin};
      if (self.busy_ring.size() < LatencyRecorder::kDefaultWindow) {
        self.busy_ring.push_back(sample);
      } else {
        self.busy_ring[self.busy_next] = sample;
      }
      self.busy_next = (self.busy_next + 1) % LatencyRecorder::kDefaultWindow;
      continue;
    }
    // Nothing dispatchable: sleep until new work arrives — or, when a
    // queued query carries a deadline, only until that deadline, so the
    // shed above runs on time even if no Submit/Resume ever wakes us.
    if (earliest == kNoDeadline) {
      dispatch_cv_.wait(lock);
    } else {
      dispatch_cv_.wait_until(lock, earliest);
    }
  }
  // Shutdown drain: nothing queued may be left unresolved. Every
  // dispatcher passes through here; whichever arrives first takes the
  // remainder.
  std::vector<std::unique_ptr<Pending>> drained;
  drained.swap(queue_);
  deadline_queued_ = 0;
  SetQueueDepthLocked();
  lock.unlock();
  for (auto& pending : drained) {
    Complete(std::move(pending), Status::Cancelled("service shut down"), {});
  }
}

Clock::time_point SearchService::SweepDeadlinesLocked(
    std::vector<std::unique_ptr<Pending>>* expired) {
  // Common case first: no queued query carries a deadline, so there is
  // nothing to shed and nothing to timed-wait on — skip the queue scan
  // entirely (it runs on every dispatcher loop iteration).
  if (deadline_queued_ == 0) return kNoDeadline;
  const Clock::time_point now = Clock::now();
  Clock::time_point earliest = kNoDeadline;
  for (auto it = queue_.begin(); it != queue_.end();) {
    const Clock::time_point deadline = (*it)->deadline;
    if (deadline == kNoDeadline) {
      ++it;
    } else if (now >= deadline) {
      NoteDequeuedLocked(**it);
      expired->push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      earliest = std::min(earliest, deadline);
      ++it;
    }
  }
  return earliest;
}

void SearchService::NoteDequeuedLocked(const Pending& pending) {
  if (pending.deadline != kNoDeadline) --deadline_queued_;
}

std::vector<std::unique_ptr<SearchService::Pending>>
SearchService::CollectBatchLocked() {
  std::vector<std::unique_ptr<Pending>> batch;
  NoteDequeuedLocked(*queue_.front());
  batch.push_back(std::move(queue_.front()));
  queue_.erase(queue_.begin());
  // Opportunistic micro-batching: pull every queued query that can share
  // one SearchBatch call with the head (same collection and same effective
  // k/nprobe — the knobs are per-call on the searcher). The head of the
  // queue always dispatches first, so no query starves, but coalesced
  // queries from deeper in the queue do jump ahead of work under other
  // batch keys — other collections, or the same collection with different
  // k/nprobe.
  const Pending& head = *batch.front();
  // nprobe only keys IVF collections: a flat search ignores it, so two
  // flat queries with different nprobe overrides still share one batch.
  const bool key_nprobe =
      head.collection != nullptr &&
      head.collection->searcher->options().layout == SearcherLayout::kIvf;
  for (auto it = queue_.begin();
       it != queue_.end() && batch.size() < config_.max_batch;) {
    const Pending& candidate = **it;
    if (candidate.collection == head.collection && candidate.k == head.k &&
        (!key_nprobe || candidate.nprobe == head.nprobe)) {
      NoteDequeuedLocked(candidate);
      batch.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  return batch;
}

void SearchService::DispatchBatch(
    size_t dispatcher, std::vector<std::unique_ptr<Pending>> batch) {
  // Deadline shedding: a query whose deadline already passed gets failed
  // here, before any distance computation is spent on it.
  const Clock::time_point now = Clock::now();
  std::vector<std::unique_ptr<Pending>> live;
  live.reserve(batch.size());
  for (auto& pending : batch) {
    if (pending->deadline != kNoDeadline && now >= pending->deadline) {
      Complete(std::move(pending),
               Status::DeadlineExceeded("deadline passed before dispatch"), {});
    } else {
      live.push_back(std::move(pending));
    }
  }
  if (live.empty()) return;

  Dispatcher& self = dispatchers_[dispatcher];
  const std::shared_ptr<Collection> host = live.front()->collection;
  // Exception barrier: anything escaping here would fly out of the
  // dispatcher's thread entry and terminate the process, leaving every
  // outstanding future unresolved. A failed batch instead fails its own
  // queries with kInternal and the dispatcher lives on.
  try {
    Searcher& searcher = *host->searcher;
    // k/nprobe ride on the call, never on the shared searcher config.
    // Dispatcher d always uses its own slot band, so concurrent batches
    // (even for the same batch key) run on disjoint engines.
    const QueryKnobs knobs{live.front()->k, live.front()->nprobe};
    const size_t slot = dispatcher * pool_.num_threads();

    const size_t d = searcher.dim();
    self.scratch.resize(live.size() * d);
    const Clock::time_point dispatch_start = Clock::now();
    for (size_t i = 0; i < live.size(); ++i) {
      std::copy(live[i]->query.begin(), live[i]->query.end(),
                self.scratch.begin() + i * d);
      live[i]->dispatched = dispatch_start;
    }
    {
      // One critical section for both, so a Stats() snapshot always sees
      // the per-dispatcher counts sum to the per-collection ones.
      std::lock_guard<std::mutex> lock(mutex_);
      host->metric.dispatches->Inc();
      self.batches->Inc();
    }
    // Every collection's batches run on the one shared pool, passed on
    // each call. Per-query work records land in the dispatcher's
    // pre-reserved scratch, so observability adds no allocation here.
    const Clock::time_point search_begin = Clock::now();
    std::vector<std::vector<Neighbor>> results =
        searcher.SearchBatchWith(slot, knobs, self.scratch.data(),
                                 live.size(), &pool_,
                                 self.counters_scratch.data());
    const Clock::time_point search_end = Clock::now();
    const double stage_ms = MillisBetween(dispatch_start, search_begin);
    const double search_ms = MillisBetween(search_begin, search_end);
    PdxearchProfile batch_work;
    for (size_t i = 0; i < live.size(); ++i) {
      live[i]->searched = true;
      live[i]->stage_ms = stage_ms;
      live[i]->search_ms = search_ms;
      live[i]->search_end = search_end;
      live[i]->counters = self.counters_scratch[i];
      batch_work += self.counters_scratch[i];
    }
    host->metric.blocks_visited->Inc(batch_work.blocks_visited);
    host->metric.vectors_pruned->Inc(batch_work.vectors_pruned);
    host->metric.values_scanned->Inc(batch_work.values_scanned);
    host->metric.values_avoided->Inc(batch_work.values_avoided());
    host->metric.dims_scanned->Inc(batch_work.dims_scanned);
    host->metric.rerank_candidates->Inc(batch_work.rerank_candidates);
    for (size_t i = 0; i < live.size(); ++i) {
      Complete(std::move(live[i]), Status::OK(), std::move(results[i]));
    }
  } catch (const std::exception& e) {
    FailBatch(live, std::string("search failed: ") + e.what());
  } catch (...) {
    FailBatch(live, "search failed: unknown exception");
  }
}

void SearchService::FailBatch(std::vector<std::unique_ptr<Pending>>& live,
                              const std::string& reason) {
  for (auto& pending : live) {
    if (pending == nullptr) continue;  // Already completed before the throw.
    Complete(std::move(pending), Status::Internal(reason), {});
  }
}

void SearchService::Complete(std::unique_ptr<Pending> pending, Status status,
                             std::vector<Neighbor> neighbors) {
  const Clock::time_point now = Clock::now();
  QueryResult result;
  result.status = std::move(status);
  result.neighbors = std::move(neighbors);
  result.id = pending->id;
  result.collection = pending->collection_name;
  result.total_ms = MillisBetween(pending->submitted, now);
  // queue_ms semantics (documented on QueryResult): a query that reached
  // dispatch — even one whose batch then failed with kInternal — reports
  // submitted -> dispatched; anything after dispatch was search time, not
  // queueing. A query shed/cancelled while QUEUED spent its whole life in
  // the queue, so submitted -> now IS its queue wait — reporting 0 would
  // survivorship-bias the queue-wait percentiles exactly when the queue
  // is in trouble. A submission that never entered the queue (kNotFound,
  // kInvalidArgument, admission-rejected kResourceExhausted) reports 0:
  // it waited nowhere, and counting its bookkeeping time as "queue" would
  // smear the gauge the other way.
  if (pending->dispatched != Clock::time_point{}) {
    result.queue_ms = MillisBetween(pending->submitted, pending->dispatched);
  } else if (pending->queued) {
    result.queue_ms = result.total_ms;
  } else {
    result.queue_ms = 0.0;
  }

  if (pending->collection != nullptr) {
    // The outcome counter moves in the same critical section as the
    // latency windows, so one Stats() snapshot sees both.
    std::lock_guard<std::mutex> lock(mutex_);
    Collection& host = *pending->collection;
    switch (result.status.code()) {
      case Status::Code::kOk:
        host.metric.completed->Inc();
        host.latency.Record(result.total_ms);
        host.queue_wait.Record(result.queue_ms);
        host.RecordDone(now);
        break;
      case Status::Code::kResourceExhausted:
        // Turned away at admission — it never waited in the queue, so it
        // contributes no queue_wait sample.
        host.metric.rejected->Inc();
        break;
      case Status::Code::kDeadlineExceeded:
        host.metric.expired->Inc();
        host.queue_wait.Record(result.queue_ms);
        break;
      case Status::Code::kCancelled:
        host.metric.cancelled->Inc();
        host.queue_wait.Record(result.queue_ms);
        break;
      case Status::Code::kInternal:
        host.metric.failed->Inc();  // The dispatcher's exception barrier.
        break;
      default:
        break;  // InvalidArgument etc.: attributed to no bucket.
    }
  }

  // The rest of observability lands OUTSIDE mutex_: the histograms are
  // lock-free atomics (and the slowlog carries its own bounded lock), and
  // the shared_ptr keeps the collection's instruments and slowlog alive
  // even past RemoveCollection.
  if (pending->collection != nullptr) {
    Collection& host = *pending->collection;
    // Stage histograms mirror the queue_ms attribution above: queue for
    // anything that actually waited, dispatch/search only once a batch
    // ran it, total only for delivered answers (mixing shed queries into
    // the end-to-end histogram would make it bimodal by failure mode).
    if (pending->queued) host.metric.queue_ms->Observe(result.queue_ms);
    if (pending->searched) {
      host.metric.dispatch_ms->Observe(pending->stage_ms);
      host.metric.search_ms->Observe(pending->search_ms);
    }
    if (result.status.ok()) host.metric.total_ms->Observe(result.total_ms);
    // Slow-query log. Qualifies is a lock-free threshold read, so the
    // common case (fast query, full log of slower ones) never takes the
    // slowlog lock and builds no entry.
    if (pending->queued && host.slowlog->Qualifies(result.total_ms)) {
      SlowQueryEntry entry;
      entry.id = pending->id;
      entry.request_id = pending->request_id;
      entry.outcome = StatusCodeName(result.status.code());
      entry.k = pending->k;
      entry.nprobe = pending->nprobe;
      entry.queue_ms = result.queue_ms;
      entry.stage_ms = pending->stage_ms;
      entry.search_ms = pending->search_ms;
      entry.total_ms = result.total_ms;
      entry.counters = pending->counters;
      host.slowlog->Add(std::move(entry));
    }
  }

  // The trace is the one heap allocation tracing costs — and only on
  // traced queries; untraced ones leave result.trace null.
  if (pending->trace) {
    auto trace = std::make_shared<QueryTrace>();
    trace->request_id = pending->request_id;
    trace->queue_ms = result.queue_ms;
    trace->stage_ms = pending->stage_ms;
    trace->search_ms = pending->search_ms;
    trace->deliver_ms =
        pending->searched ? MillisBetween(pending->search_end, now) : 0.0;
    trace->total_ms = result.total_ms;
    trace->counters = pending->counters;
    result.trace = std::move(trace);
  }

  // Delivery happens outside the lock: a callback may re-enter the service
  // (Submit a follow-up query, read Stats) without deadlocking. A throwing
  // callback is contained here — on the dispatcher thread it would
  // otherwise kill the process (QueryCallback's contract says don't throw;
  // this is the backstop, not the interface).
  if (pending->callback) {
    try {
      pending->callback(std::move(result));
    } catch (...) {
    }
  } else {
    pending->promise.set_value(std::move(result));
  }
}

}  // namespace pdx
