#ifndef PDX_CORE_ANY_SEARCHER_H_
#define PDX_CORE_ANY_SEARCHER_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "benchlib/latency.h"
#include "common/parallel.h"
#include "common/status.h"
#include "common/timer.h"
#include "common/types.h"
#include "core/pdxearch.h"
#include "index/ivf.h"
#include "pruning/bond.h"
#include "storage/pdx_store.h"
#include "storage/vector_set.h"

namespace pdx {

struct SavedCollection;  // storage/collection_format.h

/// Exact-search partition size used by the paper (Section 6.5): the block
/// capacity flat PDX-BOND resolves to.
inline constexpr size_t kExactSearchBlockCapacity = 10240;

/// How the collection is blocked and visited (Sections 4.2/6.5).
enum class SearcherLayout : uint8_t {
  kFlat = 0,  ///< Horizontal partitions, every block visited (exact search).
  kIvf = 1,   ///< IVF buckets as block groups, `nprobe` buckets visited.
};

/// Which distance-computation pruner PDXearch runs with (Sections 3 & 5).
enum class PrunerKind : uint8_t {
  kLinear = 0,      ///< No pruning: blockwise linear scan.
  kAdsampling = 1,  ///< ADSampling: random rotation + hypothesis test.
  kBsa = 2,         ///< BSA: PCA projection + learned error bounds.
  kBond = 3,        ///< PDX-BOND: exact partial-distance bound.
};

/// Optional scalar quantization of the served store (the paper's Section 7
/// "compressed representations of dimensions within blocks" follow-up).
enum class QuantizationKind : uint8_t {
  kNone = 0,  ///< Full-precision float PDX blocks.
  kU8 = 1,    ///< Per-dimension affine u8 codes + exact rerank (quant/).
};

const char* SearcherLayoutName(SearcherLayout layout);
const char* PrunerKindName(PrunerKind pruner);
const char* QuantizationKindName(QuantizationKind quantization);

/// Everything needed to build and query any layout x pruner combination
/// through one factory. The per-pruner knobs keep the paper's defaults; a
/// zero/unset value means "resolve the layout-appropriate default".
struct SearcherConfig {
  SearcherLayout layout = SearcherLayout::kFlat;
  PrunerKind pruner = PrunerKind::kBond;
  Metric metric = Metric::kL2;
  size_t k = 10;        ///< Neighbors per query; must be > 0.
  size_t nprobe = 16;   ///< IVF buckets per query; must be > 0 on kIvf.
  /// Worker threads for SearchBatch, caller included: 1 = sequential (the
  /// paper-methodology default); see ResolveThreadCount in common/parallel.h
  /// for the 0 = one-per-hardware-thread semantic and the kMaxPoolThreads
  /// ceiling ValidateSearcherConfig enforces. A single query runs
  /// sequentially (a sharded searcher still spreads it across shards).
  size_t threads = 1;
  /// Optional non-owning shared pool for SearchBatch — the serving layer
  /// (src/serve/) injects one pool across every hosted collection. nullptr
  /// (default) keeps today's behavior: the searcher lazily owns a private
  /// pool sized to `threads`. With a pool injected, `threads` keeps only
  /// its sequential escape hatch (1 = sequential); any other value runs on
  /// the injected pool at the pool's size. The pool must outlive the
  /// searcher.
  ThreadPool* pool = nullptr;
  /// Vectors per PDX block; 0 = layout default (kPdxBlockSize, or the
  /// paper's 10K partitions for flat PDX-BOND).
  size_t block_capacity = 0;
  /// IVF build options, used only when the factory builds its own index.
  IvfOptions ivf;

  // Pruner knobs (ignored by the other pruners).
  float ads_epsilon0 = 2.1f;
  uint64_t ads_seed = 42;
  float bsa_multiplier = 1.0f;
  size_t bsa_max_fit_samples = 4096;
  /// unset = layout default: dimension zones on IVF's small blocks,
  /// distance-to-means on flat's large partitions (Section 6.5).
  std::optional<DimensionOrder> bond_order;
  size_t bond_zone_size = 16;

  /// kU8 serves the collection as a two-pass quantized tier: a
  /// dimension-major u8 code scan selects k * rerank_factor candidates,
  /// whose exact distances are recomputed on the retained float rows.
  /// Requires the L2 metric; the code scan is linear (no pruner bounds
  /// apply in code space), so ResolveConfig normalizes pruner to kLinear
  /// and ValidateSearcherConfig rejects the transform-based pruners
  /// (ADSampling/BSA) explicitly.
  QuantizationKind quantization = QuantizationKind::kNone;
  /// Candidate over-fetch of the quantized tier: the code scan keeps
  /// k * rerank_factor candidates for the exact rerank pass. 0 = no
  /// rerank (raw quantized distances); ignored when quantization = kNone.
  size_t rerank_factor = 4;

  /// PDXearch engine knobs; a step_observer forces SearchBatch sequential.
  PdxearchOptions search;
};

/// Rejects configurations that would silently return garbage: k == 0,
/// nprobe == 0 on kIvf, or a metric the chosen pruner's bound is invalid
/// for (ADSampling/BSA require L2; PDX-BOND requires a monotone metric).
Status ValidateSearcherConfig(const SearcherConfig& config);

/// Fills in the derived fields the user left at their "default" markers
/// (block_capacity, bond_order; pruner under kU8). Idempotent. Every facade
/// factory resolves before storing its config so the config a searcher
/// carries — and persists — names concrete values, never markers whose
/// meaning could drift with future defaults.
SearcherConfig ResolveConfig(SearcherConfig config);

/// The config of a searcher nested under a facade that owns the batch
/// fan-out (a shard of a sharded searcher): `config` made sequential
/// with no pool, so the nested searcher never pulls a pool of its own into
/// the query path.
SearcherConfig LeafConfig(SearcherConfig config);

/// Aggregate measurements of one SearchBatch call.
struct BatchProfile {
  size_t queries = 0;
  double wall_ms = 0.0;     ///< Wall clock around the whole batch.
  PdxearchProfile sum;      ///< Per-query profiles, summed.
  LatencyRecorder latency;  ///< Per-query wall latencies (p50/p95/p99).

  void Accumulate(const PdxearchProfile& profile);
  /// Percentile snapshot of the per-query latencies.
  LatencySummary latency_summary() const { return latency.Summary(); }
  double qps() const {
    return wall_ms > 0.0 ? 1000.0 * static_cast<double>(queries) / wall_ms
                         : 0.0;
  }
  /// Pruning power over the whole batch.
  double pruning_power() const { return sum.pruning_power(); }
};

/// Per-call query knobs for SearchWith / SearchBatchWith. 0 means "the
/// searcher's configured default" (options().k / options().nprobe); k and
/// nprobe are otherwise fixed at build time. nprobe is ignored on the flat
/// layout.
struct QueryKnobs {
  size_t k = 0;
  size_t nprobe = 0;
};

/// Runtime-polymorphic facade over every layout x pruner x quantization
/// combination: one type to hold, one factory to call, whichever the config
/// picked. Obtain through MakeSearcher (or LoadCollection, core/persist.h).
///
/// An implementation provides one query primitive, SearchWith: one query
/// through one scratch slot. The base class fans batches out over slot
/// bands (SearchBatchWith), and Search/SearchBatch are thin wrappers on
/// band 0 that also record last_profile()/last_batch_profile().
///
/// Thread safety: Search and SearchBatch use band 0 and write the
/// last-profile members, so one querier at a time on that surface.
/// SearchBatch with threads != 1 parallelizes *internally* (per-worker
/// engines over the shared read-only store) and returns exactly the
/// neighbors the sequential path returns, query by query. The
/// multi-querier surface is SearchWith/SearchBatchWith: after
/// ReserveScratch, calls on disjoint slots (bands) may run concurrently
/// from several threads — they mutate no shared searcher state, only the
/// slot scratch they name.
class Searcher {
 public:
  virtual ~Searcher() = default;

  Searcher(const Searcher&) = delete;
  Searcher& operator=(const Searcher&) = delete;

  /// k-NN of `query` (dim() floats) under options().k / options().nprobe:
  /// a one-query SearchBatchWith on band 0 (so a sharded searcher still
  /// fans the query out across its shards). Updates last_profile().
  std::vector<Neighbor> Search(const float* query);

  /// k-NN of `num_queries` row-major queries on band 0, executed on
  /// options().threads workers. results[q] corresponds to
  /// queries + q * dim(). Updates last_batch_profile().
  std::vector<std::vector<Neighbor>> SearchBatch(const float* queries,
                                                 size_t num_queries);

  /// Profile of the most recent Search.
  const PdxearchProfile& last_profile() const { return last_profile_; }

  /// Aggregate profile of the most recent SearchBatch.
  const BatchProfile& last_batch_profile() const { return batch_profile_; }

  /// The PDX store backing this searcher (post-transformation layout). A
  /// sharded searcher returns its first shard's store; use count() for the
  /// logical collection size.
  virtual const PdxStore& store() const = 0;

  /// The IVF index queries are routed through; nullptr on the flat layout
  /// and on sharded searchers (each shard routes through its own index).
  virtual const IvfIndex* index() const = 0;

  /// Vectors searchable through this facade. Equals store().count() for the
  /// single-store searchers; a sharded searcher reports the sum over its
  /// shards.
  virtual size_t count() const { return store().count(); }

  /// Ceiling for runtime nprobe overrides: the IVF index's bucket count (1
  /// on the flat layout, where nprobe is ignored). A sharded searcher
  /// reports its largest shard's ceiling — nprobe applies per shard.
  virtual size_t max_nprobe() const {
    return index() != nullptr ? index()->num_buckets() : 1;
  }

  /// Shards fanned out to per query: 1 unless built by MakeShardedSearcher.
  virtual size_t num_shards() const { return 1; }

  /// Per-shard count of shard-level searches (how many times each shard ran
  /// a query), empty when unsharded. Safe to call from any thread while
  /// another thread queries the searcher — the counters are atomic.
  virtual std::vector<uint64_t> ShardDispatchCounts() const { return {}; }

  /// Bytes of quantized codes this searcher serves from (0 on the float
  /// tiers; count x dim for the u8 tier; a sharded searcher sums its
  /// shards). Feeds the pdx_quantized_bytes gauge in the serving layer.
  virtual uint64_t quantized_bytes() const { return 0; }

  /// Pre-sizes per-slot scratch (one search engine per slot), so
  /// SearchWith/SearchBatchWith calls on distinct slots in [0, slots) may
  /// run concurrently. Growth reallocates the engine table, so call this
  /// before the first concurrent use (the serving layer reserves every
  /// dispatcher's band at adoption time); not thread-safe itself. Knobs
  /// are resolved per call, never baked into the reserved engines.
  virtual void ReserveScratch(size_t slots) { (void)slots; }

  /// The query primitive every implementation provides: k-NN of one query
  /// through slot `slot`'s scratch. After ReserveScratch(n), calls on
  /// distinct slots < n are safe to run concurrently (the store and pruner
  /// are read-only shared). `knobs` override k/nprobe for this call only.
  /// Updates neither last_profile() nor last_batch_profile(); the call's
  /// own profile is copied into `*profile` when non-null.
  virtual std::vector<Neighbor> SearchWith(
      size_t slot, QueryKnobs knobs, const float* query,
      PdxearchProfile* profile = nullptr) = 0;

  /// k-NN of `num_queries` row-major queries through the slot band
  /// starting at `slot`, under per-call `knobs` — the batch entry point the
  /// serving layer's replicated dispatchers use. With a pool (see
  /// BatchPool) the batch fans out over slots [slot, slot + pool_threads);
  /// sequentially it stays on `slot` alone. Concurrent calls are safe when
  /// (a) their bands are disjoint and reserved up front via ReserveScratch
  /// and (b) the pool is an injected shared pool (SearcherConfig::pool) —
  /// the lazily owned pool is not built concurrency-safe. The call mutates
  /// no shared searcher state; the batch's own profile is written to
  /// `*profile` when non-null.
  ///
  /// When `counters` is non-null it must point at `num_queries` entries;
  /// the call overwrites counters[q] with query q's OWN search work
  /// (blocks visited, lanes pruned, values avoided — per query even
  /// inside a pooled batch). Unlike `profile`, filling it allocates
  /// nothing: the serving layer passes a per-dispatcher pre-reserved
  /// array, so per-query observability rides the dispatch path for free.
  ///
  /// The base implementation runs SearchWith once per query (see FanOut);
  /// an override exists only where a batch needs more than that (shard x
  /// query tiling, one lock around a whole batch).
  virtual std::vector<std::vector<Neighbor>> SearchBatchWith(
      size_t slot, QueryKnobs knobs, const float* queries, size_t num_queries,
      BatchProfile* profile = nullptr, SearchCounters* counters = nullptr);

  /// Serializes the searcher's full state to `path` in the versioned PDXC
  /// collection format (storage/collection_format.h), so a later process
  /// can restore it without re-running k-means, transforms, or packing.
  /// The default routes through ExportSaved; implementations with internal
  /// synchronization (MutableSearcher) override it to hold their lock
  /// across the export-and-write window.
  virtual Status Save(const std::string& path) const;

  /// Flattens the searcher into its serializable description. Pointer
  /// members of `out` (arenas, raw rows) borrow from this searcher: write
  /// the file before the searcher is mutated or destroyed. The base
  /// returns Unsupported — adopted custom facades have no generic export.
  virtual Status ExportSaved(SavedCollection& out) const;

  /// Pins the loaded collection image this searcher's stores view into.
  /// Lives on the base class: base members are destroyed after every
  /// derived member, so the mapping outlives all views during teardown.
  void PinImage(std::shared_ptr<const void> image) {
    image_pin_ = std::move(image);
  }

  const SearcherConfig& options() const { return config_; }
  /// Vector dimensionality. Virtual so wrappers whose store() is swappable
  /// (MutableSearcher under compaction) can answer from an immutable cache.
  virtual size_t dim() const { return store().dim(); }

  /// A count above kMaxPoolThreads is a programming error (asserted in
  /// debug builds) and clamped in release builds. 0 stays legal —
  /// ResolveThreadCount in common/parallel.h is the single home of the
  /// "0 = one per hardware thread" semantic. Virtual (like set_pool) so a
  /// wrapper that delegates its batches to a nested searcher
  /// (MutableSearcher) can forward the setting; not safe to call while the
  /// searcher is queried.
  virtual void set_threads(size_t threads) {
    assert(threads <= kMaxPoolThreads);
    config_.threads = std::min(threads, kMaxPoolThreads);
  }
  /// Injects (or with nullptr removes) a shared batch pool at runtime —
  /// the serving layer calls this on adopted searchers. See
  /// SearcherConfig::pool for the semantics and lifetime requirement.
  virtual void set_pool(ThreadPool* pool) { config_.pool = pool; }

 protected:
  explicit Searcher(SearcherConfig config) : config_(std::move(config)) {}

  /// The one home of the batch fan-out policy, shared by every facade
  /// implementation so they cannot drift: nullptr = run sequentially
  /// (threads resolves to 1, or a step_observer — single-consumer state —
  /// is set); otherwise the injected shared pool wins, else a lazily owned
  /// pool sized to `threads` (reused across calls).
  ThreadPool* BatchPool();

  /// The one batch fan-out loop: runs `search_one(slot, query, profile)`
  /// for every query, sequentially on `slot` when `pool` is null, else
  /// over the band [slot, slot + pool->num_threads()) — the caller has
  /// reserved that band's scratch. Fills counters[q] and the optional
  /// batch profile; with neither requested, `search_one` gets a null
  /// profile, and with no profile no BatchProfile or latency window is
  /// built.
  template <typename SearchOne>
  std::vector<std::vector<Neighbor>> FanOut(ThreadPool* pool, size_t slot,
                                            const float* queries,
                                            size_t num_queries,
                                            BatchProfile* profile,
                                            SearchCounters* counters,
                                            const SearchOne& search_one);

  SearcherConfig config_;

 private:
  PdxearchProfile last_profile_;            ///< See last_profile().
  BatchProfile batch_profile_;              ///< See last_batch_profile().
  std::shared_ptr<const void> image_pin_;   ///< See PinImage.
  std::unique_ptr<ThreadPool> owned_pool_;  ///< Only without an injected pool.
};

template <typename SearchOne>
std::vector<std::vector<Neighbor>> Searcher::FanOut(
    ThreadPool* pool, size_t slot, const float* queries, size_t num_queries,
    BatchProfile* profile, SearchCounters* counters,
    const SearchOne& search_one) {
  std::vector<std::vector<Neighbor>> results(num_queries);
  if (profile != nullptr) {
    *profile = BatchProfile{};
    profile->queries = num_queries;
  }
  // Per-worker profiles only on the pool: workers must not share one
  // latency window. Sequentially the caller's profile is the sink.
  std::vector<BatchProfile> worker_profiles(
      profile != nullptr && pool != nullptr ? pool->num_threads() : 0);
  const size_t d = dim();
  const bool measure = profile != nullptr || counters != nullptr;
  auto run = [&](size_t q, size_t w) {
    const Timer per_query;
    PdxearchProfile query_profile;
    results[q] = search_one(slot + w, queries + q * d,
                            measure ? &query_profile : nullptr);
    // Exactly one task owns index q, so counters[q] is written by one
    // worker only — race-free without any synchronization.
    if (counters != nullptr) counters[q] = query_profile.counters();
    if (profile != nullptr) {
      BatchProfile& sink = pool == nullptr ? *profile : worker_profiles[w];
      sink.latency.Record(per_query.ElapsedMillis());
      sink.Accumulate(query_profile);
    }
  };
  const Timer wall;
  if (pool == nullptr) {
    for (size_t q = 0; q < num_queries; ++q) run(q, 0);
  } else {
    pool->ParallelFor(num_queries, run);
  }
  if (profile != nullptr) {
    profile->wall_ms = wall.ElapsedMillis();
    for (const BatchProfile& wp : worker_profiles) {
      profile->Accumulate(wp.sum);
      profile->latency.Merge(wp.latency);
    }
  }
  return results;
}

/// Builds the searcher `config` describes over `vectors`. On the kIvf
/// layout the factory builds (and owns) an IvfIndex with config.ivf.
/// Fails with InvalidArgument/Unsupported on bad configs — see
/// ValidateSearcherConfig — or an empty collection.
Result<std::unique_ptr<Searcher>> MakeSearcher(const VectorSet& vectors,
                                               SearcherConfig config);

/// Same, but over a caller-owned IVF index (the paper's methodology: every
/// competitor shares one bucket structure). `index` must outlive the
/// searcher and have been built over `vectors`; layout must be kIvf.
Result<std::unique_ptr<Searcher>> MakeSearcher(const VectorSet& vectors,
                                               const IvfIndex& index,
                                               SearcherConfig config);

}  // namespace pdx

#endif  // PDX_CORE_ANY_SEARCHER_H_
