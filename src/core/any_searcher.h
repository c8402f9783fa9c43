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

#include "common/parallel.h"
#include "common/status.h"
#include "common/types.h"
#include "core/pdxearch.h"
#include "index/ivf.h"
#include "index/topk.h"
#include "pruning/bond.h"
#include "storage/pdx_store.h"
#include "storage/vector_set.h"

namespace pdx {

class CollectionImage;   // storage/collection_format.h
struct SavedCollection;  // storage/collection_format.h

/// The block capacity flat PDX-BOND resolves to. The paper's exact search
/// uses 10K-vector partitions (Section 6.5); these are five times smaller.
/// A pruned partition costs its WARMUP scan of every lane, and START is
/// one whole partition, so smaller ones prune under a threshold that
/// tightens five times as often and split one query into finer tasks.
/// Sweep on 4 vCPUs (one query, PDX-BOND in sequential order, k = 10; p50
/// of two runs): split on a pool of 4, 100K x 96 rows took 0.95-1.14 ms at
/// 10,240 lanes, 0.71-0.89 ms at 4,096, 0.60-0.67 ms at 2,048, 0.60-0.78
/// ms at 1,024 and 0.82-0.99 ms at 64; 120K x 768 rows took 10.5-12.8 ms
/// at 10,240, 8.7-10.6 ms at 2,048 and 8.7-9.2 ms at 1,024. Sequentially,
/// 120K x 768 rows took 24.6-27.8 ms at 2,048 lanes but 32.2-32.6 ms at
/// 512. A collection saved at another capacity keeps it: its file names
/// the capacity it was packed at.
inline constexpr size_t kExactSearchBlockCapacity = 2048;

/// Lanes left after START per task of a one-query split (see
/// Searcher::SearchBatchWith): a split needs two tasks, so at least twice
/// this many lanes after START.
inline constexpr size_t kSplitTaskLanes = 10240;

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
  /// Worker threads of the pool Search/SearchBatch lazily own, caller
  /// included: 1 = sequential (the paper-methodology default); see
  /// ResolveThreadCount in common/parallel.h for the 0 = one-per-hardware-
  /// thread semantic and the kMaxPoolThreads ceiling ValidateSearcherConfig
  /// enforces. SearchBatchWith ignores it: its pool rides on the call.
  size_t threads = 1;
  /// Vectors per PDX block; 0 = layout default (kPdxBlockSize, or
  /// kExactSearchBlockCapacity for flat PDX-BOND).
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

  /// PDXearch engine knobs; a step_observer forces every batch sequential.
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

/// Per-call query knobs for SearchWith / SearchBatchWith. 0 means "the
/// searcher's configured default" (options().k / options().nprobe); k and
/// nprobe are otherwise fixed at build time. nprobe is ignored on the flat
/// layout.
struct QueryKnobs {
  size_t k = 0;
  size_t nprobe = 0;
  /// Ids the call must not return, indexed by the searcher's own result
  /// ids. Only a live collection sets it, and only on the library tier it
  /// searches as its base (the float facade, the u8 tier or the sharded
  /// facade): its tombstone bitmap, while it holds the lock that keeps the
  /// bitmap still. Each tier drops an excluded id where a candidate would
  /// enter a heap, so the call returns the k nearest of the other ids and
  /// prunes against their k-th distance. No config, option, wire field or
  /// file carries it.
  ExcludedIds excluded = {};
};

/// What a searcher serves, as Searcher::shape() reports it. Every field
/// sees through sharding (summed over the shards, or their largest value
/// where a query applies it per shard) and through a live collection's
/// delta (which reports its live count and the rest from its base).
struct SearcherShape {
  /// Vectors searchable; a live collection's is base + delta - tombstones.
  size_t count = 0;
  /// Blocks scanned from: PDX blocks on the float tiers, code blocks on
  /// the u8 tier; a live collection reports its base (not its delta).
  size_t num_blocks = 0;
  /// Shards fanned out to per query: 1 unless built by MakeShardedSearcher.
  size_t num_shards = 1;
  /// Ceiling for runtime nprobe overrides: the IVF index's bucket count,
  /// the largest shard's (nprobe applies per shard); 1 on the flat layout.
  size_t max_nprobe = 1;
  /// Bytes of u8 codes served from: count x dim on the u8 tier, 0 on the
  /// float tiers.
  uint64_t quantized_bytes = 0;
  /// Bytes of a collection file served from a live memory mapping: 0 for
  /// a built or heap-loaded searcher, and for a live collection once a
  /// fold has replaced the base it restored.
  uint64_t mapped_bytes = 0;
};

/// Runtime-polymorphic facade over every layout x pruner x quantization
/// combination: one type to hold, one factory to call, whichever the config
/// picked. Obtain through MakeSearcher (or LoadCollection, core/persist.h).
///
/// An implementation provides two methods: the query primitive SearchWith
/// (one query through one scratch slot) and shape(). The base class fans
/// batches out over slot bands (SearchBatchWith) on the pool the caller
/// passes; a searcher holds no pool it does not own. Search/SearchBatch are
/// thin band-0 wrappers that run on a pool the searcher lazily owns (sized
/// by options().threads) and record last_profile().
///
/// Thread safety: Search and SearchBatch use band 0, the owned pool and
/// the last-profile member, so one querier at a time on that surface. A
/// pooled batch parallelizes *internally* (per-worker engines over the
/// shared read-only store) and returns exactly the neighbors the
/// sequential path returns, query by query — including a one-query batch
/// on a flat exact collection, which splits its one search over the pool
/// (see SearchBatchWith). The multi-querier surface is
/// SearchWith/SearchBatchWith: after ReserveScratch, calls on disjoint
/// slots (bands) may run concurrently from several threads, with any
/// caller pools — they mutate no shared searcher state, only the slot
/// scratch they name.
class Searcher {
 public:
  virtual ~Searcher() = default;

  Searcher(const Searcher&) = delete;
  Searcher& operator=(const Searcher&) = delete;

  /// k-NN of `query` (dim() floats) under options().k / options().nprobe:
  /// a one-query SearchBatchWith on band 0 and the owned pool (so a
  /// sharded searcher still fans the query out across its shards, and a
  /// flat exact one splits it over the pool). Updates last_profile().
  std::vector<Neighbor> Search(const float* query);

  /// k-NN of `num_queries` row-major queries on band 0, executed on the
  /// owned pool of options().threads workers. results[q] corresponds to
  /// queries + q * dim().
  std::vector<std::vector<Neighbor>> SearchBatch(const float* queries,
                                                 size_t num_queries);

  /// Work record of the most recent Search.
  const PdxearchProfile& last_profile() const { return last_profile_; }

  /// What this searcher serves, in one read; see SearcherShape. Safe to
  /// call while other threads query or mutate the searcher: the immutable
  /// tiers read state fixed at build, a live collection reads under its
  /// lock.
  virtual SearcherShape shape() const = 0;

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
  /// Does not update last_profile(); the call's own work record overwrites
  /// `*profile` when non-null.
  virtual std::vector<Neighbor> SearchWith(
      size_t slot, QueryKnobs knobs, const float* query,
      PdxearchProfile* profile = nullptr) = 0;

  /// k-NN of `num_queries` row-major queries through the slot band
  /// starting at `slot`, under per-call `knobs` — the one batch entry, and
  /// the one the serving layer's replicated dispatchers use. The fan-out
  /// rules:
  ///   - no `pool`, or a step_observer in options().search: sequential on
  ///     `slot` alone;
  ///   - the base fan-out uses `pool` only for num_queries > 1, over slots
  ///     [slot, slot + pool->num_threads());
  ///   - the float facade splits a one-query batch over a pool of two or
  ///     more threads when the layout is flat and the pruner exact (linear,
  ///     or PDX-BOND under any order). START runs on the calling thread,
  ///     through `slot`, until the heap holds k; the blocks after it form
  ///     min(pool threads, lanes left / kSplitTaskLanes, blocks left)
  ///     contiguous ranges, range w on slot `slot + w`, each pruning
  ///     against the smaller of its own k-th distance and START's, and the
  ///     caller merges the range heaps by (distance, id). Fewer than two
  ///     ranges (a small collection, or k near the count) keep the
  ///     sequential path, as do IVF, ADSampling, BSA and the u8 tier. The
  ///     answer is the sequential one, ids and distance bits;
  ///   - the sharded (shard x query) tiling uses it for any num_queries,
  ///     so even one query spreads across the shards.
  /// Concurrent calls are safe, with any caller pools, when their bands
  /// are disjoint and reserved up front via ReserveScratch; the call
  /// mutates no shared searcher state. Only the band-0 wrappers (Search,
  /// SearchBatch) touch the owned pool.
  ///
  /// When `per_query` is non-null it must point at `num_queries` entries;
  /// the call overwrites per_query[q] with query q's OWN search work (per
  /// query even inside a pooled batch). Filling it allocates nothing: the
  /// serving layer passes a per-dispatcher pre-reserved array, so
  /// per-query observability rides the dispatch path for free. A split
  /// query's record sums START and every range: it visits every block, as
  /// the sequential search does, but its ranges scan the values their
  /// bound lets through, so the record depends only on the query, the
  /// store and the pool size.
  ///
  /// The base implementation runs SearchWith once per query; an override
  /// exists only where a batch needs more than that (the flat one-query
  /// split, shard x query tiling, one lock around a whole batch).
  virtual std::vector<std::vector<Neighbor>> SearchBatchWith(
      size_t slot, QueryKnobs knobs, const float* queries, size_t num_queries,
      ThreadPool* pool = nullptr, PdxearchProfile* per_query = nullptr);

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
  void PinImage(std::shared_ptr<const CollectionImage> image) {
    image_pin_ = std::move(image);
  }

  const SearcherConfig& options() const { return config_; }
  /// Vector dimensionality, fixed at build (the ADSampling rotation and
  /// the BSA basis are square, so a transformed store keeps it).
  size_t dim() const { return dim_; }

  /// Sizes the pool Search/SearchBatch own. A count above kMaxPoolThreads
  /// is a programming error (asserted in debug builds) and clamped in
  /// release builds. 0 stays legal — ResolveThreadCount in
  /// common/parallel.h is the single home of the "0 = one per hardware
  /// thread" semantic. Not safe to call concurrently with any other
  /// member.
  void set_threads(size_t threads) {
    assert(threads <= kMaxPoolThreads);
    config_.threads = std::min(threads, kMaxPoolThreads);
  }

 protected:
  Searcher(SearcherConfig config, size_t dim)
      : config_(std::move(config)), dim_(dim) {}

  /// Bytes of the pinned image served from a live mapping (0 when nothing
  /// is pinned or the image is a heap copy): a restored tier's
  /// SearcherShape::mapped_bytes.
  uint64_t PinnedMappedBytes() const;

  SearcherConfig config_;

 private:
  /// The band-0 wrappers' pool: nullptr when options().threads resolves to
  /// 1, else a pool of that size, built on first use and reused.
  ThreadPool* OwnedPool();

  const size_t dim_;                        ///< See dim().
  PdxearchProfile last_profile_;            ///< See last_profile().
  std::shared_ptr<const CollectionImage> image_pin_;  ///< See PinImage.
  std::unique_ptr<ThreadPool> owned_pool_;  ///< See OwnedPool.
};

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
