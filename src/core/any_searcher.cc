#include "core/any_searcher.h"

#include <algorithm>
#include <string>
#include <type_traits>
#include <utility>

#include "common/parallel.h"
#include "core/persist.h"
#include "pruning/adsampling.h"
#include "pruning/bsa.h"
#include "pruning/pdx_bond.h"
#include "quant/quantized_searcher.h"
#include "storage/block_stats.h"
#include "storage/collection_format.h"

namespace pdx {

const char* SearcherLayoutName(SearcherLayout layout) {
  switch (layout) {
    case SearcherLayout::kFlat:
      return "flat";
    case SearcherLayout::kIvf:
      return "ivf";
  }
  return "unknown";
}

const char* PrunerKindName(PrunerKind pruner) {
  switch (pruner) {
    case PrunerKind::kLinear:
      return "linear";
    case PrunerKind::kAdsampling:
      return "adsampling";
    case PrunerKind::kBsa:
      return "bsa";
    case PrunerKind::kBond:
      return "bond";
  }
  return "unknown";
}

const char* QuantizationKindName(QuantizationKind quantization) {
  switch (quantization) {
    case QuantizationKind::kNone:
      return "none";
    case QuantizationKind::kU8:
      return "u8";
  }
  return "unknown";
}

Status ValidateSearcherConfig(const SearcherConfig& config) {
  // Out-of-range enum values (a config deserialized from disk, say) must
  // fail here, not as a null searcher later.
  if (config.layout != SearcherLayout::kFlat &&
      config.layout != SearcherLayout::kIvf) {
    return Status::InvalidArgument("SearcherConfig: unknown layout value");
  }
  if (config.pruner != PrunerKind::kLinear &&
      config.pruner != PrunerKind::kAdsampling &&
      config.pruner != PrunerKind::kBsa && config.pruner != PrunerKind::kBond) {
    return Status::InvalidArgument("SearcherConfig: unknown pruner value");
  }
  if (config.metric != Metric::kL2 && config.metric != Metric::kIp &&
      config.metric != Metric::kL1) {
    return Status::InvalidArgument("SearcherConfig: unknown metric value");
  }
  if (config.k == 0) {
    return Status::InvalidArgument("SearcherConfig: k must be > 0");
  }
  if (config.pruner == PrunerKind::kBond && config.bond_zone_size == 0) {
    return Status::InvalidArgument(
        "SearcherConfig: bond_zone_size must be > 0");
  }
  if (config.layout == SearcherLayout::kIvf && config.nprobe == 0) {
    return Status::InvalidArgument(
        "SearcherConfig: nprobe must be > 0 on the IVF layout");
  }
  // A zero fetch size never advances the scan of a block.
  if ((config.search.adaptive_steps ? config.search.initial_step
                                    : config.search.fixed_step) == 0) {
    return Status::InvalidArgument(
        config.search.adaptive_steps
            ? "SearcherConfig: search.initial_step must be > 0"
            : "SearcherConfig: search.fixed_step must be > 0 when "
              "search.adaptive_steps is off");
  }
  // Same discipline as Searcher::set_threads, which clamps at runtime:
  // ResolveThreadCount (common/parallel.h) owns the 0 = one-per-hardware-
  // thread semantic; counts above kMaxPoolThreads are unit mistakes.
  if (config.threads > kMaxPoolThreads) {
    return Status::InvalidArgument(
        "SearcherConfig: threads must be <= " +
        std::to_string(kMaxPoolThreads) + " (0 = one per hardware thread)");
  }
  switch (config.pruner) {
    case PrunerKind::kLinear:
      break;  // Pure scan: every metric works.
    case PrunerKind::kAdsampling:
    case PrunerKind::kBsa:
      if (config.metric != Metric::kL2) {
        return Status::Unsupported(
            std::string("SearcherConfig: the ") +
            PrunerKindName(config.pruner) +
            " pruner's bounds are only valid for the L2 metric");
      }
      break;
    case PrunerKind::kBond:
      if (config.metric == Metric::kIp) {
        return Status::Unsupported(
            "SearcherConfig: PDX-BOND needs a monotone metric (L2/L1); "
            "inner-product partials can still decrease");
      }
      break;
  }
  if (config.quantization != QuantizationKind::kNone &&
      config.quantization != QuantizationKind::kU8) {
    return Status::InvalidArgument(
        "SearcherConfig: unknown quantization value");
  }
  if (config.quantization == QuantizationKind::kU8) {
    // The code-space distance w_d * (q'_d - code)^2 expands the L2 sum
    // only; IP/L1 have no u8 asymmetric form here.
    if (config.metric != Metric::kL2) {
      return Status::Unsupported(
          "SearcherConfig: the u8 quantized tier only supports the L2 "
          "metric");
    }
    // The quantized scan is a linear code scan: transform-based pruners
    // (rotation / PCA projections) do not apply in code space. kLinear is
    // the tier's pruner; kBond (the default) is silently normalized to it
    // by ResolveConfig so `quantization = u8` works without also touching
    // the pruner knob.
    if (config.pruner == PrunerKind::kAdsampling ||
        config.pruner == PrunerKind::kBsa) {
      return Status::Unsupported(
          std::string("SearcherConfig: the ") + PrunerKindName(config.pruner) +
          " pruner does not compose with the u8 quantized tier (its "
          "transform does not apply in code space)");
    }
  }
  return Status::OK();
}

ThreadPool* Searcher::OwnedPool() {
  const size_t threads = ResolveThreadCount(config_.threads);
  if (threads <= 1) return nullptr;
  if (owned_pool_ == nullptr || owned_pool_->num_threads() != threads) {
    owned_pool_ = std::make_unique<ThreadPool>(threads);
  }
  return owned_pool_.get();
}

uint64_t Searcher::PinnedMappedBytes() const {
  return image_pin_ != nullptr ? image_pin_->mapped_bytes() : 0;
}

Status Searcher::Save(const std::string& path) const {
  SavedCollection saved;
  PDX_RETURN_IF_ERROR(ExportSaved(saved));
  return WriteCollectionFile(path, saved);
}

Status Searcher::ExportSaved(SavedCollection& out) const {
  (void)out;
  return Status::Unsupported(
      "Searcher::ExportSaved: this searcher implementation has no "
      "serializable form (adopted custom facade?)");
}

std::vector<Neighbor> Searcher::Search(const float* query) {
  std::vector<std::vector<Neighbor>> results =
      SearchBatchWith(0, QueryKnobs{}, query, 1, OwnedPool(), &last_profile_);
  return std::move(results.front());
}

std::vector<std::vector<Neighbor>> Searcher::SearchBatch(const float* queries,
                                                         size_t num_queries) {
  return SearchBatchWith(0, QueryKnobs{}, queries, num_queries, OwnedPool());
}

std::vector<std::vector<Neighbor>> Searcher::SearchBatchWith(
    size_t slot, QueryKnobs knobs, const float* queries, size_t num_queries,
    ThreadPool* pool, PdxearchProfile* per_query) {
  // A step_observer is single-consumer state, and a one-query batch has
  // nothing to spread.
  if (config_.search.step_observer || num_queries <= 1) pool = nullptr;
  // Growth happens here, on the calling thread — a no-op once the band is
  // reserved — never inside the parallel region.
  if (pool != nullptr) ReserveScratch(slot + pool->num_threads());
  std::vector<std::vector<Neighbor>> results(num_queries);
  const size_t d = dim();
  auto run = [&](size_t q, size_t w) {
    // Exactly one task owns index q, so per_query[q] is written by one
    // worker only — race-free without any synchronization.
    results[q] = SearchWith(slot + w, knobs, queries + q * d,
                            per_query != nullptr ? per_query + q : nullptr);
  };
  if (pool == nullptr) {
    for (size_t q = 0; q < num_queries; ++q) run(q, 0);
  } else {
    pool->ParallelFor(num_queries, run);
  }
  return results;
}

SearcherConfig ResolveConfig(SearcherConfig config) {
  if (config.quantization == QuantizationKind::kU8) {
    // The quantized tier runs a linear scan over codes; pin the pruner so
    // the persisted/reported config names what actually runs.
    config.pruner = PrunerKind::kLinear;
  }
  if (config.block_capacity == 0) {
    // Flat PDX-BOND uses large exact-search partitions (Section 6.5, at
    // kExactSearchBlockCapacity); everything else uses register-resident
    // blocks.
    config.block_capacity = (config.layout == SearcherLayout::kFlat &&
                             config.pruner == PrunerKind::kBond)
                                ? kExactSearchBlockCapacity
                                : kPdxBlockSize;
  }
  if (!config.bond_order.has_value()) {
    config.bond_order = config.layout == SearcherLayout::kFlat
                            ? DimensionOrder::kDistanceToMeans
                            : DimensionOrder::kDimensionZones;
  }
  return config;
}

namespace {

/// The one float-tier facade implementation: the PDX store, the pruner P
/// that understands the store's transformation, the IVF index queries are
/// routed through (none on the flat layout), and one PDXearch engine per
/// scratch slot. Every slot's engine shares the (read-only) store and
/// pruner, so a batch costs no extra copies of the collection. Built and
/// restored searchers alike end in this constructor.
template <typename P>
class AnySearcherImpl final : public Searcher {
 public:
  /// `owned_index` is null when the caller keeps ownership of `index`;
  /// `index` is null on the flat layout.
  AnySearcherImpl(SearcherConfig config, std::unique_ptr<IvfIndex> owned_index,
                  const IvfIndex* index, PdxStore store, P pruner)
      : Searcher(std::move(config), store.dim()),
        owned_index_(std::move(owned_index)),
        index_(index),
        store_(std::move(store)),
        pruner_(std::move(pruner)) {
    pruner_.BuildAux(store_);
  }

  SearcherShape shape() const override {
    SearcherShape shape;
    shape.count = store_.count();
    shape.num_blocks = store_.num_blocks();
    if (index_ != nullptr) shape.max_nprobe = index_->num_buckets();
    shape.mapped_bytes = PinnedMappedBytes();
    return shape;
  }

  Status ExportSaved(SavedCollection& out) const override {
    out = SavedCollection{};
    out.meta = MetaFromConfig(config_);
    out.meta.dim = dim();
    out.meta.count = store_.count();
    SavedShard shard;
    shard.arena = store_.arena_data();
    shard.arena_floats = store_.arena_floats();
    if (index_ != nullptr) ExportIvf(*index_, shard);
    if constexpr (std::is_same_v<P, AdSamplingPruner>) {
      shard.ads_rotation = pruner_.rotation();
    } else if constexpr (std::is_same_v<P, BsaPruner>) {
      const Pca& pca = pruner_.pca();
      shard.pca_mean = pca.mean();
      shard.pca_variance = pca.explained_variance();
      shard.pca_components = pca.components();
    } else if constexpr (std::is_same_v<P, PdxBondPruner>) {
      shard.bond_means = pruner_.means();
    }
    out.shards.push_back(std::move(shard));
    return Status::OK();
  }

  void ReserveScratch(size_t slots) override { GrowEngines(slots); }

  // A one-query batch that PlanSplit spreads over `pool` runs START on the
  // calling thread, through slot `slot`, until its heap is full; range w of
  // the blocks after it then runs on slot `slot + w`. Range 0 continues
  // START's heap; every other range fills an empty heap of its own and
  // prunes against the smaller of its k-th distance and START's. The
  // caller merges the range heaps into START's. Flat lanes ascend in id
  // through the store and every heap keeps the lowest ids among exact ties,
  // so a lane a range prunes (partial >= bound) could not have entered the
  // sequential heap either: the merge returns SearchFlat's ids and distance
  // bits. START and every range skip the ids knobs.excluded names; when
  // START's blocks leave fewer than k lanes in its heap, its bound stays
  // +inf and every range runs a START of its own. Every other batch takes
  // the base fan-out.
  std::vector<std::vector<Neighbor>> SearchBatchWith(
      size_t slot, QueryKnobs knobs, const float* queries, size_t num_queries,
      ThreadPool* pool, PdxearchProfile* per_query) override {
    const size_t k =
        std::min(knobs.k > 0 ? knobs.k : config_.k, store_.count());
    SplitPlan plan = num_queries == 1 ? PlanSplit(pool, k) : SplitPlan{};
    if (plan.tasks < 2) {
      return Searcher::SearchBatchWith(slot, knobs, queries, num_queries, pool,
                                       per_query);
    }
    // Growth happens here, on the calling thread, as in the base fan-out.
    ReserveScratch(slot + pool->num_threads());
    Timer timer;
    const typename P::QueryState qs = pruner_.PrepareQuery(queries);
    PdxearchProfile work;
    if (config_.search.collect_phase_times) {
      work.preprocess_ms = timer.ElapsedMillis();
    }
    TopK& heap = heaps_[slot];
    heap.Reset(k);
    engines_[slot]->SearchBlockRange(qs, 0, plan.first,
                                     PdxearchEngine<P>::kNoBound, heap,
                                     knobs.excluded);
    work += engines_[slot]->last_profile();
    plan.slot = slot;
    plan.k = k;
    plan.bound = heap.threshold();
    plan.qs = &qs;
    plan.excluded = knobs.excluded;
    // Two captures keep the callable inside std::function's own storage.
    pool->ParallelFor(plan.tasks, [this, &plan](size_t w, size_t) {
      TopK& own = heaps_[plan.slot + w];
      if (w > 0) own.Reset(plan.k);
      engines_[plan.slot + w]->SearchBlockRange(
          *plan.qs, plan.Begin(w), plan.Begin(w + 1), plan.bound, own,
          plan.excluded);
    });
    for (size_t w = 0; w < plan.tasks; ++w) {
      work += engines_[slot + w]->last_profile();
      if (w > 0) heap.Merge(heaps_[slot + w]);
    }
    if (per_query != nullptr) *per_query = work;
    std::vector<std::vector<Neighbor>> results(1);
    results[0] = heap.SortedResults();
    return results;
  }

  std::vector<Neighbor> SearchWith(size_t slot, QueryKnobs knobs,
                                   const float* query,
                                   PdxearchProfile* profile) override {
    // Lazy growth keeps single-threaded callers convenient; concurrent
    // callers must have called ReserveScratch first (growth reallocates
    // engines_).
    if (slot >= engines_.size()) GrowEngines(slot + 1);
    PdxearchEngine<P>& engine = *engines_[slot];
    // The knobs are resolved per call, never stored on the shared config
    // or the engines, so per-call overrides are race-free under concurrent
    // dispatch.
    const size_t k = knobs.k > 0 ? knobs.k : config_.k;
    const size_t nprobe = knobs.nprobe > 0 ? knobs.nprobe : config_.nprobe;
    std::vector<Neighbor> result =
        index_ == nullptr
            ? engine.SearchFlat(query, k, knobs.excluded)
            : engine.SearchIvf(*index_, query, k, nprobe, knobs.excluded);
    if (profile != nullptr) *profile = engine.last_profile();
    return result;
  }

 private:
  // How a one-query batch splits: START fills the heap over blocks
  // [0, first), and the blocks after it form `tasks` contiguous ranges.
  // The rest is filled in once START has run.
  struct SplitPlan {
    size_t first = 0;
    size_t tasks = 0;
    size_t slot = 0;
    size_t k = 0;
    float bound = 0.0f;
    const typename P::QueryState* qs = nullptr;
    ExcludedIds excluded;
    size_t num_blocks = 0;

    // First block of range w, for w in [0, tasks].
    size_t Begin(size_t w) const {
      return first + (num_blocks - first) * w / tasks;
    }
  };

  // Splits only a flat search with an exact pruner (linear, or PDX-BOND
  // under any order), whose bound START fixes for every later lane; the
  // inexact bounds of ADSampling and BSA and IVF's bucket order keep the
  // sequential path. Tasks: one per kSplitTaskLanes lanes left after
  // START, at most one per pool thread and one per block, so small
  // collections stay sequential.
  SplitPlan PlanSplit(const ThreadPool* pool, size_t k) const {
    constexpr bool kExact =
        std::is_same_v<P, NoPruner> || std::is_same_v<P, PdxBondPruner>;
    if (!kExact || index_ != nullptr || pool == nullptr ||
        config_.search.step_observer) {
      return {};
    }
    SplitPlan plan;
    plan.num_blocks = store_.num_blocks();
    size_t start_lanes = 0;
    while (plan.first < plan.num_blocks && start_lanes < k) {
      start_lanes += store_.block(plan.first++).count();
    }
    plan.tasks = std::min({pool->num_threads(), plan.num_blocks - plan.first,
                           (store_.count() - start_lanes) / kSplitTaskLanes});
    return plan;
  }

  // Appends engines (and their split-search heaps) until `n` slots exist.
  void GrowEngines(size_t n) {
    while (engines_.size() < n) {
      engines_.push_back(std::make_unique<PdxearchEngine<P>>(
          &store_, &pruner_, config_.metric, config_.search));
      heaps_.emplace_back(1);
    }
  }

  // Declaration order doubles as lifetime order: engines_ sits on top of
  // the store and pruner, which sit on top of the (possibly owned) index —
  // members below destroy first. (The band-0 wrappers' owned pool lives in
  // the Searcher base and is idle between calls.)
  std::unique_ptr<IvfIndex> owned_index_;
  const IvfIndex* index_ = nullptr;
  PdxStore store_;
  P pruner_;
  std::vector<std::unique_ptr<PdxearchEngine<P>>> engines_;
  std::vector<TopK> heaps_;  ///< One per engine, for split searches.
};

/// Builds the searcher a validated, resolved `config` describes over
/// `vectors`. `index` is null on the flat layout, whose store is one group
/// (the whole collection) where IVF's groups are the buckets; `owned` is
/// null when the caller keeps ownership of `index`.
std::unique_ptr<Searcher> BuildSearcher(const VectorSet& vectors,
                                        SearcherConfig config,
                                        std::unique_ptr<IvfIndex> owned,
                                        const IvfIndex* index) {
  if (config.quantization == QuantizationKind::kU8) {
    return BuildQuantizedSearcher(vectors, std::move(config), std::move(owned),
                                  index);
  }
  const size_t capacity = config.block_capacity;
  auto pack = [&](const VectorSet& rows) {
    return index != nullptr
               ? PdxStore::FromGroups(rows, index->buckets(), capacity)
               : PdxStore::FromVectorSet(rows, capacity);
  };
  auto make = [&](PdxStore store, auto pruner) -> std::unique_ptr<Searcher> {
    return std::make_unique<AnySearcherImpl<decltype(pruner)>>(
        std::move(config), std::move(owned), index, std::move(store),
        std::move(pruner));
  };
  switch (config.pruner) {
    case PrunerKind::kLinear:
      return make(pack(vectors), NoPruner{});
    case PrunerKind::kAdsampling: {
      AdSamplingPruner pruner(vectors.dim(), config.ads_epsilon0,
                              config.ads_seed);
      PdxStore store = pack(pruner.TransformCollection(vectors));
      return make(std::move(store), std::move(pruner));
    }
    case PrunerKind::kBsa: {
      BsaPruner pruner(vectors, config.bsa_multiplier,
                       config.bsa_max_fit_samples);
      PdxStore store = pack(pruner.TransformCollection(vectors));
      return make(std::move(store), std::move(pruner));
    }
    case PrunerKind::kBond: {
      PdxBondPruner pruner(
          ComputeStats(vectors.data(), vectors.count(), vectors.dim()).means,
          *config.bond_order, config.bond_zone_size);
      return make(pack(vectors), std::move(pruner));
    }
  }
  return nullptr;
}

}  // namespace

Result<std::unique_ptr<Searcher>> MakeSearcherFromImage(
    std::shared_ptr<const CollectionImage> image, uint32_t shard,
    size_t count, SearcherConfig config) {
  PDX_RETURN_IF_ERROR(ValidateSearcherConfig(config));
  config = ResolveConfig(std::move(config));
  if (config.quantization == QuantizationKind::kU8) {
    return RestoreQuantizedSearcher(std::move(image), shard, count,
                                    std::move(config));
  }

  // No transform, no packing: the store views the image in the layout the
  // build packed (derived from count, block_capacity and the buckets), and
  // the pruner is reloaded.
  std::unique_ptr<IvfIndex> owned;
  if (config.layout == SearcherLayout::kIvf) {
    Result<std::unique_ptr<IvfIndex>> ivf =
        DecodeIvfIndex(*image, shard, count);
    if (!ivf.ok()) return ivf.status();
    owned = std::move(ivf).value();
  }
  Result<PdxStore> decoded = DecodePdxStore(*image, shard, count, owned.get(),
                                            config.block_capacity);
  if (!decoded.ok()) return decoded.status();
  PdxStore store = std::move(decoded).value();
  const IvfIndex* index = owned.get();
  auto make = [&](auto pruner) -> std::unique_ptr<Searcher> {
    std::unique_ptr<Searcher> searcher =
        std::make_unique<AnySearcherImpl<decltype(pruner)>>(
            std::move(config), std::move(owned), index, std::move(store),
            std::move(pruner));
    searcher->PinImage(std::move(image));
    return searcher;
  };

  switch (config.pruner) {
    case PrunerKind::kLinear:
      return make(NoPruner{});
    case PrunerKind::kAdsampling: {
      Result<Matrix> rotation = DecodeRotation(*image, shard);
      if (!rotation.ok()) return rotation.status();
      if (rotation.value().rows() != store.dim()) {
        return Status::Corruption("collection file " + image->path() +
                                  ": rotation dim disagrees with store");
      }
      return make(AdSamplingPruner(std::move(rotation).value(),
                                   config.ads_epsilon0));
    }
    case PrunerKind::kBsa: {
      Result<PcaImage> pca = DecodePca(*image, shard);
      if (!pca.ok()) return pca.status();
      if (pca.value().components.cols() != store.dim()) {
        return Status::Corruption("collection file " + image->path() +
                                  ": PCA dim disagrees with store");
      }
      // The suffix-energy tables are derived, not persisted: BuildAux (run
      // by the searcher's constructor) is deterministic in the packed
      // lanes, so the rebuilt tables match the saved searcher's bit for
      // bit (the parity tests pin this).
      return make(BsaPruner(Pca::FromParts(std::move(pca.value().mean),
                                           std::move(pca.value().variance),
                                           std::move(pca.value().components)),
                            config.bsa_multiplier));
    }
    case PrunerKind::kBond: {
      Result<std::vector<float>> means = DecodeMeans(*image, shard);
      if (!means.ok()) return means.status();
      return make(PdxBondPruner(std::move(means).value(), *config.bond_order,
                                config.bond_zone_size));
    }
  }
  return Status::Internal("MakeSearcherFromImage: unhandled pruner");
}

Result<std::unique_ptr<Searcher>> MakeSearcher(const VectorSet& vectors,
                                               SearcherConfig config) {
  PDX_RETURN_IF_ERROR(ValidateSearcherConfig(config));
  if (vectors.empty()) {
    return Status::InvalidArgument("MakeSearcher: empty collection");
  }
  config = ResolveConfig(std::move(config));
  std::unique_ptr<IvfIndex> owned;
  if (config.layout == SearcherLayout::kIvf) {
    owned = std::make_unique<IvfIndex>(IvfIndex::Build(vectors, config.ivf));
  }
  const IvfIndex* index = owned.get();
  return BuildSearcher(vectors, std::move(config), std::move(owned), index);
}

Result<std::unique_ptr<Searcher>> MakeSearcher(const VectorSet& vectors,
                                               const IvfIndex& index,
                                               SearcherConfig config) {
  PDX_RETURN_IF_ERROR(ValidateSearcherConfig(config));
  if (vectors.empty()) {
    return Status::InvalidArgument("MakeSearcher: empty collection");
  }
  if (config.layout != SearcherLayout::kIvf) {
    return Status::InvalidArgument(
        "MakeSearcher: an external IVF index requires layout = kIvf");
  }
  if (index.dim() != vectors.dim() || index.count() != vectors.count()) {
    return Status::InvalidArgument(
        "MakeSearcher: index was not built over this collection "
        "(dim/count mismatch)");
  }
  return BuildSearcher(vectors, ResolveConfig(std::move(config)), nullptr,
                       &index);
}

}  // namespace pdx
