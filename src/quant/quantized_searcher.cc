#include "quant/quantized_searcher.h"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "core/persist.h"
#include "index/topk.h"
#include "kernels/kernel_dispatch.h"
#include "kernels/nary_kernels.h"
#include "quant/quantized_store.h"

namespace pdx {
namespace {

/// The quantized tier's facade implementation: one SearchWith over per-slot
/// scratch (ReserveScratch up front for concurrent callers), knobs
/// resolved per call; batches run through the base class fan-out.
class QuantizedSearcher final : public Searcher {
 public:
  QuantizedSearcher(SearcherConfig config, QuantizedPdxStore qstore,
                    VectorSet owned_rows, const float* rows,
                    std::unique_ptr<IvfIndex> owned_index,
                    const IvfIndex* index)
      : Searcher(std::move(config), qstore.dim()),
        owned_index_(std::move(owned_index)),
        index_(index),
        qstore_(std::move(qstore)),
        owned_rows_(std::move(owned_rows)),
        rows_(rows) {
    max_block_lanes_ = 0;
    for (size_t b = 0; b < qstore_.num_blocks(); ++b) {
      max_block_lanes_ = std::max(max_block_lanes_, qstore_.BlockCount(b));
    }
  }

  SearcherShape shape() const override {
    SearcherShape shape;
    shape.count = qstore_.count();
    shape.num_blocks = qstore_.num_blocks();
    if (index_ != nullptr) shape.max_nprobe = index_->num_buckets();
    shape.quantized_bytes = qstore_.codes_bytes();
    shape.mapped_bytes = PinnedMappedBytes();
    return shape;
  }

  void ReserveScratch(size_t slots) override { GrowSlots(slots); }

  std::vector<Neighbor> SearchWith(size_t slot, QueryKnobs knobs,
                                   const float* query,
                                   PdxearchProfile* profile) override {
    // Lazy growth for single-threaded convenience; concurrent callers
    // reserve their bands first (growth reallocates slots_).
    if (slot >= slots_.size()) GrowSlots(slot + 1);
    Slot& s = *slots_[slot];
    // k saturates at the vector count: a larger k returns the same
    // results, and the heaps below are sized by it.
    const size_t k =
        std::min(knobs.k > 0 ? knobs.k : config_.k, qstore_.count());
    const size_t nprobe = knobs.nprobe > 0 ? knobs.nprobe : config_.nprobe;
    const size_t dim = qstore_.dim();
    const bool timed = config_.search.collect_phase_times;

    PdxearchProfile result_profile;
    Timer phase;
    qstore_.TransformQuery(query, s.query_prime.data(), s.weights.data());
    if (timed) result_profile.preprocess_ms = phase.ElapsedMillis();

    // Code-space scan: select k * rerank_factor candidates (or the final
    // k when reranking is off). An over-fetch of count() candidates
    // already reranks every scanned vector, so the product saturates
    // there — a huge rerank_factor can neither overflow nor over-allocate.
    const size_t rerank = config_.rerank_factor;
    const size_t vectors = qstore_.count();
    const size_t fetch =
        rerank == 0 ? k
                    : std::max(k, rerank > vectors / k ? vectors : k * rerank);
    TopK candidates(fetch);
    const QuantAccumulateFn accumulate = ActiveKernels().quant_accumulate;
    float* distances = s.distances.data();

    auto scan_block = [&](size_t b) {
      const size_t n = qstore_.BlockCount(b);
      std::memset(distances, 0, n * sizeof(float));
      accumulate(s.query_prime.data(), s.weights.data(), qstore_.BlockData(b),
                 n, 0, dim, distances);
      for (size_t i = 0; i < n; ++i) {
        candidates.Push(qstore_.BlockId(b, i), distances[i]);
      }
      result_profile.blocks_visited += 1;
      result_profile.values_scanned += n * dim;
      result_profile.values_total += n * dim;
      result_profile.dims_scanned += dim;
    };

    if (index_ == nullptr) {
      if (timed) phase.Reset();
      for (size_t b = 0; b < qstore_.num_blocks(); ++b) scan_block(b);
      if (timed) result_profile.distance_ms = phase.ElapsedMillis();
    } else {
      if (timed) phase.Reset();
      const std::vector<uint32_t> ranked = index_->RankBuckets(query);
      if (timed) result_profile.find_buckets_ms = phase.ElapsedMillis();
      if (timed) phase.Reset();
      const size_t probes = std::min(nprobe, ranked.size());
      for (size_t p = 0; p < probes; ++p) {
        const auto range = qstore_.GroupBlockRange(ranked[p]);
        for (size_t b = range.first; b < range.second; ++b) scan_block(b);
      }
      if (timed) result_profile.distance_ms = phase.ElapsedMillis();
    }

    std::vector<Neighbor> results;
    if (rerank == 0) {
      results = candidates.SortedResults();
    } else {
      // Exact rerank on the retained float rows (global-id indexed).
      if (timed) phase.Reset();
      TopK reranked(k);
      for (const Neighbor& candidate : candidates.SortedResults()) {
        reranked.Push(candidate.id,
                      NaryL2(query, rows_ + size_t{candidate.id} * dim, dim));
        result_profile.rerank_candidates += 1;
      }
      results = reranked.SortedResults();
      if (timed) result_profile.distance_ms += phase.ElapsedMillis();
    }
    if (profile != nullptr) *profile = result_profile;
    return results;
  }

  Status ExportSaved(SavedCollection& out) const override {
    out = SavedCollection{};
    out.meta = MetaFromConfig(config_);
    out.meta.dim = dim();
    out.meta.count = qstore_.count();
    SavedShard shard;
    shard.has_quant = true;
    shard.quant_offsets = qstore_.offsets();
    shard.quant_scales = qstore_.scales();
    shard.quant_codes = qstore_.codes_data();
    shard.quant_codes_bytes = qstore_.codes_bytes();
    shard.quant_rows = rows_;
    if (index_ != nullptr) ExportIvf(*index_, shard);
    out.shards.push_back(std::move(shard));
    return Status::OK();
  }

 private:
  /// Per-slot scratch: the code-space query transform and one block's worth
  /// of lane distances. Sized at construction so the dispatch path never
  /// allocates scratch.
  struct Slot {
    explicit Slot(size_t dim, size_t max_lanes)
        : query_prime(dim), weights(dim), distances(max_lanes) {}
    std::vector<float> query_prime;
    std::vector<float> weights;
    std::vector<float> distances;
  };

  void GrowSlots(size_t n) {
    while (slots_.size() < n) {
      slots_.push_back(
          std::make_unique<Slot>(qstore_.dim(), max_block_lanes_));
    }
  }

  std::unique_ptr<IvfIndex> owned_index_;
  const IvfIndex* index_ = nullptr;
  QuantizedPdxStore qstore_;
  /// Full-precision rows retained for the exact rerank pass; rows_ indexes
  /// by global id (owned_rows_.data() for built searchers, the image's
  /// kQuantRows view for loaded ones).
  VectorSet owned_rows_;
  const float* rows_ = nullptr;
  size_t max_block_lanes_ = 0;
  std::vector<std::unique_ptr<Slot>> slots_;
};

}  // namespace

std::unique_ptr<Searcher> BuildQuantizedSearcher(
    const VectorSet& vectors, SearcherConfig config,
    std::unique_ptr<IvfIndex> owned, const IvfIndex* index) {
  QuantizedPdxStore qstore =
      index == nullptr
          ? QuantizedPdxStore::FromVectorSet(vectors, config.block_capacity)
          : QuantizedPdxStore::FromGroups(vectors, index->buckets(),
                                          config.block_capacity);
  VectorSet rows = vectors.Clone();
  const float* rows_data = rows.data();
  return std::make_unique<QuantizedSearcher>(
      std::move(config), std::move(qstore), std::move(rows), rows_data,
      std::move(owned), index);
}

Result<std::unique_ptr<Searcher>> RestoreQuantizedSearcher(
    std::shared_ptr<const CollectionImage> image, uint32_t shard,
    size_t count, SearcherConfig config) {
  Result<QuantImage> quant = DecodeQuant(*image, shard, count);
  if (!quant.ok()) return quant.status();
  QuantImage& qi = quant.value();

  std::unique_ptr<IvfIndex> owned;
  std::vector<size_t> group_sizes;
  std::vector<VectorId> ids;
  if (config.layout == SearcherLayout::kIvf) {
    Result<std::unique_ptr<IvfIndex>> ivf =
        DecodeIvfIndex(*image, shard, count);
    if (!ivf.ok()) return ivf.status();
    owned = std::move(ivf).value();
    group_sizes.reserve(owned->num_buckets());
    ids.reserve(qi.count);
    for (const std::vector<VectorId>& bucket : owned->buckets()) {
      group_sizes.push_back(bucket.size());
      ids.insert(ids.end(), bucket.begin(), bucket.end());
    }
  } else {
    group_sizes.push_back(qi.count);
  }

  QuantizedPdxStore qstore = QuantizedPdxStore::FromView(
      qi.dim, std::move(qi.offsets), std::move(qi.scales), group_sizes,
      std::move(ids), config.block_capacity, qi.codes);
  const IvfIndex* index = owned.get();
  std::unique_ptr<Searcher> searcher = std::make_unique<QuantizedSearcher>(
      std::move(config), std::move(qstore), VectorSet{}, qi.rows,
      std::move(owned), index);
  searcher->PinImage(std::move(image));
  return searcher;
}

}  // namespace pdx
