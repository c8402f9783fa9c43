#include "core/persist.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

namespace pdx {

SavedMeta MetaFromConfig(const SearcherConfig& config) {
  SavedMeta meta;
  meta.layout = static_cast<uint32_t>(config.layout);
  meta.pruner = static_cast<uint32_t>(config.pruner);
  meta.metric = static_cast<uint32_t>(config.metric);
  meta.k = config.k;
  meta.nprobe = config.nprobe;
  meta.block_capacity = config.block_capacity;
  meta.bond_order = static_cast<uint32_t>(
      config.bond_order.value_or(DimensionOrder::kDimensionZones));
  meta.bond_zone_size = static_cast<uint32_t>(config.bond_zone_size);
  meta.ads_epsilon0 = config.ads_epsilon0;
  meta.quantization = static_cast<uint32_t>(config.quantization);
  // Saturated, not wrapped: every factor at or past the vector count
  // (< 2^32) serves the same results, so the u32 field loses nothing.
  meta.rerank_factor = static_cast<uint32_t>(
      std::min<size_t>(config.rerank_factor, UINT32_MAX));
  meta.ads_seed = config.ads_seed;
  meta.bsa_multiplier = config.bsa_multiplier;
  meta.bsa_max_fit_samples = config.bsa_max_fit_samples;
  meta.ivf_num_buckets = config.ivf.num_buckets;
  meta.ivf_max_iterations = config.ivf.max_iterations;
  meta.ivf_seed = config.ivf.seed;
  meta.search_selection_fraction = config.search.selection_fraction;
  meta.search_adaptive_steps = config.search.adaptive_steps ? 1 : 0;
  meta.search_initial_step = config.search.initial_step;
  meta.search_fixed_step = config.search.fixed_step;
  return meta;
}

Status ConfigFromMeta(const SavedMeta& meta, SearcherConfig* config,
                      ShardingOptions* sharding, MutationConfig* mutation) {
  SearcherConfig out;
  out.layout = static_cast<SearcherLayout>(meta.layout);
  out.pruner = static_cast<PrunerKind>(meta.pruner);
  out.metric = static_cast<Metric>(meta.metric);
  out.k = meta.k;
  out.nprobe = meta.nprobe;
  out.block_capacity = meta.block_capacity;
  if (meta.bond_order >
      static_cast<uint32_t>(DimensionOrder::kDimensionZones)) {
    return Status::Corruption(
        "collection meta: unknown dimension-order value " +
        std::to_string(meta.bond_order));
  }
  out.bond_order = static_cast<DimensionOrder>(meta.bond_order);
  out.bond_zone_size = meta.bond_zone_size;
  out.ads_epsilon0 = meta.ads_epsilon0;
  // Former reserved fields: pre-quantization files carry zeros, which
  // decode to kNone / rerank_factor 0 (the latter is only read under kU8).
  if (meta.quantization > static_cast<uint32_t>(QuantizationKind::kU8)) {
    return Status::Corruption("collection meta: unknown quantization value " +
                              std::to_string(meta.quantization));
  }
  out.quantization = static_cast<QuantizationKind>(meta.quantization);
  out.rerank_factor = meta.rerank_factor;
  out.ads_seed = meta.ads_seed;
  out.bsa_multiplier = meta.bsa_multiplier;
  out.bsa_max_fit_samples = meta.bsa_max_fit_samples;
  out.ivf.num_buckets = meta.ivf_num_buckets;
  out.ivf.max_iterations = static_cast<int>(meta.ivf_max_iterations);
  out.ivf.seed = meta.ivf_seed;
  out.search.selection_fraction = meta.search_selection_fraction;
  out.search.adaptive_steps = meta.search_adaptive_steps != 0;
  out.search.initial_step = meta.search_initial_step;
  out.search.fixed_step = meta.search_fixed_step;
  // Re-validating here turns any enum bit-rot the checksums cannot
  // distinguish from intent (the file IS self-consistent) into a clean
  // failure before a searcher is built over it.
  PDX_RETURN_IF_ERROR(ValidateSearcherConfig(out));
  if (sharding != nullptr) {
    if (meta.assignment >
        static_cast<uint32_t>(ShardAssignment::kRoundRobin)) {
      return Status::Corruption(
          "collection meta: unknown shard-assignment value " +
          std::to_string(meta.assignment));
    }
    sharding->num_shards = meta.num_shards;
    sharding->assignment = static_cast<ShardAssignment>(meta.assignment);
  }
  if (mutation != nullptr) {
    mutation->compact_threshold = meta.compact_threshold;
    mutation->delta_block_capacity = meta.delta_block_capacity;
  }
  if (config != nullptr) *config = std::move(out);
  return Status::OK();
}

namespace {

/// One group of `count` vectors in row order: the flat store's lanes, and
/// the IVF centroids'.
std::vector<std::vector<VectorId>> RowOrder(size_t count) {
  std::vector<std::vector<VectorId>> groups(1, std::vector<VectorId>(count));
  std::iota(groups[0].begin(), groups[0].end(), 0);
  return groups;
}

/// The store of `groups` of `dim`-d vectors split by `block_capacity`,
/// viewing the arena (`kind`, `unit`) of `image`, which must hold exactly
/// that layout.
Result<PdxStore> DecodeStoreView(
    const CollectionImage& image, SectionKind kind, uint32_t unit,
    size_t dim, const std::vector<std::vector<VectorId>>& groups,
    size_t block_capacity) {
  Result<const float*> arena =
      DecodeArena(image, kind, unit,
                  PdxStore::ArenaFloats(dim, groups, block_capacity));
  if (!arena.ok()) return arena.status();
  return PdxStore::FromView(dim, groups, block_capacity, arena.value());
}

}  // namespace

void ExportIvf(const IvfIndex& index, SavedShard& shard) {
  shard.has_ivf = true;
  shard.centroid_arena = index.centroids_pdx().arena_data();
  shard.centroid_arena_floats = index.centroids_pdx().arena_floats();
  shard.bucket_offsets.reserve(index.num_buckets() + 1);
  shard.bucket_offsets.push_back(0);
  for (const std::vector<VectorId>& bucket : index.buckets()) {
    shard.bucket_ids.insert(shard.bucket_ids.end(), bucket.begin(),
                            bucket.end());
    shard.bucket_offsets.push_back(shard.bucket_ids.size());
  }
}

Result<PdxStore> DecodePdxStore(const CollectionImage& image,
                                uint32_t shard, size_t count,
                                const IvfIndex* index, size_t block_capacity) {
  if (index != nullptr) {
    return DecodeStoreView(image, SectionKind::kStoreArena, shard,
                           image.meta().dim, index->buckets(),
                           block_capacity);
  }
  return DecodeStoreView(image, SectionKind::kStoreArena, shard,
                         image.meta().dim, RowOrder(count), block_capacity);
}

Result<std::unique_ptr<IvfIndex>> DecodeIvfIndex(const CollectionImage& image,
                                                 uint32_t shard,
                                                 size_t count) {
  auto buckets = DecodeBuckets(image, shard, count);
  if (!buckets.ok()) return buckets.status();
  Result<PdxStore> centroids = DecodeStoreView(
      image, SectionKind::kIvfCentroids, shard, image.meta().dim,
      RowOrder(buckets.value().size()), kPdxBlockSize);
  if (!centroids.ok()) return centroids.status();
  return std::make_unique<IvfIndex>(IvfIndex::FromParts(
      count, std::move(centroids).value(), std::move(buckets).value()));
}

Result<LoadedCollection> LoadCollectionFromImage(
    std::shared_ptr<const CollectionImage> image) {
  LoadedCollection out;
  const SavedMeta& meta = image->meta();
  PDX_RETURN_IF_ERROR(
      ConfigFromMeta(meta, &out.config, &out.sharding, &out.mutation));
  out.source = image->source();
  out.file_bytes = image->file_bytes();

  if (meta.mutable_snapshot != 0) {
    auto restored = MutableSearcher::Restore(image, out.config, out.mutation,
                                             out.sharding);
    if (!restored.ok()) return restored.status();
    std::unique_ptr<MutableSearcher> live = std::move(restored).value();
    out.live = live.get();
    out.searcher = std::move(live);
  } else {
    auto made = MakeShardedSearcherFromImage(std::move(image), out.config,
                                             out.sharding);
    if (!made.ok()) return made.status();
    out.searcher = std::move(made).value();
  }
  return out;
}

Result<LoadedCollection> LoadCollection(const std::string& path,
                                        LoadOptions options) {
  auto image = CollectionImage::Load(path, options.allow_mmap);
  if (!image.ok()) return image.status();
  return LoadCollectionFromImage(std::move(image).value());
}

}  // namespace pdx
