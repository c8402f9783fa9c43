#ifndef PDX_CORE_PERSIST_H_
#define PDX_CORE_PERSIST_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "core/any_searcher.h"
#include "core/mutable_searcher.h"
#include "core/sharded_searcher.h"
#include "storage/collection_format.h"

namespace pdx {

/// Serializes the *resolved* config into the fixed on-disk metadata
/// (storage/collection_format.h). dim/count/num_shards/assignment and the
/// mutable-snapshot fields are the exporter's to fill.
SavedMeta MetaFromConfig(const SearcherConfig& config);

/// Decodes saved metadata back into the (config, sharding, mutation)
/// triple it was serialized from. Enum fields are validated — a corrupt or
/// hand-edited file fails here with a clean Status instead of driving a
/// switch off its rails. `sharding`/`mutation` may be null when the caller
/// only needs the searcher config.
Status ConfigFromMeta(const SavedMeta& meta, SearcherConfig* config,
                      ShardingOptions* sharding, MutationConfig* mutation);

/// Adds `index`'s sections to `shard`: the centroid PDX arena (persisted,
/// not rebuilt at load — repacking would cost time and let a future
/// packing change silently alter the saved index's bucket ranking; the
/// loader transposes it back to the centroid rows) and the bucket lists.
/// Every tier's exporter uses this one.
void ExportIvf(const IvfIndex& index, SavedShard& shard);

/// Decodes shard `shard`'s float store: its `count` vectors grouped by
/// `index`'s buckets (in row order when `index` is null, the flat layout)
/// and split by `block_capacity`. The layout and lane ids are derived, not
/// read, and the arena must hold exactly that layout's floats. The store's
/// blocks view the image, which must outlive the store.
Result<PdxStore> DecodePdxStore(const CollectionImage& image,
                                uint32_t shard, size_t count,
                                const IvfIndex* index, size_t block_capacity);

/// Reassembles shard `shard`'s IVF index from `image` — no k-means runs:
/// the bucket lists, which must partition the shard's `count` vectors, and
/// the centroid arena, whose layout (one group of num_buckets centroids in
/// kPdxBlockSize blocks, as IvfIndex::Build packs them) is derived.
Result<std::unique_ptr<IvfIndex>> DecodeIvfIndex(const CollectionImage& image,
                                                 uint32_t shard,
                                                 size_t count);

/// Restores one unsharded searcher over the `count` vectors of shard
/// `shard` of `image`: the stores become zero-copy views into the image
/// (which the searcher pins), their layouts and lane ids are derived from
/// `count`, the config's block_capacity and (on IVF) the bucket lists,
/// pruner state is reloaded rather than re-derived, and neither k-means
/// nor block packing runs — the persistence tests pin both counters at
/// zero across this call. `config` must be the resolved config decoded
/// from the image's meta.
Result<std::unique_ptr<Searcher>> MakeSearcherFromImage(
    std::shared_ptr<const CollectionImage> image, uint32_t shard,
    size_t count, SearcherConfig config);

/// Sharded restore: one image-backed searcher per shard (unit s) behind
/// the scatter-gather facade. Shard maps, and with them each shard's
/// vector count, are recomputed from (count, num_shards, assignment) — the
/// assignment is deterministic, so the recomputed maps are identical to
/// the saved searcher's and merged results match byte for byte. With a
/// single shard this is MakeSearcherFromImage of shard 0 — the one restore
/// entry point for any shard count.
Result<std::unique_ptr<Searcher>> MakeShardedSearcherFromImage(
    std::shared_ptr<const CollectionImage> image, SearcherConfig config,
    ShardingOptions sharding);

/// A collection restored from disk plus everything the serving layer
/// reports about the restore.
struct LoadedCollection {
  std::unique_ptr<Searcher> searcher;
  /// Non-null when the file was a mutable snapshot: the same object as
  /// `searcher`, typed for the Add/Delete/Compact surface.
  MutableSearcher* live = nullptr;
  SearcherConfig config;    ///< Resolved config decoded from the meta.
  ShardingOptions sharding;
  MutationConfig mutation;
  std::string source;       ///< "mmap" or "loaded" (heap fallback).
  /// The file's size; the bytes served from its mapping are the
  /// searcher's shape().mapped_bytes.
  uint64_t file_bytes = 0;
};

struct LoadOptions {
  /// false forces the heap-copy fallback (tests exercise both sources).
  bool allow_mmap = true;
};

/// Loads, validates, and reconstructs the collection saved at `path`,
/// dispatching on the meta: mutable snapshot -> MutableSearcher::Restore,
/// else MakeShardedSearcherFromImage (plain for one shard). The expensive
/// part is the validation pass over the file; construction itself is
/// view-building.
Result<LoadedCollection> LoadCollection(const std::string& path,
                                        LoadOptions options = {});

/// Same, over an already-loaded image (callers that pre-validate or share
/// one image across replicas).
Result<LoadedCollection> LoadCollectionFromImage(
    std::shared_ptr<const CollectionImage> image);

}  // namespace pdx

#endif  // PDX_CORE_PERSIST_H_
