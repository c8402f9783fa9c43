#ifndef PDX_QUANT_QUANTIZED_SEARCHER_H_
#define PDX_QUANT_QUANTIZED_SEARCHER_H_

#include <cstdint>
#include <memory>

#include "common/status.h"
#include "core/any_searcher.h"
#include "storage/collection_format.h"
#include "storage/vector_set.h"

namespace pdx {

/// Builders for the u8 quantized serving tier (SearcherConfig::quantization
/// = kU8): a dimension-major u8 code scan (quant/quantized_store.h) selects
/// k * rerank_factor candidates, whose exact distances are recomputed on the
/// retained full-precision rows. Products implement the full Searcher
/// facade — per-slot SearchWith bands, ExportSaved to the PDXC quant
/// sections, a shape() with the code bytes and the code blocks — so they
/// compose with MakeShardedSearcher and the serving layer unchanged.
///
/// Both are internal to the facade: MakeSearcher and MakeSearcherFromImage
/// validate and resolve `config`, then route here when config.quantization
/// is kU8.

/// Quantizes and serves `vectors`. `index` is null on the flat layout
/// (every block scanned); on kIvf the nprobe nearest buckets' blocks are
/// scanned. `owned` is null when the caller keeps ownership of `index`.
std::unique_ptr<Searcher> BuildQuantizedSearcher(
    const VectorSet& vectors, SearcherConfig config,
    std::unique_ptr<IvfIndex> owned, const IvfIndex* index);

/// Restores a quantized searcher over the `count` vectors of shard
/// `shard` from its kQuantParams / kQuantCodes / kQuantRows sections of
/// `image`: codes and rerank rows become zero-copy views into the image
/// (which the searcher pins), the code blocks and (on IVF) lane ids are
/// derived from `count`, block_capacity and the bucket lists, and no
/// requantization runs — the persistence tests pin QuantizedPackCount at
/// zero across this call.
Result<std::unique_ptr<Searcher>> RestoreQuantizedSearcher(
    std::shared_ptr<const CollectionImage> image, uint32_t shard,
    size_t count, SearcherConfig config);

}  // namespace pdx

#endif  // PDX_QUANT_QUANTIZED_SEARCHER_H_
