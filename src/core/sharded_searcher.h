#ifndef PDX_CORE_SHARDED_SEARCHER_H_
#define PDX_CORE_SHARDED_SEARCHER_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/status.h"
#include "core/any_searcher.h"
#include "storage/vector_set.h"

namespace pdx {

/// How MakeShardedSearcher assigns vectors to shards.
enum class ShardAssignment : uint8_t {
  /// Shard s owns one contiguous global-id range — preserves any locality
  /// already present in the ingestion order.
  kContiguous = 0,
  /// Vector i goes to shard i % num_shards — deliberately spreads hot
  /// ranges so every shard sees a similar slice of the distribution.
  kRoundRobin = 1,
};

const char* ShardAssignmentName(ShardAssignment assignment);

/// Knobs for splitting one logical collection across several searchers.
struct ShardingOptions {
  /// Shards to partition into. Must be > 0; silently clamped to the vector
  /// count so every shard holds at least one vector. 1 builds a plain
  /// (unsharded) searcher.
  size_t num_shards = 1;
  ShardAssignment assignment = ShardAssignment::kContiguous;
};

/// Partitions `vectors` into `sharding.num_shards` shards, builds one
/// searcher per shard through MakeSearcher (any layout x pruner — on kIvf
/// each shard builds its own IVF index over its slice with config.ivf),
/// and returns a facade that scatter-gathers every query:
///
///   - SearchWith runs the query on every shard through the same slot and
///     merges the per-shard top-k lists into one exact global top-k,
///     shard-local ids remapped to global ids. The merge is the (distance,
///     id) order every TopK heap keeps, so with an exact pruner the result
///     is identical to the equivalent unsharded searcher over the same
///     data, ties at the k-th distance included. One caveat, on IVF
///     PDX-BOND only: buckets are visited in centroid order, not id order,
///     so the strict `partial < threshold` predicate can prune a lane tied
///     at *exactly* the k-th distance whose id is lower than a kept one.
///     The distances returned are identical either way; the tied ids may
///     not be.
///   - SearchBatchWith — and so Search and SearchBatch — tiles (shard x
///     query) tasks over the pool it is given, so one query, or one large
///     batch against one collection, saturates the whole pool. With no
///     pool it runs SearchWith query by query. Only k-sized result lists
///     cross shard boundaries.
///   - A call's QueryKnobs::excluded view (global ids) reaches each shard
///     as a slice of the same flags under the shard's local ids, through
///     ExcludedIds::Slice: a contiguous shard's slice starts at its first
///     global id with stride 1, round-robin shard s's at global id s with
///     stride num_shards. Slicing copies nothing and allocates nothing.
///
/// The sharded facade owns all parallelism: it queries each shard only
/// through SearchWith, so no shard ever runs a pool of its own.
///
/// Thread safety matches the facade contract: one querier at a time on
/// the Search/SearchBatch surface, while SearchWith/SearchBatchWith support
/// concurrent callers on disjoint, pre-reserved slot bands — k/nprobe
/// ride on each call, so no shared knob is mutated (the serving layer's
/// replicated dispatchers rely on this).
Result<std::unique_ptr<Searcher>> MakeShardedSearcher(
    const VectorSet& vectors, SearcherConfig config,
    ShardingOptions sharding);

}  // namespace pdx

#endif  // PDX_CORE_SHARDED_SEARCHER_H_
