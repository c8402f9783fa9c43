#ifndef PDX_CORE_MUTABLE_SEARCHER_H_
#define PDX_CORE_MUTABLE_SEARCHER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/any_searcher.h"
#include "core/sharded_searcher.h"
#include "index/topk.h"
#include "storage/delta_store.h"
#include "storage/vector_set.h"

namespace pdx {

class CollectionImage;
struct SavedCollection;

/// Knobs for the live-collection machinery.
struct MutationConfig {
  /// Background-compaction trigger: once the delta region (or the tombstone
  /// count) reaches this many vectors, the owner should fold the delta into
  /// a freshly built base. 0 disables the trigger (NeedsCompaction() stays
  /// false; explicit Compact() still works).
  size_t compact_threshold = 16384;
  /// Lanes per delta PDX block; 0 = kPdxBlockSize. Appends repack one block
  /// of this size, so it bounds per-append work (and the paper's Section 3
  /// repack story argues for keeping it small).
  size_t delta_block_capacity = 0;
};

/// Point-in-time state of a mutable collection's delta and tombstones; the
/// live count and the base's blocks are its SearcherShape.
struct MutationStats {
  size_t base_rows = 0;    ///< Rows in the immutable base searcher.
  size_t delta_rows = 0;   ///< Rows in the append delta region.
  size_t delta_blocks = 0;
  size_t tombstones = 0;   ///< Dead slots awaiting compaction (base + delta).
  uint64_t compactions = 0;  ///< Completed Compact() calls, lifetime.
};

/// A `Searcher` that accepts Add/Delete/upsert while being queried, with no
/// full rebuild on the mutation path — the paper's Section 3 "Inserts and
/// Updates" argument turned into a serving-grade facade.
///
/// Structure: an immutable base (a plain MakeSearcher/MakeShardedSearcher
/// product over the rows that existed at build time), an append-only
/// DeltaStore of PDX blocks whose partial tail repacks in place, a tombstone
/// overlay, and an external-id <-> slot map. A query runs the base searcher
/// at k with the tombstone bitmap as its QueryKnobs::excluded view (when a
/// base row is dead), so a dead base row never enters a heap and the base
/// prunes against the k-th distance of its live rows at any tombstone
/// count: a query between folds costs what a freshly folded collection
/// costs. It then linear-scans the delta blocks with the dispatched PDX
/// kernel, skips dead delta slots, and merges one exact top-k through
/// per-slot scratch. Because the vertical kernels accumulate per lane in
/// ascending dimension order (and are compiled with -ffp-contract=off), a
/// vector's distance is bit-identical whether it sits in the base or the
/// delta — so for exact pruners (kLinear always; kBond under
/// DimensionOrder::kSequential) results are byte-identical to a fresh
/// rebuild over the surviving rows, which the parity tests pin. BOND under
/// the data-dependent default orders and ADSampling/BSA stay id-exact /
/// approximate respectively, matching their single-searcher contracts.
///
/// Compact() folds delta + survivors into a new base built OFF-lock, then
/// swaps it in under an exclusive lock, reconciling any adds/deletes that
/// raced the build. Ingest cost is O(delta_block_capacity x dim) per append
/// — independent of base size; only compaction pays the rebuild, and the
/// serving layer runs that on a background thread.
///
/// Thread safety goes beyond the base facade: Add/Delete/Compact may run
/// concurrently with SearchWith/SearchBatchWith from any number of
/// dispatcher threads (reader-writer lock inside). The inherited
/// single-querier restriction still applies to the plain Search/SearchBatch
/// surface: one querier at a time there, though mutations may interleave.
///
/// Every batch runs its base pass on the pool SearchBatchWith is given, so
/// a sharded base keeps its (shard x query) tiling; the facade forwards no
/// pool or thread setting to the base, before or after a compaction.
///
/// External ids are uint64 at the API (wire-friendly) but must fit VectorId
/// (< kInvalidVectorId), since merged results carry them in Neighbor::id.
class MutableSearcher final : public Searcher {
 public:
  /// Builds a mutable collection over `vectors` (copied — unlike the plain
  /// factories, the caller's set may die immediately). Initial external ids
  /// are 0..count-1, matching row order. With sharding.num_shards above
  /// one the base is a sharded scatter-gather searcher; appends land in one
  /// shared delta region and compaction re-spreads all rows across shards
  /// via the configured assignment (so shard sizes re-balance at each
  /// compaction rather than per append). num_shards == 0 fails with
  /// InvalidArgument.
  static Result<std::unique_ptr<MutableSearcher>> Make(
      const VectorSet& vectors, SearcherConfig config,
      MutationConfig mutation = {}, ShardingOptions sharding = {});

  /// Rebuilds a live collection from a mutable snapshot (a file written by
  /// Save with meta.mutable_snapshot = 1): the base searcher restores as
  /// zero-copy views over the image with no k-means or packing, then the
  /// delta rows, tombstone bitmap, and id maps are replayed on top —
  /// searches resume exactly where the saved collection left off,
  /// mid-delta and all. `config`/`mutation`/`sharding` must be the triple
  /// decoded from the image's meta (ConfigFromMeta).
  static Result<std::unique_ptr<MutableSearcher>> Restore(
      std::shared_ptr<const CollectionImage> image, SearcherConfig config,
      MutationConfig mutation, ShardingOptions sharding);

  // -- Mutation surface -----------------------------------------------------

  /// Appends `count` row-major `dim()`-float rows. With `ids` == nullptr
  /// each row gets the next auto id (max assigned id + 1); with `ids`,
  /// ids[i] names row i and an existing id is an upsert: the old vector is
  /// tombstoned and the row appended under the same id. Validation is
  /// all-or-nothing; on success returns the assigned ids in row order.
  Result<std::vector<uint64_t>> Add(const float* rows, size_t count,
                                    const uint64_t* ids = nullptr);

  /// Tombstones the vector with external id `id`; NotFound if absent.
  Status Delete(uint64_t id);

  /// Batch delete; ids not present are reported through `missing` (when
  /// non-null) instead of failing the batch. Returns the number deleted.
  size_t DeleteBatch(const uint64_t* ids, size_t count,
                     std::vector<uint64_t>* missing = nullptr);

  /// True once delta rows or tombstones reached compact_threshold (> 0).
  bool NeedsCompaction() const;

  /// Folds the delta into a freshly built base over the surviving rows and
  /// clears tombstones. The expensive build runs without blocking searches
  /// or mutations; only the final swap takes the exclusive lock, where
  /// mutations that raced the build are carried over (re-tombstoned /
  /// re-appended to a fresh delta). Concurrent Compact() calls serialize.
  /// With zero survivors the old base is kept (every slot stays
  /// tombstoned); the searcher remains correct and empty-resulted.
  Status Compact();

  MutationStats mutation_stats() const;

  // -- Persistence surface --------------------------------------------------

  /// Snapshots the whole live state — base, delta, tombstones, id maps —
  /// into one collection file. Runs under the shared lock (the export
  /// borrows pointers into live arenas, so the write must too): searches
  /// keep flowing; mutations wait for the write. The result restores via
  /// Restore / LoadCollection.
  Status Save(const std::string& path) const override;
  Status ExportSaved(SavedCollection& out) const override;

  // -- Searcher surface -----------------------------------------------------

  std::vector<Neighbor> SearchWith(size_t slot, QueryKnobs knobs,
                                   const float* query,
                                   PdxearchProfile* profile) override;
  /// Takes the shared lock once for the whole batch, so every query of it
  /// sees the same collection state, runs the base searcher's batch with
  /// the tombstones excluded, then merges the delta per query.
  std::vector<std::vector<Neighbor>> SearchBatchWith(
      size_t slot, QueryKnobs knobs, const float* queries, size_t num_queries,
      ThreadPool* pool, PdxearchProfile* per_query) override;
  void ReserveScratch(size_t slots) override;

  /// The current base searcher's shape with the live count (base + delta
  /// - tombstones); the delta's blocks are mutation_stats().delta_blocks.
  SearcherShape shape() const override;

 private:
  MutableSearcher(SearcherConfig config, MutationConfig mutation,
                  ShardingOptions sharding, std::unique_ptr<Searcher> inner,
                  VectorSet base_rows);

  Status ExportSavedLocked(SavedCollection& out) const;

  size_t LiveCountLocked() const {
    return slot_ids_.size() - base_dead_ - delta_dead_;
  }
  const float* RowLocked(size_t slot) const {
    return slot < base_count_ ? base_rows_.Vector(slot)
                              : delta_.rows().Vector(slot - base_count_);
  }
  void TombstoneLocked(size_t slot);
  Status ValidateAddLocked(const float* rows, size_t count,
                           const uint64_t* ids) const;
  /// The base searcher's knobs for one query: k saturated at the slot
  /// count (no query returns more, and the merge heap is sized by it), and
  /// the tombstone bitmap, whose first base_count_ entries are the base's
  /// ids, as the excluded view when a base row is dead.
  QueryKnobs BaseQueryLocked(QueryKnobs knobs) const {
    knobs.k = std::min(knobs.k > 0 ? knobs.k : config_.k, slot_ids_.size());
    knobs.excluded = base_dead_ > 0 ? ExcludedIds{dead_.data()} : ExcludedIds{};
    return knobs;
  }
  /// Merges the live delta rows into `results`, the base's answer for
  /// `query` (live base slots, sorted), keeping the `k` nearest through
  /// slot `slot`'s merge scratch, then maps slots to external ids. Adds the
  /// delta scan work to `work` when non-null.
  void MergeLocked(size_t slot, const float* query, size_t k,
                   std::vector<Neighbor>& results, PdxearchProfile* work);

  /// Guards all mutable state below. Searches take it shared, mutations and
  /// the compaction swap take it exclusive. Lock order with owners: any
  /// external mutex (e.g. the service mutex) first, this lock second —
  /// Compact() releases it before returning.
  mutable std::shared_mutex state_mutex_;
  /// Serializes whole Compact() calls (snapshot -> build -> swap).
  std::mutex compact_mutex_;

  MutationConfig mutation_;
  ShardingOptions sharding_;
  std::unique_ptr<Searcher> inner_;  ///< Base searcher over base_rows_.
  VectorSet base_rows_;              ///< Horizontal copy: compaction source.
  size_t base_count_ = 0;
  DeltaStore delta_;  ///< Slots [base_count_, base_count_ + delta count).
  std::vector<uint64_t> slot_ids_;                 ///< slot -> external id.
  std::unordered_map<uint64_t, size_t> id_to_slot_;  ///< Live ids only.
  std::vector<uint8_t> dead_;                      ///< Tombstone bitmap.
  size_t base_dead_ = 0;
  size_t delta_dead_ = 0;
  uint64_t next_auto_id_ = 0;
  uint64_t compactions_ = 0;
  size_t reserved_slots_ = 0;

  /// One slot's delta-merge scratch: the merge heap and one delta block's
  /// lane distances. A slot's buffers grow only on calls through that
  /// slot, so they stop allocating once warm.
  struct MergeScratch {
    TopK heap{1};
    std::vector<float> distances;
  };
  /// Grown by ReserveScratch under the exclusive lock; a slot past its end
  /// merges through scratch of its own, which allocates.
  std::vector<MergeScratch> merge_scratch_;
};

}  // namespace pdx

#endif  // PDX_CORE_MUTABLE_SEARCHER_H_
