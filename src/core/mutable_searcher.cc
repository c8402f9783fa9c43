#include "core/mutable_searcher.h"

#include <algorithm>
#include <string>
#include <utility>

#include "core/persist.h"
#include "index/topk.h"
#include "kernels/kernel_dispatch.h"
#include "storage/collection_format.h"

namespace pdx {

Result<std::unique_ptr<MutableSearcher>> MutableSearcher::Make(
    const VectorSet& vectors, SearcherConfig config, MutationConfig mutation,
    ShardingOptions sharding) {
  if (vectors.count() >= kInvalidVectorId) {
    return Status::InvalidArgument(
        "MutableSearcher: collection size exceeds the VectorId slot space");
  }
  // Resolved here so the facade's config (what Save persists) carries the
  // concrete block/order values, not "default" markers.
  config = ResolveConfig(std::move(config));
  auto built = MakeShardedSearcher(vectors, config, sharding);
  if (!built.ok()) return built.status();
  return std::unique_ptr<MutableSearcher>(
      new MutableSearcher(std::move(config), mutation, sharding,
                          std::move(built).value(), vectors.Clone()));
}

Result<std::unique_ptr<MutableSearcher>> MutableSearcher::Restore(
    std::shared_ptr<const CollectionImage> image, SearcherConfig config,
    MutationConfig mutation, ShardingOptions sharding) {
  const SavedMeta& meta = image->meta();
  auto decoded = DecodeMutable(*image);
  if (!decoded.ok()) return decoded.status();
  MutableImage mut = std::move(decoded).value();
  if (mut.raw_count != meta.count || mut.raw_dim != meta.dim) {
    return Status::Corruption(
        "mutable restore: raw-row section shape does not match the "
        "collection meta");
  }
  if (mut.delta_count > 0 && mut.delta_dim != meta.dim) {
    return Status::Corruption(
        "mutable restore: delta-row dimensionality does not match the "
        "collection meta");
  }

  // The base restores exactly like an immutable collection: zero-copy
  // views over the image, no k-means, no packing.
  auto inner = MakeShardedSearcherFromImage(image, config, sharding);
  if (!inner.ok()) return inner.status();

  // Compaction re-reads base rows, so the facade needs an owned horizontal
  // copy (the image may be dropped by a later compaction swap).
  VectorSet base_rows =
      VectorSet::FromRowMajor(mut.raw_rows, mut.raw_count, mut.raw_dim);
  std::unique_ptr<MutableSearcher> live(
      new MutableSearcher(std::move(config), mutation, sharding,
                          std::move(inner).value(), std::move(base_rows)));

  // Replay the delta over the ctor's base-only state. Slots are assigned
  // densely on append (slot i of the delta is base_count + i — Compact
  // preserves this); a snapshot violating it was not written by Save.
  for (size_t i = 0; i < mut.delta_count; ++i) {
    const size_t slot = live->base_count_ + i;
    if (mut.delta_slots[i] != slot) {
      return Status::Corruption(
          "mutable restore: delta slot ids are not dense over the base");
    }
    live->delta_.Append(mut.delta_rows + i * mut.delta_dim,
                        static_cast<VectorId>(slot));
  }

  // The saved id maps and tombstones replace the ctor's identity maps
  // wholesale; the derived counts and the live-id index are recomputed.
  live->slot_ids_ = std::move(mut.slot_ids);
  live->dead_ = std::move(mut.dead);
  live->base_dead_ = 0;
  live->delta_dead_ = 0;
  live->id_to_slot_.clear();
  live->id_to_slot_.reserve(live->slot_ids_.size());
  for (size_t slot = 0; slot < live->slot_ids_.size(); ++slot) {
    if (live->dead_[slot]) {
      if (slot < live->base_count_) {
        ++live->base_dead_;
      } else {
        ++live->delta_dead_;
      }
    } else {
      live->id_to_slot_[live->slot_ids_[slot]] = slot;
    }
  }
  live->next_auto_id_ = meta.next_auto_id;
  live->compactions_ = meta.compactions;
  // No pin on the image here: everything above was copied out of it, and
  // the base pins what it views, so the fold that replaces the base
  // releases the file.
  return live;
}

MutableSearcher::MutableSearcher(SearcherConfig config,
                                 MutationConfig mutation,
                                 ShardingOptions sharding,
                                 std::unique_ptr<Searcher> inner,
                                 VectorSet base_rows)
    : Searcher(std::move(config), base_rows.dim()),
      mutation_(mutation),
      sharding_(sharding),
      inner_(std::move(inner)),
      base_rows_(std::move(base_rows)) {
  base_count_ = base_rows_.count();
  delta_ = DeltaStore(dim(), mutation_.delta_block_capacity);
  slot_ids_.resize(base_count_);
  dead_.assign(base_count_, 0);
  id_to_slot_.reserve(base_count_);
  for (size_t slot = 0; slot < base_count_; ++slot) {
    slot_ids_[slot] = slot;
    id_to_slot_.emplace(slot, slot);
  }
  next_auto_id_ = base_count_;
}

// -- Mutation surface -------------------------------------------------------

Status MutableSearcher::ValidateAddLocked(const float* rows, size_t count,
                                          const uint64_t* ids) const {
  if (rows == nullptr) {
    return Status::InvalidArgument("Add: rows is null");
  }
  // Slots are stored as VectorId inside the delta blocks, so the slot space
  // is bounded by kInvalidVectorId regardless of the 64-bit external ids.
  if (slot_ids_.size() + count >= kInvalidVectorId) {
    return Status::ResourceExhausted(
        "Add: collection slot space exhausted (compact to reclaim "
        "tombstoned slots)");
  }
  if (ids != nullptr) {
    for (size_t r = 0; r < count; ++r) {
      if (ids[r] >= kInvalidVectorId) {
        return Status::InvalidArgument(
            "Add: id " + std::to_string(ids[r]) +
            " does not fit the VectorId result space (must be < " +
            std::to_string(kInvalidVectorId) + ")");
      }
    }
  } else if (next_auto_id_ + count >= kInvalidVectorId) {
    return Status::ResourceExhausted("Add: auto-id space exhausted");
  }
  return Status::OK();
}

void MutableSearcher::TombstoneLocked(size_t slot) {
  dead_[slot] = 1;
  if (slot < base_count_) {
    ++base_dead_;
  } else {
    ++delta_dead_;
  }
}

Result<std::vector<uint64_t>> MutableSearcher::Add(const float* rows,
                                                   size_t count,
                                                   const uint64_t* ids) {
  if (count == 0) return std::vector<uint64_t>{};
  std::unique_lock<std::shared_mutex> lock(state_mutex_);
  Status valid = ValidateAddLocked(rows, count, ids);
  if (!valid.ok()) return valid;
  std::vector<uint64_t> assigned;
  assigned.reserve(count);
  for (size_t r = 0; r < count; ++r) {
    const uint64_t id = ids != nullptr ? ids[r] : next_auto_id_;
    auto it = id_to_slot_.find(id);
    if (it != id_to_slot_.end()) {
      // Upsert: the old vector dies, the row below inherits the id.
      TombstoneLocked(it->second);
    }
    const size_t slot = slot_ids_.size();
    delta_.Append(rows + r * dim(), static_cast<VectorId>(slot));
    slot_ids_.push_back(id);
    dead_.push_back(0);
    id_to_slot_[id] = slot;
    if (id >= next_auto_id_) next_auto_id_ = id + 1;
    assigned.push_back(id);
  }
  return assigned;
}

Status MutableSearcher::Delete(uint64_t id) {
  std::unique_lock<std::shared_mutex> lock(state_mutex_);
  auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end()) {
    return Status::NotFound("Delete: no vector with id " + std::to_string(id));
  }
  TombstoneLocked(it->second);
  id_to_slot_.erase(it);
  return Status::OK();
}

size_t MutableSearcher::DeleteBatch(const uint64_t* ids, size_t count,
                                    std::vector<uint64_t>* missing) {
  std::unique_lock<std::shared_mutex> lock(state_mutex_);
  size_t deleted = 0;
  for (size_t r = 0; r < count; ++r) {
    auto it = id_to_slot_.find(ids[r]);
    if (it == id_to_slot_.end()) {
      if (missing != nullptr) missing->push_back(ids[r]);
      continue;
    }
    TombstoneLocked(it->second);
    id_to_slot_.erase(it);
    ++deleted;
  }
  return deleted;
}

bool MutableSearcher::NeedsCompaction() const {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  const size_t threshold = mutation_.compact_threshold;
  if (threshold == 0) return false;
  return delta_.count() >= threshold ||
         base_dead_ + delta_dead_ >= threshold;
}

Status MutableSearcher::Compact() {
  std::lock_guard<std::mutex> serialize(compact_mutex_);

  // Phase 1: snapshot the survivors under a shared lock — searches keep
  // flowing; mutations (exclusive) wait only for the copy, not the build.
  VectorSet survivors;
  std::vector<size_t> survivor_slots;
  size_t snapshot_slots = 0;
  SearcherConfig build_config;
  {
    std::shared_lock<std::shared_mutex> lock(state_mutex_);
    const size_t live = LiveCountLocked();
    if (live == 0) {
      // MakeSearcher rejects empty collections; tombstone filtering already
      // yields correct (empty) results, so there is nothing to fold.
      return Status::OK();
    }
    snapshot_slots = slot_ids_.size();
    survivors = VectorSet(dim(), live);
    survivor_slots.reserve(live);
    for (size_t slot = 0; slot < snapshot_slots; ++slot) {
      if (dead_[slot]) continue;
      survivors.Append(RowLocked(slot));
      survivor_slots.push_back(slot);
    }
    build_config = config_;
  }

  // Phase 2: the expensive rebuild (k-means, transforms, block packing),
  // with no lock held — dispatchers and mutators run undisturbed.
  auto built = MakeShardedSearcher(survivors, build_config, sharding_);
  if (!built.ok()) return built.status();
  std::unique_ptr<Searcher> fresh = std::move(built).value();

  // Phase 3: swap under the exclusive lock, carrying over every mutation
  // that raced the build. Tombstones are monotone (a dead slot never
  // resurrects; upsert kills the old slot and appends a new one), so the
  // current dead_ flags are exactly "deleted before or during the build",
  // and slots >= snapshot_slots are exactly the rows appended during it.
  {
    std::unique_lock<std::shared_mutex> lock(state_mutex_);
    fresh->ReserveScratch(reserved_slots_);
    const size_t new_base = survivors.count();
    const size_t total_slots = slot_ids_.size();
    std::vector<uint64_t> new_slot_ids;
    std::vector<uint8_t> new_dead;
    new_slot_ids.reserve(new_base + (total_slots - snapshot_slots));
    new_dead.reserve(new_base + (total_slots - snapshot_slots));
    size_t new_base_dead = 0;
    for (size_t r = 0; r < new_base; ++r) {
      const size_t old_slot = survivor_slots[r];
      new_slot_ids.push_back(slot_ids_[old_slot]);
      new_dead.push_back(dead_[old_slot]);
      if (dead_[old_slot]) ++new_base_dead;
    }
    DeltaStore new_delta(dim(), delta_.block_capacity());
    size_t new_delta_dead = 0;
    for (size_t old_slot = snapshot_slots; old_slot < total_slots;
         ++old_slot) {
      const size_t new_slot = new_slot_ids.size();
      new_delta.Append(delta_.rows().Vector(old_slot - base_count_),
                       static_cast<VectorId>(new_slot));
      new_slot_ids.push_back(slot_ids_[old_slot]);
      new_dead.push_back(dead_[old_slot]);
      if (dead_[old_slot]) ++new_delta_dead;
    }
    std::unordered_map<uint64_t, size_t> new_map;
    new_map.reserve(new_slot_ids.size());
    for (size_t slot = 0; slot < new_slot_ids.size(); ++slot) {
      if (!new_dead[slot]) new_map.emplace(new_slot_ids[slot], slot);
    }
    inner_ = std::move(fresh);
    base_rows_ = std::move(survivors);
    base_count_ = new_base;
    delta_ = std::move(new_delta);
    slot_ids_ = std::move(new_slot_ids);
    dead_ = std::move(new_dead);
    id_to_slot_ = std::move(new_map);
    base_dead_ = new_base_dead;
    delta_dead_ = new_delta_dead;
    ++compactions_;
  }
  return Status::OK();
}

MutationStats MutableSearcher::mutation_stats() const {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  MutationStats stats;
  stats.base_rows = base_count_;
  stats.delta_rows = delta_.count();
  stats.delta_blocks = delta_.num_blocks();
  stats.tombstones = base_dead_ + delta_dead_;
  stats.compactions = compactions_;
  return stats;
}

// -- Persistence surface ----------------------------------------------------

Status MutableSearcher::ExportSavedLocked(SavedCollection& out) const {
  out = SavedCollection{};
  // The base searcher was built from this facade's config, so its meta
  // (base count and shard shape included) is the collection's; only the
  // live-collection fields are added here.
  PDX_RETURN_IF_ERROR(inner_->ExportSaved(out));
  out.meta.mutable_snapshot = 1;
  out.meta.delta_block_capacity =
      static_cast<uint32_t>(mutation_.delta_block_capacity);
  out.meta.compact_threshold = mutation_.compact_threshold;
  out.meta.next_auto_id = next_auto_id_;
  out.meta.compactions = compactions_;
  out.raw_rows = base_rows_.data();
  out.raw_row_count = base_count_;
  out.delta_rows = delta_.rows().data();
  out.delta_row_count = delta_.count();
  out.delta_slots.reserve(delta_.count());
  for (size_t i = 0; i < delta_.count(); ++i) {
    out.delta_slots.push_back(delta_.slot(i));
  }
  out.slot_ids = slot_ids_;
  out.dead = dead_;
  return Status::OK();
}

Status MutableSearcher::ExportSaved(SavedCollection& out) const {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  return ExportSavedLocked(out);
}

Status MutableSearcher::Save(const std::string& path) const {
  // The export borrows pointers into the live arenas, so the lock spans
  // the disk write too: searches proceed, mutations wait for the flush.
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  SavedCollection saved;
  PDX_RETURN_IF_ERROR(ExportSavedLocked(saved));
  return WriteCollectionFile(path, saved);
}

// -- Search surface ---------------------------------------------------------

std::vector<Neighbor> MutableSearcher::MergeLocked(
    std::vector<Neighbor> base, const float* query, size_t k,
    PdxearchProfile* work) const {
  if (delta_.empty() && base_dead_ == 0) {
    // Nothing to merge or filter: remap base slots to external ids in
    // place. This keeps the unmutated serving path allocation-free beyond
    // what the base searcher itself does.
    for (Neighbor& n : base) {
      n.id = static_cast<VectorId>(slot_ids_[n.id]);
    }
    return base;
  }
  TopK heap(std::max<size_t>(1, k));
  for (const Neighbor& n : base) {
    if (!dead_[n.id]) heap.Push(n.id, n.distance);
  }
  if (!delta_.empty()) {
    const KernelTable& kernels = ActiveKernels();
    // No delta block holds more lanes than the delta has rows, whatever
    // capacity the collection was configured (or loaded) with.
    std::vector<float> distances(
        std::min(delta_.block_capacity(), delta_.count()));
    for (size_t b = 0; b < delta_.num_blocks(); ++b) {
      const PdxBlock& block = delta_.block(b);
      // The dispatched vertical kernel accumulates per lane in ascending
      // dimension order — the same addition sequence the base engines run —
      // so a vector's distance is bit-identical on either side of the
      // base/delta boundary (the parity tests pin this).
      kernels.pdx_linear_scan(config_.metric, query, block.data(),
                              block.count(), dim(), distances.data());
      for (size_t i = 0; i < block.count(); ++i) {
        const VectorId slot = block.id(i);
        if (!dead_[slot]) heap.Push(slot, distances[i]);
      }
      if (work != nullptr) {
        // A linear scan: every value of the block is scanned.
        const uint64_t values = static_cast<uint64_t>(block.count()) * dim();
        ++work->blocks_visited;
        work->values_scanned += values;
        work->values_total += values;
        work->dims_scanned += dim();
      }
    }
  }
  std::vector<Neighbor> merged = heap.SortedResults();
  for (Neighbor& n : merged) {
    n.id = static_cast<VectorId>(slot_ids_[n.id]);
  }
  return merged;
}

std::vector<Neighbor> MutableSearcher::SearchWith(size_t slot,
                                                  QueryKnobs knobs,
                                                  const float* query,
                                                  PdxearchProfile* profile) {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  const size_t k = ResolveKLocked(knobs);
  if (profile != nullptr) *profile = PdxearchProfile{};
  if (LiveCountLocked() == 0) return {};
  std::vector<Neighbor> base =
      inner_->SearchWith(slot, BaseKnobsLocked(k, knobs), query, profile);
  return MergeLocked(std::move(base), query, k, profile);
}

std::vector<std::vector<Neighbor>> MutableSearcher::SearchBatchWith(
    size_t slot, QueryKnobs knobs, const float* queries, size_t num_queries,
    ThreadPool* pool, PdxearchProfile* per_query) {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  const size_t k = ResolveKLocked(knobs);
  if (LiveCountLocked() == 0) {
    if (per_query != nullptr) {
      std::fill_n(per_query, num_queries, PdxearchProfile{});
    }
    return std::vector<std::vector<Neighbor>>(num_queries);
  }
  // The base searcher's own batch path runs on the caller's pool, so a
  // sharded base still tiles (shard x query) — even a one-query batch
  // spreads across its shards.
  std::vector<std::vector<Neighbor>> results =
      inner_->SearchBatchWith(slot, BaseKnobsLocked(k, knobs), queries,
                              num_queries, pool, per_query);
  for (size_t q = 0; q < num_queries; ++q) {
    results[q] = MergeLocked(std::move(results[q]), queries + q * dim(), k,
                             per_query != nullptr ? per_query + q : nullptr);
  }
  return results;
}

void MutableSearcher::ReserveScratch(size_t slots) {
  std::unique_lock<std::shared_mutex> lock(state_mutex_);
  reserved_slots_ = std::max(reserved_slots_, slots);
  inner_->ReserveScratch(slots);
}

SearcherShape MutableSearcher::shape() const {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  SearcherShape shape = inner_->shape();
  shape.count = LiveCountLocked();
  return shape;
}

}  // namespace pdx
