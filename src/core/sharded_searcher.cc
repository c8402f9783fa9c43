#include "core/sharded_searcher.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "core/persist.h"
#include "storage/collection_format.h"

namespace pdx {

const char* ShardAssignmentName(ShardAssignment assignment) {
  switch (assignment) {
    case ShardAssignment::kContiguous:
      return "contiguous";
    case ShardAssignment::kRoundRobin:
      return "round-robin";
  }
  return "unknown";
}

namespace {

/// Scatter-gather facade over N per-shard searchers (the IndexShards idea
/// from the Faiss library, over PDXearch shards): every query runs on every
/// shard, and only the k-sized per-shard result lists are merged — block
/// skipping inside each shard stays intact, ids are remapped to global.
class ShardedSearcher final : public Searcher {
 public:
  /// Global-id remap for one shard. A contiguous shard is just a base
  /// offset; only round-robin needs the explicit table — the distinction
  /// keeps the facade's footprint O(1) per vector count on the common
  /// contiguous assignment.
  struct ShardMap {
    VectorId base = 0;
    std::vector<VectorId> ids;  ///< Empty => global = base + local.
    VectorId Global(VectorId local) const {
      return ids.empty() ? base + local : ids[local];
    }
  };

  ShardedSearcher(SearcherConfig config,
                  std::vector<std::unique_ptr<Searcher>> shards,
                  std::vector<ShardMap> shard_maps, ShardAssignment assignment)
      : Searcher(std::move(config), shards.front()->dim()),
        shards_(std::move(shards)),
        shard_maps_(std::move(shard_maps)),
        assignment_(assignment) {}

  void ReserveScratch(size_t slots) override {
    for (auto& shard : shards_) shard->ReserveScratch(slots);
  }

  /// One scatter-gather through slot `slot` of every shard, sequentially.
  std::vector<Neighbor> SearchWith(size_t slot, QueryKnobs knobs,
                                   const float* query,
                                   PdxearchProfile* profile) override {
    knobs = Resolve(knobs);
    std::vector<std::vector<Neighbor>> partial(shards_.size());
    if (profile != nullptr) *profile = PdxearchProfile{};
    for (size_t s = 0; s < shards_.size(); ++s) {
      PdxearchProfile shard_profile;
      partial[s] = shards_[s]->SearchWith(
          slot, knobs, query, profile != nullptr ? &shard_profile : nullptr);
      if (profile != nullptr) *profile += shard_profile;
    }
    return MergeShards(partial, knobs.k);
  }

  std::vector<std::vector<Neighbor>> SearchBatchWith(
      size_t slot, QueryKnobs knobs, const float* queries, size_t num_queries,
      ThreadPool* pool, PdxearchProfile* per_query) override {
    if (pool == nullptr || config_.search.step_observer) {
      return Searcher::SearchBatchWith(slot, knobs, queries, num_queries,
                                       nullptr, per_query);
    }
    // (shard x query) tiling: the task grid is every shard-query pair, so
    // even one query — or one large batch against one collection —
    // saturates the whole pool. Worker w of this loop drives every shard
    // through slot `slot + w`, so concurrent batches on disjoint bands
    // never share a shard engine. Pre-growing on the calling thread (a
    // no-op once bands are reserved) keeps the workers' lazy-growth path
    // out of the parallel region.
    knobs = Resolve(knobs);
    const size_t num_shards = shards_.size();
    const size_t d = dim();
    ReserveScratch(slot + pool->num_threads());
    std::vector<std::vector<std::vector<Neighbor>>> partial(
        num_shards, std::vector<std::vector<Neighbor>>(num_queries));
    // Tasks for the SAME query run concurrently across shards, so the
    // per-query work cannot be accumulated in place; each task drops its
    // share into its own (s, q) grid cell and the calling thread reduces
    // per query after the barrier.
    std::vector<PdxearchProfile> task_work(
        per_query != nullptr ? num_shards * num_queries : 0);
    pool->ParallelFor(num_shards * num_queries, [&](size_t t, size_t w) {
      const size_t s = t / num_queries;
      const size_t q = t % num_queries;
      partial[s][q] = shards_[s]->SearchWith(
          slot + w, knobs, queries + q * d,
          per_query != nullptr ? &task_work[t] : nullptr);
    });
    std::vector<std::vector<Neighbor>> results(num_queries);
    std::vector<std::vector<Neighbor>> per_shard(num_shards);
    for (size_t q = 0; q < num_queries; ++q) {
      for (size_t s = 0; s < num_shards; ++s) {
        per_shard[s] = std::move(partial[s][q]);
      }
      results[q] = MergeShards(per_shard, knobs.k);
      if (per_query != nullptr) {
        per_query[q] = PdxearchProfile{};
        for (size_t s = 0; s < num_shards; ++s) {
          per_query[q] += task_work[s * num_queries + q];
        }
      }
    }
    return results;
  }

  SearcherShape shape() const override {
    SearcherShape total;
    total.num_shards = shards_.size();
    for (const auto& shard : shards_) {
      const SearcherShape part = shard->shape();
      total.count += part.count;
      total.num_blocks += part.num_blocks;
      total.max_nprobe = std::max(total.max_nprobe, part.max_nprobe);
      total.quantized_bytes += part.quantized_bytes;
      // Every shard of a restored collection maps the same file.
      total.mapped_bytes = std::max(total.mapped_bytes, part.mapped_bytes);
    }
    return total;
  }

  Status ExportSaved(SavedCollection& out) const override {
    out = SavedCollection{};
    out.meta = MetaFromConfig(config_);
    out.meta.dim = dim();
    out.meta.count = shape().count;
    out.meta.num_shards = shards_.size();
    out.meta.assignment = static_cast<uint32_t>(assignment_);
    out.shards.reserve(shards_.size());
    // Each shard exports through its own facade; only the SavedShard is
    // kept (the per-shard meta is the facade's config minus sharding, and
    // this facade's meta above is authoritative).
    for (const auto& shard : shards_) {
      SavedCollection piece;
      PDX_RETURN_IF_ERROR(shard->ExportSaved(piece));
      if (piece.shards.size() != 1) {
        return Status::Internal(
            "sharded export: inner searcher exported an unexpected shape");
      }
      out.shards.push_back(std::move(piece.shards[0]));
    }
    return Status::OK();
  }

 private:
  /// Resolves default (zero) knobs against the facade config once, so the
  /// shards and the merge agree on k.
  QueryKnobs Resolve(QueryKnobs knobs) const {
    knobs.k = knobs.k > 0 ? knobs.k : config_.k;
    knobs.nprobe = knobs.nprobe > 0 ? knobs.nprobe : config_.nprobe;
    return knobs;
  }

  /// Exact global top-k over the per-shard top-k lists, shard-local ids
  /// remapped to global. Ordered exactly as TopK::SortedResults orders the
  /// unsharded result (ascending distance, ties by id), so exact pruners
  /// stay byte-identical across shard counts.
  std::vector<Neighbor> MergeShards(
      const std::vector<std::vector<Neighbor>>& per_shard, size_t k) const {
    size_t total = 0;
    for (const auto& p : per_shard) total += p.size();
    std::vector<Neighbor> all;
    all.reserve(total);
    for (size_t s = 0; s < per_shard.size(); ++s) {
      const ShardMap& map = shard_maps_[s];
      for (const Neighbor& n : per_shard[s]) {
        all.push_back({map.Global(n.id), n.distance});
      }
    }
    std::sort(all.begin(), all.end(),
              [](const Neighbor& a, const Neighbor& b) {
                if (a.distance != b.distance) return a.distance < b.distance;
                return a.id < b.id;
              });
    if (all.size() > k) all.resize(k);
    return all;
  }

  std::vector<std::unique_ptr<Searcher>> shards_;
  std::vector<ShardMap> shard_maps_;
  ShardAssignment assignment_ = ShardAssignment::kContiguous;
};

/// The one home of the vector -> shard assignment, shared by the build
/// path (which slices the collection with it) and the load path (which
/// recomputes the id maps instead of persisting them) — the two must
/// agree or loaded sharded results would remap to the wrong global ids.
std::vector<std::vector<VectorId>> AssignShardIds(
    size_t count, size_t num_shards, ShardAssignment assignment) {
  std::vector<std::vector<VectorId>> shard_ids(num_shards);
  if (assignment == ShardAssignment::kContiguous) {
    // Balanced ranges: the first count % num_shards shards get one extra.
    size_t begin = 0;
    for (size_t s = 0; s < num_shards; ++s) {
      const size_t len = count / num_shards + (s < count % num_shards ? 1 : 0);
      shard_ids[s].reserve(len);
      for (size_t i = 0; i < len; ++i) {
        shard_ids[s].push_back(static_cast<VectorId>(begin + i));
      }
      begin += len;
    }
  } else {
    for (auto& ids : shard_ids) ids.reserve(count / num_shards + 1);
    for (size_t i = 0; i < count; ++i) {
      shard_ids[i % num_shards].push_back(static_cast<VectorId>(i));
    }
  }
  return shard_ids;
}

/// Collapses the id lists into the compact per-shard remaps: a base offset
/// for contiguous shards, the explicit table only for round-robin.
std::vector<ShardedSearcher::ShardMap> MapsFromShardIds(
    ShardAssignment assignment,
    std::vector<std::vector<VectorId>>&& shard_ids) {
  std::vector<ShardedSearcher::ShardMap> maps(shard_ids.size());
  for (size_t s = 0; s < shard_ids.size(); ++s) {
    if (assignment == ShardAssignment::kContiguous) {
      maps[s].base = shard_ids[s].empty() ? 0 : shard_ids[s].front();
    } else {
      maps[s].ids = std::move(shard_ids[s]);
    }
  }
  return maps;
}

}  // namespace

Result<std::unique_ptr<Searcher>> MakeShardedSearcher(
    const VectorSet& vectors, SearcherConfig config,
    ShardingOptions sharding) {
  PDX_RETURN_IF_ERROR(ValidateSearcherConfig(config));
  if (vectors.empty()) {
    return Status::InvalidArgument("MakeShardedSearcher: empty collection");
  }
  if (sharding.num_shards == 0) {
    return Status::InvalidArgument(
        "ShardingOptions: num_shards must be > 0");
  }
  if (sharding.assignment != ShardAssignment::kContiguous &&
      sharding.assignment != ShardAssignment::kRoundRobin) {
    return Status::InvalidArgument(
        "ShardingOptions: unknown assignment value");
  }
  // Resolve at the facade so the config it carries — and persists via
  // ExportSaved — holds the concrete values the shards were built with,
  // not "default" markers a reload could re-interpret differently.
  config = ResolveConfig(std::move(config));
  const size_t count = vectors.count();
  const size_t num_shards = std::min(sharding.num_shards, count);
  if (num_shards == 1) return MakeSearcher(vectors, std::move(config));

  // Per-shard id lists feed VectorSet::Select; the retained remap is a
  // base offset for contiguous shards and the explicit list only for
  // round-robin.
  std::vector<std::vector<VectorId>> shard_ids =
      AssignShardIds(count, num_shards, sharding.assignment);

  std::vector<std::unique_ptr<Searcher>> shards;
  shards.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    // The slice (and the contiguous id list) is a temporary: searchers
    // copy everything they keep into their own PdxStore / pruner / index.
    const VectorSet slice = vectors.Select(shard_ids[s]);
    auto made = MakeSearcher(slice, config);
    if (!made.ok()) return made.status();
    shards.push_back(std::move(made).value());
  }
  std::vector<ShardedSearcher::ShardMap> shard_maps =
      MapsFromShardIds(sharding.assignment, std::move(shard_ids));
  return std::unique_ptr<Searcher>(
      new ShardedSearcher(std::move(config), std::move(shards),
                          std::move(shard_maps), sharding.assignment));
}

Result<std::unique_ptr<Searcher>> MakeShardedSearcherFromImage(
    std::shared_ptr<const CollectionImage> image, SearcherConfig config,
    ShardingOptions sharding) {
  PDX_RETURN_IF_ERROR(ValidateSearcherConfig(config));
  if (sharding.assignment != ShardAssignment::kContiguous &&
      sharding.assignment != ShardAssignment::kRoundRobin) {
    return Status::InvalidArgument(
        "ShardingOptions: unknown assignment value");
  }
  config = ResolveConfig(std::move(config));
  // The saved meta carries the ACTUAL shard count the build clamped to, so
  // unlike the build path there is no re-clamping against count here — the
  // file's sections are laid out for exactly this many units.
  const size_t count = image->meta().count;
  const size_t num_shards = sharding.num_shards;
  if (num_shards <= 1) {
    return MakeSearcherFromImage(std::move(image), 0, count,
                                 std::move(config));
  }

  // The maps are recomputed, not persisted: AssignShardIds is
  // deterministic in (count, num_shards, assignment), so these are the
  // same maps the saved searcher used. Each shard is restored over exactly
  // the vectors its map names, so its sections must hold that many.
  std::vector<std::vector<VectorId>> shard_ids =
      AssignShardIds(count, num_shards, sharding.assignment);
  std::vector<std::unique_ptr<Searcher>> shards;
  shards.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    auto made = MakeSearcherFromImage(image, static_cast<uint32_t>(s),
                                      shard_ids[s].size(), config);
    if (!made.ok()) return made.status();
    shards.push_back(std::move(made).value());
  }
  std::vector<ShardedSearcher::ShardMap> shard_maps =
      MapsFromShardIds(sharding.assignment, std::move(shard_ids));
  // Each shard pins the image its stores view; the facade itself views
  // nothing of it (the maps were recomputed above).
  return std::unique_ptr<Searcher>(
      new ShardedSearcher(std::move(config), std::move(shards),
                          std::move(shard_maps), sharding.assignment));
}

}  // namespace pdx
