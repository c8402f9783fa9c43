#include "core/mutable_searcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "benchlib/recall.h"
#include "common/parallel.h"
#include "common/random.h"
#include "core/any_searcher.h"
#include "core/sharded_searcher.h"
#include "index/kmeans.h"
#include "storage/pdx_store.h"
#include "storage/vector_set.h"

// Global operator new/delete overrides that count each thread's heap
// allocations, so a test can count what one thread allocates.
namespace {
thread_local uint64_t t_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// The nothrow forms (std::stable_sort's temporary buffer uses them) must
// come from the same heap the deletes below free into; a sanitizer runtime
// would otherwise serve them from its own.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++t_allocations;
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++t_allocations;
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pdx {
namespace {

// Every parity assertion in this suite is EXACT (== on ids and float
// distances, not near-equality): the vertical kernels accumulate per lane
// in ascending dimension order under -ffp-contract=off, so a vector's
// distance is bit-identical whether it sits in the immutable base, the
// append delta, or a fresh rebuild. That byte parity is the acceptance
// criterion for live collections with exact pruners (kLinear always, kBond
// under DimensionOrder::kSequential; IVF asserted with nprobe covering
// every bucket so candidate generation is exhaustive on both sides).

constexpr size_t kAllBuckets = 1u << 20;

VectorSet RandomVectors(size_t count, size_t dim, uint64_t seed) {
  Rng rng(seed);
  VectorSet set(dim, count);
  std::vector<float> row(dim);
  for (size_t i = 0; i < count; ++i) {
    for (float& v : row) v = static_cast<float>(rng.Gaussian());
    set.Append(row.data());
  }
  return set;
}

std::vector<float> RandomRow(Rng& rng, size_t dim) {
  std::vector<float> row(dim);
  for (float& v : row) v = static_cast<float>(rng.Gaussian());
  return row;
}

SearcherConfig Config(SearcherLayout layout, PrunerKind pruner,
                      size_t k = 10) {
  SearcherConfig config;
  config.layout = layout;
  config.pruner = pruner;
  config.k = k;
  config.nprobe = kAllBuckets;
  // The data-dependent BOND orders are only id-exact; byte parity needs
  // the physical order (see the bond parity matrix in mutable_searcher.h).
  if (pruner == PrunerKind::kBond) {
    config.bond_order = DimensionOrder::kSequential;
  }
  return config;
}

/// The oracle: live rows by external id (std::map keeps them id-sorted,
/// which matches both the fresh rebuild's row order and the sharded
/// lowest-id tie rule).
using Model = std::map<uint64_t, std::vector<float>>;

Model ModelFromSet(const VectorSet& set) {
  Model model;
  for (size_t i = 0; i < set.count(); ++i) {
    model[i] = std::vector<float>(set.Vector(i), set.Vector(i) + set.dim());
  }
  return model;
}

void ExpectParityWithFreshRebuild(MutableSearcher& live, const Model& model,
                                  const SearcherConfig& config,
                                  const ShardingOptions& sharding,
                                  const VectorSet& queries,
                                  const std::string& label) {
  ASSERT_EQ(live.shape().count, model.size()) << label;
  if (model.empty()) {
    for (size_t q = 0; q < queries.count(); ++q) {
      EXPECT_TRUE(live.Search(queries.Vector(q)).empty()) << label;
    }
    return;
  }
  VectorSet survivors(live.dim(), model.size());
  std::vector<uint64_t> external;
  external.reserve(model.size());
  for (const auto& [id, row] : model) {
    survivors.Append(row.data());
    external.push_back(id);
  }
  auto fresh = sharding.num_shards > 1
                   ? MakeShardedSearcher(survivors, config, sharding)
                   : MakeSearcher(survivors, config);
  ASSERT_TRUE(fresh.ok()) << label << ": " << fresh.status().ToString();
  for (size_t q = 0; q < queries.count(); ++q) {
    const std::vector<Neighbor> actual = live.Search(queries.Vector(q));
    const std::vector<Neighbor> expected =
        fresh.value()->Search(queries.Vector(q));
    ASSERT_EQ(actual.size(), expected.size()) << label << " query " << q;
    for (size_t i = 0; i < actual.size(); ++i) {
      ASSERT_EQ(actual[i].id, external[expected[i].id])
          << label << " query " << q << " rank " << i;
      ASSERT_EQ(actual[i].distance, expected[i].distance)
          << label << " query " << q << " rank " << i;
    }
  }
}

// --- No mutations: the wrapper is transparent --------------------------

TEST(MutableSearcherTest, NoMutationMatchesPlainSearcher) {
  const size_t dim = 8;
  VectorSet data = RandomVectors(150, dim, 1);
  VectorSet queries = RandomVectors(6, dim, 2);
  for (SearcherLayout layout :
       {SearcherLayout::kFlat, SearcherLayout::kIvf}) {
    for (PrunerKind pruner : {PrunerKind::kLinear, PrunerKind::kBond}) {
      SearcherConfig config = Config(layout, pruner);
      auto plain = MakeSearcher(data, config);
      ASSERT_TRUE(plain.ok());
      auto live = MutableSearcher::Make(data, config);
      ASSERT_TRUE(live.ok()) << live.status().ToString();
      EXPECT_EQ(live.value()->shape().count, data.count());
      EXPECT_EQ(live.value()->dim(), dim);
      for (size_t q = 0; q < queries.count(); ++q) {
        const auto actual = live.value()->Search(queries.Vector(q));
        const auto expected = plain.value()->Search(queries.Vector(q));
        ASSERT_EQ(actual.size(), expected.size());
        for (size_t i = 0; i < actual.size(); ++i) {
          ASSERT_EQ(actual[i].id, expected[i].id);
          ASSERT_EQ(actual[i].distance, expected[i].distance);
        }
      }
    }
  }
}

// --- The acceptance matrix: interleaved mutations vs fresh rebuild ------

TEST(MutableSearcherTest, InterleavedMutationsMatchFreshRebuild) {
  const size_t dim = 8;
  VectorSet base = RandomVectors(120, dim, 3);
  VectorSet queries = RandomVectors(5, dim, 4);
  struct Variant {
    SearcherLayout layout;
    PrunerKind pruner;
    size_t shards;
    ShardAssignment assignment = ShardAssignment::kContiguous;
  };
  // Round-robin shards slice the tombstone view with a stride, contiguous
  // ones with an offset.
  const Variant variants[] = {
      {SearcherLayout::kFlat, PrunerKind::kLinear, 1},
      {SearcherLayout::kFlat, PrunerKind::kLinear, 3},
      {SearcherLayout::kFlat, PrunerKind::kLinear, 3,
       ShardAssignment::kRoundRobin},
      {SearcherLayout::kIvf, PrunerKind::kLinear, 1},
      {SearcherLayout::kIvf, PrunerKind::kLinear, 3},
      {SearcherLayout::kIvf, PrunerKind::kLinear, 3,
       ShardAssignment::kRoundRobin},
      {SearcherLayout::kFlat, PrunerKind::kBond, 1},
      {SearcherLayout::kFlat, PrunerKind::kBond, 3},
      {SearcherLayout::kFlat, PrunerKind::kBond, 3,
       ShardAssignment::kRoundRobin},
      {SearcherLayout::kIvf, PrunerKind::kBond, 1},
      {SearcherLayout::kIvf, PrunerKind::kBond, 3},
      {SearcherLayout::kIvf, PrunerKind::kBond, 3,
       ShardAssignment::kRoundRobin},
  };
  for (const Variant& v : variants) {
    const std::string label = std::string(SearcherLayoutName(v.layout)) +
                              "/" + PrunerKindName(v.pruner) + "/shards" +
                              std::to_string(v.shards) + "/" +
                              ShardAssignmentName(v.assignment);
    SearcherConfig config = Config(v.layout, v.pruner);
    ShardingOptions sharding;
    sharding.num_shards = v.shards;
    sharding.assignment = v.assignment;
    MutationConfig mutation;
    mutation.compact_threshold = 0;  // Mutations only; compaction is below.
    mutation.delta_block_capacity = 16;  // Several delta blocks by the end.
    auto made = MutableSearcher::Make(base, config, mutation, sharding);
    ASSERT_TRUE(made.ok()) << label << ": " << made.status().ToString();
    MutableSearcher& live = *made.value();
    Model model = ModelFromSet(base);
    Rng rng(500 + v.shards);

    // Phase 1: append 30 fresh rows (auto ids continue at base count).
    for (size_t i = 0; i < 30; ++i) {
      const std::vector<float> row = RandomRow(rng, dim);
      auto ids = live.Add(row.data(), 1);
      ASSERT_TRUE(ids.ok()) << label;
      ASSERT_EQ(ids.value().size(), 1u);
      model[ids.value()[0]] = row;
    }
    ExpectParityWithFreshRebuild(live, model, config, sharding, queries,
                                 label + "/adds");

    // Phase 2: delete scattered ids from both base and delta.
    for (const uint64_t id : {3u, 17u, 50u, 119u, 121u, 137u, 149u}) {
      ASSERT_TRUE(live.Delete(id).ok()) << label << " id " << id;
      model.erase(id);
    }
    ExpectParityWithFreshRebuild(live, model, config, sharding, queries,
                                 label + "/deletes");

    // Phase 3: upsert existing ids (base ids and a delta id) in one batch.
    {
      const uint64_t ids[] = {5, 60, 118, 125, 140};
      std::vector<float> rows;
      for (size_t i = 0; i < 5; ++i) {
        const std::vector<float> row = RandomRow(rng, dim);
        rows.insert(rows.end(), row.begin(), row.end());
        model[ids[i]] = row;
      }
      auto res = live.Add(rows.data(), 5, ids);
      ASSERT_TRUE(res.ok()) << label;
      EXPECT_EQ(res.value(), std::vector<uint64_t>(ids, ids + 5));
    }
    ExpectParityWithFreshRebuild(live, model, config, sharding, queries,
                                 label + "/upserts");

    // Phase 4: enough appends to cross several delta-block boundaries,
    // then delete a few of the fresh rows.
    std::vector<uint64_t> fresh_ids;
    for (size_t i = 0; i < 40; ++i) {
      const std::vector<float> row = RandomRow(rng, dim);
      auto ids = live.Add(row.data(), 1);
      ASSERT_TRUE(ids.ok()) << label;
      model[ids.value()[0]] = row;
      fresh_ids.push_back(ids.value()[0]);
    }
    size_t missing_before = 0;
    std::vector<uint64_t> doomed = {fresh_ids[0], fresh_ids[13],
                                    fresh_ids[39]};
    std::vector<uint64_t> missing;
    EXPECT_EQ(live.DeleteBatch(doomed.data(), doomed.size(), &missing),
              doomed.size())
        << label;
    EXPECT_EQ(missing.size(), missing_before);
    for (const uint64_t id : doomed) model.erase(id);
    ExpectParityWithFreshRebuild(live, model, config, sharding, queries,
                                 label + "/mixed");

    const MutationStats stats = live.mutation_stats();
    EXPECT_EQ(live.shape().count, model.size()) << label;
    EXPECT_GT(stats.delta_blocks, 1u) << label;
    EXPECT_GT(stats.tombstones, 0u) << label;
    EXPECT_EQ(stats.compactions, 0u) << label;
  }
}

// --- Upsert semantics ---------------------------------------------------

TEST(MutableSearcherTest, UpsertReplacesUnderSameId) {
  const size_t dim = 4;
  VectorSet base = RandomVectors(20, dim, 9);
  auto made = MutableSearcher::Make(base, Config(SearcherLayout::kFlat,
                                                 PrunerKind::kLinear, 1));
  ASSERT_TRUE(made.ok());
  MutableSearcher& live = *made.value();

  Rng rng(10);
  const std::vector<float> replacement = RandomRow(rng, dim);
  const uint64_t id = 5;
  auto res = live.Add(replacement.data(), 1, &id);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value()[0], id);
  EXPECT_EQ(live.shape().count, base.count());  // Replace, not grow.

  // The replacement now answers for id 5: querying it exactly must return
  // id 5 at distance 0.
  const std::vector<Neighbor> hits = live.Search(replacement.data());
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].id, 5u);
  EXPECT_EQ(hits[0].distance, 0.0f);

  const MutationStats stats = live.mutation_stats();
  EXPECT_EQ(stats.delta_rows, 1u);
  EXPECT_EQ(stats.tombstones, 1u);
}

TEST(MutableSearcherTest, AutoIdsContinuePastDeletes) {
  const size_t dim = 4;
  VectorSet base = RandomVectors(10, dim, 11);
  auto made = MutableSearcher::Make(base, Config(SearcherLayout::kFlat,
                                                 PrunerKind::kLinear, 3));
  ASSERT_TRUE(made.ok());
  MutableSearcher& live = *made.value();
  Rng rng(12);

  const std::vector<float> rows = RandomRow(rng, dim);
  auto first = live.Add(rows.data(), 1);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value()[0], 10u);

  ASSERT_TRUE(live.Delete(10).ok());
  // An auto id is never reused, even after its row dies: reuse would let a
  // late delete/upsert of the old id hit the new row.
  auto second = live.Add(rows.data(), 1);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value()[0], 11u);
}

// --- Delete edge cases --------------------------------------------------

TEST(MutableSearcherTest, DeleteMissingIdIsNotFound) {
  VectorSet base = RandomVectors(8, 4, 13);
  auto made = MutableSearcher::Make(base, Config(SearcherLayout::kFlat,
                                                 PrunerKind::kLinear, 3));
  ASSERT_TRUE(made.ok());
  MutableSearcher& live = *made.value();
  EXPECT_TRUE(live.Delete(99).IsNotFound());
  ASSERT_TRUE(live.Delete(3).ok());
  EXPECT_TRUE(live.Delete(3).IsNotFound());  // Double delete.

  const uint64_t ids[] = {1, 3, 99, 5};
  std::vector<uint64_t> missing;
  EXPECT_EQ(live.DeleteBatch(ids, 4, &missing), 2u);
  EXPECT_EQ(missing, (std::vector<uint64_t>{3, 99}));
}

TEST(MutableSearcherTest, DeleteAllThenReAdd) {
  const size_t dim = 4;
  VectorSet base = RandomVectors(6, dim, 14);
  VectorSet queries = RandomVectors(2, dim, 15);
  SearcherConfig config = Config(SearcherLayout::kFlat, PrunerKind::kLinear);
  auto made = MutableSearcher::Make(base, config);
  ASSERT_TRUE(made.ok());
  MutableSearcher& live = *made.value();
  for (uint64_t id = 0; id < 6; ++id) ASSERT_TRUE(live.Delete(id).ok());
  EXPECT_EQ(live.shape().count, 0u);
  EXPECT_TRUE(live.Search(queries.Vector(0)).empty());

  Model model;
  Rng rng(16);
  for (size_t i = 0; i < 4; ++i) {
    const std::vector<float> row = RandomRow(rng, dim);
    auto ids = live.Add(row.data(), 1);
    ASSERT_TRUE(ids.ok());
    model[ids.value()[0]] = row;
  }
  ExpectParityWithFreshRebuild(live, model, config, ShardingOptions{},
                               queries, "readd");
}

// --- Compaction ---------------------------------------------------------

TEST(MutableSearcherTest, CompactFoldsDeltaAndKeepsParity) {
  const size_t dim = 8;
  VectorSet base = RandomVectors(60, dim, 17);
  VectorSet queries = RandomVectors(4, dim, 18);
  for (size_t shards : {1u, 3u}) {
    SearcherConfig config = Config(SearcherLayout::kIvf, PrunerKind::kLinear);
    ShardingOptions sharding;
    sharding.num_shards = shards;
    MutationConfig mutation;
    mutation.compact_threshold = 8;
    mutation.delta_block_capacity = 16;
    auto made = MutableSearcher::Make(base, config, mutation, sharding);
    ASSERT_TRUE(made.ok());
    MutableSearcher& live = *made.value();
    Model model = ModelFromSet(base);
    Rng rng(19);
    EXPECT_FALSE(live.NeedsCompaction());
    for (size_t i = 0; i < 12; ++i) {
      const std::vector<float> row = RandomRow(rng, dim);
      auto ids = live.Add(row.data(), 1);
      ASSERT_TRUE(ids.ok());
      model[ids.value()[0]] = row;
    }
    ASSERT_TRUE(live.Delete(7).ok());
    model.erase(7);
    EXPECT_TRUE(live.NeedsCompaction());

    ASSERT_TRUE(live.Compact().ok());
    const MutationStats stats = live.mutation_stats();
    EXPECT_EQ(stats.delta_rows, 0u);
    EXPECT_EQ(stats.tombstones, 0u);
    EXPECT_EQ(stats.base_rows, model.size());
    EXPECT_EQ(live.shape().count, model.size());
    EXPECT_EQ(stats.compactions, 1u);
    EXPECT_FALSE(live.NeedsCompaction());
    ExpectParityWithFreshRebuild(live, model, config, sharding, queries,
                                 "post-compact/shards" +
                                     std::to_string(shards));

    // The collection stays live after the fold: ingest keeps working and
    // auto ids never restart (a restart would collide with survivors).
    const std::vector<float> row = RandomRow(rng, dim);
    auto ids = live.Add(row.data(), 1);
    ASSERT_TRUE(ids.ok());
    EXPECT_EQ(ids.value()[0], 72u);  // 60 base + 12 added.
    model[ids.value()[0]] = row;
    ExpectParityWithFreshRebuild(live, model, config, sharding, queries,
                                 "post-compact-ingest/shards" +
                                     std::to_string(shards));
  }
}

TEST(MutableSearcherTest, CompactOnEmptyCollectionIsANoOp) {
  VectorSet base = RandomVectors(5, 4, 20);
  MutationConfig mutation;
  mutation.compact_threshold = 1;
  auto made = MutableSearcher::Make(
      base, Config(SearcherLayout::kFlat, PrunerKind::kLinear), mutation);
  ASSERT_TRUE(made.ok());
  MutableSearcher& live = *made.value();
  for (uint64_t id = 0; id < 5; ++id) ASSERT_TRUE(live.Delete(id).ok());
  ASSERT_TRUE(live.Compact().ok());  // Zero survivors: keep the old base.
  EXPECT_EQ(live.shape().count, 0u);
  Rng rng(21);
  const std::vector<float> row = RandomRow(rng, 4);
  ASSERT_TRUE(live.Add(row.data(), 1).ok());
  EXPECT_EQ(live.shape().count, 1u);
}

// --- The concurrent (per-slot) surface matches the plain one ------------

TEST(MutableSearcherTest, SearchWithMatchesSearch) {
  const size_t dim = 8;
  VectorSet base = RandomVectors(80, dim, 22);
  VectorSet queries = RandomVectors(4, dim, 23);
  SearcherConfig config = Config(SearcherLayout::kFlat, PrunerKind::kLinear);
  MutationConfig mutation;
  mutation.compact_threshold = 0;
  auto made = MutableSearcher::Make(base, config, mutation);
  ASSERT_TRUE(made.ok());
  MutableSearcher& live = *made.value();
  live.ReserveScratch(2);
  Rng rng(24);
  for (size_t i = 0; i < 9; ++i) {
    const std::vector<float> row = RandomRow(rng, dim);
    ASSERT_TRUE(live.Add(row.data(), 1).ok());
  }
  ASSERT_TRUE(live.Delete(2).ok());

  for (size_t q = 0; q < queries.count(); ++q) {
    const auto expected = live.Search(queries.Vector(q));
    const auto actual = live.SearchWith(1, QueryKnobs{}, queries.Vector(q),
                                        nullptr);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < actual.size(); ++i) {
      ASSERT_EQ(actual[i].id, expected[i].id);
      ASSERT_EQ(actual[i].distance, expected[i].distance);
    }
  }

  // Batch flavor, with per-query counters: the delta scan must show up as
  // real search work (blocks visited, values scanned).
  std::vector<float> flat;
  for (size_t q = 0; q < queries.count(); ++q) {
    flat.insert(flat.end(), queries.Vector(q), queries.Vector(q) + dim);
  }
  std::vector<PdxearchProfile> counters(queries.count());
  const auto batch = live.SearchBatchWith(0, QueryKnobs{}, flat.data(),
                                          queries.count(), nullptr,
                                          counters.data());
  ASSERT_EQ(batch.size(), queries.count());
  for (size_t q = 0; q < queries.count(); ++q) {
    const auto expected = live.Search(queries.Vector(q));
    ASSERT_EQ(batch[q].size(), expected.size());
    for (size_t i = 0; i < batch[q].size(); ++i) {
      ASSERT_EQ(batch[q][i].id, expected[i].id);
      ASSERT_EQ(batch[q][i].distance, expected[i].distance);
    }
    EXPECT_GT(counters[q].blocks_visited, 0u);
    EXPECT_GT(counters[q].values_scanned, 0u);
  }
}

TEST(MutableSearcherTest, AddWorkIsIndependentOfBaseSize) {
  // Ingest never touches the base: the same rows appended over IVF bases
  // of N and 4N rows run no k-means and pack no PDX store — each append
  // repacks only the delta's tail block.
  const size_t dim = 8;
  const VectorSet rows = RandomVectors(40, dim, 27);
  for (size_t base_rows : {size_t{250}, size_t{1000}}) {
    auto made = MutableSearcher::Make(RandomVectors(base_rows, dim, 28),
                                      Config(SearcherLayout::kIvf,
                                             PrunerKind::kBond));
    ASSERT_TRUE(made.ok());
    MutableSearcher& live = *made.value();
    const uint64_t packs = PdxStorePackCount();
    const uint64_t kmeans = KMeansRunCount();
    ASSERT_TRUE(live.Add(rows.data(), rows.count()).ok());
    EXPECT_EQ(PdxStorePackCount(), packs) << "base " << base_rows;
    EXPECT_EQ(KMeansRunCount(), kmeans) << "base " << base_rows;
    EXPECT_EQ(live.mutation_stats().delta_rows, rows.count());
  }
}

// --- Validation ---------------------------------------------------------

TEST(MutableSearcherTest, RejectsOutOfRangeIds) {
  VectorSet base = RandomVectors(4, 4, 25);
  auto made = MutableSearcher::Make(
      base, Config(SearcherLayout::kFlat, PrunerKind::kLinear));
  ASSERT_TRUE(made.ok());
  MutableSearcher& live = *made.value();
  Rng rng(26);
  const std::vector<float> row = RandomRow(rng, 4);
  const uint64_t too_big = kInvalidVectorId;
  EXPECT_TRUE(live.Add(row.data(), 1, &too_big).status().IsInvalidArgument());
  EXPECT_TRUE(live.Add(nullptr, 1).status().IsInvalidArgument());
  // All-or-nothing: the failed batch left no trace.
  EXPECT_EQ(live.shape().count, 4u);
  EXPECT_EQ(live.mutation_stats().delta_rows, 0u);
}

TEST(MutableSearcherTest, HugeDeltaBlockCapacityServesTheSameResults) {
  // The capacity only caps how many lanes a delta block may grow to; the
  // per-query scratch of the delta scan is sized by what the delta holds,
  // so a huge capacity (configured, or read back from a file) answers
  // exactly as the default one does.
  VectorSet base = RandomVectors(300, 8, 27);
  MutationConfig huge;
  huge.delta_block_capacity = SIZE_MAX;
  auto wide = MutableSearcher::Make(
      base, Config(SearcherLayout::kFlat, PrunerKind::kLinear), huge);
  auto plain = MutableSearcher::Make(
      base, Config(SearcherLayout::kFlat, PrunerKind::kLinear));
  ASSERT_TRUE(wide.ok() && plain.ok());
  Rng rng(28);
  for (int r = 0; r < 3; ++r) {
    const std::vector<float> row = RandomRow(rng, 8);
    ASSERT_TRUE(wide.value()->Add(row.data(), 1).ok());
    ASSERT_TRUE(plain.value()->Add(row.data(), 1).ok());
  }
  for (int q = 0; q < 4; ++q) {
    const std::vector<float> query = RandomRow(rng, 8);
    const auto expected = plain.value()->Search(query.data());
    const auto actual = wide.value()->Search(query.data());
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i].id, expected[i].id);
      EXPECT_EQ(actual[i].distance, expected[i].distance);
    }
  }
}

TEST(MutableSearcherTest, ShardedBaseShapeSumsOverShards) {
  // The shape's blocks (base_blocks in GET /stats) count every shard of
  // the base, on the float tier and the u8 tier alike: 300 rows over 3
  // contiguous shards of 100 in 16-lane blocks are 3 x 7 blocks. The u8
  // base's code bytes (one per value) reach the live shape too.
  VectorSet base = RandomVectors(300, 8, 29);
  ShardingOptions sharding;
  sharding.num_shards = 3;
  for (const QuantizationKind quantization :
       {QuantizationKind::kNone, QuantizationKind::kU8}) {
    SearcherConfig config = Config(SearcherLayout::kFlat, PrunerKind::kLinear);
    config.block_capacity = 16;
    config.quantization = quantization;
    auto made = MutableSearcher::Make(base, config, MutationConfig{},
                                      sharding);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    const SearcherShape shape = made.value()->shape();
    EXPECT_EQ(shape.count, 300u);
    EXPECT_EQ(shape.num_shards, 3u);
    EXPECT_EQ(shape.num_blocks, 21u);
    EXPECT_EQ(shape.quantized_bytes,
              quantization == QuantizationKind::kU8 ? 300u * 8u : 0u);
  }
}

// --- Tombstones inside the base search -----------------------------------

TEST(MutableSearcherTest, WarmQueriesAllocateAsOftenAsOnAnUntouchedOne) {
  // The base skips tombstones inside its search, and the live merge folds
  // the delta into the base's answer through per-slot scratch: a warm
  // query allocates exactly what it allocates on an untouched collection,
  // sequentially and split over a pool. The count is the calling thread's;
  // a warm pool's threads allocate nothing.
  const size_t dim = 8;
  const VectorSet base = RandomVectors(
      kExactSearchBlockCapacity + 2 * kSplitTaskLanes + 500, dim, 30);
  const VectorSet queries = RandomVectors(8, dim, 31);
  auto made = MutableSearcher::Make(
      base, Config(SearcherLayout::kFlat, PrunerKind::kBond));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  MutableSearcher& live = *made.value();
  ThreadPool four(4);
  live.ReserveScratch(four.num_threads());
  // Allocations of warm one-query batches through slot 0, one per query.
  auto allocations = [&](ThreadPool* pool) {
    PdxearchProfile work;
    auto batch = [&] {
      for (size_t q = 0; q < queries.count(); ++q) {
        (void)live.SearchBatchWith(0, QueryKnobs{}, queries.Vector(q), 1, pool,
                                   &work);
      }
    };
    batch();  // Warm.
    const uint64_t before = t_allocations;
    batch();
    return t_allocations - before;
  };
  const uint64_t split = allocations(&four);
  const uint64_t sequential = allocations(nullptr);

  for (uint64_t id = 0; id < base.count(); id += 97) {
    ASSERT_TRUE(live.Delete(id).ok()) << id;
  }
  EXPECT_EQ(allocations(&four), split) << "tombstones";
  EXPECT_EQ(allocations(nullptr), sequential) << "tombstones";

  // Delta rows over three delta blocks, the queries among them so that the
  // merge changes answers, and tombstones in the delta too.
  Rng rng(32);
  ASSERT_TRUE(live.Add(queries.data(), queries.count()).ok());
  std::vector<uint64_t> added;
  for (size_t i = 0; i < 150; ++i) {
    const std::vector<float> row = RandomRow(rng, dim);
    auto ids = live.Add(row.data(), 1);
    ASSERT_TRUE(ids.ok());
    added.push_back(ids.value()[0]);
  }
  for (size_t i = 0; i < added.size(); i += 5) {
    ASSERT_TRUE(live.Delete(added[i]).ok());
  }
  ASSERT_GT(live.mutation_stats().delta_blocks, 2u);
  EXPECT_EQ(allocations(&four), split) << "delta and tombstones";
  EXPECT_EQ(allocations(nullptr), sequential) << "delta and tombstones";
}

TEST(MutableSearcherTest, U8RerankStaysAtKTimesTheFactor) {
  // The u8 tier picks its k x rerank_factor candidates among the live base
  // rows, so tombstones never widen the rerank, and a deleted row never
  // comes back.
  const size_t dim = 8;
  const VectorSet base = RandomVectors(600, dim, 33);
  const VectorSet queries = RandomVectors(6, dim, 34);
  for (SearcherLayout layout : {SearcherLayout::kFlat, SearcherLayout::kIvf}) {
    const std::string label = SearcherLayoutName(layout);
    SearcherConfig config = Config(layout, PrunerKind::kLinear);
    config.quantization = QuantizationKind::kU8;
    auto made = MutableSearcher::Make(base, config);
    ASSERT_TRUE(made.ok()) << label << ": " << made.status().ToString();
    MutableSearcher& live = *made.value();
    std::set<uint64_t> deleted;
    // Each round deletes every query's answer and 30 more rows: 0 to about
    // 270 tombstones.
    for (size_t round = 0; round < 4; ++round) {
      EXPECT_EQ(live.mutation_stats().tombstones, deleted.size()) << label;
      std::vector<uint64_t> doomed;
      for (size_t q = 0; q < queries.count(); ++q) {
        PdxearchProfile work;
        const std::vector<Neighbor> hits =
            live.SearchWith(0, QueryKnobs{}, queries.Vector(q), &work);
        EXPECT_EQ(work.rerank_candidates, config.k * config.rerank_factor)
            << label << " round " << round;
        ASSERT_EQ(hits.size(), config.k) << label;
        for (const Neighbor& n : hits) {
          EXPECT_EQ(deleted.count(n.id), 0u) << label << " id " << n.id;
          doomed.push_back(n.id);
        }
      }
      for (size_t i = 0; i < 30; ++i) {
        doomed.push_back((round * 31 + i * 19) % base.count());
      }
      for (uint64_t id : doomed) {
        if (deleted.insert(id).second) ASSERT_TRUE(live.Delete(id).ok());
      }
    }
  }
}

TEST(MutableSearcherTest, ApproximateTiersKeepTheirRecallUnderHeavyTombstones) {
  // ADSampling and BSA prune against the k-th distance of the live base
  // rows: with a third of the base and each query's 10 nearest rows
  // deleted, no deleted row comes back, and recall against brute force
  // over the survivors is at least a fresh searcher's over them.
  const size_t dim = 16;
  const size_t k = 10;
  const VectorSet base = RandomVectors(2000, dim, 35);
  const VectorSet queries = RandomVectors(20, dim, 36);
  std::vector<bool> dead(base.count(), false);
  for (size_t id = 0; id < base.count(); id += 3) dead[id] = true;
  for (const std::vector<VectorId>& nearest :
       ComputeGroundTruth(base, queries, k)) {
    for (VectorId id : nearest) dead[id] = true;
  }
  VectorSet survivors(dim, base.count());
  std::vector<uint64_t> external;
  for (size_t id = 0; id < base.count(); ++id) {
    if (dead[id]) continue;
    survivors.Append(base.Vector(id));
    external.push_back(id);
  }
  // Brute force over the survivors, in external ids.
  std::vector<std::set<uint64_t>> truth(queries.count());
  const std::vector<std::vector<VectorId>> nearest =
      ComputeGroundTruth(survivors, queries, k);
  for (size_t q = 0; q < queries.count(); ++q) {
    for (VectorId r : nearest[q]) truth[q].insert(external[r]);
  }
  for (SearcherLayout layout : {SearcherLayout::kFlat, SearcherLayout::kIvf}) {
    for (PrunerKind pruner : {PrunerKind::kAdsampling, PrunerKind::kBsa}) {
      const std::string label = std::string(SearcherLayoutName(layout)) +
                                "/" + PrunerKindName(pruner);
      const SearcherConfig config = Config(layout, pruner, k);
      auto made = MutableSearcher::Make(base, config);
      auto fresh = MakeSearcher(survivors, config);
      ASSERT_TRUE(made.ok() && fresh.ok()) << label;
      MutableSearcher& live = *made.value();
      for (size_t id = 0; id < base.count(); ++id) {
        if (dead[id]) ASSERT_TRUE(live.Delete(id).ok()) << label;
      }
      size_t live_hits = 0;
      size_t fresh_hits = 0;
      for (size_t q = 0; q < queries.count(); ++q) {
        for (const Neighbor& n : live.Search(queries.Vector(q))) {
          EXPECT_FALSE(dead[n.id]) << label << " id " << n.id;
          live_hits += truth[q].count(n.id);
        }
        for (const Neighbor& n : fresh.value()->Search(queries.Vector(q))) {
          fresh_hits += truth[q].count(external[n.id]);
        }
      }
      EXPECT_GE(live_hits, fresh_hits) << label;
      EXPECT_GT(fresh_hits, queries.count() * k * 9 / 10) << label;
    }
  }
}

}  // namespace
}  // namespace pdx
