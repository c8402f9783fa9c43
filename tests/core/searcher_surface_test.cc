// One parity table over every Searcher implementation: the plain float
// facade (flat and IVF, and a flat store large enough that a one-query
// batch on a pool splits over it), the u8 quantized tier, the sharded
// facade (flat and IVF) and a live collection after mutations, over a plain
// and over a sharded base. Each implementation provides the per-slot
// SearchWith primitive and its shape() (plus a SearchBatchWith override on
// the float facade, for the one-query split, and on the sharded and live
// ones); Search, SearchBatch and the batch fan-out come from the base
// class, so all three query surfaces must agree exactly — with each other
// and with a searcher built with the same knobs — and a pooled batch must
// hand out the same per-query work records as a sequential one, except
// where one query splits. Every row's shape must match the one its layout
// rules predict, on the live rows after mutations and after a fold too.
//
// The binary also counts heap allocations (global operator new) to pin
// that the shared fan-out adds none of its own.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "benchlib/datagen.h"
#include "core/any_searcher.h"
#include "core/mutable_searcher.h"
#include "core/sharded_searcher.h"
#include "index/ivf.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// The nothrow forms (std::stable_sort's temporary buffer uses them) must
// come from the same heap the deletes below free into; a sanitizer runtime
// would otherwise serve them from its own.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pdx {
namespace {

uint64_t Allocations() { return g_allocations.load(std::memory_order_relaxed); }

Dataset MakeData() {
  SyntheticSpec spec;
  spec.name = "searcher-surface-test";
  spec.dim = 24;
  spec.count = 2400;
  spec.num_queries = 9;
  spec.num_clusters = 8;
  spec.seed = 4242;
  spec.distribution = ValueDistribution::kNormal;
  return GenerateDataset(spec);
}

/// The rows of the "flat-split" case: START's one exact-search partition
/// and 3 x kSplitTaskLanes + 1,000 rows after it, so START leaves 31,720
/// lanes to split, into three tasks on a pool of 4 and two on a pool of 2.
const VectorSet& SplitRows() {
  static const VectorSet rows = [] {
    SyntheticSpec spec;
    spec.name = "searcher-surface-split";
    spec.dim = 24;
    spec.count = kExactSearchBlockCapacity + 3 * kSplitTaskLanes + 1000;
    spec.num_queries = 1;
    spec.num_clusters = 8;
    spec.seed = 4243;
    spec.distribution = ValueDistribution::kNormal;
    return std::move(GenerateDataset(spec).data);
  }();
  return rows;
}

/// One row of the table: a name and a factory that builds the searcher
/// under a given config (k, nprobe and threads vary per call), with the
/// rows it serves, the contiguous shard count it builds, whether it is a
/// live collection, and whether a one-query batch on a pool splits its
/// flat search over the pool (which changes the query's work record).
struct Case {
  std::string name;
  SearcherConfig config;
  std::function<std::unique_ptr<Searcher>(const SearcherConfig&)> build;
  const VectorSet* rows = nullptr;
  size_t shards = 1;
  bool live = false;
  bool splits = false;
};

/// The live rows' mutations: upserts of ids 5-7 and new ids 100000 and
/// 100001 (query rows 0-4 in that order), then deletes of 11-13 and
/// 100001. Results then need the delta scan and the tombstone filter.
const std::vector<uint64_t> kAddedIds = {5, 6, 7, 100000, 100001};
const std::vector<uint64_t> kDeletedIds = {11, 12, 13, 100001};

std::vector<Case> Cases(const Dataset& data) {
  auto plain = [&data](const SearcherConfig& config) {
    auto made = MakeSearcher(data.data, config);
    EXPECT_TRUE(made.ok()) << made.status().ToString();
    return std::move(made).value();
  };
  auto sharded = [&data](const SearcherConfig& config) {
    ShardingOptions sharding;
    sharding.num_shards = 3;
    auto made = MakeShardedSearcher(data.data, config, sharding);
    EXPECT_TRUE(made.ok()) << made.status().ToString();
    return std::move(made).value();
  };
  auto live = [&data](const SearcherConfig& config, size_t num_shards) {
    ShardingOptions sharding;
    sharding.num_shards = num_shards;
    auto made = MutableSearcher::Make(data.data, config, {}, sharding);
    EXPECT_TRUE(made.ok()) << made.status().ToString();
    std::unique_ptr<MutableSearcher> searcher = std::move(made).value();
    EXPECT_TRUE(searcher
                    ->Add(data.queries.data(), kAddedIds.size(),
                          kAddedIds.data())
                    .ok());
    for (uint64_t id : kDeletedIds) EXPECT_TRUE(searcher->Delete(id).ok());
    return std::unique_ptr<Searcher>(std::move(searcher));
  };
  auto live_plain = [live](const SearcherConfig& config) {
    return live(config, 1);
  };
  auto live_sharded = [live](const SearcherConfig& config) {
    return live(config, 3);
  };
  auto split = [](const SearcherConfig& config) {
    auto made = MakeSearcher(SplitRows(), config);
    EXPECT_TRUE(made.ok()) << made.status().ToString();
    return std::move(made).value();
  };

  SearcherConfig flat;
  flat.layout = SearcherLayout::kFlat;
  flat.pruner = PrunerKind::kBond;
  SearcherConfig ivf;
  ivf.layout = SearcherLayout::kIvf;
  ivf.pruner = PrunerKind::kAdsampling;
  SearcherConfig u8 = ivf;
  u8.pruner = PrunerKind::kLinear;
  u8.quantization = QuantizationKind::kU8;
  const VectorSet* rows = &data.data;
  return {{"flat", flat, plain, rows},
          {"flat-split", flat, split, &SplitRows(), 1, false, true},
          {"ivf", ivf, plain, rows},
          {"u8", u8, plain, rows},
          {"sharded", flat, sharded, rows, 3},
          {"sharded-ivf", ivf, sharded, rows, 3},
          {"mutable", flat, live_plain, rows, 1, true},
          {"mutable-sharded", ivf, live_sharded, rows, 3, true}};
}

void ExpectSameNeighbors(const std::vector<Neighbor>& actual,
                         const std::vector<Neighbor>& expected,
                         const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i].id, expected[i].id) << label << " rank " << i;
    ASSERT_EQ(actual[i].distance, expected[i].distance)
        << label << " rank " << i;
  }
}

TEST(SearcherSurfaceTest, EveryQuerySurfaceAgreesOnEveryImplementation) {
  const Dataset data = MakeData();
  const size_t nq = data.queries.count();
  constexpr size_t kK = 7;
  constexpr size_t kNprobe = 5;

  for (const Case& c : Cases(data)) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      const std::string label = c.name + " threads=" + std::to_string(threads);
      // `configured` carries k/nprobe in its config; `generic` keeps the
      // defaults and gets them per call.
      SearcherConfig config = c.config;
      config.threads = threads;
      config.k = kK;
      config.nprobe = kNprobe;
      std::unique_ptr<Searcher> configured = c.build(config);
      SearcherConfig defaults = c.config;
      defaults.threads = threads;
      std::unique_ptr<Searcher> generic = c.build(defaults);
      ASSERT_NE(configured, nullptr) << label;
      ASSERT_NE(generic, nullptr) << label;
      ASSERT_NE(defaults.k, kK);

      const auto batch = configured->SearchBatch(data.queries.data(), nq);

      // A band other than 0, on a caller pool of the same size (1 spawns
      // nothing): any reserved band must serve identically.
      const size_t band = 4;
      ThreadPool pool(threads);
      generic->ReserveScratch(band + threads);
      std::vector<PdxearchProfile> work(nq);
      const auto with_knobs =
          generic->SearchBatchWith(band, QueryKnobs{kK, kNprobe},
                                   data.queries.data(), nq, &pool, work.data());

      for (size_t q = 0; q < nq; ++q) {
        const std::string query_label = label + " q" + std::to_string(q);
        const std::vector<Neighbor> single =
            configured->Search(data.queries.Vector(q));
        EXPECT_GT(configured->last_profile().blocks_visited, 0u)
            << query_label;
        ASSERT_EQ(single.size(), kK) << query_label;
        ExpectSameNeighbors(batch[q], single, query_label + " SearchBatch");
        ExpectSameNeighbors(with_knobs[q], single,
                            query_label + " SearchBatchWith");
        EXPECT_GT(work[q].blocks_visited, 0u) << query_label;
      }
      // Per-call knobs never touch the configured defaults.
      EXPECT_EQ(generic->options().k, defaults.k) << label;
    }
  }
}

/// The shape a searcher over `rows` must report, derived from the layout
/// rules rather than read from any searcher: `num_shards` contiguous
/// shards, each packing its groups (its IVF index's buckets, or all of its
/// rows) into blocks of block_capacity lanes.
SearcherShape ExpectedShape(const VectorSet& rows, const SearcherConfig& config,
                            size_t num_shards) {
  const SearcherConfig resolved = ResolveConfig(config);
  const size_t capacity = resolved.block_capacity;
  SearcherShape shape;
  shape.count = rows.count();
  shape.num_shards = num_shards;
  size_t begin = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    const size_t len =
        rows.count() / num_shards + (s < rows.count() % num_shards ? 1 : 0);
    std::vector<VectorId> ids(len);
    std::iota(ids.begin(), ids.end(), static_cast<VectorId>(begin));
    begin += len;
    std::vector<size_t> groups = {len};
    if (resolved.layout == SearcherLayout::kIvf) {
      const IvfIndex index = IvfIndex::Build(rows.Select(ids), resolved.ivf);
      shape.max_nprobe = std::max(shape.max_nprobe, index.num_buckets());
      groups.clear();
      for (const auto& bucket : index.buckets()) {
        groups.push_back(bucket.size());
      }
    }
    for (const size_t group : groups) {
      shape.num_blocks += (group + capacity - 1) / capacity;
    }
  }
  if (resolved.quantization == QuantizationKind::kU8) {
    shape.quantized_bytes = rows.count() * rows.dim();
  }
  return shape;
}

void ExpectShape(const SearcherShape& actual, const SearcherShape& expected,
                 const std::string& label) {
  EXPECT_EQ(actual.count, expected.count) << label;
  EXPECT_EQ(actual.num_blocks, expected.num_blocks) << label;
  EXPECT_EQ(actual.num_shards, expected.num_shards) << label;
  EXPECT_EQ(actual.max_nprobe, expected.max_nprobe) << label;
  EXPECT_EQ(actual.quantized_bytes, expected.quantized_bytes) << label;
  EXPECT_EQ(actual.mapped_bytes, expected.mapped_bytes) << label;
}

bool Contains(const std::vector<uint64_t>& ids, uint64_t id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

TEST(SearcherSurfaceTest, ShapeDescribesEveryImplementation) {
  const Dataset data = MakeData();
  // The rows a fold keeps, in slot order: the base rows neither upserted
  // nor deleted, then the delta rows not deleted.
  VectorSet survivors(data.dim(), data.data.count());
  for (VectorId i = 0; i < data.data.count(); ++i) {
    if (!Contains(kAddedIds, i) && !Contains(kDeletedIds, i)) {
      survivors.Append(data.data.Vector(i));
    }
  }
  for (size_t r = 0; r < kAddedIds.size(); ++r) {
    if (!Contains(kDeletedIds, kAddedIds[r])) {
      survivors.Append(data.queries.Vector(static_cast<VectorId>(r)));
    }
  }

  for (const Case& c : Cases(data)) {
    std::unique_ptr<Searcher> searcher = c.build(c.config);
    ASSERT_NE(searcher, nullptr) << c.name;
    EXPECT_EQ(searcher->dim(), data.dim()) << c.name;
    SearcherShape expected = ExpectedShape(*c.rows, c.config, c.shards);
    if (!c.live) {
      ExpectShape(searcher->shape(), expected, c.name);
      continue;
    }
    // A live collection counts its live rows; the rest is its base's.
    expected.count = survivors.count();
    ExpectShape(searcher->shape(), expected, c.name + " mutated");
    MutableSearcher& live = static_cast<MutableSearcher&>(*searcher);
    ASSERT_TRUE(live.Compact().ok()) << c.name;
    ExpectShape(live.shape(), ExpectedShape(survivors, c.config, c.shards),
                c.name + " folded");
  }
}

TEST(SearcherSurfaceTest, HugeKMatchesKEqualToCount) {
  // Any k at or past the vector count returns every candidate the search
  // reaches, so a huge k — configured, as a loaded file's meta can carry
  // it, or per call — must answer exactly as k = shape().count does instead
  // of sizing a heap by it.
  const Dataset data = MakeData();
  constexpr size_t kQueries = 3;
  constexpr size_t kHugeK = size_t{1} << 40;
  ThreadPool pool(4);
  for (const Case& c : Cases(data)) {
    SearcherConfig huge_config = c.config;
    huge_config.k = kHugeK;
    std::unique_ptr<Searcher> huge = c.build(huge_config);
    ASSERT_NE(huge, nullptr) << c.name;
    SearcherConfig count_config = c.config;
    count_config.k = huge->shape().count;
    std::unique_ptr<Searcher> everything = c.build(count_config);
    ASSERT_NE(everything, nullptr) << c.name;

    const auto expected =
        everything->SearchBatch(data.queries.data(), kQueries);
    const auto configured = huge->SearchBatch(data.queries.data(), kQueries);
    const auto per_call = everything->SearchBatchWith(
        0, QueryKnobs{SIZE_MAX, 0}, data.queries.data(), kQueries);
    for (size_t q = 0; q < kQueries; ++q) {
      const std::string label = c.name + " q" + std::to_string(q);
      EXPECT_GT(expected[q].size(), c.config.k) << label;
      ExpectSameNeighbors(configured[q], expected[q], label + " configured");
      ExpectSameNeighbors(per_call[q], expected[q], label + " per call");
      // One query on a pool answers the same; on the flat layout START
      // takes every block, so nothing is left to split.
      const auto one = everything->SearchBatchWith(
          0, QueryKnobs{SIZE_MAX, 0}, data.queries.Vector(q), 1, &pool);
      ExpectSameNeighbors(one.front(), expected[q], label + " one on a pool");
    }
  }
}

/// Every work counter of `actual` equals `expected`'s (the phase times are
/// wall clock and are not compared).
void ExpectSameWork(const PdxearchProfile& actual,
                    const PdxearchProfile& expected,
                    const std::string& label) {
  EXPECT_EQ(actual.values_scanned, expected.values_scanned) << label;
  EXPECT_EQ(actual.values_total, expected.values_total) << label;
  EXPECT_EQ(actual.predicate_evaluations, expected.predicate_evaluations)
      << label;
  EXPECT_EQ(actual.blocks_visited, expected.blocks_visited) << label;
  EXPECT_EQ(actual.vectors_pruned, expected.vectors_pruned) << label;
  EXPECT_EQ(actual.dims_scanned, expected.dims_scanned) << label;
  EXPECT_EQ(actual.rerank_candidates, expected.rerank_candidates) << label;
}

TEST(SearcherSurfaceTest, PooledWorkRecordsEqualSequentialOnes) {
  // per_query[q] of a pooled batch is query q's own work, exactly as a
  // sequential batch reports it: on the base fan-out, on the sharded
  // (shard x query) tiling, which reduces one record per shard task into
  // each query's, and on a live collection, which adds its delta scan.
  const Dataset data = MakeData();
  const size_t nq = data.queries.count();
  ThreadPool pool(4);
  ThreadPool other(4);

  for (const Case& c : Cases(data)) {
    std::unique_ptr<Searcher> searcher = c.build(c.config);
    ASSERT_NE(searcher, nullptr) << c.name;
    std::vector<PdxearchProfile> sequential(nq);
    std::vector<PdxearchProfile> pooled(nq);
    (void)searcher->SearchBatchWith(0, QueryKnobs{}, data.queries.data(), nq,
                                    nullptr, sequential.data());
    (void)searcher->SearchBatchWith(0, QueryKnobs{}, data.queries.data(), nq,
                                    &pool, pooled.data());
    for (size_t q = 0; q < nq; ++q) {
      const std::string label = c.name + " q" + std::to_string(q);
      EXPECT_GT(sequential[q].blocks_visited, 0u) << label;
      ExpectSameWork(pooled[q], sequential[q], label);
    }
    // One query on a pool: sequential on the base fan-out, spread over the
    // shards on the tiling, split after START on the flat-split row.
    PdxearchProfile one;
    (void)searcher->SearchBatchWith(0, QueryKnobs{}, data.queries.data(), 1,
                                    &pool, &one);
    const std::string label = c.name + " one-query batch";
    if (!c.splits) {
      ExpectSameWork(one, sequential[0], label);
      continue;
    }
    // A split prunes each task against START's bound, so it scans other
    // values than the sequential search; but it visits every block, and
    // its record depends only on the query, the store and the pool size.
    EXPECT_EQ(one.blocks_visited, sequential[0].blocks_visited) << label;
    EXPECT_EQ(one.values_total, sequential[0].values_total) << label;
    EXPECT_GT(one.values_scanned, sequential[0].values_scanned) << label;
    PdxearchProfile again;
    PdxearchProfile elsewhere;
    (void)searcher->SearchBatchWith(0, QueryKnobs{}, data.queries.data(), 1,
                                    &pool, &again);
    (void)searcher->SearchBatchWith(0, QueryKnobs{}, data.queries.data(), 1,
                                    &other, &elsewhere);
    ExpectSameWork(again, one, label + " again");
    ExpectSameWork(elsewhere, one, label + " on another pool of 4");
  }
}

/// Allocations of `fn()`.
template <typename Fn>
uint64_t CountAllocations(const Fn& fn) {
  const uint64_t before = Allocations();
  fn();
  return Allocations() - before;
}

TEST(SearcherSurfaceTest, SequentialBatchAllocatesNothingOfItsOwn) {
  const Dataset data = MakeData();
  const size_t nq = data.queries.count();
  std::vector<PdxearchProfile> counters(nq);

  for (const Case& c : Cases(data)) {
    std::unique_ptr<Searcher> searcher = c.build(c.config);
    ASSERT_NE(searcher, nullptr) << c.name;
    const QueryKnobs knobs{5, 3};
    const size_t slot = 2;
    searcher->ReserveScratch(slot + 1);
    (void)searcher->SearchBatchWith(slot, knobs, data.queries.data(), nq,
                                    nullptr, counters.data());  // Warm.

    const uint64_t singles = CountAllocations([&] {
      for (size_t q = 0; q < nq; ++q) {
        (void)searcher->SearchWith(slot, knobs, data.queries.Vector(q));
      }
    });
    const uint64_t batch = CountAllocations([&] {
      (void)searcher->SearchBatchWith(slot, knobs, data.queries.data(), nq,
                                      nullptr, counters.data());
    });
    // One extra allocation: the outer result vector.
    EXPECT_LE(batch, singles + 1) << c.name;
    EXPECT_GT(counters[0].blocks_visited, 0u) << c.name;
  }
}

/// Runs one item on every thread of `pool` — each item waits until all of
/// them have started, so no thread can take two — so the per-thread state
/// a pool thread sets up on its first loop exists before anything is
/// measured.
void TouchEveryThread(ThreadPool& pool) {
  std::atomic<size_t> started{0};
  pool.ParallelFor(pool.num_threads(), [&](size_t, size_t) {
    started.fetch_add(1);
    while (started.load() < pool.num_threads()) std::this_thread::yield();
  });
}

TEST(SearcherSurfaceTest, PooledBatchAllocationsDoNotGrowWithThePool) {
  const Dataset data = MakeData();
  const size_t nq = data.queries.count();
  std::vector<PdxearchProfile> counters(nq);
  ThreadPool two(2);
  ThreadPool four(4);
  TouchEveryThread(two);
  TouchEveryThread(four);

  for (const Case& c : Cases(data)) {
    std::unique_ptr<Searcher> searcher = c.build(c.config);
    ASSERT_NE(searcher, nullptr) << c.name;
    const QueryKnobs knobs{5, 3};
    searcher->ReserveScratch(four.num_threads());
    // Warm every slot of the widest band, so no lazily sized scratch
    // allocates inside the measured batches.
    for (size_t slot = 0; slot < four.num_threads(); ++slot) {
      for (size_t q = 0; q < nq; ++q) {
        (void)searcher->SearchWith(slot, knobs, data.queries.Vector(q));
      }
    }
    auto pooled = [&](ThreadPool& pool) {
      (void)searcher->SearchBatchWith(0, knobs, data.queries.data(), nq,
                                      &pool, counters.data());  // Warm.
      return CountAllocations([&] {
        (void)searcher->SearchBatchWith(0, knobs, data.queries.data(), nq,
                                        &pool, counters.data());
      });
    };
    const uint64_t on_two = pooled(two);
    const uint64_t on_four = pooled(four);
    EXPECT_EQ(on_two, on_four) << c.name;
    if (!c.splits) continue;
    // A split keeps its task heaps in per-slot scratch: it allocates the
    // same on any pool, and no more than the query run sequentially.
    auto one = [&](ThreadPool* pool) {
      (void)searcher->SearchBatchWith(0, knobs, data.queries.data(), 1, pool,
                                      counters.data());  // Warm.
      return CountAllocations([&] {
        (void)searcher->SearchBatchWith(0, knobs, data.queries.data(), 1,
                                        pool, counters.data());
      });
    };
    const uint64_t one_on_two = one(&two);
    EXPECT_EQ(one_on_two, one(&four)) << c.name;
    EXPECT_LE(one_on_two, one(nullptr)) << c.name;
  }
}

}  // namespace
}  // namespace pdx
