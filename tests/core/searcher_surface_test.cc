// One parity table over every Searcher implementation: the plain float
// facade (flat and IVF), the u8 quantized tier, the sharded facade (flat
// and IVF) and a live collection after mutations, over a plain and over a
// sharded base. Each implementation provides only the per-slot SearchWith
// primitive (plus, for the sharded and live ones, a SearchBatchWith
// override); Search, SearchBatch and the batch fan-out come from the base
// class, so all three query surfaces must agree exactly — with each other
// and with a searcher built with the same knobs — and a pooled batch must
// hand out the same per-query work records as a sequential one.
//
// The binary also counts heap allocations (global operator new) to pin
// that the shared fan-out adds none of its own.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "benchlib/datagen.h"
#include "core/any_searcher.h"
#include "core/mutable_searcher.h"
#include "core/sharded_searcher.h"

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

/// One row of the table: a name and a factory that builds the searcher
/// under a given config (k, nprobe and threads vary per call).
struct Case {
  std::string name;
  SearcherConfig config;
  std::function<std::unique_ptr<Searcher>(const SearcherConfig&)> build;
};

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
    // Upsert three rows with query vectors, append two new ones and delete
    // a few: results now need the delta scan and the tombstone filter.
    const std::vector<uint64_t> ids = {5, 6, 7, 100000, 100001};
    EXPECT_TRUE(searcher->Add(data.queries.data(), ids.size(), ids.data())
                    .ok());
    for (uint64_t id : {11, 12, 13, 100001}) {
      EXPECT_TRUE(searcher->Delete(id).ok());
    }
    return std::unique_ptr<Searcher>(std::move(searcher));
  };
  auto live_plain = [live](const SearcherConfig& config) {
    return live(config, 1);
  };
  auto live_sharded = [live](const SearcherConfig& config) {
    return live(config, 3);
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
  return {{"flat", flat, plain},
          {"ivf", ivf, plain},
          {"u8", u8, plain},
          {"sharded", flat, sharded},
          {"sharded-ivf", ivf, sharded},
          {"mutable", flat, live_plain},
          {"mutable-sharded", ivf, live_sharded}};
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

TEST(SearcherSurfaceTest, HugeKMatchesKEqualToCount) {
  // Any k at or past the vector count returns every candidate the search
  // reaches, so a huge k — configured, as a loaded file's meta can carry
  // it, or per call — must answer exactly as k = count() does instead of
  // sizing a heap by it.
  const Dataset data = MakeData();
  constexpr size_t kQueries = 3;
  constexpr size_t kHugeK = size_t{1} << 40;
  for (const Case& c : Cases(data)) {
    SearcherConfig huge_config = c.config;
    huge_config.k = kHugeK;
    std::unique_ptr<Searcher> huge = c.build(huge_config);
    ASSERT_NE(huge, nullptr) << c.name;
    SearcherConfig count_config = c.config;
    count_config.k = huge->count();
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
    // shards on the tiling.
    PdxearchProfile one;
    (void)searcher->SearchBatchWith(0, QueryKnobs{}, data.queries.data(), 1,
                                    &pool, &one);
    ExpectSameWork(one, sequential[0], c.name + " one-query batch");
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
  }
}

}  // namespace
}  // namespace pdx
