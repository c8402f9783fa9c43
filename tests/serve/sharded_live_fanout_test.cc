// A sharded live collection served through SearchService must spread even a
// one-query batch across its shards on the service's shared pool: the
// MutableSearcher wrapper hands each batch to its sharded base, whose
// (shard x query) tiling runs on the pool the service passes with it.
//
// The binary counts which threads allocate while a query is in flight
// (global operator new): every shard search allocates its result list, so
// a query whose shards ran on pool workers shows up as more than one
// allocating thread besides the submitting one, while a query whose
// shards ran one after another on the dispatcher shows exactly one.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <thread>
#include <vector>

#include "benchlib/datagen.h"
#include "serve/search_service.h"

namespace {

constexpr size_t kMaxTracked = 64;
std::atomic<bool> g_tracking{false};
std::thread::id g_submitter;
std::atomic<size_t> g_thread_hashes[kMaxTracked];
std::atomic<size_t> g_num_threads{0};

/// Records the calling thread once per tracking window. Allocation-free:
/// it runs inside operator new.
void NoteAllocatingThread() {
  if (!g_tracking.load(std::memory_order_acquire)) return;
  const std::thread::id self = std::this_thread::get_id();
  if (self == g_submitter) return;
  const size_t hash = std::hash<std::thread::id>{}(self);
  const size_t known = std::min(g_num_threads.load(), kMaxTracked);
  for (size_t i = 0; i < known; ++i) {
    if (g_thread_hashes[i].load() == hash) return;
  }
  const size_t index = g_num_threads.fetch_add(1);
  if (index < kMaxTracked) g_thread_hashes[index].store(hash);
}

}  // namespace

void* operator new(std::size_t size) {
  NoteAllocatingThread();
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  NoteAllocatingThread();
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pdx {
namespace {

TEST(ShardedLiveFanoutTest, OneQueryBatchRunsShardsOnSeveralPoolWorkers) {
  SyntheticSpec spec;
  spec.name = "sharded-live-fanout-test";
  spec.dim = 64;
  spec.count = 24000;
  spec.num_queries = 4;
  spec.num_clusters = 8;
  spec.seed = 77;
  spec.distribution = ValueDistribution::kNormal;
  const Dataset data = GenerateDataset(spec);

  SearcherConfig config;
  config.layout = SearcherLayout::kFlat;
  config.pruner = PrunerKind::kLinear;
  config.k = 10;
  auto reference = MakeSearcher(data.data, config);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  ServiceConfig sc;
  sc.threads = 4;
  sc.dispatchers = 1;
  SearchService service(sc);
  ShardingOptions sharding;
  sharding.num_shards = 4;
  ASSERT_TRUE(service.AddCollection("live", data.data, config, sharding).ok());

  g_submitter = std::this_thread::get_id();
  // Whether an idle worker wakes before the dispatcher has run every shard
  // itself is up to the scheduler, so one query is given many chances; a
  // dispatcher that ran the shards sequentially never shows a second
  // thread.
  constexpr size_t kAttempts = 200;
  size_t most_threads = 0;
  for (size_t attempt = 0; attempt < kAttempts && most_threads < 2;
       ++attempt) {
    const float* query = data.queries.Vector(attempt % spec.num_queries);
    g_num_threads.store(0);
    g_tracking.store(true, std::memory_order_release);
    QueryResult result = service.Submit("live", query).result.get();
    g_tracking.store(false, std::memory_order_release);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();

    const std::vector<Neighbor> expected = reference.value()->Search(query);
    ASSERT_EQ(result.neighbors.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(result.neighbors[i].id, expected[i].id) << "rank " << i;
      ASSERT_EQ(result.neighbors[i].distance, expected[i].distance)
          << "rank " << i;
    }
    most_threads = std::max(most_threads, g_num_threads.load());
  }
  EXPECT_GE(most_threads, 2u)
      << "every one-query batch ran all shards on the dispatcher thread";
}

}  // namespace
}  // namespace pdx
