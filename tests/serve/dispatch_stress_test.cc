// TSan-targeted stress for replicated concurrent dispatch: N dispatcher
// threads x M client threads hammer one hot unsharded collection plus one
// sharded collection through a single SearchService, with per-query k
// overrides that force *different batch keys for the same collection to be
// in flight at once* (the scenario a shared, mutated k/nprobe would race
// on). Assertions:
//
//   - exact parity: every successful result is byte-identical to a direct
//     sequential Searcher::Search with the same knobs;
//   - liveness: every future resolves (a deadlock hangs the binary and the
//     ctest timeout fails CI);
//   - accounting: per-dispatcher dispatch counts partition the total.
//
// The hot collection is large enough (2 x kSplitTaskLanes + 2,400 lanes
// after START, so two tasks) that every one-query batch splits its flat
// search over the shared pool, so concurrent dispatchers run concurrent
// splits on one pool.
//
// The ThreadSanitizer and AddressSanitizer CI jobs run this binary; any
// data race on the dispatch path (searcher config, slot engines, split
// heaps, scratch) or lifetime bug in the Pending hand-offs surfaces here.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "benchlib/datagen.h"
#include "serve/search_service.h"

namespace pdx {
namespace {

using namespace std::chrono_literals;

struct StressFixture {
  Dataset dataset;         ///< The hot collection's rows, and the queries.
  VectorSet sharded_rows;  ///< The sharded collection's: the first 2,400.
  std::vector<std::vector<std::vector<Neighbor>>> expected_hot;      // [k][q]
  std::vector<std::vector<std::vector<Neighbor>>> expected_sharded;  // [k][q]
};

SearcherConfig HotConfig() {
  SearcherConfig config;
  config.layout = SearcherLayout::kFlat;
  config.pruner = PrunerKind::kBond;
  config.k = 10;
  return config;
}

/// Ground truth per k override, computed sequentially up front. The
/// sharded reference is the sharded searcher itself driven sequentially —
/// byte-identical to its own concurrent path is the claim under test.
StressFixture MakeStressFixture(size_t num_shards) {
  SyntheticSpec spec;
  spec.name = "dispatch-stress";
  spec.dim = 24;
  spec.count = kExactSearchBlockCapacity + 2 * kSplitTaskLanes + 2400;
  spec.num_queries = 16;
  spec.num_clusters = 8;
  spec.seed = 1234;
  spec.distribution = ValueDistribution::kNormal;
  StressFixture fx{GenerateDataset(spec), {}, {}, {}};
  fx.sharded_rows =
      VectorSet::FromRowMajor(fx.dataset.data.data(), 2400, spec.dim);

  ShardingOptions sharding;
  sharding.num_shards = num_shards;
  auto hot = MakeSearcher(fx.dataset.data, HotConfig());
  auto sharded = MakeShardedSearcher(fx.sharded_rows, HotConfig(), sharding);
  EXPECT_TRUE(hot.ok());
  EXPECT_TRUE(sharded.ok());
  const size_t nq = fx.dataset.queries.count();
  for (size_t k : {size_t{10}, size_t{5}}) {
    std::vector<std::vector<Neighbor>> hot_k(nq), sharded_k(nq);
    for (size_t q = 0; q < nq; ++q) {
      hot_k[q] = hot.value()->SearchWith(0, QueryKnobs{k, 0},
                                         fx.dataset.queries.Vector(q));
      sharded_k[q] = sharded.value()->SearchWith(0, QueryKnobs{k, 0},
                                                 fx.dataset.queries.Vector(q));
    }
    fx.expected_hot.push_back(std::move(hot_k));
    fx.expected_sharded.push_back(std::move(sharded_k));
  }
  return fx;
}

bool SameNeighbors(const std::vector<Neighbor>& actual,
                   const std::vector<Neighbor>& expected) {
  if (actual.size() != expected.size()) return false;
  for (size_t i = 0; i < actual.size(); ++i) {
    if (actual[i].id != expected[i].id ||
        actual[i].distance != expected[i].distance) {
      return false;
    }
  }
  return true;
}

TEST(DispatchStressTest, ConcurrentDispatchersKeepExactParity) {
  constexpr size_t kShards = 3;
  constexpr size_t kDispatchers = 4;
  constexpr size_t kClients = 4;
  constexpr size_t kRounds = 6;
  StressFixture fx = MakeStressFixture(kShards);

  ServiceConfig sc;
  sc.threads = 4;
  sc.dispatchers = kDispatchers;
  sc.max_batch = 4;
  sc.max_pending = 4096;
  SearchService service(sc);
  ASSERT_TRUE(
      service.AddCollection("hot", fx.dataset.data, HotConfig()).ok());
  ShardingOptions sharding;
  sharding.num_shards = kShards;
  ASSERT_TRUE(service
                  .AddCollection("sharded", fx.sharded_rows, HotConfig(),
                                 sharding)
                  .ok());

  const size_t nq = fx.dataset.queries.count();
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> unresolved{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t round = 0; round < kRounds; ++round) {
        struct Outstanding {
          size_t variant;  // 0 = k default (10), 1 = k override (5).
          size_t q;
          bool sharded;
          QueryTicket ticket;
        };
        std::vector<Outstanding> outstanding;
        for (size_t q = 0; q < nq; ++q) {
          // Alternate the k override per client and query so batches with
          // DIFFERENT keys for the SAME collection coexist in the queue —
          // concurrent dispatchers then run them simultaneously on
          // disjoint slot bands.
          const size_t variant = (c + q) % 2;
          QueryOptions options;
          options.k = variant == 0 ? 0 : 5;
          outstanding.push_back(
              {variant, q, false,
               service.Submit("hot", fx.dataset.queries.Vector(q), options)});
          outstanding.push_back({variant, q, true,
                                 service.Submit("sharded",
                                                fx.dataset.queries.Vector(q),
                                                options)});
        }
        for (Outstanding& out : outstanding) {
          // A future that never resolves parks here until the ctest
          // timeout kills the binary — that IS the liveness gate.
          QueryResult result = out.ticket.result.get();
          if (!result.status.ok()) {
            unresolved.fetch_add(1);
            continue;
          }
          const auto& expected = out.sharded
                                     ? fx.expected_sharded[out.variant][out.q]
                                     : fx.expected_hot[out.variant][out.q];
          if (!SameNeighbors(result.neighbors, expected)) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(mismatches.load(), 0u)
      << "concurrent dispatch diverged from sequential Search";
  EXPECT_EQ(unresolved.load(), 0u) << "some queries failed under stress";

  const ServiceStats stats = service.Stats();
  ASSERT_EQ(stats.dispatchers.size(), kDispatchers);
  uint64_t dispatcher_total = 0;
  for (const DispatcherStats& ds : stats.dispatchers) {
    dispatcher_total += ds.dispatches;
    EXPECT_GE(ds.busy_fraction, 0.0);
    EXPECT_LE(ds.busy_fraction, 1.0);
  }
  uint64_t collection_total = 0;
  for (const auto& [name, cs] : stats.collections) {
    collection_total += cs.dispatches;
    EXPECT_EQ(cs.completed, kClients * kRounds * nq);
  }
  EXPECT_EQ(dispatcher_total, collection_total);
}

TEST(DispatchStressTest, ConcurrentOneQuerySplitsKeepExactParity) {
  // One query per batch: every dispatch of the hot collection splits its
  // flat search over the shared pool, so the dispatchers' splits overlap
  // on the same workers, each on its own slot band.
  StressFixture fx = MakeStressFixture(2);
  ServiceConfig sc;
  sc.threads = 4;
  sc.dispatchers = 3;
  sc.max_batch = 1;
  SearchService service(sc);
  ASSERT_TRUE(
      service.AddCollection("hot", fx.dataset.data, HotConfig()).ok());

  const size_t nq = fx.dataset.queries.count();
  std::atomic<size_t> bad{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      for (size_t round = 0; round < 4; ++round) {
        struct Outstanding {
          size_t variant;  // 0 = k default (10), 1 = k override (5).
          size_t q;
          QueryTicket ticket;
        };
        std::vector<Outstanding> outstanding;
        for (size_t q = 0; q < nq; ++q) {
          const size_t variant = (c + q + round) % 2;
          QueryOptions options;
          options.k = variant == 0 ? 0 : 5;
          outstanding.push_back(
              {variant, q,
               service.Submit("hot", fx.dataset.queries.Vector(q), options)});
        }
        for (Outstanding& out : outstanding) {
          QueryResult result = out.ticket.result.get();
          if (!result.status.ok() ||
              !SameNeighbors(result.neighbors,
                             fx.expected_hot[out.variant][out.q])) {
            bad.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(bad.load(), 0u);
}

TEST(DispatchStressTest, DeadlineShedsStayLiveUnderConcurrentLoad) {
  // Deadline-bearing queries race a busy queue: each must resolve as
  // either OK (dispatched in time, with exact parity) or DeadlineExceeded
  // (shed) — never hang, never return a wrong answer. Exercises the
  // deadline sweep concurrently with live dispatch on every dispatcher.
  StressFixture fx = MakeStressFixture(2);
  ServiceConfig sc;
  sc.threads = 2;
  sc.dispatchers = 3;
  sc.max_batch = 2;
  SearchService service(sc);
  ASSERT_TRUE(
      service.AddCollection("hot", fx.dataset.data, HotConfig()).ok());

  const size_t nq = fx.dataset.queries.count();
  std::atomic<size_t> bad{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      for (size_t round = 0; round < 8; ++round) {
        std::vector<std::pair<size_t, QueryTicket>> tickets;
        for (size_t q = 0; q < nq; ++q) {
          QueryOptions options;
          // A mix of no deadline, generous, and tight-enough-to-expire.
          if ((c + q + round) % 3 == 1) options.timeout = 10s;
          if ((c + q + round) % 3 == 2) options.timeout = 1ms;
          tickets.emplace_back(
              q, service.Submit("hot", fx.dataset.queries.Vector(q), options));
        }
        for (auto& [q, ticket] : tickets) {
          QueryResult result = ticket.result.get();
          if (result.status.ok()) {
            if (!SameNeighbors(result.neighbors, fx.expected_hot[0][q])) {
              bad.fetch_add(1);
            }
          } else if (!result.status.IsDeadlineExceeded()) {
            bad.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(bad.load(), 0u);

  // Liveness epilogue: expired + completed covers every admitted query.
  const CollectionStats cs = service.Stats().collections.at("hot");
  EXPECT_EQ(cs.admitted, cs.completed + cs.expired);
}

}  // namespace
}  // namespace pdx
