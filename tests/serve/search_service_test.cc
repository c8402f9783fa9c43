#include "serve/search_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "benchlib/datagen.h"
#include "benchlib/workloads.h"

namespace pdx {
namespace {

using namespace std::chrono_literals;

struct Fixture {
  Dataset dataset;
  IvfIndex index;
};

Fixture MakeFixture(size_t dim = 24, uint64_t seed = 91, size_t count = 2000,
                    size_t num_queries = 10) {
  SyntheticSpec spec;
  spec.name = "serve-test";
  spec.dim = dim;
  spec.count = count;
  spec.num_queries = num_queries;
  spec.num_clusters = 8;
  spec.seed = seed;
  spec.distribution = ValueDistribution::kNormal;
  Fixture fx{GenerateDataset(spec), {}};
  fx.index = IvfIndex::Build(fx.dataset.data, {});
  return fx;
}

SearcherConfig Config(SearcherLayout layout, PrunerKind pruner,
                      size_t nprobe = 4) {
  SearcherConfig config;
  config.layout = layout;
  config.pruner = pruner;
  config.k = 10;
  config.nprobe = nprobe;
  return config;
}

void ExpectSameNeighbors(const std::vector<Neighbor>& actual,
                         const std::vector<Neighbor>& expected,
                         const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i].id, expected[i].id) << label << " rank " << i;
    ASSERT_FLOAT_EQ(actual[i].distance, expected[i].distance)
        << label << " rank " << i;
  }
}

// --- Acceptance (a): service results == direct sequential Search ---------

TEST(SearchServiceTest, SubmitMatchesSequentialSearchAllCombinations) {
  Fixture fx = MakeFixture();
  ServiceConfig sc;
  sc.threads = 3;
  SearchService service(sc);

  struct Combo {
    std::string name;
    SearcherConfig config;
  };
  std::vector<Combo> combos;
  for (SearcherLayout layout : {SearcherLayout::kFlat, SearcherLayout::kIvf}) {
    for (PrunerKind pruner :
         {PrunerKind::kLinear, PrunerKind::kAdsampling, PrunerKind::kBsa,
          PrunerKind::kBond}) {
      combos.push_back({std::string(SearcherLayoutName(layout)) + "/" +
                            PrunerKindName(pruner),
                        Config(layout, pruner)});
    }
  }

  for (const Combo& combo : combos) {
    // Hosted searcher and sequential reference share the IVF index on the
    // IVF layout, mirroring the paper's shared-bucket methodology.
    Status added = combo.config.layout == SearcherLayout::kIvf
                       ? service.AddCollection(combo.name, fx.dataset.data,
                                               fx.index, combo.config)
                       : service.AddCollection(combo.name, fx.dataset.data,
                                               combo.config);
    ASSERT_TRUE(added.ok()) << combo.name << ": " << added.ToString();

    auto reference = combo.config.layout == SearcherLayout::kIvf
                         ? MakeSearcher(fx.dataset.data, fx.index, combo.config)
                         : MakeSearcher(fx.dataset.data, combo.config);
    ASSERT_TRUE(reference.ok()) << combo.name;

    std::vector<QueryTicket> tickets;
    for (size_t q = 0; q < fx.dataset.queries.count(); ++q) {
      tickets.push_back(service.Submit(combo.name, fx.dataset.queries.Vector(q)));
    }
    for (size_t q = 0; q < tickets.size(); ++q) {
      QueryResult result = tickets[q].result.get();
      ASSERT_TRUE(result.status.ok())
          << combo.name << ": " << result.status.ToString();
      EXPECT_EQ(result.collection, combo.name);
      ExpectSameNeighbors(
          result.neighbors,
          reference.value()->Search(fx.dataset.queries.Vector(q)),
          combo.name + " query " + std::to_string(q));
    }
  }
}

TEST(SearchServiceTest, PerQueryOverridesApply) {
  Fixture fx = MakeFixture();
  SearchService service;
  ASSERT_TRUE(service
                  .AddCollection("ivf", fx.dataset.data, fx.index,
                                 Config(SearcherLayout::kIvf, PrunerKind::kBond))
                  .ok());
  QueryOptions options;
  options.k = 3;
  QueryResult result =
      service.Submit("ivf", fx.dataset.queries.Vector(0), options).result.get();
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.neighbors.size(), 3u);

  // And the override matches a direct searcher with the same knobs.
  auto reference =
      MakeSearcher(fx.dataset.data, fx.index,
                   Config(SearcherLayout::kIvf, PrunerKind::kBond));
  ASSERT_TRUE(reference.ok());
  ExpectSameNeighbors(result.neighbors,
                      reference.value()->SearchWith(
                          0, QueryKnobs{3, 0}, fx.dataset.queries.Vector(0)),
                      "k=3 override");
}

// --- Acceptance (b): explicit backpressure --------------------------------

TEST(SearchServiceTest, FullQueueRejectsWithResourceExhausted) {
  Fixture fx = MakeFixture();
  ServiceConfig sc;
  sc.max_pending = 2;
  SearchService service(sc);
  ASSERT_TRUE(service
                  .AddCollection("flat", fx.dataset.data,
                                 Config(SearcherLayout::kFlat, PrunerKind::kBond))
                  .ok());

  service.Pause();  // Deterministic: nothing drains while we fill the queue.
  QueryTicket a = service.Submit("flat", fx.dataset.queries.Vector(0));
  QueryTicket b = service.Submit("flat", fx.dataset.queries.Vector(1));
  EXPECT_EQ(service.queue_depth(), 2u);

  QueryTicket rejected = service.Submit("flat", fx.dataset.queries.Vector(2));
  // Rejection is immediate — the future is ready before Resume().
  ASSERT_EQ(rejected.result.wait_for(0s), std::future_status::ready);
  QueryResult result = rejected.result.get();
  EXPECT_TRUE(result.status.IsResourceExhausted())
      << result.status.ToString();
  EXPECT_TRUE(result.neighbors.empty());

  service.Resume();
  EXPECT_TRUE(a.result.get().status.ok());
  EXPECT_TRUE(b.result.get().status.ok());

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.collections.at("flat").rejected, 1u);
  EXPECT_EQ(stats.collections.at("flat").completed, 2u);
}

// --- Deadlines ------------------------------------------------------------

TEST(SearchServiceTest, DeadlineExpiryBeforeDispatch) {
  Fixture fx = MakeFixture();
  SearchService service;
  ASSERT_TRUE(service
                  .AddCollection("flat", fx.dataset.data,
                                 Config(SearcherLayout::kFlat, PrunerKind::kBond))
                  .ok());
  service.Pause();
  QueryOptions options;
  options.timeout = 1ms;
  QueryTicket doomed =
      service.Submit("flat", fx.dataset.queries.Vector(0), options);
  QueryTicket fine = service.Submit("flat", fx.dataset.queries.Vector(1));
  std::this_thread::sleep_for(10ms);  // Let the deadline pass while queued.
  service.Resume();

  QueryResult expired = doomed.result.get();
  EXPECT_TRUE(expired.status.IsDeadlineExceeded())
      << expired.status.ToString();
  EXPECT_TRUE(expired.neighbors.empty());
  EXPECT_TRUE(fine.result.get().status.ok());
  EXPECT_EQ(service.Stats().collections.at("flat").expired, 1u);
}

// --- Regression: deadlines must fire while paused / never dispatched -------

TEST(SearchServiceTest, DeadlineShedsWhilePausedWithoutResume) {
  Fixture fx = MakeFixture();
  SearchService service;
  ASSERT_TRUE(service
                  .AddCollection("flat", fx.dataset.data,
                                 Config(SearcherLayout::kFlat, PrunerKind::kBond))
                  .ok());
  service.Pause();
  QueryOptions options;
  options.timeout = 5ms;
  QueryTicket doomed =
      service.Submit("flat", fx.dataset.queries.Vector(0), options);
  QueryTicket survivor = service.Submit("flat", fx.dataset.queries.Vector(1));

  // No Resume(): the dispatchers must still timed-wait on the queued
  // deadline and shed the query when it passes. Before the fix this future
  // stayed unresolved until Resume()/Shutdown — here it must be ready
  // long before the generous bound.
  ASSERT_EQ(doomed.result.wait_for(2s), std::future_status::ready)
      << "deadline-bearing query stranded behind Pause()";
  QueryResult expired = doomed.result.get();
  EXPECT_TRUE(expired.status.IsDeadlineExceeded())
      << expired.status.ToString();

  // The deadline-free query holds (paused means paused for live work).
  EXPECT_EQ(survivor.result.wait_for(0s), std::future_status::timeout);
  EXPECT_EQ(service.Stats().collections.at("flat").expired, 1u);
  EXPECT_EQ(service.queue_depth(), 1u);

  service.Resume();
  EXPECT_TRUE(survivor.result.get().status.ok());
}

// --- Regression: never-queued rejections must not report queue time --------

TEST(SearchServiceTest, RejectionsReportZeroQueueMs) {
  Fixture fx = MakeFixture();
  ServiceConfig sc;
  sc.max_pending = 1;
  SearchService service(sc);
  ASSERT_TRUE(service
                  .AddCollection("flat", fx.dataset.data,
                                 Config(SearcherLayout::kFlat, PrunerKind::kBond))
                  .ok());
  service.Pause();
  QueryTicket held = service.Submit("flat", fx.dataset.queries.Vector(0));

  // Admission-rejected: the queue was full, the query never entered it —
  // it spent zero time queued, and must say so (it used to report
  // queue_ms == total_ms despite never waiting anywhere).
  QueryResult rejected =
      service.Submit("flat", fx.dataset.queries.Vector(1)).result.get();
  ASSERT_TRUE(rejected.status.IsResourceExhausted())
      << rejected.status.ToString();
  EXPECT_EQ(rejected.queue_ms, 0.0);
  EXPECT_GE(rejected.total_ms, 0.0);

  // Same for the other never-queued rejections.
  QueryResult unknown =
      service.Submit("ghost", fx.dataset.queries.Vector(0)).result.get();
  ASSERT_TRUE(unknown.status.IsNotFound());
  EXPECT_EQ(unknown.queue_ms, 0.0);

  service.Resume();
  QueryResult ok = held.result.get();
  ASSERT_TRUE(ok.status.ok());
  // A dispatched query still reports its real (positive) queue wait.
  EXPECT_GT(ok.queue_ms, 0.0);
}

// --- Per-dispatcher stats ---------------------------------------------------

TEST(SearchServiceTest, PerDispatcherStatsSplitTheDispatches) {
  Fixture fx = MakeFixture(24, 98, 2000, 16);
  ServiceConfig sc;
  sc.dispatchers = 3;
  sc.threads = 2;
  SearchService service(sc);
  ASSERT_TRUE(service
                  .AddCollection("flat", fx.dataset.data,
                                 Config(SearcherLayout::kFlat, PrunerKind::kBond))
                  .ok());
  std::vector<QueryTicket> tickets;
  for (size_t q = 0; q < fx.dataset.queries.count(); ++q) {
    tickets.push_back(service.Submit("flat", fx.dataset.queries.Vector(q)));
  }
  for (QueryTicket& ticket : tickets) {
    ASSERT_TRUE(ticket.result.get().status.ok());
  }

  const ServiceStats stats = service.Stats();
  ASSERT_EQ(stats.dispatchers.size(), 3u);
  uint64_t dispatcher_total = 0;
  for (const DispatcherStats& ds : stats.dispatchers) {
    dispatcher_total += ds.dispatches;
    EXPECT_GE(ds.busy_fraction, 0.0);
    EXPECT_LE(ds.busy_fraction, 1.0);
  }
  // Every batch was popped by exactly one dispatcher: the per-dispatcher
  // counts partition the per-collection dispatch count.
  EXPECT_EQ(dispatcher_total, stats.collections.at("flat").dispatches);
}

// --- Cancellation ---------------------------------------------------------

TEST(SearchServiceTest, CancelQueuedQuery) {
  Fixture fx = MakeFixture();
  SearchService service;
  ASSERT_TRUE(service
                  .AddCollection("flat", fx.dataset.data,
                                 Config(SearcherLayout::kFlat, PrunerKind::kBond))
                  .ok());
  service.Pause();
  QueryTicket doomed = service.Submit("flat", fx.dataset.queries.Vector(0));
  QueryTicket fine = service.Submit("flat", fx.dataset.queries.Vector(1));

  EXPECT_TRUE(service.Cancel(doomed.id));
  EXPECT_FALSE(service.Cancel(doomed.id));  // Already resolved.
  EXPECT_FALSE(service.Cancel(99999));      // Never existed.

  QueryResult cancelled = doomed.result.get();
  EXPECT_TRUE(cancelled.status.IsCancelled()) << cancelled.status.ToString();

  service.Resume();
  EXPECT_TRUE(fine.result.get().status.ok());
  EXPECT_EQ(service.Stats().collections.at("flat").cancelled, 1u);
}

TEST(SearchServiceTest, RemoveCollectionCancelsItsQueuedQueries) {
  Fixture fx = MakeFixture();
  SearchService service;
  ASSERT_TRUE(service
                  .AddCollection("a", fx.dataset.data,
                                 Config(SearcherLayout::kFlat, PrunerKind::kBond))
                  .ok());
  ASSERT_TRUE(service
                  .AddCollection("b", fx.dataset.data,
                                 Config(SearcherLayout::kFlat, PrunerKind::kLinear))
                  .ok());
  service.Pause();
  QueryTicket doomed = service.Submit("a", fx.dataset.queries.Vector(0));
  QueryTicket fine = service.Submit("b", fx.dataset.queries.Vector(1));
  ASSERT_TRUE(service.RemoveCollection("a").ok());
  EXPECT_TRUE(service.RemoveCollection("a").IsNotFound());
  // A replace, unlike a remove, cancels nothing: the query queued for "b"
  // finishes on the collection it was admitted to, later ones on the new.
  const Fixture next = MakeFixture(24, 97);
  const SearcherConfig linear =
      Config(SearcherLayout::kFlat, PrunerKind::kLinear);
  ASSERT_TRUE(service.AddCollection("b", next.dataset.data, linear).ok());
  service.Resume();

  EXPECT_TRUE(doomed.result.get().status.IsCancelled());
  const QueryResult queued = fine.result.get();
  ASSERT_TRUE(queued.status.ok()) << queued.status.ToString();
  const float* query = fx.dataset.queries.Vector(1);
  auto before = MakeSearcher(fx.dataset.data, linear);
  auto after = MakeSearcher(next.dataset.data, linear);
  ASSERT_TRUE(before.ok() && after.ok());
  ExpectSameNeighbors(queued.neighbors, before.value()->Search(query),
                      "queued before the replace");
  ExpectSameNeighbors(service.Submit("b", query).result.get().neighbors,
                      after.value()->Search(query),
                      "submitted after the replace");
  EXPECT_EQ(service.CollectionNames(), std::vector<std::string>{"b"});
  // Submitting to the removed name now fails fast.
  EXPECT_TRUE(service.Submit("a", fx.dataset.queries.Vector(0))
                  .result.get()
                  .status.IsNotFound());
}

// --- Shutdown -------------------------------------------------------------

TEST(SearchServiceTest, ShutdownResolvesEveryFuture) {
  Fixture fx = MakeFixture(24, 92, 4000, 40);
  auto service = std::make_unique<SearchService>();
  ASSERT_TRUE(service
                  ->AddCollection("ivf", fx.dataset.data, fx.index,
                                  Config(SearcherLayout::kIvf, PrunerKind::kBond,
                                         16))
                  .ok());
  std::vector<QueryTicket> tickets;
  for (size_t q = 0; q < fx.dataset.queries.count(); ++q) {
    tickets.push_back(service->Submit("ivf", fx.dataset.queries.Vector(q)));
  }
  // Destroy with work in flight: in-flight batches finish, queued queries
  // cancel, nothing hangs and nothing is dropped.
  service.reset();
  size_t ok = 0, cancelled = 0;
  for (QueryTicket& ticket : tickets) {
    ASSERT_EQ(ticket.result.wait_for(0s), std::future_status::ready);
    QueryResult result = ticket.result.get();
    if (result.status.ok()) {
      ++ok;
    } else {
      EXPECT_TRUE(result.status.IsCancelled()) << result.status.ToString();
      ++cancelled;
    }
  }
  EXPECT_EQ(ok + cancelled, tickets.size());
}

TEST(SearchServiceTest, SubmitAfterShutdownIsRejected) {
  Fixture fx = MakeFixture();
  SearchService service;
  ASSERT_TRUE(service
                  .AddCollection("flat", fx.dataset.data,
                                 Config(SearcherLayout::kFlat, PrunerKind::kBond))
                  .ok());
  service.Shutdown();
  service.Shutdown();  // Idempotent.
  QueryResult result =
      service.Submit("flat", fx.dataset.queries.Vector(0)).result.get();
  EXPECT_TRUE(result.status.IsCancelled()) << result.status.ToString();
}

// --- Callback overload ----------------------------------------------------

TEST(SearchServiceTest, CallbackOverloadDelivers) {
  Fixture fx = MakeFixture();
  SearchService service;
  ASSERT_TRUE(service
                  .AddCollection("flat", fx.dataset.data,
                                 Config(SearcherLayout::kFlat, PrunerKind::kBond))
                  .ok());
  std::promise<QueryResult> delivered;
  uint64_t id = service.Submit(
      "flat", fx.dataset.queries.Vector(0), {},
      [&](QueryResult result) { delivered.set_value(std::move(result)); });
  QueryResult result = delivered.get_future().get();
  EXPECT_EQ(result.id, id);
  ASSERT_TRUE(result.status.ok());
  auto reference = MakeSearcher(
      fx.dataset.data, Config(SearcherLayout::kFlat, PrunerKind::kBond));
  ASSERT_TRUE(reference.ok());
  ExpectSameNeighbors(result.neighbors,
                      reference.value()->Search(fx.dataset.queries.Vector(0)),
                      "callback");
}

// --- Admission / config edge cases ----------------------------------------

TEST(SearchServiceTest, RejectsBadCollections) {
  Fixture fx = MakeFixture();
  SearchService service;
  ASSERT_TRUE(service
                  .AddCollection("dup", fx.dataset.data,
                                 Config(SearcherLayout::kFlat, PrunerKind::kBond))
                  .ok());
  // A hosted name is replaced, not rejected: it now serves the new pruner.
  ASSERT_TRUE(service
                  .AddCollection("dup", fx.dataset.data,
                                 Config(SearcherLayout::kFlat, PrunerKind::kLinear))
                  .ok());
  Result<CollectionInfo> replaced = service.GetCollectionInfo("dup");
  ASSERT_TRUE(replaced.ok());
  EXPECT_EQ(replaced.value().pruner, PrunerKind::kLinear);
  EXPECT_EQ(service.CollectionNames(), std::vector<std::string>{"dup"});
  SearcherConfig bad = Config(SearcherLayout::kFlat, PrunerKind::kBond);
  bad.k = 0;
  EXPECT_TRUE(
      service.AddCollection("bad", fx.dataset.data, bad).IsInvalidArgument());
  std::unique_ptr<Searcher> null_searcher;
  EXPECT_TRUE(
      service.AddCollection("null", null_searcher).IsInvalidArgument());
  EXPECT_TRUE(service.Submit("ghost", fx.dataset.queries.Vector(0))
                  .result.get()
                  .status.IsNotFound());
  EXPECT_TRUE(service.Submit("dup", nullptr)
                  .result.get()
                  .status.IsInvalidArgument());
}

TEST(SearchServiceTest, StaleQueryLenIsRejectedNotRead) {
  // The wire handler validates a payload against a CollectionInfo dim
  // snapshot, then Submits with query_len set to that snapshot. If the
  // collection is replaced with a different dimension in between (a
  // concurrent PUT), the service must answer kInvalidArgument under its
  // own mutex — never copy the live dim() floats from the shorter buffer.
  // Pre-fix, ASan flags this test as a heap out-of-bounds read.
  Fixture small = MakeFixture(/*dim=*/8, /*seed=*/12, /*count=*/400);
  Fixture big = MakeFixture(/*dim=*/32, /*seed=*/13, /*count=*/400);
  SearchService service;
  ASSERT_TRUE(
      service
          .AddCollection("swap", small.dataset.data,
                         Config(SearcherLayout::kFlat, PrunerKind::kBond))
          .ok());

  // Exactly dim floats, heap-allocated, so the pre-fix copy of the live
  // (larger) dim is a true out-of-bounds read ASan flags — not a quiet
  // read into neighboring queries of a pooled buffer.
  const std::vector<float> short_query(
      small.dataset.queries.Vector(0),
      small.dataset.queries.Vector(0) + small.dataset.data.dim());
  QueryOptions options;
  options.query_len = short_query.size();  // Snapshot taken here...
  // ...and the collection replaced before Submit.
  ASSERT_TRUE(service.RemoveCollection("swap").ok());
  ASSERT_TRUE(
      service
          .AddCollection("swap", big.dataset.data,
                         Config(SearcherLayout::kFlat, PrunerKind::kBond))
          .ok());

  QueryResult stale =
      service.Submit("swap", short_query.data(), options).result.get();
  EXPECT_TRUE(stale.status.IsInvalidArgument()) << stale.status.ToString();

  // A stated length matching the live collection still serves; 0 keeps
  // the trusted in-process fast path.
  options.query_len = big.dataset.data.dim();
  EXPECT_TRUE(service.Submit("swap", big.dataset.queries.Vector(0), options)
                  .result.get()
                  .status.ok());
  EXPECT_TRUE(service.Submit("swap", big.dataset.queries.Vector(0))
                  .result.get()
                  .status.ok());
}

TEST(SearchServiceTest, AdoptedSearcherIsServed) {
  Fixture fx = MakeFixture();
  auto made = MakeSearcher(fx.dataset.data,
                           Config(SearcherLayout::kFlat, PrunerKind::kBond));
  ASSERT_TRUE(made.ok());
  SearchService service;
  std::unique_ptr<Searcher> searcher = std::move(made).value();
  ASSERT_TRUE(service.AddCollection("adopted", searcher).ok());
  EXPECT_EQ(searcher, nullptr);  // Moved from on success.
  EXPECT_TRUE(service.Submit("adopted", fx.dataset.queries.Vector(0))
                  .result.get()
                  .status.ok());

  // A failed adoption (the service is shut down) must NOT consume the
  // caller's searcher — it stays usable and can be hosted elsewhere.
  auto again = MakeSearcher(fx.dataset.data,
                            Config(SearcherLayout::kFlat, PrunerKind::kBond));
  ASSERT_TRUE(again.ok());
  std::unique_ptr<Searcher> survivor = std::move(again).value();
  service.Shutdown();
  EXPECT_TRUE(service.AddCollection("adopted", survivor).IsCancelled());
  ASSERT_NE(survivor, nullptr);
  EXPECT_EQ(survivor->Search(fx.dataset.queries.Vector(0)).size(), 10u);
  SearchService other;
  EXPECT_TRUE(other.AddCollection("adopted", survivor).ok());
  EXPECT_TRUE(other.Submit("adopted", fx.dataset.queries.Vector(0))
                  .result.get()
                  .status.ok());
}

TEST(SearchServiceTest, AbsurdPerQueryOverridesAreClamped) {
  Fixture fx = MakeFixture();
  SearchService service;
  ASSERT_TRUE(service
                  .AddCollection("ivf", fx.dataset.data, fx.index,
                                 Config(SearcherLayout::kIvf, PrunerKind::kBond))
                  .ok());
  // k far beyond the collection size and nprobe beyond the bucket count
  // must not crash the dispatcher (e.g. a huge heap reserve) — they clamp
  // to "everything", which with an exact pruner is exact search.
  QueryOptions options;
  options.k = static_cast<size_t>(-1);
  options.nprobe = static_cast<size_t>(-1);
  QueryResult result =
      service.Submit("ivf", fx.dataset.queries.Vector(0), options).result.get();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.neighbors.size(), fx.dataset.data.count());
  // And the service keeps serving afterwards.
  EXPECT_TRUE(
      service.Submit("ivf", fx.dataset.queries.Vector(1)).result.get().status.ok());
}

// --- Micro-batching and stats ---------------------------------------------

TEST(SearchServiceTest, PausedBacklogCoalescesIntoBatches) {
  Fixture fx = MakeFixture(24, 93, 2000, 12);
  ServiceConfig sc;
  sc.max_batch = 4;
  SearchService service(sc);
  ASSERT_TRUE(service
                  .AddCollection("flat", fx.dataset.data,
                                 Config(SearcherLayout::kFlat, PrunerKind::kBond))
                  .ok());
  service.Pause();
  std::vector<QueryTicket> tickets;
  for (size_t q = 0; q < fx.dataset.queries.count(); ++q) {
    tickets.push_back(service.Submit("flat", fx.dataset.queries.Vector(q)));
  }
  service.Resume();
  auto reference = MakeSearcher(
      fx.dataset.data, Config(SearcherLayout::kFlat, PrunerKind::kBond));
  ASSERT_TRUE(reference.ok());
  for (size_t q = 0; q < tickets.size(); ++q) {
    QueryResult result = tickets[q].result.get();
    ASSERT_TRUE(result.status.ok());
    ExpectSameNeighbors(result.neighbors,
                        reference.value()->Search(fx.dataset.queries.Vector(q)),
                        "batched query " + std::to_string(q));
  }
  const CollectionStats cs = service.Stats().collections.at("flat");
  EXPECT_EQ(cs.completed, tickets.size());
  // A 12-query backlog at max_batch=4 needs at least 3 dispatches but —
  // micro-batching being the point — far fewer than one per query.
  EXPECT_GE(cs.dispatches, 3u);
  EXPECT_LT(cs.dispatches, tickets.size());
  EXPECT_EQ(cs.latency.count, tickets.size());
  EXPECT_GT(cs.latency.p50_ms, 0.0);
  EXPECT_LE(cs.latency.p50_ms, cs.latency.p99_ms);
}

// --- Acceptance (c): concurrent submitters share ONE pool ------------------

TEST(SearchServiceTest, ConcurrentSubmittersShareOnePoolWithParity) {
  Fixture fx = MakeFixture(24, 94, 3000, 24);
  ServiceConfig sc;
  sc.threads = 3;
  sc.dispatchers = 4;  // Replicated dispatch must preserve exact parity.
  SearchService service(sc);
  ASSERT_TRUE(service
                  .AddCollection("ivf-bond", fx.dataset.data, fx.index,
                                 Config(SearcherLayout::kIvf, PrunerKind::kBond))
                  .ok());
  ASSERT_TRUE(service
                  .AddCollection("flat-ads", fx.dataset.data,
                                 Config(SearcherLayout::kFlat,
                                        PrunerKind::kAdsampling))
                  .ok());

  // Sequential ground truth per collection, computed up front.
  auto ref_bond = MakeSearcher(fx.dataset.data, fx.index,
                               Config(SearcherLayout::kIvf, PrunerKind::kBond));
  auto ref_ads = MakeSearcher(
      fx.dataset.data, Config(SearcherLayout::kFlat, PrunerKind::kAdsampling));
  ASSERT_TRUE(ref_bond.ok());
  ASSERT_TRUE(ref_ads.ok());
  const size_t nq = fx.dataset.queries.count();
  std::vector<std::vector<Neighbor>> expected_bond(nq), expected_ads(nq);
  for (size_t q = 0; q < nq; ++q) {
    expected_bond[q] = ref_bond.value()->Search(fx.dataset.queries.Vector(q));
    expected_ads[q] = ref_ads.value()->Search(fx.dataset.queries.Vector(q));
  }

  // From here on, the query path must construct no ThreadPool: every batch
  // runs on the service's one shared pool.
  const uint64_t pools_before = ThreadPool::num_created();

  constexpr size_t kSubmitters = 4;
  constexpr size_t kRounds = 3;
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (size_t round = 0; round < kRounds; ++round) {
        std::vector<std::pair<size_t, QueryTicket>> bond_tickets, ads_tickets;
        for (size_t q = t; q < nq; q += kSubmitters) {
          bond_tickets.emplace_back(
              q, service.Submit("ivf-bond", fx.dataset.queries.Vector(q)));
          ads_tickets.emplace_back(
              q, service.Submit("flat-ads", fx.dataset.queries.Vector(q)));
        }
        auto check = [&](std::vector<std::pair<size_t, QueryTicket>>& tickets,
                         const std::vector<std::vector<Neighbor>>& expected) {
          for (auto& [q, ticket] : tickets) {
            QueryResult result = ticket.result.get();
            if (!result.status.ok() ||
                result.neighbors.size() != expected[q].size()) {
              mismatches.fetch_add(1);
              continue;
            }
            for (size_t i = 0; i < expected[q].size(); ++i) {
              if (result.neighbors[i].id != expected[q][i].id ||
                  result.neighbors[i].distance != expected[q][i].distance) {
                mismatches.fetch_add(1);
                break;
              }
            }
          }
        };
        check(bond_tickets, expected_bond);
        check(ads_tickets, expected_ads);
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(ThreadPool::num_created(), pools_before)
      << "a searcher constructed a private pool on the query path";

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.pool_threads, 3u);
  EXPECT_EQ(stats.collections.at("ivf-bond").completed, kRounds * nq);
  EXPECT_EQ(stats.collections.at("flat-ads").completed, kRounds * nq);
}

/// Serves `rounds` paused backlogs of every query from two client threads,
/// so both dispatchers drain multi-query batches of collection `name`
/// concurrently. Returns how many answers differ from `expected`.
size_t ServePausedBacklogs(SearchService& service, const std::string& name,
                           const VectorSet& queries,
                           const std::vector<std::vector<Neighbor>>& expected,
                           size_t rounds) {
  constexpr size_t kClients = 2;
  const size_t nq = queries.count();
  size_t mismatches = 0;
  for (size_t round = 0; round < rounds; ++round) {
    service.Pause();
    std::vector<std::vector<QueryTicket>> tickets(kClients);
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (size_t q = 0; q < nq; ++q) {
          tickets[c].push_back(service.Submit(name, queries.Vector(q)));
        }
      });
    }
    for (std::thread& client : clients) client.join();
    service.Resume();
    for (size_t c = 0; c < kClients; ++c) {
      for (size_t q = 0; q < nq; ++q) {
        QueryResult result = tickets[c][q].result.get();
        EXPECT_TRUE(result.status.ok()) << result.status.ToString();
        if (result.neighbors.size() != expected[q].size()) {
          ++mismatches;
          continue;
        }
        for (size_t i = 0; i < expected[q].size(); ++i) {
          if (result.neighbors[i].id != expected[q][i].id ||
              result.neighbors[i].distance != expected[q][i].distance) {
            ++mismatches;
            break;
          }
        }
      }
    }
  }
  return mismatches;
}

TEST(SearchServiceTest, AdoptedMutableCollectionRunsOnTheServicePool) {
  // A live collection built with threads = 0 and no pool, then adopted:
  // its batches must fan out on the service's pool over the dispatcher's
  // reserved band. A base searcher that kept its own pool settings would
  // build a private hardware-sized pool on the query path and, on a host
  // with more hardware threads than the service, run past its band into
  // the other dispatcher's.
  Fixture fx = MakeFixture(24, 95, 2000, 16);
  const size_t nq = fx.dataset.queries.count();
  auto build = [&](size_t threads) {
    SearcherConfig config = Config(SearcherLayout::kFlat, PrunerKind::kBond);
    config.threads = threads;
    auto made = MutableSearcher::Make(fx.dataset.data, config);
    EXPECT_TRUE(made.ok());
    std::unique_ptr<MutableSearcher> live = std::move(made).value();
    // Upserts and a delete put the delta merge and tombstone filter on the
    // query path.
    const std::vector<uint64_t> ids = {0, 1, 2, 3};
    EXPECT_TRUE(live->Add(fx.dataset.queries.data(), ids.size(), ids.data())
                    .ok());
    EXPECT_TRUE(live->Delete(10).ok());
    return live;
  };
  std::unique_ptr<MutableSearcher> reference = build(1);
  std::vector<std::vector<Neighbor>> expected(nq);
  for (size_t q = 0; q < nq; ++q) {
    expected[q] = reference->Search(fx.dataset.queries.Vector(q));
  }

  ServiceConfig sc;
  sc.threads = 2;
  sc.dispatchers = 2;
  sc.max_batch = 4;
  SearchService service(sc);
  std::unique_ptr<Searcher> adopted = build(0);
  ASSERT_TRUE(service.AddCollection("live", adopted).ok());

  const uint64_t pools_before = ThreadPool::num_created();
  constexpr size_t kRounds = 3;
  EXPECT_EQ(ServePausedBacklogs(service, "live", fx.dataset.queries, expected,
                                kRounds),
            0u);
  EXPECT_EQ(ThreadPool::num_created(), pools_before)
      << "the live collection built a private pool on the query path";
  // Two clients per round: fewer dispatches than queries means batches.
  EXPECT_LT(service.Stats().collections.at("live").dispatches,
            kRounds * 2 * nq);
}

TEST(SearchServiceTest, CompactedLiveCollectionRunsOnTheServicePool) {
  // A background compaction swaps in a freshly built base searcher. Its
  // batches must still run on the service's pool: no searcher holds a
  // pool, so there is nothing for the swap to lose or re-inject.
  Fixture fx = MakeFixture(24, 97, 1500, 12);
  SearcherConfig config = Config(SearcherLayout::kFlat, PrunerKind::kBond);
  config.threads = 0;  // A hardware-sized owned pool, were one ever built.
  const size_t added = 80;
  std::vector<float> rows(added * fx.dataset.dim());
  for (size_t i = 0; i < added; ++i) {
    const float* src = fx.dataset.data.Vector(static_cast<VectorId>(i * 7));
    std::copy(src, src + fx.dataset.dim(), rows.begin() + i * fx.dataset.dim());
  }
  // The reference folds the same rows the same way, directly.
  auto reference = MutableSearcher::Make(fx.dataset.data, config);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(reference.value()->Add(rows.data(), added).ok());
  ASSERT_TRUE(reference.value()->Compact().ok());
  const size_t nq = fx.dataset.queries.count();
  std::vector<std::vector<Neighbor>> expected(nq);
  for (size_t q = 0; q < nq; ++q) {
    expected[q] = reference.value()->Search(fx.dataset.queries.Vector(q));
  }

  ServiceConfig sc;
  sc.threads = 2;
  sc.dispatchers = 2;
  sc.max_batch = 4;
  sc.mutation.compact_threshold = 64;
  SearchService service(sc);
  ASSERT_TRUE(service.AddCollection("live", fx.dataset.data, config).ok());
  ASSERT_TRUE(service.AddVectors("live", rows.data(), added, fx.dataset.dim(),
                                 nullptr)
                  .ok());
  bool compacted = false;
  for (int spin = 0; spin < 500 && !compacted; ++spin) {
    std::this_thread::sleep_for(10ms);
    compacted = service.Stats().collections.at("live").compactions > 0;
  }
  ASSERT_TRUE(compacted) << "background compaction never ran";

  const uint64_t pools_before = ThreadPool::num_created();
  EXPECT_EQ(
      ServePausedBacklogs(service, "live", fx.dataset.queries, expected, 2),
      0u);
  EXPECT_EQ(ThreadPool::num_created(), pools_before)
      << "the compacted collection built a private pool on the query path";
}

TEST(SearchServiceTest, LoadedShardedLiveCollectionRunsOnTheServicePool) {
  // A sharded live collection restored from its file: the (shard x query)
  // tiling must run on the service's pool, not a pool of its own.
  Fixture fx = MakeFixture(24, 98, 1500, 12);
  SearcherConfig config = Config(SearcherLayout::kFlat, PrunerKind::kBond);
  config.threads = 0;
  ShardingOptions sharding;
  sharding.num_shards = 3;
  auto made = MutableSearcher::Make(fx.dataset.data, config, {}, sharding);
  ASSERT_TRUE(made.ok());
  MutableSearcher& live = *made.value();
  const std::vector<uint64_t> ids = {0, 1, 2};
  ASSERT_TRUE(live.Add(fx.dataset.queries.data(), ids.size(), ids.data()).ok());
  ASSERT_TRUE(live.Delete(10).ok());
  const size_t nq = fx.dataset.queries.count();
  std::vector<std::vector<Neighbor>> expected(nq);
  for (size_t q = 0; q < nq; ++q) {
    expected[q] = live.Search(fx.dataset.queries.Vector(q));
  }
  const std::string path =
      testing::TempDir() + "/service_loaded_sharded_live.pdxc";
  ASSERT_TRUE(live.Save(path).ok());

  ServiceConfig sc;
  sc.threads = 2;
  sc.dispatchers = 2;
  sc.max_batch = 4;
  SearchService service(sc);
  ASSERT_TRUE(service.LoadCollection("live", path).ok());
  EXPECT_EQ(service.Stats().collections.at("live").shards, 3u);

  const uint64_t pools_before = ThreadPool::num_created();
  EXPECT_EQ(
      ServePausedBacklogs(service, "live", fx.dataset.queries, expected, 2),
      0u);
  EXPECT_EQ(ThreadPool::num_created(), pools_before)
      << "the loaded collection built a private pool on the query path";
  service.Shutdown();
  std::remove(path.c_str());
}

// --- Sharded collections ---------------------------------------------------

TEST(SearchServiceTest, ShardedCollectionMatchesUnshardedWithShardStats) {
  Fixture fx = MakeFixture(24, 96, 3000, 12);
  ServiceConfig sc;
  sc.threads = 3;
  SearchService service(sc);
  ShardingOptions sharding;
  sharding.num_shards = 4;
  ASSERT_TRUE(service
                  .AddCollection("sharded", fx.dataset.data,
                                 Config(SearcherLayout::kFlat, PrunerKind::kBond),
                                 sharding)
                  .ok());

  auto reference = MakeSearcher(
      fx.dataset.data, Config(SearcherLayout::kFlat, PrunerKind::kBond));
  ASSERT_TRUE(reference.ok());

  QueryOptions traced;
  traced.trace = true;
  std::vector<QueryTicket> tickets;
  for (size_t q = 0; q < fx.dataset.queries.count(); ++q) {
    tickets.push_back(
        service.Submit("sharded", fx.dataset.queries.Vector(q), traced));
  }
  std::vector<QueryResult> results;
  for (size_t q = 0; q < tickets.size(); ++q) {
    results.push_back(tickets[q].result.get());
    ASSERT_TRUE(results[q].status.ok()) << results[q].status.ToString();
    ExpectSameNeighbors(results[q].neighbors,
                        reference.value()->Search(fx.dataset.queries.Vector(q)),
                        "sharded query " + std::to_string(q));
  }

  const CollectionStats cs = service.Stats().collections.at("sharded");
  EXPECT_EQ(cs.completed, tickets.size());
  EXPECT_EQ(cs.shards, 4u);
  // Every dispatched query fans out to every shard: a flat search visits
  // every block of every shard of the base.
  ASSERT_GE(cs.base_blocks, 4u);
  for (size_t q = 0; q < results.size(); ++q) {
    ASSERT_NE(results[q].trace, nullptr);
    EXPECT_EQ(results[q].trace->counters.blocks_visited, cs.base_blocks)
        << "sharded query " << q;
  }
}

// --- Regression: flat batches must not fragment on nprobe ------------------

TEST(SearchServiceTest, FlatBatchCoalescesAcrossNprobeOverrides) {
  Fixture fx = MakeFixture();
  SearchService service;  // max_batch default 8 >= the 4 queries below.
  ASSERT_TRUE(service
                  .AddCollection("flat", fx.dataset.data,
                                 Config(SearcherLayout::kFlat, PrunerKind::kBond))
                  .ok());
  service.Pause();
  std::vector<QueryTicket> tickets;
  for (size_t q = 0; q < 4; ++q) {
    // Distinct nprobe per query: a flat search ignores nprobe entirely, so
    // all four must still share ONE SearchBatch dispatch.
    QueryOptions options;
    options.nprobe = q + 1;
    tickets.push_back(
        service.Submit("flat", fx.dataset.queries.Vector(q), options));
  }
  service.Resume();
  for (QueryTicket& ticket : tickets) {
    EXPECT_TRUE(ticket.result.get().status.ok());
  }
  const CollectionStats cs = service.Stats().collections.at("flat");
  EXPECT_EQ(cs.completed, 4u);
  EXPECT_EQ(cs.dispatches, 1u)
      << "flat-layout batch was fragmented by the ignored nprobe knob";
}

// --- Regression: shed queries keep their real queue wait -------------------

TEST(SearchServiceTest, ShedQueriesReportQueueWait) {
  Fixture fx = MakeFixture();
  SearchService service;
  ASSERT_TRUE(service
                  .AddCollection("flat", fx.dataset.data,
                                 Config(SearcherLayout::kFlat, PrunerKind::kBond))
                  .ok());
  service.Pause();
  QueryOptions options;
  options.timeout = 1ms;
  QueryTicket doomed =
      service.Submit("flat", fx.dataset.queries.Vector(0), options);
  QueryTicket axed = service.Submit("flat", fx.dataset.queries.Vector(1));
  std::this_thread::sleep_for(30ms);
  EXPECT_TRUE(service.Cancel(axed.id));
  service.Resume();

  // The doomed query is shed AT its deadline (dispatchers timed-wait on
  // the earliest queued deadline, even while paused): its future must be
  // ready without Resume() having run — asserted before Resume() in
  // DeadlineShedsWhilePausedWithoutResume; here the paused window already
  // elapsed, so readiness is immediate — and its queue wait is the ~1ms
  // it actually sat queued. (No wall-clock upper bound: that would flake
  // on a descheduled CI host.)
  QueryResult expired = doomed.result.get();
  EXPECT_TRUE(expired.status.IsDeadlineExceeded());
  EXPECT_GE(expired.queue_ms, 1.0);
  // The cancelled query sat queued until the Cancel 30ms in; its reported
  // queue wait is that real wait, not zero.
  QueryResult cancelled = axed.result.get();
  EXPECT_TRUE(cancelled.status.IsCancelled());
  EXPECT_GT(cancelled.queue_ms, 5.0);

  const CollectionStats cs = service.Stats().collections.at("flat");
  EXPECT_EQ(cs.expired, 1u);
  EXPECT_EQ(cs.cancelled, 1u);
  // ...and both waits entered the queue-wait percentiles: exactly the
  // samples that used to be dropped when the queue was in trouble.
  EXPECT_EQ(cs.queue_wait.count, 2u);
  EXPECT_GT(cs.queue_wait.p99_ms, 5.0);
}

// --- Regression: QPS must not decay across idle gaps -----------------------

TEST(SearchServiceTest, QpsTracksRecentWindowAcrossIdleGap) {
  Fixture fx = MakeFixture(8, 97, 400, 8);
  ServiceConfig sc;
  sc.qps_window = 250ms;
  SearchService service(sc);
  ASSERT_TRUE(service
                  .AddCollection("flat", fx.dataset.data,
                                 Config(SearcherLayout::kFlat, PrunerKind::kBond))
                  .ok());
  auto burst = [&] {
    std::vector<QueryTicket> tickets;
    for (size_t q = 0; q < fx.dataset.queries.count(); ++q) {
      tickets.push_back(service.Submit("flat", fx.dataset.queries.Vector(q)));
    }
    for (QueryTicket& ticket : tickets) {
      ASSERT_TRUE(ticket.result.get().status.ok());
    }
  };

  burst();
  EXPECT_GT(service.Stats().collections.at("flat").qps, 0.0);

  // Idle past the window: the gauge reads 0 (no recent completions), not a
  // stale lifetime average.
  std::this_thread::sleep_for(600ms);
  EXPECT_EQ(service.Stats().collections.at("flat").qps, 0.0);

  // Fresh traffic after the gap: QPS reflects the recent rate. The old
  // first-to-last-completion span included the 600ms gap and could never
  // report more than ~(completed-1)/0.6s again.
  burst();
  EXPECT_GT(service.Stats().collections.at("flat").qps, 25.0);
}

// --- RemoveCollection vs an in-flight batch --------------------------------

/// Wraps a real searcher, signalling when the first search starts and
/// blocking every search until released — a deterministic in-flight window
/// for the test.
class SlowSearcher : public Searcher {
 public:
  SlowSearcher(std::unique_ptr<Searcher> inner,
               std::shared_future<void> release, std::promise<void>* started)
      : Searcher(inner->options(), inner->dim()),
        inner_(std::move(inner)),
        release_(std::move(release)),
        started_(started) {}

  std::vector<Neighbor> SearchWith(size_t slot, QueryKnobs knobs,
                                   const float* query,
                                   PdxearchProfile* profile) override {
    std::call_once(started_once_, [this] { started_->set_value(); });
    release_.wait();
    return inner_->SearchWith(slot, knobs, query, profile);
  }
  SearcherShape shape() const override { return inner_->shape(); }
  void ReserveScratch(size_t slots) override { inner_->ReserveScratch(slots); }

 private:
  std::unique_ptr<Searcher> inner_;
  std::shared_future<void> release_;
  std::promise<void>* started_;
  std::once_flag started_once_;
};

TEST(SearchServiceTest, RemoveCollectionWithInFlightBatch) {
  Fixture fx = MakeFixture();
  ServiceConfig sc;
  sc.max_batch = 2;
  // One dispatcher keeps the scenario deterministic: with replicas, a
  // second dispatcher would pop queries 2-3 as a second in-flight batch
  // instead of leaving them queued for RemoveCollection to cancel.
  sc.dispatchers = 1;
  SearchService service(sc);

  auto inner = MakeSearcher(fx.dataset.data,
                            Config(SearcherLayout::kFlat, PrunerKind::kBond));
  ASSERT_TRUE(inner.ok());
  std::promise<void> release;
  std::promise<void> started;
  std::unique_ptr<Searcher> slow = std::make_unique<SlowSearcher>(
      std::move(inner).value(), release.get_future().share(), &started);
  ASSERT_TRUE(service.AddCollection("slow", slow).ok());

  service.Pause();
  std::vector<QueryTicket> tickets;
  for (size_t q = 0; q < 4; ++q) {
    tickets.push_back(service.Submit("slow", fx.dataset.queries.Vector(q)));
  }
  service.Resume();
  // The dispatcher is now inside the batch with queries 0-1 (max_batch
  // 2); queries 2-3 are still queued.
  started.get_future().wait();
  ASSERT_TRUE(service.RemoveCollection("slow").ok());

  // Queued queries fail fast, while the batch is still running.
  EXPECT_TRUE(tickets[2].result.get().status.IsCancelled());
  EXPECT_TRUE(tickets[3].result.get().status.IsCancelled());
  ASSERT_EQ(tickets[0].result.wait_for(0s), std::future_status::timeout);

  // Unblock the batch: the dispatcher's shared_ptr kept the collection
  // alive, so the in-flight queries still resolve OK.
  release.set_value();
  for (size_t q = 0; q < 2; ++q) {
    QueryResult result = tickets[q].result.get();
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.neighbors.size(), 10u);
  }
  EXPECT_TRUE(service.CollectionNames().empty());
}

// --- The dispatcher's exception barrier ------------------------------------

/// Wraps a real searcher; every search throws while `armed` is set.
class ThrowingSearcher : public Searcher {
 public:
  ThrowingSearcher(std::unique_ptr<Searcher> inner, std::atomic<bool>* armed)
      : Searcher(inner->options(), inner->dim()),
        inner_(std::move(inner)),
        armed_(armed) {}

  std::vector<Neighbor> SearchWith(size_t slot, QueryKnobs knobs,
                                   const float* query,
                                   PdxearchProfile* profile) override {
    if (armed_->load()) throw std::runtime_error("injected search failure");
    return inner_->SearchWith(slot, knobs, query, profile);
  }
  SearcherShape shape() const override { return inner_->shape(); }
  void ReserveScratch(size_t slots) override { inner_->ReserveScratch(slots); }

 private:
  std::unique_ptr<Searcher> inner_;
  std::atomic<bool>* armed_;
};

TEST(SearchServiceTest, ThrowingSearchFailsItsBatchAndServingGoesOn) {
  Fixture fx = MakeFixture(16, 43, 500, 8);
  ServiceConfig sc;
  sc.threads = 2;
  sc.max_batch = 4;
  sc.dispatchers = 1;  // The four queued queries coalesce into one batch.
  SearchService service(sc);
  auto inner = MakeSearcher(fx.dataset.data,
                            Config(SearcherLayout::kFlat, PrunerKind::kBond));
  ASSERT_TRUE(inner.ok());
  std::atomic<bool> armed{true};
  std::unique_ptr<Searcher> throwing =
      std::make_unique<ThrowingSearcher>(std::move(inner).value(), &armed);
  ASSERT_TRUE(service.AddCollection("boom", throwing).ok());

  service.Pause();
  std::vector<QueryTicket> tickets;
  for (size_t q = 0; q < 4; ++q) {
    tickets.push_back(service.Submit("boom", fx.dataset.queries.Vector(q)));
  }
  service.Resume();
  for (QueryTicket& ticket : tickets) {
    const QueryResult result = ticket.result.get();
    EXPECT_TRUE(result.status.IsInternal()) << result.status.ToString();
    EXPECT_NE(result.status.message().find("injected search failure"),
              std::string::npos)
        << result.status.ToString();
    EXPECT_TRUE(result.neighbors.empty());
  }

  // The dispatcher survived the throw: the next batch is served.
  armed.store(false);
  const QueryResult ok =
      service.Submit("boom", fx.dataset.queries.Vector(4)).result.get();
  ASSERT_TRUE(ok.status.ok()) << ok.status.ToString();
  EXPECT_EQ(ok.neighbors.size(), 10u);

  const CollectionStats cs = service.Stats().collections.at("boom");
  EXPECT_EQ(cs.failed, 4u);
  EXPECT_EQ(cs.completed, 1u);
  EXPECT_EQ(cs.admitted, cs.completed + cs.expired + cs.cancelled + cs.failed);
  const std::string scrape = service.metrics().WritePrometheus();
  EXPECT_NE(scrape.find("pdx_queries_total{collection=\"boom\","
                        "outcome=\"failed\"} 4\n"),
            std::string::npos)
      << scrape;
}

// --- One registry per service ----------------------------------------------

TEST(SearchServiceTest, DefaultServicesEachCountOnlyTheirOwnQueries) {
  Fixture fx = MakeFixture(16, 47, 500, 4);
  const SearcherConfig config = Config(SearcherLayout::kFlat, PrunerKind::kBond);
  const std::string completed =
      "pdx_queries_total{collection=\"docs\",outcome=\"completed\"} ";
  auto search = [&](SearchService& service, size_t q) {
    ASSERT_TRUE(service.Submit("docs", fx.dataset.queries.Vector(q))
                    .result.get()
                    .status.ok());
  };

  // Stats() and the scrape are one series: both keep counting across a
  // remove + re-add of the name.
  SearchService first{ServiceConfig{}};
  ASSERT_TRUE(first.AddCollection("docs", fx.dataset.data, config).ok());
  for (size_t q = 0; q < 3; ++q) search(first, q);
  ASSERT_TRUE(first.RemoveCollection("docs").ok());
  ASSERT_TRUE(first.AddCollection("docs", fx.dataset.data, config).ok());
  search(first, 3);
  EXPECT_EQ(first.Stats().collections.at("docs").completed, 4u);
  EXPECT_EQ(first.Stats().collections.at("docs").admitted, 4u);
  const std::string first_scrape = first.metrics().WritePrometheus();
  EXPECT_NE(first_scrape.find(completed + "4\n"), std::string::npos)
      << first_scrape;

  // A second default-config service in the same process has a registry of
  // its own: neither view sees the first service's queries.
  SearchService second{ServiceConfig{}};
  EXPECT_NE(&second.metrics(), &first.metrics());
  ASSERT_TRUE(second.AddCollection("docs", fx.dataset.data, config).ok());
  search(second, 0);
  EXPECT_EQ(second.Stats().collections.at("docs").completed, 1u);
  EXPECT_EQ(second.Stats().collections.at("docs").admitted, 1u);
  const std::string second_scrape = second.metrics().WritePrometheus();
  EXPECT_NE(second_scrape.find(completed + "1\n"), std::string::npos)
      << second_scrape;
}

TEST(SearchServiceTest, ServiceLoadHelperDrivesTheService) {
  Fixture fx = MakeFixture(16, 95, 2000, 20);
  ServiceConfig sc;
  sc.threads = 2;
  SearchService service(sc);
  ASSERT_TRUE(service
                  .AddCollection("a", fx.dataset.data,
                                 Config(SearcherLayout::kFlat, PrunerKind::kBond))
                  .ok());
  ASSERT_TRUE(service
                  .AddCollection("b", fx.dataset.data,
                                 Config(SearcherLayout::kFlat, PrunerKind::kLinear))
                  .ok());
  ServiceLoadOptions load;
  load.submitters = 3;
  load.queries_per_submitter = 20;
  const ServiceLoadResult result =
      RunServiceLoad(service, {"a", "b"}, fx.dataset.queries, load);
  EXPECT_EQ(result.completed, 60u);
  EXPECT_EQ(result.rejected, 0u);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_GT(result.qps(), 0.0);
}

}  // namespace
}  // namespace pdx
