// A one-query batch on a caller pool spreads a flat exact search over the
// pool: START runs on the calling thread, and the partitions after it run
// as tasks on the band's other slots under START's k-th distance. The split
// must return SearchWith's ids and distance bits, under every BOND order and
// with ties at the k-th distance, and its work record must depend only on
// the query, the store and the pool size. The exact answers rest on the
// heap's (distance, id) order, which the duplicated-rows reference pins for
// the sequential search first.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "benchlib/datagen.h"
#include "common/parallel.h"
#include "common/random.h"
#include "core/any_searcher.h"
#include "core/mutable_searcher.h"
#include "core/persist.h"

namespace pdx {
namespace {

constexpr size_t kCapacity = kExactSearchBlockCapacity;
constexpr size_t kTaskLanes = kSplitTaskLanes;

/// Row counts around the split rule (one task per kTaskLanes lanes left
/// after START, which is one kCapacity-lane partition on PDX-BOND at
/// k <= kCapacity): on PDX-BOND, 100 lanes short of two tasks (no split),
/// exactly two, and four tasks over 22 partitions, which no pool of 3 or 4
/// divides evenly. Linear's START is one 64-lane block, so it splits all
/// three, the last over 718 blocks.
const size_t kCounts[] = {kCapacity + 2 * kTaskLanes - 100,
                          kCapacity + 2 * kTaskLanes,
                          kCapacity + 4 * kTaskLanes + 3000};

/// A START row of TiedData that every later partition holds a copy of.
constexpr VectorId kCopiedRow = 2000;

/// Rows of small integers: every distance is an exact integer, whatever
/// order the dimensions are summed in, so duplicates and other exact ties
/// are everywhere. Rows 7 and kCopiedRow (both in START) are also copied
/// into every later partition, and query 0 is row 7, so its nearest
/// candidates tie at distance 0 in START and in every task; query 1 is
/// row count - 500, in the last task's partitions (on a prefix of the rows,
/// a row they do not hold).
Dataset TiedData(size_t count, size_t dim = 8, uint64_t seed = 5) {
  Rng rng(seed);
  Dataset data;
  data.name = "tied";
  data.data = VectorSet(dim, count);
  std::vector<float> row(dim);
  for (size_t i = 0; i < count; ++i) {
    for (float& v : row) v = static_cast<float>(rng.UniformInt(4));
    data.data.Append(row.data());
  }
  for (size_t p = 1; p * kCapacity + kCopiedRow + 100 < count; ++p) {
    for (VectorId source : {VectorId{7}, kCopiedRow}) {
      data.data.Update(static_cast<VectorId>(p * kCapacity + source + p),
                       data.data.Vector(source));
    }
  }
  data.queries = VectorSet(dim, 2);
  data.queries.Append(data.data.Vector(7));
  data.queries.Append(data.data.Vector(static_cast<VectorId>(count - 500)));
  return data;
}

Dataset NormalData(size_t count) {
  SyntheticSpec spec;
  spec.name = "split-normal";
  spec.dim = 8;
  spec.count = count;
  spec.num_queries = 2;
  spec.num_clusters = 8;
  spec.seed = 77;
  spec.distribution = ValueDistribution::kNormal;
  return GenerateDataset(spec);
}

/// The first `count` rows of `rows`.
VectorSet Prefix(const VectorSet& rows, size_t count) {
  return VectorSet::FromRowMajor(rows.data(), count, rows.dim());
}

/// The exact pruners a flat search splits under: linear on 64-lane
/// blocks, and PDX-BOND on the exact-search partitions in every order.
std::vector<std::pair<std::string, SearcherConfig>> ExactConfigs() {
  std::vector<std::pair<std::string, SearcherConfig>> configs;
  SearcherConfig linear;
  linear.layout = SearcherLayout::kFlat;
  linear.pruner = PrunerKind::kLinear;
  configs.emplace_back("linear", linear);
  for (DimensionOrder order :
       {DimensionOrder::kSequential, DimensionOrder::kDistanceToMeans,
        DimensionOrder::kDimensionZones}) {
    SearcherConfig bond;
    bond.layout = SearcherLayout::kFlat;
    bond.pruner = PrunerKind::kBond;
    bond.bond_order = order;
    bond.bond_zone_size = 4;
    configs.emplace_back("bond-" + std::to_string(static_cast<int>(order)),
                         bond);
  }
  return configs;
}

std::unique_ptr<Searcher> Build(const VectorSet& rows,
                                const SearcherConfig& config) {
  auto made = MakeSearcher(rows, config);
  EXPECT_TRUE(made.ok()) << made.status().ToString();
  return made.ok() ? std::move(made).value() : nullptr;
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

/// Query `q` as a one-query batch through band `band` on `pool`.
std::vector<Neighbor> OneQuery(Searcher& searcher, ThreadPool& pool,
                               size_t band, size_t k, const float* query,
                               PdxearchProfile* work = nullptr) {
  searcher.ReserveScratch(band + pool.num_threads());
  return searcher.SearchBatchWith(band, QueryKnobs{k, 0}, query, 1, &pool,
                                  work)
      .front();
}

TEST(FlatSplitTest, DuplicatedRowsMatchTheDistanceIdReference) {
  // 700 distinct rows, each stored three times: many candidates tie at the
  // k-th distance, and the heap must keep the lowest ids among them.
  const Dataset distinct = TiedData(700, 16, 9);
  VectorSet rows(16, 2100);
  for (size_t copy = 0; copy < 3; ++copy) {
    rows.AppendBatch(distinct.data.data(), 700);
  }
  Rng rng(10);
  VectorSet queries(16, 50);
  std::vector<float> query(16);
  for (size_t q = 0; q < 50; ++q) {
    for (float& v : query) v = static_cast<float>(rng.UniformInt(4));
    queries.Append(query.data());
  }
  // The reference: every row by (distance, id), the first k of them.
  std::vector<std::vector<Neighbor>> reference(queries.count());
  for (size_t q = 0; q < queries.count(); ++q) {
    const float* v = queries.Vector(static_cast<VectorId>(q));
    for (VectorId id = 0; id < rows.count(); ++id) {
      float distance = 0.0f;
      for (size_t d = 0; d < 16; ++d) {
        const float diff = v[d] - rows.Vector(id)[d];
        distance += diff * diff;
      }
      reference[q].push_back({id, distance});
    }
    std::sort(reference[q].begin(), reference[q].end(),
              [](const Neighbor& a, const Neighbor& b) {
                return a.distance != b.distance ? a.distance < b.distance
                                                : a.id < b.id;
              });
  }
  for (auto [name, config] : ExactConfigs()) {
    for (size_t capacity : {size_t{64}, size_t{0}}) {
      config.block_capacity = capacity;
      std::unique_ptr<Searcher> searcher = Build(rows, config);
      ASSERT_NE(searcher, nullptr);
      for (size_t k : {size_t{10}, size_t{25}}) {
        for (size_t q = 0; q < queries.count(); ++q) {
          const std::vector<Neighbor> expected(reference[q].begin(),
                                               reference[q].begin() + k);
          ExpectSameNeighbors(
              searcher->SearchWith(0, QueryKnobs{k, 0},
                                   queries.Vector(static_cast<VectorId>(q))),
              expected,
              name + " capacity " + std::to_string(capacity) + " k " +
                  std::to_string(k) + " q" + std::to_string(q));
        }
      }
    }
  }
}

TEST(FlatSplitTest, OneQueryOnAPoolEqualsSearchWith) {
  ThreadPool two(2);
  ThreadPool three(3);
  ThreadPool four(4);
  // Pools of 2, 3 and 4, on bands 0 and 4.
  const std::vector<std::pair<ThreadPool*, size_t>> runs = {
      {&two, 0}, {&three, 4}, {&four, 4}};
  const Dataset normal = NormalData(kCounts[2]);
  const Dataset tied = TiedData(kCounts[2]);
  for (const Dataset* data : {&normal, &tied}) {
    for (size_t count : kCounts) {
      const VectorSet rows = Prefix(data->data, count);
      for (const auto& [name, config] : ExactConfigs()) {
        std::unique_ptr<Searcher> searcher = Build(rows, config);
        ASSERT_NE(searcher, nullptr);
        const size_t block = ResolveConfig(config).block_capacity;
        // k = 10 on every store; on the largest, k = 1 and a k past two
        // blocks (START spans three, and on PDX-BOND k > kCapacity); on the
        // smallest, k >= count (START takes every block: nothing is left
        // to split).
        std::vector<size_t> ks = {10};
        if (count == kCounts[2]) ks.insert(ks.end(), {1, 2 * block + 60});
        if (count == kCounts[0]) ks.push_back(count);
        for (size_t k : ks) {
          for (size_t q = 0; q < data->queries.count(); ++q) {
            const float* query =
                data->queries.Vector(static_cast<VectorId>(q));
            const std::vector<Neighbor> expected =
                searcher->SearchWith(0, QueryKnobs{k, 0}, query);
            for (const auto& [pool, band] : runs) {
              ExpectSameNeighbors(
                  OneQuery(*searcher, *pool, band, k, query), expected,
                  data->name + " " + name + " count " + std::to_string(count) +
                      " k " + std::to_string(k) + " q" + std::to_string(q) +
                      " pool " + std::to_string(pool->num_threads()) +
                      " band " + std::to_string(band));
            }
          }
        }
      }
    }
  }
}

/// The work counters of a record (its phase times are wall clock).
std::vector<uint64_t> Counters(const PdxearchProfile& p) {
  return {p.values_scanned, p.values_total,   p.predicate_evaluations,
          p.blocks_visited, p.vectors_pruned, p.dims_scanned,
          p.rerank_candidates};
}

TEST(FlatSplitTest, SplitWorkRecordRepeatsAndCoversEveryBlock) {
  const Dataset data = NormalData(kCounts[2]);
  ThreadPool four(4);
  ThreadPool other_four(4);
  ThreadPool two(2);
  for (const auto& [name, config] : ExactConfigs()) {
    std::unique_ptr<Searcher> searcher = Build(data.data, config);
    ASSERT_NE(searcher, nullptr);
    for (size_t q = 0; q < data.queries.count(); ++q) {
      const float* query = data.queries.Vector(static_cast<VectorId>(q));
      const std::string label = name + " q" + std::to_string(q);
      PdxearchProfile sequential;
      (void)searcher->SearchWith(0, QueryKnobs{}, query, &sequential);
      PdxearchProfile first, again, other, halved;
      (void)OneQuery(*searcher, four, 0, 10, query, &first);
      (void)OneQuery(*searcher, four, 4, 10, query, &again);
      (void)OneQuery(*searcher, other_four, 0, 10, query, &other);
      (void)OneQuery(*searcher, two, 0, 10, query, &halved);
      EXPECT_EQ(Counters(again), Counters(first)) << label;
      EXPECT_EQ(Counters(other), Counters(first)) << label;
      for (const PdxearchProfile* split : {&first, &halved}) {
        EXPECT_EQ(split->blocks_visited, sequential.blocks_visited) << label;
        EXPECT_EQ(split->values_total, sequential.values_total) << label;
        // A task's bound is never below the sequential threshold at the
        // same block, so it never scans fewer values.
        EXPECT_GE(split->values_scanned, sequential.values_scanned) << label;
      }
    }
  }
}

TEST(FlatSplitTest, LiveCollectionSplitsItsBase) {
  // Delta rows and tombstones in START and in later tasks: the live merge
  // runs on the split base answer exactly as on the sequential one.
  const Dataset data = TiedData(kCounts[2]);
  SearcherConfig config;
  config.layout = SearcherLayout::kFlat;
  config.pruner = PrunerKind::kBond;
  config.bond_order = DimensionOrder::kSequential;
  auto made = MutableSearcher::Make(data.data, config);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  MutableSearcher& live = *made.value();
  const size_t nq = data.queries.count();
  // An upsert in START and one in the last task's partitions; deletes of
  // START rows, of a copy of one in the next partition, and of a row in a
  // middle task.
  const std::vector<uint64_t> upserts = {3, kCounts[2] - 2 * kCapacity};
  ASSERT_EQ(upserts.size(), nq);
  ASSERT_TRUE(live.Add(data.queries.data(), nq, upserts.data()).ok());
  ASSERT_TRUE(live.Add(data.queries.data(), nq).ok());
  for (uint64_t id : {uint64_t{kCopiedRow}, uint64_t{11},
                      uint64_t{kCopiedRow + kCapacity + 1},
                      uint64_t{kCapacity + 2 * kTaskLanes}}) {
    ASSERT_TRUE(live.Delete(id).ok()) << id;
  }
  ThreadPool four(4);
  ThreadPool three(3);
  for (size_t k : {size_t{1}, size_t{10}}) {
    for (size_t q = 0; q < data.queries.count(); ++q) {
      const float* query = data.queries.Vector(static_cast<VectorId>(q));
      const std::vector<Neighbor> expected =
          live.SearchWith(0, QueryKnobs{k, 0}, query, nullptr);
      for (ThreadPool* pool : {&four, &three}) {
        ExpectSameNeighbors(OneQuery(live, *pool, 0, k, query), expected,
                            "k " + std::to_string(k) + " q" +
                                std::to_string(q) + " pool " +
                                std::to_string(pool->num_threads()));
      }
    }
  }
}

TEST(FlatSplitTest, CollectionRestoredByMmapSplits) {
  const Dataset data = NormalData(kCounts[2]);
  SearcherConfig config;
  config.layout = SearcherLayout::kFlat;
  config.pruner = PrunerKind::kBond;
  std::unique_ptr<Searcher> built = Build(data.data, config);
  ASSERT_NE(built, nullptr);
  const std::string path = testing::TempDir() + "/flat_split.pdxc";
  ASSERT_TRUE(built->Save(path).ok());
  auto loaded = LoadCollection(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().source, "mmap");
  Searcher& restored = *loaded.value().searcher;
  ThreadPool four(4);
  for (size_t q = 0; q < data.queries.count(); ++q) {
    const float* query = data.queries.Vector(static_cast<VectorId>(q));
    ExpectSameNeighbors(OneQuery(restored, four, 0, 10, query),
                        built->SearchWith(0, QueryKnobs{10, 0}, query),
                        "q" + std::to_string(q));
  }
}

}  // namespace
}  // namespace pdx
