#include "core/pdxearch.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "benchlib/datagen.h"
#include "core/any_searcher.h"
#include "index/flat.h"
#include "pruning/pdx_bond.h"
#include "storage/block_stats.h"

namespace pdx {
namespace {

Dataset MakeDataset(size_t dim = 24, uint64_t seed = 9,
                    size_t count = 2000) {
  SyntheticSpec spec;
  spec.name = "pdxearch-test";
  spec.dim = dim;
  spec.count = count;
  spec.num_queries = 10;
  spec.num_clusters = 8;
  spec.seed = seed;
  spec.distribution = ValueDistribution::kSkewed;
  return GenerateDataset(spec);
}

/// Flat PDX-BOND through the facade, with dimension zones on register-sized
/// blocks instead of the exact-search defaults (distance-to-means on 10K
/// partitions), so the collection spans several blocks.
SearcherConfig ZonedBondConfig() {
  SearcherConfig config;
  config.bond_order = DimensionOrder::kDimensionZones;
  config.block_capacity = kPdxBlockSize;
  return config;
}

std::unique_ptr<Searcher> MakeBond(const VectorSet& data,
                                   const SearcherConfig& config = {}) {
  auto made = MakeSearcher(data, config);
  EXPECT_TRUE(made.ok()) << made.status().ToString();
  return made.ok() ? std::move(made).value() : nullptr;
}

TEST(PdxearchTest, NoPrunerEqualsLinearScan) {
  Dataset dataset = MakeDataset();
  PdxStore store = PdxStore::FromVectorSet(dataset.data);
  NoPruner pruner;
  PdxearchEngine<NoPruner> engine(&store, &pruner);

  for (size_t q = 0; q < dataset.queries.count(); ++q) {
    const float* query = dataset.queries.Vector(q);
    const auto expected = FlatSearchPdx(store, query, 10, Metric::kL2);
    const auto actual = engine.SearchFlat(query, 10);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(actual[i].id, expected[i].id) << "query " << q;
      ASSERT_FLOAT_EQ(actual[i].distance, expected[i].distance);
    }
  }
}

TEST(PdxearchTest, NoPrunerScansEverything) {
  Dataset dataset = MakeDataset();
  PdxStore store = PdxStore::FromVectorSet(dataset.data);
  NoPruner pruner;
  PdxearchEngine<NoPruner> engine(&store, &pruner);
  engine.SearchFlat(dataset.queries.Vector(0), 10);
  const PdxearchProfile& profile = engine.last_profile();
  EXPECT_EQ(profile.values_scanned, profile.values_total);
  EXPECT_DOUBLE_EQ(profile.pruning_power(), 0.0);
}

TEST(PdxearchTest, AdaptiveAndFixedStepsSameResultsForExactPruner) {
  Dataset dataset = MakeDataset(32, 10);
  SearcherConfig adaptive = ZonedBondConfig();
  adaptive.search.adaptive_steps = true;
  auto adaptive_searcher = MakeBond(dataset.data, adaptive);
  SearcherConfig fixed = ZonedBondConfig();
  fixed.search.adaptive_steps = false;
  fixed.search.fixed_step = 32;
  auto fixed_searcher = MakeBond(dataset.data, fixed);
  ASSERT_NE(adaptive_searcher, nullptr);
  ASSERT_NE(fixed_searcher, nullptr);

  for (size_t q = 0; q < dataset.queries.count(); ++q) {
    const float* query = dataset.queries.Vector(q);
    const auto a = adaptive_searcher->SearchWith(0, {10, 0}, query);
    const auto b = fixed_searcher->SearchWith(0, {10, 0}, query);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].id, b[i].id) << "query " << q << " rank " << i;
    }
  }
}

TEST(PdxearchTest, SelectionFractionDoesNotChangeExactResults) {
  Dataset dataset = MakeDataset(20, 11);
  for (float fraction : {0.02f, 0.2f, 0.8f}) {
    SearcherConfig config = ZonedBondConfig();
    config.search.selection_fraction = fraction;
    auto searcher = MakeBond(dataset.data, config);
    ASSERT_NE(searcher, nullptr);
    const float* query = dataset.queries.Vector(0);
    const auto expected = FlatSearchNary(dataset.data, query, 10, Metric::kL2);
    const auto actual = searcher->SearchWith(0, {10, 0}, query);
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(actual[i].id, expected[i].id) << "fraction " << fraction;
    }
  }
}

TEST(PdxearchTest, SelectionFractionOneStaysExact) {
  // selection_fraction >= 1.0 used to drop every post-START block straight
  // into PRUNE; the clamped prune_entry must keep results exact and keep
  // the all-lanes WARMUP kernels in use until something is pruned.
  Dataset dataset = MakeDataset(20, 19);
  for (float fraction : {1.0f, 1.5f}) {
    SearcherConfig config = ZonedBondConfig();
    config.search.selection_fraction = fraction;
    config.block_capacity = 256;
    auto searcher = MakeBond(dataset.data, config);
    ASSERT_NE(searcher, nullptr);
    const float* query = dataset.queries.Vector(0);
    const auto expected = FlatSearchNary(dataset.data, query, 10, Metric::kL2);
    const auto actual = searcher->SearchWith(0, {10, 0}, query);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(actual[i].id, expected[i].id) << "fraction " << fraction;
    }
  }
}

TEST(PdxearchTest, SingleVectorBlocksNeverEnterPrune) {
  // n == 1 blocks: prune_entry clamps to 0, so the lone lane finishes in
  // WARMUP (alive can only drop to 0, which ends the loop anyway).
  Dataset dataset = MakeDataset(16, 20, /*count=*/120);
  PdxStore store = PdxStore::FromVectorSet(dataset.data, /*block_capacity=*/1);
  ASSERT_EQ(store.num_blocks(), dataset.data.count());
  PdxBondPruner pruner(ComputeStats(dataset.data.data(), dataset.data.count(),
                                    dataset.data.dim())
                           .means,
                       DimensionOrder::kSequential);
  PdxearchEngine<PdxBondPruner> engine(&store, &pruner);
  for (size_t q = 0; q < dataset.queries.count(); ++q) {
    const float* query = dataset.queries.Vector(q);
    const auto expected = FlatSearchNary(dataset.data, query, 10, Metric::kL2);
    const auto actual = engine.SearchFlat(query, 10);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(actual[i].id, expected[i].id) << "query " << q;
      ASSERT_FLOAT_EQ(actual[i].distance, expected[i].distance);
    }
  }
}

TEST(PdxearchTest, ProfileValuesAreConsistent) {
  Dataset dataset = MakeDataset(28, 12);
  // Small blocks so the 2000-vector collection spans many blocks and the
  // post-START blocks actually evaluate the pruning predicate.
  SearcherConfig config = ZonedBondConfig();
  config.block_capacity = 256;
  auto searcher = MakeBond(dataset.data, config);
  ASSERT_NE(searcher, nullptr);
  PdxearchProfile profile;
  searcher->SearchWith(0, {10, 0}, dataset.queries.Vector(0), &profile);
  EXPECT_LE(profile.values_scanned, profile.values_total);
  EXPECT_EQ(profile.values_total, 28u * dataset.data.count());
  EXPECT_GE(profile.pruning_power(), 0.0);
  EXPECT_LE(profile.pruning_power(), 1.0);
  EXPECT_GT(profile.predicate_evaluations, 0u);
}

TEST(PdxearchTest, PhaseTimesCollectedWhenEnabled) {
  Dataset dataset = MakeDataset(16, 13);
  IvfIndex index = IvfIndex::Build(dataset.data, {});
  SearcherConfig config;
  config.layout = SearcherLayout::kIvf;
  config.search.collect_phase_times = true;
  auto made = MakeSearcher(dataset.data, index, config);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  PdxearchProfile profile;
  made.value()->SearchWith(0, {10, 8}, dataset.queries.Vector(0), &profile);
  EXPECT_GT(profile.find_buckets_ms, 0.0);
  EXPECT_GT(profile.distance_ms, 0.0);
  EXPECT_GT(profile.total_ms(), 0.0);
}

TEST(PdxearchTest, PhaseTimesZeroWhenDisabled) {
  Dataset dataset = MakeDataset(16, 14);
  auto searcher = MakeBond(dataset.data);
  ASSERT_NE(searcher, nullptr);
  PdxearchProfile profile;
  searcher->SearchWith(0, {10, 0}, dataset.queries.Vector(0), &profile);
  EXPECT_EQ(profile.distance_ms, 0.0);
}

TEST(PdxearchTest, StepObserverSeesBlockLifecycle) {
  Dataset dataset = MakeDataset(16, 15, /*count=*/600);
  PdxStore store = PdxStore::FromVectorSet(dataset.data, 128);
  PdxBondPruner pruner(ComputeStats(dataset.data.data(), dataset.data.count(),
                                    dataset.data.dim())
                           .means,
                       DimensionOrder::kSequential);
  PdxearchOptions options;
  std::vector<std::tuple<size_t, size_t, size_t>> events;
  options.step_observer = [&](size_t dims, size_t alive, size_t n) {
    events.emplace_back(dims, alive, n);
  };
  PdxearchEngine<PdxBondPruner> engine(&store, &pruner, Metric::kL2, options);
  engine.SearchFlat(dataset.queries.Vector(0), 10);

  ASSERT_FALSE(events.empty());
  // First observed event is a block entering WARMUP (dims == 0).
  EXPECT_EQ(std::get<0>(events.front()), 0u);
  // Survivors never exceed the block size and never grow within a block.
  size_t last_alive = SIZE_MAX;
  for (const auto& [dims, alive, n] : events) {
    ASSERT_LE(alive, n);
    if (dims == 0) {
      last_alive = n;
    } else {
      ASSERT_LE(alive, last_alive) << "survivors grew at depth " << dims;
      last_alive = alive;
    }
  }
}

TEST(PdxearchTest, KLargerThanBlock) {
  Dataset dataset = MakeDataset(8, 16, /*count=*/100);
  auto searcher = MakeBond(dataset.data);
  ASSERT_NE(searcher, nullptr);
  const auto result =
      searcher->SearchWith(0, {50, 0}, dataset.queries.Vector(0));
  EXPECT_EQ(result.size(), 50u);
  // Sorted ascending.
  for (size_t i = 1; i < result.size(); ++i) {
    ASSERT_LE(result[i - 1].distance, result[i].distance);
  }
}

TEST(PdxearchTest, KLargerThanCollection) {
  Dataset dataset = MakeDataset(8, 17, /*count=*/30);
  auto searcher = MakeBond(dataset.data);
  ASSERT_NE(searcher, nullptr);
  const auto result =
      searcher->SearchWith(0, {100, 0}, dataset.queries.Vector(0));
  EXPECT_EQ(result.size(), 30u);
}

TEST(PdxearchTest, SingleVectorCollection) {
  VectorSet single(4);
  const float row[4] = {1, 2, 3, 4};
  single.Append(row);
  auto searcher = MakeBond(single);
  ASSERT_NE(searcher, nullptr);
  const float query[4] = {1, 2, 3, 5};
  const auto result = searcher->SearchWith(0, {1, 0}, query);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].id, 0u);
  EXPECT_FLOAT_EQ(result[0].distance, 1.0f);
}

TEST(PdxearchTest, InitialStepRespected) {
  Dataset dataset = MakeDataset(64, 18, /*count=*/500);
  PdxStore store = PdxStore::FromVectorSet(dataset.data);
  PdxBondPruner pruner(ComputeStats(dataset.data.data(), dataset.data.count(),
                                    dataset.data.dim())
                           .means,
                       DimensionOrder::kSequential);
  PdxearchOptions options;
  options.initial_step = 4;
  std::vector<size_t> depths;
  options.step_observer = [&](size_t dims, size_t, size_t) {
    depths.push_back(dims);
  };
  PdxearchEngine<PdxBondPruner> engine(&store, &pruner, Metric::kL2, options);
  engine.SearchFlat(dataset.queries.Vector(0), 10);
  // Depth sequence per block: 0, 4, 12, 28, 60, 64 (doubling steps).
  ASSERT_GE(depths.size(), 3u);
  size_t i = 0;
  ASSERT_EQ(depths[i++], 0u);
  EXPECT_EQ(depths[i++], 4u);
  EXPECT_EQ(depths[i++], 12u);
}

}  // namespace
}  // namespace pdx
