#include "pruning/pdx_bond.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "benchlib/datagen.h"
#include "core/any_searcher.h"
#include "index/flat.h"

namespace pdx {
namespace {

Dataset MakeDataset(size_t dim, ValueDistribution distribution,
                    uint64_t seed) {
  SyntheticSpec spec;
  spec.name = "bond-test";
  spec.dim = dim;
  spec.count = 2200;
  spec.num_queries = 12;
  spec.num_clusters = 8;
  spec.seed = seed;
  spec.distribution = distribution;
  return GenerateDataset(spec);
}

std::unique_ptr<Searcher> MakeFlatBond(const VectorSet& data,
                                       const SearcherConfig& config) {
  auto made = MakeSearcher(data, config);
  EXPECT_TRUE(made.ok()) << made.status().ToString();
  return made.ok() ? std::move(made).value() : nullptr;
}

using BondParam = std::tuple<DimensionOrder, ValueDistribution, size_t>;

class PdxBondExactnessTest : public ::testing::TestWithParam<BondParam> {};

// The central property of PDX-BOND: it is EXACT — same results as brute
// force, for every order criterion, on every distribution.
TEST_P(PdxBondExactnessTest, FlatSearchEqualsBruteForce) {
  const auto [order, distribution, dim] = GetParam();
  Dataset dataset = MakeDataset(dim, distribution, 31 + dim);

  SearcherConfig config;
  config.bond_order = order;
  config.bond_zone_size = 8;
  config.block_capacity = 512;
  auto searcher = MakeFlatBond(dataset.data, config);
  ASSERT_NE(searcher, nullptr);

  for (size_t q = 0; q < dataset.queries.count(); ++q) {
    const float* query = dataset.queries.Vector(q);
    const auto expected = FlatSearchNary(dataset.data, query, 10, Metric::kL2);
    const auto actual = searcher->SearchWith(0, {10, 0}, query);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(actual[i].id, expected[i].id)
          << DimensionOrderName(order) << " query " << q << " rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PdxBondExactnessTest,
    ::testing::Combine(
        ::testing::Values(DimensionOrder::kSequential,
                          DimensionOrder::kDecreasingQuery,
                          DimensionOrder::kDistanceToMeans,
                          DimensionOrder::kDimensionZones),
        ::testing::Values(ValueDistribution::kNormal,
                          ValueDistribution::kSkewed),
        ::testing::Values(16, 48)),
    [](const ::testing::TestParamInfo<BondParam>& info) {
      std::string name = DimensionOrderName(std::get<0>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_" +
             ValueDistributionName(std::get<1>(info.param)) + "_d" +
             std::to_string(std::get<2>(info.param));
    });

// The partial-distance lower bound is monotone for L1 too (a sum of
// absolute values), so PDX-BOND must be exact under the Manhattan metric
// as well.
TEST(PdxBondTest, ExactUnderL1Metric) {
  Dataset dataset = MakeDataset(24, ValueDistribution::kSkewed, 76);
  SearcherConfig config;
  config.bond_order = DimensionOrder::kDistanceToMeans;
  config.block_capacity = 512;
  config.metric = Metric::kL1;
  auto searcher = MakeFlatBond(dataset.data, config);
  ASSERT_NE(searcher, nullptr);
  for (size_t q = 0; q < dataset.queries.count(); ++q) {
    const float* query = dataset.queries.Vector(q);
    const auto expected = FlatSearchNary(dataset.data, query, 10, Metric::kL1);
    const auto actual = searcher->SearchWith(0, {10, 0}, query);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(actual[i].id, expected[i].id) << "L1 query " << q;
    }
  }
}

TEST(PdxBondTest, IvfSearchExactWithinProbedBuckets) {
  Dataset dataset = MakeDataset(24, ValueDistribution::kSkewed, 77);
  IvfIndex index = IvfIndex::Build(dataset.data, {});
  SearcherConfig config;
  config.layout = SearcherLayout::kIvf;
  auto made = MakeSearcher(dataset.data, index, config);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  Searcher& bond = *made.value();
  BucketOrderedSet ordered = ReorderByBuckets(dataset.data, index);

  // Same nprobe: PDX-BOND must return exactly what the N-ary linear scan
  // over the same buckets returns (both are exact within probed buckets).
  size_t comparisons = 0;
  for (size_t nprobe : {1u, 4u, 16u}) {
    for (size_t q = 0; q < 6; ++q) {
      const float* query = dataset.queries.Vector(q);
      // The two searchers rank buckets with different kernels; skip queries
      // where float noise reorders near-tied centroids (different probe
      // sets are incomparable).
      const auto rank_pdx = index.RankBuckets(query);
      const auto rank_nary = index.RankBucketsNary(query);
      if (!std::equal(rank_pdx.begin(), rank_pdx.begin() + nprobe,
                      rank_nary.begin())) {
        continue;
      }
      ++comparisons;
      const auto expected = IvfNarySearch(index, ordered, query, 10, nprobe);
      const auto actual = bond.SearchWith(0, {10, nprobe}, query);
      ASSERT_EQ(actual.size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(actual[i].id, expected[i].id)
            << "nprobe " << nprobe << " query " << q << " rank " << i;
      }
    }
  }
  EXPECT_GT(comparisons, 0u) << "all queries had tied bucket rankings";
}

TEST(PdxBondTest, PruningActuallyHappensOnSkewedData) {
  Dataset dataset = MakeDataset(32, ValueDistribution::kSkewed, 78);
  // Blocks smaller than the collection: pruning needs a threshold from a
  // previous block (a single-block collection is all START phase).
  SearcherConfig config;
  config.block_capacity = 256;
  auto searcher = MakeFlatBond(dataset.data, config);
  ASSERT_NE(searcher, nullptr);
  PdxearchProfile profile;
  searcher->SearchWith(0, {10, 0}, dataset.queries.Vector(0), &profile);
  EXPECT_GT(profile.values_total, 0u);
  EXPECT_LT(profile.values_scanned, profile.values_total)
      << "no values were pruned at all";
  EXPECT_GT(profile.pruning_power(), 0.05);
}

TEST(PdxBondTest, QueryPreparationComputesOrderOnce) {
  std::vector<float> means = {0.0f, 0.0f, 0.0f};
  PdxBondPruner pruner(means, DimensionOrder::kDistanceToMeans);
  const float query[3] = {0.0f, 5.0f, 1.0f};
  const auto qs = pruner.PrepareQuery(query);
  ASSERT_EQ(qs.visit_order.size(), 3u);
  EXPECT_EQ(qs.visit_order[0], 1u);
  EXPECT_EQ(qs.visit_order[1], 2u);
  EXPECT_EQ(qs.visit_order[2], 0u);
  EXPECT_EQ(pruner.KernelQuery(qs), query);  // No transformation.
}

TEST(PdxBondTest, SequentialOrderHasNoVisitOrder) {
  PdxBondPruner pruner(std::vector<float>(4, 0.0f),
                       DimensionOrder::kSequential);
  const float query[4] = {1, 2, 3, 4};
  const auto qs = pruner.PrepareQuery(query);
  EXPECT_FALSE(pruner.has_visit_order());
  EXPECT_EQ(pruner.VisitOrder(qs), nullptr);
}

TEST(PdxBondTest, SurvivalTestThresholdSemantics) {
  PdxBondPruner pruner(std::vector<float>(2, 0.0f));
  PdxBondPruner::QueryState qs;
  const PdxBondPruner::LaneTest survives = pruner.SurvivalTest(qs, 0, 1, 5.0f);
  EXPECT_TRUE(survives(0, 1.0f));
  EXPECT_FALSE(survives(1, 10.0f));
  EXPECT_FALSE(survives(2, 5.0f));  // Only strict < threshold survives.
  EXPECT_TRUE(survives(2, std::nextafter(5.0f, 0.0f)));
}

}  // namespace
}  // namespace pdx
