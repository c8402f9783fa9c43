#include "core/any_searcher.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "benchlib/datagen.h"
#include "benchlib/recall.h"
#include "index/flat.h"

namespace pdx {
namespace {

struct Fixture {
  Dataset dataset;
  IvfIndex index;
  BucketOrderedSet ordered;
  std::vector<std::vector<VectorId>> truth;
};

Fixture MakeFixture(size_t dim, ValueDistribution distribution,
                    uint64_t seed) {
  SyntheticSpec spec;
  spec.name = "searcher-test";
  spec.dim = dim;
  spec.count = 3000;
  spec.num_queries = 15;
  spec.num_clusters = 10;
  spec.seed = seed;
  spec.distribution = distribution;
  Fixture fx{GenerateDataset(spec), {}, {}, {}};
  fx.index = IvfIndex::Build(fx.dataset.data, {});
  fx.ordered = ReorderByBuckets(fx.dataset.data, fx.index);
  fx.truth =
      ComputeGroundTruth(fx.dataset.data, fx.dataset.queries, 10, Metric::kL2);
  return fx;
}

SearcherConfig Config(SearcherLayout layout, PrunerKind pruner) {
  SearcherConfig config;
  config.layout = layout;
  config.pruner = pruner;
  return config;
}

/// The searcher `config` describes over the fixture's shared index (IVF)
/// or over the bare collection (flat).
std::unique_ptr<Searcher> Make(const Fixture& fx,
                               const SearcherConfig& config) {
  auto made = config.layout == SearcherLayout::kIvf
                  ? MakeSearcher(fx.dataset.data, fx.index, config)
                  : MakeSearcher(fx.dataset.data, config);
  EXPECT_TRUE(made.ok()) << made.status().ToString();
  return made.ok() ? std::move(made).value() : nullptr;
}

double SearcherRecall(Fixture& fx, Searcher& searcher, size_t nprobe) {
  double sum = 0.0;
  for (size_t q = 0; q < fx.dataset.queries.count(); ++q) {
    const auto result =
        searcher.SearchWith(0, {10, nprobe}, fx.dataset.queries.Vector(q));
    sum += RecallAtK(result, fx.truth[q], 10);
  }
  return sum / fx.dataset.queries.count();
}

TEST(SearcherTest, AdsIvfFullProbeHighRecall) {
  Fixture fx = MakeFixture(32, ValueDistribution::kNormal, 41);
  auto ads = Make(fx, Config(SearcherLayout::kIvf, PrunerKind::kAdsampling));
  ASSERT_NE(ads, nullptr);
  EXPECT_GT(SearcherRecall(fx, *ads, fx.index.num_buckets()), 0.95);
}

TEST(SearcherTest, BsaIvfFullProbeExactWithUnitMultiplier) {
  Fixture fx = MakeFixture(24, ValueDistribution::kSkewed, 42);
  auto bsa = Make(fx, Config(SearcherLayout::kIvf, PrunerKind::kBsa));
  ASSERT_NE(bsa, nullptr);
  EXPECT_DOUBLE_EQ(SearcherRecall(fx, *bsa, fx.index.num_buckets()), 1.0);
}

TEST(SearcherTest, BondIvfFullProbeExact) {
  Fixture fx = MakeFixture(24, ValueDistribution::kNormal, 43);
  auto bond = Make(fx, Config(SearcherLayout::kIvf, PrunerKind::kBond));
  ASSERT_NE(bond, nullptr);
  EXPECT_DOUBLE_EQ(SearcherRecall(fx, *bond, fx.index.num_buckets()), 1.0);
}

TEST(SearcherTest, LinearIvfMatchesNaryIvf) {
  Fixture fx = MakeFixture(16, ValueDistribution::kNormal, 44);
  auto linear = Make(fx, Config(SearcherLayout::kIvf, PrunerKind::kLinear));
  ASSERT_NE(linear, nullptr);
  for (size_t q = 0; q < 5; ++q) {
    const float* query = fx.dataset.queries.Vector(q);
    // Full probe: bucket ranking differences cannot change the result set.
    const auto expected = IvfNarySearch(fx.index, fx.ordered, query, 10,
                                        fx.index.num_buckets());
    const auto actual =
        linear->SearchWith(0, {10, fx.index.num_buckets()}, query);
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(actual[i].id, expected[i].id) << "query " << q;
    }
  }
}

TEST(SearcherTest, RecallImprovesWithNprobe) {
  Fixture fx = MakeFixture(48, ValueDistribution::kNormal, 45);
  auto ads = Make(fx, Config(SearcherLayout::kIvf, PrunerKind::kAdsampling));
  ASSERT_NE(ads, nullptr);
  const double recall_small = SearcherRecall(fx, *ads, 1);
  const double recall_medium = SearcherRecall(fx, *ads, 8);
  const double recall_full =
      SearcherRecall(fx, *ads, fx.index.num_buckets());
  EXPECT_LE(recall_small, recall_medium + 0.05);
  EXPECT_LE(recall_medium, recall_full + 0.05);
  EXPECT_GT(recall_full, recall_small);
}

TEST(SearcherTest, FlatAdsVsFlatBruteForce) {
  Fixture fx = MakeFixture(40, ValueDistribution::kSkewed, 46);
  auto ads = Make(fx, Config(SearcherLayout::kFlat, PrunerKind::kAdsampling));
  ASSERT_NE(ads, nullptr);
  double sum = 0.0;
  for (size_t q = 0; q < fx.dataset.queries.count(); ++q) {
    const auto result =
        ads->SearchWith(0, {10, 0}, fx.dataset.queries.Vector(q));
    sum += RecallAtK(result, fx.truth[q], 10);
  }
  EXPECT_GT(sum / fx.dataset.queries.count(), 0.95);
}

TEST(SearcherTest, FlatLinearSearcherExact) {
  Fixture fx = MakeFixture(16, ValueDistribution::kNormal, 47);
  auto linear = Make(fx, Config(SearcherLayout::kFlat, PrunerKind::kLinear));
  ASSERT_NE(linear, nullptr);
  for (size_t q = 0; q < 5; ++q) {
    const float* query = fx.dataset.queries.Vector(q);
    const auto expected =
        FlatSearchNary(fx.dataset.data, query, 10, Metric::kL2);
    const auto actual = linear->SearchWith(0, {10, 0}, query);
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(actual[i].id, expected[i].id);
    }
  }
}

TEST(SearcherTest, ProfileExposesPreprocessingCosts) {
  // High dimensionality so the D x D mat-vec of ADSampling dominates the
  // D log D sort of PDX-BOND (Table 7's "almost free" claim holds at the
  // paper's D=1536; 512 suffices to separate the costs robustly).
  Fixture fx = MakeFixture(512, ValueDistribution::kNormal, 48);
  SearcherConfig ads_config =
      Config(SearcherLayout::kIvf, PrunerKind::kAdsampling);
  ads_config.search.collect_phase_times = true;
  auto ads = Make(fx, ads_config);
  SearcherConfig bond_config = Config(SearcherLayout::kIvf, PrunerKind::kBond);
  bond_config.search.collect_phase_times = true;
  auto bond = Make(fx, bond_config);
  ASSERT_NE(ads, nullptr);
  ASSERT_NE(bond, nullptr);

  double ads_ms = 0.0;
  double bond_ms = 0.0;
  for (size_t q = 0; q < fx.dataset.queries.count(); ++q) {
    const float* query = fx.dataset.queries.Vector(q);
    PdxearchProfile profile;
    ads->SearchWith(0, {10, 8}, query, &profile);
    ads_ms += profile.preprocess_ms;
    bond->SearchWith(0, {10, 8}, query, &profile);
    bond_ms += profile.preprocess_ms;
  }
  EXPECT_GT(ads_ms, 0.0);
  EXPECT_LT(bond_ms, ads_ms);
}

}  // namespace
}  // namespace pdx
