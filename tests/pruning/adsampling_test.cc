#include "pruning/adsampling.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "benchlib/datagen.h"
#include "benchlib/recall.h"
#include "index/flat.h"
#include "kernels/scalar_kernels.h"

namespace pdx {
namespace {

Dataset SmallDataset(size_t dim = 32, uint64_t seed = 3) {
  SyntheticSpec spec;
  spec.name = "ads-test";
  spec.dim = dim;
  spec.count = 3000;
  spec.num_queries = 20;
  spec.num_clusters = 10;
  spec.seed = seed;
  return GenerateDataset(spec);
}

TEST(AdSamplingTest, RatiosEndpoints) {
  AdSamplingPruner pruner(100);
  EXPECT_FLOAT_EQ(pruner.Ratio(100), 1.0f);
  EXPECT_FLOAT_EQ(pruner.Ratio(0), 0.0f);
}

TEST(AdSamplingTest, RatiosMatchFormula) {
  const float eps0 = 2.1f;
  AdSamplingPruner pruner(64, eps0);
  for (size_t d = 1; d < 64; ++d) {
    const double amplifier = 1.0 + eps0 / std::sqrt(double(d));
    const double expected = double(d) / 64.0 * amplifier * amplifier;
    ASSERT_NEAR(pruner.Ratio(d), expected, 1e-5) << "d=" << d;
  }
}

TEST(AdSamplingTest, RatiosIncreaseUntilFinalDim) {
  // Monotone over the hypothesis-testing range; at d == D the test becomes
  // exact and the multiplier snaps down to 1 (no amplification needed).
  AdSamplingPruner pruner(128);
  for (size_t d = 2; d < 128; ++d) {
    ASSERT_GT(pruner.Ratio(d), pruner.Ratio(d - 1));
  }
  EXPECT_FLOAT_EQ(pruner.Ratio(128), 1.0f);
  EXPECT_GT(pruner.Ratio(127), 1.0f);  // Amplified above the exact test.
}

TEST(AdSamplingTest, TransformPreservesPairwiseDistances) {
  Dataset dataset = SmallDataset();
  AdSamplingPruner pruner(32);
  VectorSet rotated = pruner.TransformCollection(dataset.data);
  std::vector<float> rotated_query(32);
  for (size_t q = 0; q < 5; ++q) {
    pruner.TransformQuery(dataset.queries.Vector(q), rotated_query.data());
    for (size_t i = 0; i < 50; ++i) {
      const float original =
          ScalarL2(dataset.queries.Vector(q), dataset.data.Vector(i), 32);
      const float after =
          ScalarL2(rotated_query.data(), rotated.Vector(i), 32);
      ASSERT_NEAR(after, original, 1e-2f + 1e-4f * original);
    }
  }
}

TEST(AdSamplingTest, SurvivalTestKeepsOnlyPassingLanes) {
  AdSamplingPruner pruner(16, 2.1f);
  AdSamplingPruner::QueryState qs;  // The test does not read the state.
  // distances over 8 of 16 dims; threshold 10.
  const float threshold = 10.0f;
  const float bound = threshold * pruner.Ratio(8);
  const AdSamplingPruner::LaneTest survives =
      pruner.SurvivalTest(qs, 0, 8, threshold);
  EXPECT_TRUE(survives(0, bound - 1.0f));
  EXPECT_FALSE(survives(1, bound + 1.0f));
  EXPECT_TRUE(survives(2, 0.0f));
  EXPECT_TRUE(survives(3, bound - 0.01f));
  EXPECT_FALSE(survives(4, bound));  // Strict, as on every lane.
}

TEST(AdSamplingTest, SurvivalTestAtFullDimIsExact) {
  AdSamplingPruner pruner(4);
  AdSamplingPruner::QueryState qs;
  const AdSamplingPruner::LaneTest survives =
      pruner.SurvivalTest(qs, 0, 4, 10.0f);
  EXPECT_TRUE(survives(0, 5.0f));
  EXPECT_FALSE(survives(1, 15.0f));
  EXPECT_FALSE(survives(2, 10.0f));  // Ratio(dim) is 1: the threshold.
}

TEST(AdSamplingTest, HorizontalSearchHighRecall) {
  Dataset dataset = SmallDataset(48, 5);
  IvfIndex index = IvfIndex::Build(dataset.data, {});
  AdSamplingPruner pruner(48, 2.1f);
  VectorSet rotated = pruner.TransformCollection(dataset.data);
  BucketOrderedSet ordered = ReorderByBuckets(rotated, index);
  DualBlockStore dual = DualBlockStore::FromVectorSet(ordered.vectors, 12);

  const auto truth =
      ComputeGroundTruth(dataset.data, dataset.queries, 10, Metric::kL2);
  double recall_sum = 0.0;
  for (size_t q = 0; q < dataset.queries.count(); ++q) {
    const auto result = IvfHorizontalAdsSearch(
        pruner, index, dual, ordered.ids, ordered.offsets,
        dataset.queries.Vector(q), 10, index.num_buckets(),
        HorizontalKernel::kSimd, 12);
    recall_sum += RecallAtK(result, truth[q], 10);
  }
  // Full probing + eps0=2.1: recall should be essentially 1.
  EXPECT_GT(recall_sum / dataset.queries.count(), 0.95);
}

TEST(AdSamplingTest, ScalarAndSimdHorizontalAgree) {
  Dataset dataset = SmallDataset(24, 6);
  IvfIndex index = IvfIndex::Build(dataset.data, {});
  AdSamplingPruner pruner(24, 2.1f);
  VectorSet rotated = pruner.TransformCollection(dataset.data);
  BucketOrderedSet ordered = ReorderByBuckets(rotated, index);
  DualBlockStore dual = DualBlockStore::FromVectorSet(ordered.vectors, 6);

  for (size_t q = 0; q < 5; ++q) {
    const auto scalar = IvfHorizontalAdsSearch(
        pruner, index, dual, ordered.ids, ordered.offsets,
        dataset.queries.Vector(q), 10, 8, HorizontalKernel::kScalar, 6);
    const auto simd = IvfHorizontalAdsSearch(
        pruner, index, dual, ordered.ids, ordered.offsets,
        dataset.queries.Vector(q), 10, 8, HorizontalKernel::kSimd, 6);
    ASSERT_EQ(scalar.size(), simd.size());
    for (size_t i = 0; i < scalar.size(); ++i) {
      ASSERT_EQ(scalar[i].id, simd[i].id) << "query " << q << " rank " << i;
    }
  }
}

TEST(AdSamplingTest, DeterministicRotationPerSeed) {
  AdSamplingPruner a(16, 2.1f, 7);
  AdSamplingPruner b(16, 2.1f, 7);
  EXPECT_DOUBLE_EQ(a.rotation().FrobeniusDistance(b.rotation()), 0.0);
  AdSamplingPruner c(16, 2.1f, 8);
  EXPECT_GT(a.rotation().FrobeniusDistance(c.rotation()), 0.1);
}

TEST(AdSamplingTest, LargerEpsilonPrunesLess) {
  // Bigger eps0 -> bigger ratio -> harder to prune (more conservative).
  AdSamplingPruner tight(64, 1.0f);
  AdSamplingPruner loose(64, 4.0f);
  for (size_t d = 1; d < 64; ++d) {
    ASSERT_LT(tight.Ratio(d), loose.Ratio(d));
  }
}

}  // namespace
}  // namespace pdx
