#include "pruning/bsa.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "benchlib/datagen.h"
#include "benchlib/recall.h"
#include "core/any_searcher.h"
#include "index/flat.h"
#include "kernels/scalar_kernels.h"

namespace pdx {
namespace {

Dataset SmallDataset(size_t dim = 24, uint64_t seed = 21) {
  SyntheticSpec spec;
  spec.name = "bsa-test";
  spec.dim = dim;
  spec.count = 2500;
  spec.num_queries = 15;
  spec.num_clusters = 8;
  spec.seed = seed;
  return GenerateDataset(spec);
}

/// IVF PDX-BSA with `multiplier` over the shared `index`.
std::unique_ptr<Searcher> MakeIvfBsa(const Dataset& dataset,
                                     const IvfIndex& index, float multiplier) {
  SearcherConfig config;
  config.layout = SearcherLayout::kIvf;
  config.pruner = PrunerKind::kBsa;
  config.bsa_multiplier = multiplier;
  auto made = MakeSearcher(dataset.data, index, config);
  EXPECT_TRUE(made.ok()) << made.status().ToString();
  return made.ok() ? std::move(made).value() : nullptr;
}

TEST(BsaTest, SuffixNormsMatchDirectComputation) {
  const std::vector<float> v = {3.0f, -4.0f, 12.0f};
  std::vector<float> out(4);
  BsaPruner::SuffixNorms(v.data(), 3, out.data());
  EXPECT_FLOAT_EQ(out[3], 0.0f);
  EXPECT_FLOAT_EQ(out[2], 12.0f);
  EXPECT_FLOAT_EQ(out[1], std::sqrt(16.0f + 144.0f));
  EXPECT_FLOAT_EQ(out[0], 13.0f);  // sqrt(9+16+144) = 13.
}

TEST(BsaTest, SuffixNormsMonotoneDecreasing) {
  const std::vector<float> v = {1.0f, 2.0f, 3.0f, 4.0f};
  std::vector<float> out(5);
  BsaPruner::SuffixNorms(v.data(), 4, out.data());
  for (size_t d = 1; d <= 4; ++d) ASSERT_LE(out[d], out[d - 1]);
}

TEST(BsaTest, TransformPreservesDistances) {
  Dataset dataset = SmallDataset();
  BsaPruner pruner(dataset.data, 1.0f);
  VectorSet projected = pruner.TransformCollection(dataset.data);
  std::vector<float> projected_query(dataset.dim());
  for (size_t q = 0; q < 5; ++q) {
    pruner.TransformQuery(dataset.queries.Vector(q), projected_query.data());
    for (size_t i = 0; i < 40; ++i) {
      const float original = ScalarL2(dataset.queries.Vector(q),
                                      dataset.data.Vector(i), dataset.dim());
      const float after = ScalarL2(projected_query.data(),
                                   projected.Vector(i), dataset.dim());
      ASSERT_NEAR(after, original, 1e-2f + 1e-3f * original);
    }
  }
}

TEST(BsaTest, CauchySchwarzBoundIsLowerBound) {
  // With m=1 the estimate must never exceed the true distance.
  Dataset dataset = SmallDataset(16, 22);
  BsaPruner pruner(dataset.data, 1.0f);
  VectorSet projected = pruner.TransformCollection(dataset.data);

  const size_t dim = dataset.dim();
  std::vector<float> suffix_v(dim + 1);
  for (size_t q = 0; q < 5; ++q) {
    BsaPruner::QueryState qs =
        pruner.PrepareQuery(dataset.queries.Vector(q));
    for (size_t i = 0; i < 30; ++i) {
      const float* v = projected.Vector(i);
      BsaPruner::SuffixNorms(v, dim, suffix_v.data());
      const float full = ScalarL2(qs.query.data(), v, dim);
      float partial = 0.0f;
      for (size_t d = 0; d < dim; ++d) {
        const float sv = suffix_v[d];
        const float sq = qs.suffix_norms[d];
        const float estimate = partial + sv * sv + sq * sq - 2.0f * sv * sq;
        ASSERT_LE(estimate, full * (1.0f + 1e-4f) + 1e-3f)
            << "vector " << i << " depth " << d;
        const float diff = qs.query[d] - v[d];
        partial += diff * diff;
      }
    }
  }
}

TEST(BsaTest, ExactWithMultiplierOne) {
  // m=1 keeps the bound exact, so a full-probe BSA search is brute force.
  Dataset dataset = SmallDataset(20, 23);
  IvfIndex index = IvfIndex::Build(dataset.data, {});
  auto searcher = MakeIvfBsa(dataset, index, 1.0f);
  ASSERT_NE(searcher, nullptr);

  for (size_t q = 0; q < dataset.queries.count(); ++q) {
    const float* query = dataset.queries.Vector(q);
    const auto expected = FlatSearchNary(dataset.data, query, 10, Metric::kL2);
    const auto actual =
        searcher->SearchWith(0, {10, index.num_buckets()}, query);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(actual[i].id, expected[i].id) << "query " << q << " rank "
                                              << i;
    }
  }
}

TEST(BsaTest, SmallerMultiplierPrunesMore) {
  Dataset dataset = SmallDataset(24, 24);
  IvfIndex index = IvfIndex::Build(dataset.data, {});

  auto exact_searcher = MakeIvfBsa(dataset, index, 1.0f);
  auto aggressive_searcher = MakeIvfBsa(dataset, index, 0.2f);
  ASSERT_NE(exact_searcher, nullptr);
  ASSERT_NE(aggressive_searcher, nullptr);

  const QueryKnobs full_probe{10, index.num_buckets()};
  uint64_t scanned_exact = 0;
  uint64_t scanned_aggressive = 0;
  for (size_t q = 0; q < dataset.queries.count(); ++q) {
    const float* query = dataset.queries.Vector(q);
    PdxearchProfile profile;
    exact_searcher->SearchWith(0, full_probe, query, &profile);
    scanned_exact += profile.values_scanned;
    aggressive_searcher->SearchWith(0, full_probe, query, &profile);
    scanned_aggressive += profile.values_scanned;
  }
  EXPECT_LT(scanned_aggressive, scanned_exact);
}

TEST(BsaTest, AggressiveMultiplierStillDecentRecall) {
  Dataset dataset = SmallDataset(32, 25);
  IvfIndex index = IvfIndex::Build(dataset.data, {});
  auto searcher = MakeIvfBsa(dataset, index, 0.8f);
  ASSERT_NE(searcher, nullptr);
  const auto truth =
      ComputeGroundTruth(dataset.data, dataset.queries, 10, Metric::kL2);
  double recall_sum = 0.0;
  for (size_t q = 0; q < dataset.queries.count(); ++q) {
    const auto result = searcher->SearchWith(0, {10, index.num_buckets()},
                                             dataset.queries.Vector(q));
    recall_sum += RecallAtK(result, truth[q], 10);
  }
  EXPECT_GT(recall_sum / dataset.queries.count(), 0.8);
}

TEST(BsaTest, HorizontalBsaMatchesPdxBsaWhenExact) {
  Dataset dataset = SmallDataset(16, 26);
  IvfIndex index = IvfIndex::Build(dataset.data, {});
  BsaPruner pruner(dataset.data, 1.0f);
  VectorSet projected = pruner.TransformCollection(dataset.data);
  BucketOrderedSet ordered = ReorderByBuckets(projected, index);
  DualBlockStore dual = DualBlockStore::FromVectorSet(ordered.vectors, 4);

  // Per-position suffix norms.
  const size_t dim = dataset.dim();
  std::vector<float> suffix((dim + 1) * ordered.vectors.count());
  for (size_t pos = 0; pos < ordered.vectors.count(); ++pos) {
    BsaPruner::SuffixNorms(ordered.vectors.Vector(pos), dim,
                           suffix.data() + pos * (dim + 1));
  }

  for (size_t q = 0; q < 5; ++q) {
    const float* query = dataset.queries.Vector(q);
    const auto expected = FlatSearchNary(dataset.data, query, 10, Metric::kL2);
    const auto horizontal = IvfHorizontalBsaSearch(
        pruner, index, dual, ordered.ids, ordered.offsets, suffix, query, 10,
        index.num_buckets(), /*use_simd=*/true, 4);
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(horizontal[i].id, expected[i].id)
          << "query " << q << " rank " << i;
    }
  }
}

}  // namespace
}  // namespace pdx
