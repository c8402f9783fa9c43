#include "index/ivf.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "benchlib/datagen.h"
#include "index/flat.h"
#include "kernels/scalar_kernels.h"

namespace pdx {
namespace {

Dataset SmallDataset(uint64_t seed = 7) {
  SyntheticSpec spec;
  spec.name = "ivf-test";
  spec.dim = 16;
  spec.count = 2000;
  spec.num_queries = 10;
  spec.num_clusters = 8;
  spec.seed = seed;
  return GenerateDataset(spec);
}

TEST(IvfTest, BucketsPartitionAllVectors) {
  Dataset dataset = SmallDataset();
  IvfIndex index = IvfIndex::Build(dataset.data, {});
  std::set<VectorId> seen;
  size_t total = 0;
  for (size_t b = 0; b < index.num_buckets(); ++b) {
    for (VectorId id : index.bucket(b)) {
      EXPECT_TRUE(seen.insert(id).second) << "duplicate id " << id;
      ++total;
    }
  }
  EXPECT_EQ(total, dataset.data.count());
  EXPECT_EQ(*seen.rbegin(), dataset.data.count() - 1);
}

TEST(IvfTest, AutoBucketCountIsSqrtN) {
  Dataset dataset = SmallDataset();
  IvfIndex index = IvfIndex::Build(dataset.data, {});
  // sqrt(2000) ~ 44.7 -> 45.
  EXPECT_NEAR(static_cast<double>(index.num_buckets()), 44.7, 2.0);
}

TEST(IvfTest, ExplicitBucketCount) {
  Dataset dataset = SmallDataset();
  IvfOptions options;
  options.num_buckets = 10;
  IvfIndex index = IvfIndex::Build(dataset.data, options);
  EXPECT_EQ(index.num_buckets(), 10u);
}

TEST(IvfTest, MembersAreNearestToOwnCentroid) {
  Dataset dataset = SmallDataset();
  IvfOptions options;
  options.num_buckets = 12;
  IvfIndex index = IvfIndex::Build(dataset.data, options);
  for (size_t b = 0; b < index.num_buckets(); ++b) {
    for (VectorId id : index.bucket(b)) {
      const float own = ScalarL2(dataset.data.Vector(id),
                                 index.centroids().Vector(b), 16);
      for (size_t other = 0; other < index.num_buckets(); ++other) {
        const float d = ScalarL2(dataset.data.Vector(id),
                                 index.centroids().Vector(other), 16);
        ASSERT_GE(d + 1e-3f, own);
      }
    }
  }
}

TEST(IvfTest, RankBucketsAgreesWithNaryRanking) {
  Dataset dataset = SmallDataset();
  IvfIndex index = IvfIndex::Build(dataset.data, {});
  for (size_t q = 0; q < dataset.queries.count(); ++q) {
    const float* query = dataset.queries.Vector(q);
    const auto pdx_rank = index.RankBuckets(query);
    const auto nary_rank = index.RankBucketsNary(query);
    ASSERT_EQ(pdx_rank.size(), nary_rank.size());
    // Same ordering (both deterministic with id tie-breaks); tiny float
    // disagreements can flip near-equal neighbors, so compare top half.
    for (size_t i = 0; i < pdx_rank.size() / 2; ++i) {
      ASSERT_EQ(pdx_rank[i], nary_rank[i]) << "query " << q << " pos " << i;
    }
  }
}

TEST(IvfTest, FullProbeEqualsBruteForce) {
  Dataset dataset = SmallDataset();
  IvfIndex index = IvfIndex::Build(dataset.data, {});
  BucketOrderedSet ordered = ReorderByBuckets(dataset.data, index);
  for (size_t q = 0; q < 5; ++q) {
    const float* query = dataset.queries.Vector(q);
    const auto brute = FlatSearchNary(dataset.data, query, 10, Metric::kL2);
    const auto ivf_all = IvfNarySearch(index, ordered, query, 10,
                                       index.num_buckets());
    ASSERT_EQ(ivf_all.size(), brute.size());
    for (size_t i = 0; i < brute.size(); ++i) {
      ASSERT_EQ(ivf_all[i].id, brute[i].id) << "query " << q << " rank " << i;
    }
  }
}

TEST(IvfTest, ReorderByBucketsConsistent) {
  Dataset dataset = SmallDataset();
  IvfIndex index = IvfIndex::Build(dataset.data, {});
  BucketOrderedSet ordered = ReorderByBuckets(dataset.data, index);
  EXPECT_EQ(ordered.vectors.count(), dataset.data.count());
  EXPECT_EQ(ordered.offsets.size(), index.num_buckets() + 1);
  EXPECT_EQ(ordered.offsets.back(), dataset.data.count());
  for (size_t b = 0; b < index.num_buckets(); ++b) {
    const auto& bucket = index.bucket(b);
    ASSERT_EQ(ordered.offsets[b + 1] - ordered.offsets[b], bucket.size());
    for (size_t j = 0; j < bucket.size(); ++j) {
      const size_t pos = ordered.offsets[b] + j;
      ASSERT_EQ(ordered.ids[pos], bucket[j]);
      // Row content matches the original vector.
      for (size_t d = 0; d < 16; ++d) {
        ASSERT_EQ(ordered.vectors.Vector(pos)[d],
                  dataset.data.Vector(bucket[j])[d]);
      }
    }
  }
}

TEST(IvfTest, MoreProbesNeverHurtRecallOfTrueNeighbor) {
  Dataset dataset = SmallDataset();
  IvfIndex index = IvfIndex::Build(dataset.data, {});
  BucketOrderedSet ordered = ReorderByBuckets(dataset.data, index);
  const float* query = dataset.queries.Vector(0);
  const auto truth = FlatSearchNary(dataset.data, query, 1, Metric::kL2);

  bool found_before = false;
  for (size_t nprobe : {1u, 4u, 16u, 64u}) {
    const auto result = IvfNarySearch(index, ordered, query, 1,
                                      std::min<size_t>(nprobe,
                                                       index.num_buckets()));
    const bool found = !result.empty() && result[0].id == truth[0].id;
    // Once found at a small nprobe it must stay found at larger nprobe.
    if (found_before) ASSERT_TRUE(found);
    found_before = found_before || found;
  }
  EXPECT_TRUE(found_before);  // Full probe must find it.
}

}  // namespace
}  // namespace pdx
