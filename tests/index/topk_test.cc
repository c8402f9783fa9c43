#include "index/topk.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/random.h"

namespace pdx {
namespace {

TEST(TopKTest, EmptyCollectorThreshold) {
  TopK topk(3);
  EXPECT_EQ(topk.size(), 0u);
  EXPECT_FALSE(topk.full());
  EXPECT_EQ(topk.threshold(), std::numeric_limits<float>::infinity());
  EXPECT_TRUE(topk.WouldAccept(1e30f));
}

TEST(TopKTest, FillsUpToK) {
  TopK topk(2);
  topk.Push(0, 5.0f);
  EXPECT_FALSE(topk.full());
  topk.Push(1, 3.0f);
  EXPECT_TRUE(topk.full());
  EXPECT_FLOAT_EQ(topk.threshold(), 5.0f);
}

TEST(TopKTest, RejectsWorseThanKth) {
  TopK topk(2);
  topk.Push(0, 1.0f);
  topk.Push(1, 2.0f);
  topk.Push(2, 3.0f);  // Worse than threshold: ignored.
  const auto results = topk.SortedResults();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].id, 0u);
  EXPECT_EQ(results[1].id, 1u);
}

TEST(TopKTest, ReplacesWorst) {
  TopK topk(2);
  topk.Push(0, 10.0f);
  topk.Push(1, 20.0f);
  topk.Push(2, 5.0f);
  const auto results = topk.SortedResults();
  EXPECT_EQ(results[0].id, 2u);
  EXPECT_EQ(results[1].id, 0u);
  EXPECT_FLOAT_EQ(topk.threshold(), 10.0f);
}

TEST(TopKTest, SortedResultsAscending) {
  Rng rng(1);
  TopK topk(16);
  for (int i = 0; i < 100; ++i) {
    topk.Push(static_cast<VectorId>(i),
              static_cast<float>(rng.UniformDouble()));
  }
  const auto results = topk.SortedResults();
  ASSERT_EQ(results.size(), 16u);
  for (size_t i = 1; i < results.size(); ++i) {
    ASSERT_LE(results[i - 1].distance, results[i].distance);
  }
}

TEST(TopKTest, MatchesPartialSortOracle) {
  Rng rng(2);
  const size_t n = 1000;
  const size_t k = 25;
  std::vector<Neighbor> all(n);
  TopK topk(k);
  for (size_t i = 0; i < n; ++i) {
    const float d = static_cast<float>(rng.Gaussian());
    all[i] = Neighbor{static_cast<VectorId>(i), d};
    topk.Push(static_cast<VectorId>(i), d);
  }
  std::sort(all.begin(), all.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.id < b.id;
  });
  all.resize(k);
  EXPECT_EQ(topk.SortedResults(), all);
}

TEST(TopKTest, FewerItemsThanK) {
  TopK topk(10);
  topk.Push(3, 1.0f);
  topk.Push(7, 0.5f);
  const auto results = topk.SortedResults();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].id, 7u);
  EXPECT_FALSE(topk.full());
}

TEST(TopKTest, TiesBrokenById) {
  TopK topk(3);
  topk.Push(9, 1.0f);
  topk.Push(2, 1.0f);
  topk.Push(5, 1.0f);
  const auto results = topk.SortedResults();
  EXPECT_EQ(results[0].id, 2u);
  EXPECT_EQ(results[1].id, 5u);
  EXPECT_EQ(results[2].id, 9u);
}

TEST(TopKTest, HeavyTiesKeepTheLowestIds) {
  // Few distinct distances, ids offered in shuffled order: at every k the
  // heap must hold the k smallest by (distance, id), not whichever tied
  // candidates reached it first.
  Rng rng(3);
  std::vector<Neighbor> all(600);
  for (size_t i = 0; i < all.size(); ++i) {
    all[i] = Neighbor{static_cast<VectorId>(i),
                      static_cast<float>(rng.UniformInt(5))};
  }
  for (size_t k : {size_t{1}, size_t{10}, size_t{25}, size_t{170}}) {
    for (int round = 0; round < 8; ++round) {
      rng.Shuffle(all);
      TopK topk(k);
      for (const Neighbor& n : all) topk.Push(n.id, n.distance);
      std::vector<Neighbor> expected = all;
      std::sort(expected.begin(), expected.end(),
                [](const Neighbor& a, const Neighbor& b) {
                  if (a.distance != b.distance) return a.distance < b.distance;
                  return a.id < b.id;
                });
      expected.resize(k);
      ASSERT_EQ(topk.SortedResults(), expected) << "k " << k;
    }
  }
}

TEST(TopKTest, MergeAndResetKeepTheUnionsBest) {
  // Heaps over disjoint candidates merge into the heap over their union,
  // and a reset heap collects afresh at its new k.
  Rng rng(4);
  TopK whole(7);
  TopK left(7);
  TopK right(3);
  right.Reset(7);
  for (VectorId id = 0; id < 200; ++id) {
    const float distance = static_cast<float>(rng.UniformInt(6));
    whole.Push(id, distance);
    (id % 3 == 0 ? left : right).Push(id, distance);
  }
  left.Merge(right);
  EXPECT_EQ(left.SortedResults(), whole.SortedResults());
  left.Reset(2);
  EXPECT_EQ(left.size(), 0u);
  left.Push(9, 1.0f);
  left.Push(4, 1.0f);
  left.Push(6, 1.0f);
  EXPECT_EQ(left.SortedResults(),
            (std::vector<Neighbor>{{4, 1.0f}, {6, 1.0f}}));
}

TEST(TopKTest, ClearResets) {
  TopK topk(2);
  topk.Push(0, 1.0f);
  topk.Push(1, 2.0f);
  topk.Clear();
  EXPECT_EQ(topk.size(), 0u);
  EXPECT_EQ(topk.threshold(), std::numeric_limits<float>::infinity());
}

TEST(TopKTest, KOne) {
  TopK topk(1);
  topk.Push(0, 5.0f);
  topk.Push(1, 3.0f);
  topk.Push(2, 4.0f);
  const auto results = topk.SortedResults();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].id, 1u);
}

}  // namespace
}  // namespace pdx
