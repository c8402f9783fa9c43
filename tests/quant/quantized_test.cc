#include "quant/quantized_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "benchlib/datagen.h"
#include "benchlib/recall.h"
#include "common/random.h"
#include "core/any_searcher.h"
#include "index/flat.h"
#include "kernels/scalar_kernels.h"

namespace pdx {
namespace {

Dataset MakeDataset(size_t dim, ValueDistribution distribution,
                    uint64_t seed) {
  SyntheticSpec spec;
  spec.name = "quant-test";
  spec.dim = dim;
  spec.count = 2000;
  spec.num_queries = 10;
  spec.num_clusters = 8;
  spec.seed = seed;
  spec.distribution = distribution;
  return GenerateDataset(spec);
}

/// The flat u8 tier over `vectors` through the facade. rerank_factor = 0
/// returns raw code-space distances; with k = count that is every vector.
std::unique_ptr<Searcher> MakeU8(const VectorSet& vectors, size_t k,
                                 size_t rerank_factor) {
  SearcherConfig config;
  config.quantization = QuantizationKind::kU8;
  config.k = k;
  config.rerank_factor = rerank_factor;
  auto made = MakeSearcher(vectors, config);
  EXPECT_TRUE(made.ok()) << made.status().ToString();
  return made.ok() ? std::move(made).value() : nullptr;
}

/// Mean recall@10 of `searcher` over the dataset's queries.
double U8Recall(Searcher& searcher, const Dataset& dataset) {
  const auto truth =
      ComputeGroundTruth(dataset.data, dataset.queries, 10, Metric::kL2);
  double recall_sum = 0.0;
  for (size_t q = 0; q < dataset.queries.count(); ++q) {
    const auto result =
        searcher.SearchWith(0, {10, 0}, dataset.queries.Vector(q));
    recall_sum += RecallAtK(result, truth[q], 10);
  }
  return recall_sum / dataset.queries.count();
}

TEST(QuantizedStoreTest, RoundTripWithinHalfStep) {
  Dataset dataset = MakeDataset(12, ValueDistribution::kNormal, 1);
  QuantizedPdxStore store = QuantizedPdxStore::FromVectorSet(dataset.data);
  std::vector<float> restored(12);
  for (VectorId id = 0; id < 200; ++id) {
    store.Dequantize(id, restored.data());
    for (size_t d = 0; d < 12; ++d) {
      const float tolerance = store.scales()[d] * 0.5f + 1e-6f;
      ASSERT_NEAR(restored[d], dataset.data.Vector(id)[d], tolerance)
          << "vector " << id << " dim " << d;
    }
  }
}

TEST(QuantizedStoreTest, CodesCoverFullRangePerDimension) {
  Dataset dataset = MakeDataset(6, ValueDistribution::kSkewed, 2);
  QuantizedPdxStore store = QuantizedPdxStore::FromVectorSet(dataset.data);
  // Min and max of every dimension land on codes 0 and 255 respectively,
  // so the whole budget is used.
  for (size_t d = 0; d < 6; ++d) {
    uint8_t lo = 255;
    uint8_t hi = 0;
    for (size_t b = 0; b < store.num_blocks(); ++b) {
      const uint8_t* codes = store.BlockData(b) + d * store.BlockCount(b);
      for (size_t i = 0; i < store.BlockCount(b); ++i) {
        lo = std::min(lo, codes[i]);
        hi = std::max(hi, codes[i]);
      }
    }
    EXPECT_EQ(lo, 0) << "dim " << d;
    EXPECT_EQ(hi, 255) << "dim " << d;
  }
}

TEST(QuantizedStoreTest, ConstantDimensionSafe) {
  VectorSet vectors(2);
  for (int i = 0; i < 10; ++i) {
    const float row[2] = {5.0f, float(i)};
    vectors.Append(row);
  }
  QuantizedPdxStore store = QuantizedPdxStore::FromVectorSet(vectors);
  std::vector<float> restored(2);
  store.Dequantize(3, restored.data());
  EXPECT_FLOAT_EQ(restored[0], 5.0f);
  EXPECT_NEAR(restored[1], 3.0f, 0.02f);
}

// Regression: a constant dimension used to floor the scale at 1e-30f,
// whose square (the code-space weight) underflows to 0.0f while the
// transformed query coordinate (q_d - offset_d) / scale_d blows up to
// ~1e30 — the kernel then computed 0 * inf = NaN, and one NaN poisons
// every distance in the block (NaN compares false, so the top-k heap
// ends up with garbage). This test fails pre-fix: every distance of the
// scan came back NaN whenever the query differed from the collection on
// the constant dimension.
TEST(QuantizedStoreTest, ConstantDimensionQueryOffsetNoNaN) {
  VectorSet vectors(2);
  for (int i = 0; i < 10; ++i) {
    const float row[2] = {5.0f, float(i)};
    vectors.Append(row);
  }
  auto searcher = MakeU8(vectors, vectors.count(), /*rerank_factor=*/0);
  ASSERT_NE(searcher, nullptr);
  // Query differs from the collection on the constant dimension — the
  // exact case where q'_0 = (7 - 5) / scale_0 explodes as scale_0 -> 0.
  const float query[2] = {7.0f, 4.5f};
  const auto result = searcher->SearchWith(0, {}, query);
  ASSERT_EQ(result.size(), vectors.count());
  for (const Neighbor& n : result) {
    ASSERT_FALSE(std::isnan(n.distance)) << "vector " << n.id;
    ASSERT_TRUE(std::isfinite(n.distance)) << "vector " << n.id;
  }
  // And the search over those distances still ranks by the varying
  // dimension: vector 4 (value 4.0) and 5 (value 5.0) are nearest to 4.5.
  EXPECT_TRUE(result[0].id == 4 || result[0].id == 5);
  EXPECT_TRUE(result[1].id == 4 || result[1].id == 5);
}

// The offsets, scales and codes of a serial encode: per-dimension min and
// max over the rows, then every listed row, in store order, encoded one
// value at a time into its block.
void ExpectSerialEncode(const VectorSet& vectors,
                        const std::vector<std::vector<VectorId>>& groups,
                        size_t capacity) {
  const size_t dim = vectors.dim();
  const uint64_t packs = QuantizedPackCount();
  const QuantizedPdxStore store =
      groups.empty() ? QuantizedPdxStore::FromVectorSet(vectors, capacity)
                     : QuantizedPdxStore::FromGroups(vectors, groups, capacity);
  EXPECT_EQ(QuantizedPackCount(), packs + 1);

  std::vector<float> lo(dim, std::numeric_limits<float>::infinity());
  std::vector<float> hi(dim, -std::numeric_limits<float>::infinity());
  for (size_t i = 0; i < vectors.count(); ++i) {
    const float* v = vectors.Vector(static_cast<VectorId>(i));
    for (size_t d = 0; d < dim; ++d) {
      lo[d] = std::min(lo[d], v[d]);
      hi[d] = std::max(hi[d], v[d]);
    }
  }
  std::vector<float> scales(dim);
  for (size_t d = 0; d < dim; ++d) {
    scales[d] = std::max((hi[d] - lo[d]) / 255.0f, 1e-10f);
  }
  EXPECT_EQ(store.offsets(), lo);
  EXPECT_EQ(store.scales(), scales);

  std::vector<VectorId> order;
  for (const std::vector<VectorId>& group : groups) {
    order.insert(order.end(), group.begin(), group.end());
  }
  if (groups.empty()) {
    order.resize(vectors.count());
    std::iota(order.begin(), order.end(), 0);
  }
  std::vector<uint8_t> codes(vectors.count() * dim);
  size_t position = 0;
  for (size_t b = 0; b < store.num_blocks(); ++b) {
    const size_t n = store.BlockCount(b);
    uint8_t* block = codes.data() + position * dim;
    for (size_t i = 0; i < n; ++i) {
      const float* v = vectors.Vector(order[position + i]);
      for (size_t d = 0; d < dim; ++d) {
        const float code = std::round((v[d] - lo[d]) / scales[d]);
        block[d * n + i] =
            static_cast<uint8_t>(std::clamp(code, 0.0f, 255.0f));
      }
    }
    position += n;
  }
  ASSERT_EQ(position, vectors.count());
  ASSERT_EQ(store.codes_bytes(), codes.size());
  EXPECT_EQ(std::memcmp(store.codes_data(), codes.data(), codes.size()), 0);
}

TEST(QuantizedStoreTest, CodesEqualSerialEncode) {
  Dataset data = MakeDataset(100, ValueDistribution::kNormal, 21);
  // Dimension 0 spans exactly [0, 255] (scale 1) and holds halves, so
  // rounding ties away from zero shows in the codes, and every third row
  // holds the float just below a half (0.49999997f, ..., the float below
  // 254.5f), which must round down: floor(x + 0.5f) rounds 0.49999997f up.
  for (size_t i = 0; i < data.data.count(); ++i) {
    const float half = float(i % 255) + 0.5f;
    data.data.MutableVector(static_cast<VectorId>(i))[0] =
        i < 2 ? 255.0f * float(i)
              : (i % 3 == 0 ? std::nextafter(half, 0.0f) : half);
  }
  data.data.MutableVector(2)[0] = 0.49999997f;
  data.data.MutableVector(3)[0] = std::nextafter(254.5f, 0.0f);
  ExpectSerialEncode(data.data, {}, 64);
  ExpectSerialEncode(data.data, {}, 300);

  std::vector<VectorId> all(data.data.count());
  std::iota(all.begin(), all.end(), 0);
  Rng rng(22);
  rng.Shuffle(all);
  const std::vector<std::vector<VectorId>> groups = {
      std::vector<VectorId>(all.begin(), all.begin() + 900), {},
      std::vector<VectorId>(all.begin() + 900, all.end())};
  ExpectSerialEncode(data.data, groups, 64);
}

TEST(QuantizedKernelsTest, DistanceMatchesDequantizedReference) {
  Dataset dataset = MakeDataset(24, ValueDistribution::kNormal, 3);
  QuantizedPdxStore store = QuantizedPdxStore::FromVectorSet(dataset.data);
  auto searcher =
      MakeU8(dataset.data, dataset.data.count(), /*rerank_factor=*/0);
  ASSERT_NE(searcher, nullptr);
  const float* query = dataset.queries.Vector(0);
  const auto result = searcher->SearchWith(0, {}, query);
  ASSERT_EQ(result.size(), dataset.data.count());

  std::vector<float> restored(24);
  for (const Neighbor& n : result) {
    store.Dequantize(n.id, restored.data());
    const float expected = ScalarL2(query, restored.data(), 24);
    ASSERT_NEAR(n.distance, expected, 1e-2f + 1e-3f * expected)
        << "vector " << n.id;
  }
}

TEST(QuantizedKernelsTest, QuantizedDistanceWithinErrorBound) {
  Dataset dataset = MakeDataset(16, ValueDistribution::kSkewed, 4);
  QuantizedPdxStore store = QuantizedPdxStore::FromVectorSet(dataset.data);
  auto searcher =
      MakeU8(dataset.data, dataset.data.count(), /*rerank_factor=*/0);
  ASSERT_NE(searcher, nullptr);
  for (size_t q = 0; q < 3; ++q) {
    const float* query = dataset.queries.Vector(q);
    const auto result = searcher->SearchWith(0, {}, query);
    ASSERT_EQ(result.size(), dataset.data.count());
    const double bound = store.MaxDistanceError(query);
    for (const Neighbor& n : result) {
      const float exact = ScalarL2(query, dataset.data.Vector(n.id), 16);
      ASSERT_LE(std::fabs(n.distance - exact), bound * (1.0 + 1e-3) + 1e-2)
          << "vector " << n.id;
    }
  }
}

using QuantSearchParam = std::tuple<size_t, ValueDistribution>;

class QuantizedSearchTest
    : public ::testing::TestWithParam<QuantSearchParam> {};

TEST_P(QuantizedSearchTest, RerankedSearchNearExactRecall) {
  const auto [dim, distribution] = GetParam();
  Dataset dataset = MakeDataset(dim, distribution, 50 + dim);
  auto searcher = MakeU8(dataset.data, 10, /*rerank_factor=*/4);
  ASSERT_NE(searcher, nullptr);
  EXPECT_GT(U8Recall(*searcher, dataset), 0.97);
}

TEST_P(QuantizedSearchTest, RerankFactorTwoStillHitsRecallTarget) {
  const auto [dim, distribution] = GetParam();
  Dataset dataset = MakeDataset(dim, distribution, 130 + dim);
  auto searcher = MakeU8(dataset.data, 10, /*rerank_factor=*/2);
  ASSERT_NE(searcher, nullptr);
  EXPECT_GT(U8Recall(*searcher, dataset), 0.95);
}

TEST_P(QuantizedSearchTest, UnrerankedStillDecent) {
  const auto [dim, distribution] = GetParam();
  Dataset dataset = MakeDataset(dim, distribution, 70 + dim);
  auto searcher = MakeU8(dataset.data, 10, /*rerank_factor=*/0);
  ASSERT_NE(searcher, nullptr);
  EXPECT_GT(U8Recall(*searcher, dataset), 0.8);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QuantizedSearchTest,
    ::testing::Combine(::testing::Values(16, 64),
                       ::testing::Values(ValueDistribution::kNormal,
                                         ValueDistribution::kSkewed)),
    [](const ::testing::TestParamInfo<QuantSearchParam>& info) {
      return "d" + std::to_string(std::get<0>(info.param)) + "_" +
             ValueDistributionName(std::get<1>(info.param));
    });

TEST(QuantizedSearchTest, RerankFactorImprovesRecall) {
  Dataset dataset = MakeDataset(32, ValueDistribution::kNormal, 90);
  auto recall_at_factor = [&](size_t factor) {
    auto searcher = MakeU8(dataset.data, 10, factor);
    return searcher != nullptr ? U8Recall(*searcher, dataset) : 0.0;
  };
  EXPECT_GE(recall_at_factor(8) + 1e-9, recall_at_factor(1));
}

}  // namespace
}  // namespace pdx
