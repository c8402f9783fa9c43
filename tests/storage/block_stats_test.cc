#include "storage/block_stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/random.h"

namespace pdx {
namespace {

TEST(BlockStatsTest, ComputeStatsKnownValues) {
  // Two dims, three vectors.
  const std::vector<float> data = {1.0f, 10.0f,  //
                                   2.0f, 20.0f,  //
                                   3.0f, 30.0f};
  DimensionStats stats = ComputeStats(data.data(), 3, 2);
  EXPECT_FLOAT_EQ(stats.means[0], 2.0f);
  EXPECT_FLOAT_EQ(stats.means[1], 20.0f);
  EXPECT_NEAR(stats.variances[0], 2.0f / 3.0f, 1e-5);
  EXPECT_FLOAT_EQ(stats.minimums[0], 1.0f);
  EXPECT_FLOAT_EQ(stats.maximums[1], 30.0f);
}

TEST(BlockStatsTest, ConstantDimensionHasZeroVariance) {
  const std::vector<float> data = {5.0f, 5.0f, 5.0f, 5.0f};
  DimensionStats stats = ComputeStats(data.data(), 4, 1);
  EXPECT_FLOAT_EQ(stats.variances[0], 0.0f);
  EXPECT_FLOAT_EQ(stats.minimums[0], 5.0f);
  EXPECT_FLOAT_EQ(stats.maximums[0], 5.0f);
}

TEST(BlockStatsTest, MatchesOneSerialPassOverTheRows) {
  // 200 dimensions, not a multiple of the 16-float lines the parallel pass
  // splits the dimensions at. Means, minimums and maximums must be the bits
  // a single pass over the rows produces; variances within rounding of it
  // (FMA contraction may differ between the library and this file). Every
  // third dimension opens with +1e20 and -1e20: in row order they cancel
  // before the other rows are added, in any other order they swallow them,
  // so a sum that leaves row order changes the mean.
  constexpr size_t kCount = 3000;
  constexpr size_t kDim = 200;
  Rng rng(8);
  std::vector<float> data(kCount * kDim);
  for (float& v : data) v = static_cast<float>(rng.Gaussian(3.0, 2.0));
  for (size_t d = 0; d < kDim; d += 3) {
    data[d] = 1e20f;
    data[kDim + d] = -1e20f;
  }
  const DimensionStats stats = ComputeStats(data.data(), kCount, kDim);

  std::vector<double> sum(kDim, 0.0), sum_sq(kDim, 0.0);
  std::vector<float> lo(kDim, std::numeric_limits<float>::infinity());
  std::vector<float> hi(kDim, -std::numeric_limits<float>::infinity());
  for (size_t i = 0; i < kCount; ++i) {
    for (size_t d = 0; d < kDim; ++d) {
      const float v = data[i * kDim + d];
      sum[d] += v;
      sum_sq[d] += double(v) * double(v);
      lo[d] = std::min(lo[d], v);
      hi[d] = std::max(hi[d], v);
    }
  }
  for (size_t d = 0; d < kDim; ++d) {
    const double mean = sum[d] / double(kCount);
    EXPECT_EQ(stats.means[d], static_cast<float>(mean)) << d;
    EXPECT_EQ(stats.minimums[d], lo[d]) << d;
    EXPECT_EQ(stats.maximums[d], hi[d]) << d;
    const double variance = sum_sq[d] / double(kCount) - mean * mean;
    EXPECT_NEAR(stats.variances[d], variance, 1e-6 * variance + 1e-5) << d;
  }
}

}  // namespace
}  // namespace pdx
