#include "storage/block_stats.h"

#include <gtest/gtest.h>

#include <vector>

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

}  // namespace
}  // namespace pdx
