#include "storage/block_stats.h"

#include <algorithm>
#include <limits>

namespace pdx {

DimensionStats ComputeStats(const float* data, size_t count, size_t dim) {
  DimensionStats stats;
  stats.means.assign(dim, 0.0f);
  stats.variances.assign(dim, 0.0f);
  stats.minimums.assign(dim, std::numeric_limits<float>::infinity());
  stats.maximums.assign(dim, -std::numeric_limits<float>::infinity());
  std::vector<double> sum(dim, 0.0);
  std::vector<double> sum_sq(dim, 0.0);
  for (size_t i = 0; i < count; ++i) {
    const float* row = data + i * dim;
    for (size_t d = 0; d < dim; ++d) {
      const float v = row[d];
      sum[d] += v;
      sum_sq[d] += double(v) * double(v);
      stats.minimums[d] = std::min(stats.minimums[d], v);
      stats.maximums[d] = std::max(stats.maximums[d], v);
    }
  }
  if (count > 0) {
    for (size_t d = 0; d < dim; ++d) {
      const double mean = sum[d] / double(count);
      stats.means[d] = static_cast<float>(mean);
      stats.variances[d] = static_cast<float>(
          std::max(0.0, sum_sq[d] / double(count) - mean * mean));
    }
  }
  return stats;
}

}  // namespace pdx
