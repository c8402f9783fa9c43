#include "storage/block_stats.h"

#include <algorithm>
#include <limits>

#include "common/parallel.h"

namespace pdx {

namespace {

// Widest dimension range one ComputeStats task sums (its accumulators live
// on the stack).
constexpr size_t kMaxRangeDims = 256;

}  // namespace

DimensionStats ComputeStats(const float* data, size_t count, size_t dim) {
  DimensionStats stats;
  stats.means.assign(dim, 0.0f);
  stats.variances.assign(dim, 0.0f);
  stats.minimums.assign(dim, std::numeric_limits<float>::infinity());
  stats.maximums.assign(dim, -std::numeric_limits<float>::infinity());
  if (count == 0) return stats;
  // One pool item per range of dimensions, at least one range per thread,
  // each a whole number of 16-float cache lines of a row (a narrower range
  // leaves each thread a short strided read per row). Each item walks
  // every row in row order, so each dimension's sums are added in the
  // order a single pass over the rows adds them.
  const size_t threads = ThreadPool::Shared().num_threads();
  const size_t range_dims = std::min(
      kMaxRangeDims, ((dim + threads - 1) / threads + 15) / 16 * 16);
  const size_t ranges = (dim + range_dims - 1) / range_dims;
  ParallelFor(ranges, [&](size_t r) {
    const size_t first = r * range_dims;
    const size_t width = std::min(range_dims, dim - first);
    double sum[kMaxRangeDims] = {};
    double sum_sq[kMaxRangeDims] = {};
    float lo[kMaxRangeDims];
    float hi[kMaxRangeDims];
    std::fill_n(lo, width, std::numeric_limits<float>::infinity());
    std::fill_n(hi, width, -std::numeric_limits<float>::infinity());
    for (size_t i = 0; i < count; ++i) {
      const float* row = data + i * dim + first;
      for (size_t d = 0; d < width; ++d) {
        const float v = row[d];
        sum[d] += v;
        sum_sq[d] += double(v) * double(v);
        lo[d] = std::min(lo[d], v);
        hi[d] = std::max(hi[d], v);
      }
    }
    for (size_t d = 0; d < width; ++d) {
      const double mean = sum[d] / double(count);
      stats.means[first + d] = static_cast<float>(mean);
      stats.variances[first + d] = static_cast<float>(
          std::max(0.0, sum_sq[d] / double(count) - mean * mean));
      stats.minimums[first + d] = lo[d];
      stats.maximums[first + d] = hi[d];
    }
  });
  return stats;
}

}  // namespace pdx
