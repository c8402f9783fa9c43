#ifndef PDX_STORAGE_BLOCK_STATS_H_
#define PDX_STORAGE_BLOCK_STATS_H_

#include <cstddef>
#include <vector>

namespace pdx {

/// Per-dimension summary statistics of a collection.
///
/// Computed once at build, from the horizontal rows, by the two consumers
/// that need them: PDX-BOND ranks dimensions by the distance between the
/// query value and the collection mean (Section 5; it keeps and persists
/// the means alone), and the u8 tier derives its per-dimension offsets and
/// scales from the minimums and maximums.
struct DimensionStats {
  std::vector<float> means;
  std::vector<float> variances;
  std::vector<float> minimums;
  std::vector<float> maximums;

  size_t dim() const { return means.size(); }
};

/// Computes stats over `count` horizontal row-major vectors.
DimensionStats ComputeStats(const float* data, size_t count, size_t dim);

}  // namespace pdx

#endif  // PDX_STORAGE_BLOCK_STATS_H_
