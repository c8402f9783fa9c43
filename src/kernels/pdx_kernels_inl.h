#ifndef PDX_KERNELS_PDX_KERNELS_INL_H_
#define PDX_KERNELS_PDX_KERNELS_INL_H_

// Implementation of the PDX vertical kernels, shared between the
// auto-vectorized translation unit (pdx_kernels.cc) and the
// vectorization-disabled one (pdx_kernels_novec.cc). Each TU instantiates
// these templates under its own compile flags, so the binary carries both
// a SIMD and a genuinely scalar version of identical source code.

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/types.h"

namespace pdx {
namespace internal {

#define PDX_RESTRICT __restrict__

/// One lane-update per metric; kIp accumulates the negated product so all
/// metrics share min-heap semantics.
template <Metric M>
static inline float LaneUpdate(float query_value, float data_value) {
  if constexpr (M == Metric::kL2) {
    const float diff = query_value - data_value;
    return diff * diff;
  } else if constexpr (M == Metric::kIp) {
    return -(query_value * data_value);
  } else {
    return std::fabs(query_value - data_value);
  }
}

/// Fixed-lane kernel: when a block holds exactly kPdxBlockSize vectors the
/// accumulators are staged in a local array that the compiler keeps in SIMD
/// registers across the whole dimension loop — the "tight loop" effect the
/// paper attributes the block-size-64 sweet spot to (Table 5).
template <Metric M>
static inline void AccumulateFixed(const float* PDX_RESTRICT query,
                            const float* PDX_RESTRICT block, size_t d_start,
                            size_t d_end, float* PDX_RESTRICT distances) {
  float acc[kPdxBlockSize];
  for (size_t i = 0; i < kPdxBlockSize; ++i) acc[i] = distances[i];
  for (size_t d = d_start; d < d_end; ++d) {
    const float query_value = query[d];
    const float* PDX_RESTRICT values = block + d * kPdxBlockSize;
    for (size_t i = 0; i < kPdxBlockSize; ++i) {
      acc[i] += LaneUpdate<M>(query_value, values[i]);
    }
  }
  for (size_t i = 0; i < kPdxBlockSize; ++i) distances[i] = acc[i];
}

/// Variable-lane kernel (block tails, large exact-search blocks, DSM).
template <Metric M>
static inline void AccumulateAny(const float* PDX_RESTRICT query,
                          const float* PDX_RESTRICT block, size_t n,
                          size_t d_start, size_t d_end,
                          float* PDX_RESTRICT distances) {
  for (size_t d = d_start; d < d_end; ++d) {
    const float query_value = query[d];
    const float* PDX_RESTRICT values = block + d * n;
    for (size_t i = 0; i < n; ++i) {
      distances[i] += LaneUpdate<M>(query_value, values[i]);
    }
  }
}

template <Metric M>
static inline void Accumulate(const float* query, const float* block, size_t n,
                       size_t d_start, size_t d_end, float* distances) {
  if (n == kPdxBlockSize) {
    AccumulateFixed<M>(query, block, d_start, d_end, distances);
  } else {
    AccumulateAny<M>(query, block, n, d_start, d_end, distances);
  }
}

/// Explicit-dimension-order kernel (PDX-BOND). The query is indexed in the
/// original dimension space: dims[j] names both the block column and the
/// query entry.
template <Metric M>
static inline void AccumulateDims(const float* PDX_RESTRICT query,
                           const float* PDX_RESTRICT block, size_t n,
                           const uint32_t* PDX_RESTRICT dims,
                           size_t dims_count, float* PDX_RESTRICT distances) {
  for (size_t j = 0; j < dims_count; ++j) {
    const size_t d = dims[j];
    const float query_value = query[d];
    const float* PDX_RESTRICT values = block + d * n;
    for (size_t i = 0; i < n; ++i) {
      distances[i] += LaneUpdate<M>(query_value, values[i]);
    }
  }
}

/// PRUNE-phase kernel: gathers the survivors' values through `positions`
/// and accumulates into `distances`, which is indexed by survivor:
/// distances[p] belongs to lane positions[p]. The gather is the random-
/// access cost the WARMUP phase defers until few vectors remain; the
/// distances stay contiguous, so no update is scattered back to its lane.
template <Metric M>
static inline void AccumulatePositions(const float* PDX_RESTRICT query,
                                const float* PDX_RESTRICT block, size_t n,
                                size_t d_start, size_t d_end,
                                const uint32_t* PDX_RESTRICT positions,
                                size_t position_count,
                                float* PDX_RESTRICT distances) {
  for (size_t d = d_start; d < d_end; ++d) {
    const float query_value = query[d];
    const float* PDX_RESTRICT values = block + d * n;
    for (size_t p = 0; p < position_count; ++p) {
      distances[p] += LaneUpdate<M>(query_value, values[positions[p]]);
    }
  }
}

template <Metric M>
static inline void AccumulateDimsPositions(const float* PDX_RESTRICT query,
                                    const float* PDX_RESTRICT block, size_t n,
                                    const uint32_t* PDX_RESTRICT dims,
                                    size_t dims_count,
                                    const uint32_t* PDX_RESTRICT positions,
                                    size_t position_count,
                                    float* PDX_RESTRICT distances) {
  for (size_t j = 0; j < dims_count; ++j) {
    const size_t d = dims[j];
    const float query_value = query[d];
    const float* PDX_RESTRICT values = block + d * n;
    for (size_t p = 0; p < position_count; ++p) {
      distances[p] += LaneUpdate<M>(query_value, values[positions[p]]);
    }
  }
}

#undef PDX_RESTRICT

}  // namespace internal
}  // namespace pdx

#endif  // PDX_KERNELS_PDX_KERNELS_INL_H_
