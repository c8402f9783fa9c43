#ifndef PDX_COMMON_TYPES_H_
#define PDX_COMMON_TYPES_H_

#include <cstddef>
#include <cstdint>

namespace pdx {

/// Index of a vector within a collection (row id).
using VectorId = uint32_t;

/// Invalid / not-found sentinel for VectorId.
inline constexpr VectorId kInvalidVectorId = UINT32_MAX;

/// Distance metrics supported by every kernel family in this library.
///
/// All metrics are formulated so that *smaller is better* during a search:
/// kIp stores the negated inner product so that the same min-heap machinery
/// applies to similarity metrics.
enum class Metric : uint8_t {
  kL2 = 0,  ///< Squared Euclidean distance (no final sqrt, as in FAISS).
  kIp = 1,  ///< Negated inner product (maximizing IP == minimizing -IP).
  kL1 = 2,  ///< Manhattan distance.
};

/// Human-readable metric name ("l2", "ip", "l1").
inline const char* MetricName(Metric metric) {
  switch (metric) {
    case Metric::kL2:
      return "l2";
    case Metric::kIp:
      return "ip";
    case Metric::kL1:
      return "l1";
  }
  return "unknown";
}

/// Number of vectors processed at-a-time by the tight PDX loops.
///
/// 64 is the sweet spot across NEON/AVX2/AVX512 (paper Table 5): the
/// per-lane distance accumulators of a full block fit in the architectural
/// SIMD register file, so the inner loop never spills to memory.
///
/// PDXC files do not record the IVF centroid store's layout: the loader
/// derives it from this constant, so changing it needs a format version
/// bump (storage/collection_format.h).
inline constexpr size_t kPdxBlockSize = 64;

/// Cache-line / widest-SIMD-register alignment used for vector data.
inline constexpr size_t kPdxAlignment = 64;

}  // namespace pdx

#endif  // PDX_COMMON_TYPES_H_
