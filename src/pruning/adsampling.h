#ifndef PDX_PRUNING_ADSAMPLING_H_
#define PDX_PRUNING_ADSAMPLING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "index/ivf.h"
#include "index/topk.h"
#include "linalg/matrix.h"
#include "storage/dual_block.h"
#include "storage/pdx_store.h"
#include "storage/vector_set.h"

namespace pdx {

/// ADSampling (Gao & Long, 2023) reimplemented from scratch.
///
/// Preprocessing rotates the collection with a Haar-random orthogonal
/// matrix; afterwards the first d dimensions of any vector are an unbiased
/// random projection, so the partial squared distance after d of D
/// dimensions estimates the full distance with a known error bound. The
/// hypothesis test "can this vector still enter the top-k?" reduces to
///
///     partial_d  >  tau^2 * ratio(d),
///     ratio(d) = (d/D) * (1 + epsilon0/sqrt(d))^2
///
/// where tau^2 is the current k-th best squared distance. `epsilon0`
/// controls the recall/speed trade-off (paper default 2.1). L2 only.
class AdSamplingPruner {
 public:
  /// Builds the rotation for `dim` dimensions. `epsilon0` as in the paper;
  /// `seed` makes the rotation reproducible.
  AdSamplingPruner(size_t dim, float epsilon0 = 2.1f, uint64_t seed = 42);

  /// Restores a pruner from a persisted rotation matrix — no RNG work; the
  /// cached transpose and test ratios are recomputed (both are
  /// deterministic functions of the rotation and epsilon0, so a restored
  /// pruner is byte-identical to the one it was saved from).
  AdSamplingPruner(Matrix rotation, float epsilon0);

  size_t dim() const { return dim_; }
  float epsilon0() const { return epsilon0_; }
  const Matrix& rotation() const { return rotation_; }

  /// Precomputed test multiplier for a partial distance over d dims.
  float Ratio(size_t d) const { return ratios_[d]; }

  /// Rotates a whole collection (rows are treated as points).
  VectorSet TransformCollection(const VectorSet& vectors) const;

  /// Rotates one query into `out[0..dim)`.
  void TransformQuery(const float* query, float* out) const;

  // --- PDXearch pruner policy -------------------------------------------

  /// Per-query state: the rotated query.
  struct QueryState {
    std::vector<float> query;
  };

  /// The hypothesis test of one step: a lane survives while its partial
  /// distance is below threshold * Ratio(dims_scanned).
  struct LaneTest {
    float bound;
    bool operator()(uint32_t, float partial) const { return partial < bound; }
  };

  QueryState PrepareQuery(const float* raw_query) const;

  /// The query the distance kernels consume (rotated space).
  const float* KernelQuery(const QueryState& qs) const {
    return qs.query.data();
  }

  /// ADSampling scans dimensions sequentially (the projection already
  /// randomized them), so there is no per-query visit order.
  bool has_visit_order() const { return false; }
  const std::vector<uint32_t>* VisitOrder(const QueryState&) const {
    return nullptr;
  }

  /// Hook for per-block auxiliary data; ADSampling needs none.
  void BuildAux(const PdxStore&) {}

  /// The test after `dims_scanned` dims against `threshold` (the current
  /// k-th best squared distance).
  LaneTest SurvivalTest(const QueryState&, size_t, size_t dims_scanned,
                        float threshold) const {
    return LaneTest{threshold * ratios_[dims_scanned]};
  }

 private:
  size_t dim_;
  float epsilon0_;
  Matrix rotation_;
  Matrix rotation_t_;  ///< Cached transpose for the fast query transform.
  std::vector<float> ratios_;  // index 0..dim, ratios_[dim] == 1.
};

/// Kernel flavor for the horizontal (vector-by-vector) ADSampling baseline.
enum class HorizontalKernel : uint8_t {
  kScalar = 0,  ///< The paper's SCALAR-ADS (original implementation style).
  kSimd = 1,    ///< The paper's SIMD-ADS (SIMDized chunk kernels).
};

/// Work counters for the horizontal pruned searches. Wall-clock timing of
/// the interleaved bounds test (a couple of FLOPs) is impossible without
/// distorting it, so the Table 7 harness instead counts tests/values here
/// and converts counts to time with a separately micro-benchmarked
/// per-operation cost.
struct HorizontalScanCounters {
  uint64_t bound_tests = 0;      ///< Hypothesis/bound evaluations.
  uint64_t distance_values = 0;  ///< Dimension values consumed by kernels.
};

/// IVF search with ADSampling on the horizontal dual-block layout — the
/// baseline PDXearch is measured against in Figure 6.
///
/// `store` must hold the *rotated* collection in bucket-concatenated order
/// (ReorderByBuckets + DualBlockStore::FromVectorSet at split `delta_d`);
/// `ids`/`offsets` come from the same BucketOrderedSet. Distances are
/// evaluated Δd dims at a time, interleaving the hypothesis test between
/// chunks exactly like the original implementation.
std::vector<Neighbor> IvfHorizontalAdsSearch(
    const AdSamplingPruner& pruner, const IvfIndex& index,
    const DualBlockStore& store, const std::vector<VectorId>& ids,
    const std::vector<size_t>& offsets, const float* raw_query, size_t k,
    size_t nprobe, HorizontalKernel kernel, size_t delta_d = 32,
    HorizontalScanCounters* counters = nullptr);

}  // namespace pdx

#endif  // PDX_PRUNING_ADSAMPLING_H_
