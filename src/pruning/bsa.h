#ifndef PDX_PRUNING_BSA_H_
#define PDX_PRUNING_BSA_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/types.h"
#include "index/ivf.h"
#include "index/topk.h"
#include "linalg/pca.h"
#include "pruning/adsampling.h"
#include "storage/dual_block.h"
#include "storage/pdx_store.h"
#include "storage/vector_set.h"

namespace pdx {

/// BSA (Yang et al., 2024) — the BSA_res variant — reimplemented from
/// scratch.
///
/// Preprocessing projects the collection onto its PCA basis (an orthogonal
/// transform, so L2 distances are preserved) which concentrates energy in
/// the leading dimensions. After scanning d of D dims, the exact distance
/// decomposes as
///
///     dist = partial_d + res_v(d) + res_q(d) - 2 <v_rest, q_rest>
///
/// and Cauchy-Schwarz bounds the cross term by sqrt(res_v * res_q), giving
/// the lower bound  partial + (sqrt(res_v) - sqrt(res_q))^2. BSA sharpens
/// this probabilistically with a multiplier m <= 1 on the cross term:
///
///     estimate(m) = partial + res_v + res_q - 2 m sqrt(res_v res_q)
///
/// m = 1 keeps the bound exact (no recall loss, weakest pruning); smaller m
/// prunes more aggressively at some recall cost — the knob the paper tunes
/// to match ADSampling's recall. Per-vector suffix energies res_v(d) are
/// precomputed at preprocessing time (their square roots are stored, so the
/// test is 3 FMAs per lane). L2 only.
class BsaPruner {
 public:
  /// Fits PCA on (a sample of) `vectors` and precomputes the projection.
  /// `multiplier` is m above; `max_fit_samples` caps the covariance sample
  /// (covariance estimation is O(samples * D^2); 4096 samples estimate the
  /// energy compaction well even at D=1536).
  explicit BsaPruner(const VectorSet& vectors, float multiplier = 1.0f,
                     size_t max_fit_samples = 4096);

  /// Restores a pruner from a persisted PCA basis — no covariance or eigen
  /// work. BuildAux must still run against the (loaded) store; the suffix
  /// tables it derives are deterministic in the packed data, so a restored
  /// pruner filters byte-identically to the one it was saved from.
  BsaPruner(Pca pca, float multiplier);

  size_t dim() const { return dim_; }
  float multiplier() const { return multiplier_; }
  const Pca& pca() const { return pca_; }

  /// Projects a whole collection into the PCA basis.
  VectorSet TransformCollection(const VectorSet& vectors) const;

  /// Projects one query into `out[0..dim)`.
  void TransformQuery(const float* query, float* out) const;

  /// sqrt of suffix energy of a projected vector: sqrt(sum_{j>=d} v_j^2)
  /// for every d in [0, dim]; `out` has dim+1 entries.
  static void SuffixNorms(const float* projected, size_t dim, float* out);

  // --- PDXearch pruner policy -------------------------------------------

  struct QueryState {
    std::vector<float> query;         ///< PCA-projected query.
    std::vector<float> suffix_norms;  ///< sqrt(res_q(d)), d in [0, dim].
  };

  /// The m-scaled Cauchy-Schwarz test of one step: a lane survives while
  /// partial + res_v + res_q - 2 m sqrt(res_v res_q) < threshold.
  struct LaneTest {
    const float* suffix;  ///< sqrt(res_v(dims_scanned)) of every lane.
    float sq2;            ///< res_q(dims_scanned).
    float two_m_sq;       ///< 2 m sqrt(res_q(dims_scanned)).
    float threshold;
    bool operator()(uint32_t lane, float partial) const {
      const float sv = suffix[lane];
      return partial + sv * sv + sq2 - two_m_sq * sv < threshold;
    }
  };

  QueryState PrepareQuery(const float* raw_query) const;
  const float* KernelQuery(const QueryState& qs) const {
    return qs.query.data();
  }

  bool has_visit_order() const { return false; }
  const std::vector<uint32_t>* VisitOrder(const QueryState&) const {
    return nullptr;
  }

  /// Precomputes per-block, dimension-major sqrt-suffix-energy tables
  /// aligned with `store`'s blocks. Must be called (once) with the PDX
  /// store that SurvivalTest will be used against.
  void BuildAux(const PdxStore& store);

  /// The test of block `block_index` after `dims_scanned` dims.
  LaneTest SurvivalTest(const QueryState& qs, size_t block_index,
                        size_t dims_scanned, float threshold) const;

 private:
  size_t dim_ = 0;
  float multiplier_ = 1.0f;
  Pca pca_;
  /// Per block: (dim+1) x n lane-major sqrt suffix energies; row d holds
  /// sqrt(res_v(d)) for every lane.
  std::vector<AlignedBuffer> aux_;
  std::vector<size_t> aux_lanes_;
};

/// IVF search with BSA on the horizontal dual-block layout (the paper's
/// N-ary BSA baseline, Table 7). `store` holds the PCA-projected collection
/// in bucket order; `suffix_norms` holds, per position, the (dim+1) sqrt
/// suffix energies of that vector.
std::vector<Neighbor> IvfHorizontalBsaSearch(
    const BsaPruner& pruner, const IvfIndex& index,
    const DualBlockStore& store, const std::vector<VectorId>& ids,
    const std::vector<size_t>& offsets,
    const std::vector<float>& suffix_norms, const float* raw_query, size_t k,
    size_t nprobe, bool use_simd, size_t delta_d = 32,
    HorizontalScanCounters* counters = nullptr);

}  // namespace pdx

#endif  // PDX_PRUNING_BSA_H_
