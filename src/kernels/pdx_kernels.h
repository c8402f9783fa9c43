#ifndef PDX_KERNELS_PDX_KERNELS_H_
#define PDX_KERNELS_PDX_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "common/types.h"

namespace pdx {

/// Vertical distance kernels over the PDX layout (Algorithm 1).
///
/// All kernels *accumulate* into a per-lane distances array: the outer loop
/// walks dimensions, the inner loop walks vectors, and each vector's partial
/// distance lives in its own lane — no cross-lane dependency, no register
/// reduction, dimensionality-independent SIMD utilization. The code is
/// plain scalar C++ that auto-vectorizes; no intrinsics, by design (the
/// paper's portability claim).
///
/// `block` points to dimension-major data where dimension d's values occupy
/// block[d*n .. d*n+n). `distances` has n entries indexed by lane, except
/// in the two PRUNE-phase (*Positions) kernels, where it is indexed by
/// survivor.
///
/// The kernels are compiled once per ISA tier (scalar / AVX2 / AVX-512, see
/// src/kernels/isa/) and these entry points forward to the tier the runtime
/// dispatcher picked for this host (kernel_dispatch.h; PDX_ISA overrides).
/// All tiers are built with -ffp-contract=off, so results are bit-exact
/// across tiers. Hot loops should grab ActiveKernels() once instead of
/// paying the forwarding call per block.
///
/// The *Novec variants are the same source compiled with auto-vectorization
/// disabled (Section 6.3's ablation: PDX remains ~1.8x faster than
/// horizontal search even without SIMD, thanks to access pattern and
/// branchless structure).

/// Accumulates dims [d_start, d_end) for all n lanes.
void PdxAccumulate(Metric metric, const float* query, const float* block,
                   size_t n, size_t d_start, size_t d_end, float* distances);

/// Accumulates an explicit dimension list (query-aware order, PDX-BOND):
/// for j in [0, dims_count): accumulate dimension dims[j].
void PdxAccumulateDims(Metric metric, const float* query, const float* block,
                       size_t n, const uint32_t* dims, size_t dims_count,
                       float* distances);

/// PRUNE-phase kernel: accumulates dims [d_start, d_end) only for the lanes
/// listed in `positions` (the not-yet-pruned vectors). Unlike the kernels
/// above, `distances` is indexed by survivor, not by lane: it has
/// position_count entries, and distances[p] is lane positions[p]'s partial
/// distance. Each lane still sums its dimensions in the order the lane-
/// indexed kernels do, so its bits are the same.
void PdxAccumulatePositions(Metric metric, const float* query,
                            const float* block, size_t n, size_t d_start,
                            size_t d_end, const uint32_t* positions,
                            size_t position_count, float* distances);

/// PRUNE-phase kernel with an explicit dimension list; `distances` is
/// indexed by survivor, as in PdxAccumulatePositions.
void PdxAccumulateDimsPositions(Metric metric, const float* query,
                                const float* block, size_t n,
                                const uint32_t* dims, size_t dims_count,
                                const uint32_t* positions,
                                size_t position_count, float* distances);

/// Full linear scan of a block: zeroes `distances` then accumulates all
/// dims. Convenience used by the START phase and the PDX linear-scan
/// baseline.
void PdxLinearScan(Metric metric, const float* query, const float* block,
                   size_t n, size_t dim, float* distances);

// Auto-vectorization-disabled builds of the two hot kernels (ablation).
void PdxAccumulateNovec(Metric metric, const float* query, const float* block,
                        size_t n, size_t d_start, size_t d_end,
                        float* distances);
void PdxLinearScanNovec(Metric metric, const float* query, const float* block,
                        size_t n, size_t dim, float* distances);

}  // namespace pdx

#endif  // PDX_KERNELS_PDX_KERNELS_H_
