#ifndef PDX_KERNELS_KERNEL_DISPATCH_H_
#define PDX_KERNELS_KERNEL_DISPATCH_H_

#include <cstddef>
#include <cstdint>

#include "common/types.h"
#include "kernels/cpu_features.h"  // IWYU pragma: export (Isa, IsaName)

namespace pdx {

/// Runtime SIMD dispatch.
///
/// One binary carries scalar, AVX2, and AVX-512 columns of every hot
/// kernel family — the PDX verticals (PdxAccumulate*), the horizontal
/// n-ary kernels, and the gather kernel — each compiled in its own
/// translation unit with explicit -m flags (no -march=native required).
/// The widest tier the CPU *and* OS support is resolved once at load time
/// (overridable with PDX_ISA=scalar|avx2|avx512|best) and consulted through
/// a per-tier kernel table, so a release binary built anywhere runs the
/// fastest path everywhere instead of crashing on SIGILL or silently
/// falling back to portable code.

/// Pairwise horizontal kernel: ordering key of (a, b) over `dim` floats.
using PairKernelFn = float (*)(const float*, const float*, size_t);

/// Batch kernel over row-major data: out[i] = key(query, data + i*dim).
using NaryBatchFn = void (*)(Metric, const float* query, const float* data,
                             size_t count, size_t dim, float* out);

// Vertical (PDX-layout) kernels; see pdx_kernels.h for the contracts. The
// two *Positions kernels gather the lanes `positions` lists and accumulate
// into `distances` indexed by survivor (position_count entries), not lane.
using PdxAccumulateFn = void (*)(Metric, const float* query,
                                 const float* block, size_t n, size_t d_start,
                                 size_t d_end, float* distances);
using PdxAccumulateDimsFn = void (*)(Metric, const float* query,
                                     const float* block, size_t n,
                                     const uint32_t* dims, size_t dims_count,
                                     float* distances);
using PdxAccumulatePositionsFn = void (*)(Metric, const float* query,
                                          const float* block, size_t n,
                                          size_t d_start, size_t d_end,
                                          const uint32_t* positions,
                                          size_t position_count,
                                          float* distances);
using PdxAccumulateDimsPositionsFn = void (*)(
    Metric, const float* query, const float* block, size_t n,
    const uint32_t* dims, size_t dims_count, const uint32_t* positions,
    size_t position_count, float* distances);
using PdxLinearScanFn = void (*)(Metric, const float* query,
                                 const float* block, size_t n, size_t dim,
                                 float* distances);

/// Vertical kernel over quantized (u8) PDX blocks: accumulates
/// weights[d] * (query_prime[d] - code)^2 into per-lane distances — the
/// code-space L2 of quant/quantized_store.h. L2-only (the quantized tier
/// validates its metric), so no Metric parameter.
using QuantAccumulateFn = void (*)(const float* query_prime,
                                   const float* weights, const uint8_t* block,
                                   size_t n, size_t d_start, size_t d_end,
                                   float* distances);

/// One ISA tier's column of every hot kernel family. Tables are immutable
/// and live for the whole process; holding a pointer to one is always safe.
///
/// The vertical kernels of every tier are compiled with -ffp-contract=off:
/// per-lane accumulation order is identical across tiers by construction
/// (SIMD runs *across* lanes), so with FMA contraction pinned off the
/// PdxAccumulate* results are bit-exact between scalar, AVX2, and AVX-512 —
/// a searcher gives byte-identical answers whatever tier dispatch picks.
/// The n-ary kernels use explicit FMA intrinsics and multiple accumulators,
/// so across tiers they agree only to a reassociation tolerance
/// (~2e-5 * |result| * sqrt(dim); see tests/kernels/kernels_test.cc).
struct KernelTable {
  Isa isa = Isa::kScalar;  ///< The concrete tier this table implements.

  /// Horizontal pair kernels indexed by Metric (kL2, kIp, kL1).
  PairKernelFn nary[3] = {nullptr, nullptr, nullptr};
  NaryBatchFn nary_batch = nullptr;

  // The five PDX verticals.
  PdxAccumulateFn pdx_accumulate = nullptr;
  PdxAccumulateDimsFn pdx_accumulate_dims = nullptr;
  PdxAccumulatePositionsFn pdx_accumulate_positions = nullptr;
  PdxAccumulateDimsPositionsFn pdx_accumulate_dims_positions = nullptr;
  PdxLinearScanFn pdx_linear_scan = nullptr;

  /// On-the-fly transposition kernel (Section 7); hardware gather on the
  /// AVX2/AVX-512 tiers, strided loads on the scalar tier.
  NaryBatchFn gather_batch = nullptr;

  /// The quantized (u8) vertical — same bit-exact-across-tiers contract as
  /// the float PdxAccumulate* family (auto-vectorized template,
  /// -ffp-contract=off in every tier TU).
  QuantAccumulateFn quant_accumulate = nullptr;

  PairKernelFn nary_pair(Metric metric) const {
    return nary[static_cast<uint8_t>(metric)];
  }
};

/// True when this binary carries genuine kernels for the tier, i.e. the
/// tier's translation unit was compiled with its ISA flags (kScalar and
/// kBest always; kAvx2/kAvx512 on x86-64 toolchains that accept the flags).
/// Says nothing about the host CPU.
bool IsaCarried(Isa isa);

/// True when the tier is *runnable here*: carried by the binary AND
/// supported by the CPU/OS (kScalar and kBest are always available).
bool IsaAvailable(Isa isa);

/// The kernel table for the widest available tier at or below `isa`
/// (kAvx512 on a no-AVX-512 host degrades to kAvx2, then kScalar; kBest is
/// the widest available tier). Ignores the PDX_ISA override — benches and
/// tests use this to address a specific tier directly.
const KernelTable& GetKernelTable(Isa isa);

/// The table every search path uses, resolved once at first use:
/// the widest available tier, clamped by the PDX_ISA environment override
/// (an unknown or unavailable override warns on stderr and degrades).
const KernelTable& ActiveKernels();

/// ActiveKernels().isa — the tier this process dispatches to.
Isa DispatchedIsa();

/// Pairwise horizontal kernel for (metric, isa), degraded to the widest
/// available tier at or below `isa`. An unresolvable pair falls back to
/// the *scalar kernel of the requested metric* — never a different metric.
PairKernelFn GetNaryKernel(Metric metric, Isa isa);

/// Batch kernel: distances from one query to `count` horizontal vectors,
/// on the widest available tier at or below `isa`.
void NaryDistanceBatchIsa(Metric metric, Isa isa, const float* query,
                          const float* data, size_t count, size_t dim,
                          float* out);

}  // namespace pdx

#endif  // PDX_KERNELS_KERNEL_DISPATCH_H_
