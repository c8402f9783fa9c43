#ifndef PDX_QUANT_QUANTIZED_STORE_H_
#define PDX_QUANT_QUANTIZED_STORE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "storage/vector_set.h"

namespace pdx {

/// Scalar (u8) quantization of a PDX store — the paper's Section 7
/// follow-up: "efficient compressed representations of dimensions within
/// blocks", which quarters memory/bandwidth for the memory-bound PDX
/// kernels.
///
/// Quantization is per-dimension affine: dimension d maps value x to
/// round((x - offset_d) / scale_d) clamped to [0, 255], with offset/scale
/// derived from the collection's per-dimension min/max. Per-dimension
/// parameters matter: embedding dimensions have heterogeneous ranges, and
/// a global scale would waste most of the 8-bit budget on a few wide
/// dimensions.
///
/// Distances are computed asymmetrically (float query against u8 codes)
/// in *code space*: with q'_d = (q_d - offset_d)/scale_d and w_d =
/// scale_d^2, the L2 contribution of dimension d is w_d * (q'_d - code)^2
/// — one u8->f32 convert and one FMA per lane, still branchless and
/// auto-vectorizable.
class QuantizedPdxStore {
 public:
  QuantizedPdxStore() = default;

  QuantizedPdxStore(QuantizedPdxStore&&) = default;
  QuantizedPdxStore& operator=(QuantizedPdxStore&&) = default;
  QuantizedPdxStore(const QuantizedPdxStore&) = delete;
  QuantizedPdxStore& operator=(const QuantizedPdxStore&) = delete;

  /// Quantizes `vectors` into dimension-major u8 blocks of at most
  /// `block_capacity` lanes (horizontal partitioning, row order).
  static QuantizedPdxStore FromVectorSet(
      const VectorSet& vectors, size_t block_capacity = kPdxBlockSize);

  /// Quantizes `vectors` with blocks following an explicit grouping
  /// (IVF buckets): group g becomes ceil(|g| / block_capacity) consecutive
  /// blocks, and lane ids map back to the listed global rows. Offsets and
  /// scales stay collection-wide — the grouping changes layout, not the
  /// code space. GroupBlockRange recovers which blocks belong to which
  /// group.
  static QuantizedPdxStore FromGroups(
      const VectorSet& vectors,
      const std::vector<std::vector<VectorId>>& groups,
      size_t block_capacity = kPdxBlockSize);

  /// Reconstructs a store as a zero-copy view over externally owned codes
  /// (a loaded collection image): no requantization runs, `codes` must
  /// hold exactly the count x dim bytes FromVectorSet/FromGroups would
  /// have produced for the same `group_sizes` (flat stores pass one group
  /// of size count) and `block_capacity`. Empty `ids` means identity
  /// (row-order flat store). The caller keeps `codes` alive and unchanged
  /// for the store's lifetime.
  static QuantizedPdxStore FromView(size_t dim, std::vector<float> offsets,
                                    std::vector<float> scales,
                                    const std::vector<size_t>& group_sizes,
                                    std::vector<VectorId> ids,
                                    size_t block_capacity,
                                    const uint8_t* codes);

  size_t dim() const { return dim_; }
  size_t count() const { return count_; }
  size_t num_blocks() const { return block_counts_.size(); }

  /// Lanes in block b.
  size_t BlockCount(size_t b) const { return block_counts_[b]; }
  /// Dimension-major codes of block b: value(d, i) at [d*BlockCount(b)+i].
  const uint8_t* BlockData(size_t b) const {
    return codes_data_ + block_first_row_[b] * dim_;
  }
  /// Global id of lane i in block b (identity for row-order stores; the
  /// listed group member for FromGroups stores).
  VectorId BlockId(size_t b, size_t i) const {
    const size_t position = block_first_row_[b] + i;
    return ids_.empty() ? static_cast<VectorId>(position) : ids_[position];
  }

  /// Number of lane groups (1 for FromVectorSet; #buckets for FromGroups).
  size_t num_groups() const { return group_block_start_.size() - 1; }
  /// Half-open block range [first, last) of group g.
  std::pair<size_t, size_t> GroupBlockRange(size_t g) const {
    return {group_block_start_[g], group_block_start_[g + 1]};
  }

  const std::vector<float>& offsets() const { return offsets_; }
  const std::vector<float>& scales() const { return scales_; }
  /// Position -> global id map (empty = identity, row-order store).
  const std::vector<VectorId>& ids() const { return ids_; }

  /// Start of the contiguous code arena (count x dim bytes, block order).
  const uint8_t* codes_data() const { return codes_data_; }
  /// Total bytes of codes — the tier's compressed footprint.
  size_t codes_bytes() const { return count_ * dim_; }

  /// Dequantizes the vector at lane `position` in store order (for tests /
  /// reranking fallbacks). Note: position, not global id — for FromGroups
  /// stores the two differ; BlockId maps positions back to ids.
  void Dequantize(VectorId position, float* out) const;

  /// Transforms a raw query into code space: out_prime[d] =
  /// (q_d - offset_d)/scale_d and out_weight[d] = scale_d^2.
  void TransformQuery(const float* query, float* out_prime,
                      float* out_weight) const;

  /// Worst-case squared-L2 error of the quantized distance vs the exact
  /// one, per vector pair: sum_d (scale_d/2)^2 rounding radius, amplified
  /// by the triangle inequality. Used by tests to bound the approximation.
  double MaxDistanceError(const float* query) const;

 private:
  /// Lays out blocks for groups of the given sizes (SplitIntoBlocks, the
  /// float store's split): fills block_counts_, block_first_row_,
  /// group_block_start_.
  void BuildLayout(const std::vector<size_t>& group_sizes,
                   size_t block_capacity);
  /// Derives offsets_/scales_ from per-dimension min/max of `vectors`.
  void FitParameters(const VectorSet& vectors);
  /// Encodes the rows listed in positions order into codes_.
  void EncodeRows(const VectorSet& vectors);

  size_t dim_ = 0;
  size_t count_ = 0;
  std::vector<float> offsets_;  // Per-dimension min.
  std::vector<float> scales_;   // Per-dimension (max-min)/255, >= epsilon.
  std::vector<uint8_t> codes_;  // All blocks, contiguous (owned stores).
  /// codes_.data() for owned stores; the borrowed image pointer for
  /// FromView stores.
  const uint8_t* codes_data_ = nullptr;
  std::vector<VectorId> ids_;  // Position -> global id; empty = identity.
  std::vector<size_t> block_counts_;
  std::vector<size_t> block_first_row_;
  std::vector<size_t> group_block_start_;  // num_groups + 1 boundaries.
};

/// Process-wide count of quantization runs (FromVectorSet/FromGroups
/// encodes). The persistence tests pin "loading a quantized collection
/// does zero requantization work" by snapshotting this counter around
/// CollectionImage loads — the quantized analog of PdxStorePackCount.
uint64_t QuantizedPackCount();

}  // namespace pdx

#endif  // PDX_QUANT_QUANTIZED_STORE_H_
