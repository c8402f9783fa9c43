#ifndef PDX_INDEX_IVF_H_
#define PDX_INDEX_IVF_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "index/kmeans.h"
#include "index/topk.h"
#include "kernels/kernel_dispatch.h"
#include "storage/pdx_store.h"
#include "storage/vector_set.h"

namespace pdx {

/// Options for building an IVF (Inverted File) index.
struct IvfOptions {
  /// Number of buckets (inverted lists). 0 = auto: ~sqrt(N), the
  /// conventional choice (Section 2.1).
  size_t num_buckets = 0;
  int max_iterations = 20;
  uint64_t seed = 42;
};

/// The IVF bucketing index (Section 2.1, Figure 2).
///
/// Training clusters the collection with Lloyd's k-means; each vector is
/// assigned to its nearest centroid's bucket. At query time the centroids
/// are ranked by distance to the query and the `nprobe` nearest buckets are
/// scanned.
///
/// The index itself only owns *membership* (buckets of vector ids) and the
/// centroids; search-time data arrangements (N-ary, PDX, dual-block,
/// projected variants) are built on top by the searchers so that every
/// competitor in a benchmark shares the identical bucket structure — the
/// paper's methodology ("all competitors share the same IVF index").
class IvfIndex {
 public:
  IvfIndex() = default;

  IvfIndex(IvfIndex&&) = default;
  IvfIndex& operator=(IvfIndex&&) = default;
  IvfIndex(const IvfIndex&) = delete;
  IvfIndex& operator=(const IvfIndex&) = delete;

  /// Builds the index over `vectors`.
  static IvfIndex Build(const VectorSet& vectors, const IvfOptions& options);

  /// Reassembles an index from persisted parts — no k-means runs.
  /// `centroids_pdx` is the persisted PDX arrangement of the centroids
  /// (rebuilding it would repack; restoring it keeps bucket ranking
  /// byte-identical to the saved index), transposed back for the
  /// horizontal copy.
  static IvfIndex FromParts(size_t count, PdxStore centroids_pdx,
                            std::vector<std::vector<VectorId>> buckets);

  size_t num_buckets() const { return buckets_.size(); }
  size_t dim() const { return centroids_.dim(); }
  size_t count() const { return count_; }

  /// Bucket b's member ids (global row ids in the original collection).
  const std::vector<VectorId>& bucket(size_t b) const { return buckets_[b]; }
  const std::vector<std::vector<VectorId>>& buckets() const {
    return buckets_;
  }

  /// Centroids, horizontal layout (for N-ary competitors).
  const VectorSet& centroids() const { return centroids_; }

  /// Centroids in PDX layout (Table 7: "centroids are also stored with
  /// PDX", which speeds the find-nearest-buckets phase): one group in
  /// centroid order, kPdxBlockSize blocks. The PDXC loader derives this
  /// layout rather than reading it.
  const PdxStore& centroids_pdx() const { return centroids_pdx_; }

  /// Ranks all buckets by centroid distance to `query` (ascending L2) using
  /// the vertical kernels on the PDX centroid store; returns bucket ids.
  std::vector<uint32_t> RankBuckets(const float* query) const;

  /// Same ranking computed with horizontal kernels (used by N-ary
  /// competitors so their measured "find nearest buckets" phase matches
  /// their layout).
  std::vector<uint32_t> RankBucketsNary(const float* query) const;

 private:
  size_t count_ = 0;
  VectorSet centroids_;
  PdxStore centroids_pdx_;
  std::vector<std::vector<VectorId>> buckets_;
};

/// A collection physically reordered into bucket-concatenated order — the
/// layout every IVF system stores its inverted lists in. Horizontal
/// competitors (FAISS/Milvus stand-ins, SCALAR-/SIMD-ADS) scan this.
struct BucketOrderedSet {
  VectorSet vectors;            ///< Rows concatenated bucket by bucket.
  std::vector<VectorId> ids;    ///< Position -> original row id.
  std::vector<size_t> offsets;  ///< num_buckets+1 bucket boundaries.
};

/// Builds the bucket-ordered arrangement of `vectors` under `index`.
BucketOrderedSet ReorderByBuckets(const VectorSet& vectors,
                                  const IvfIndex& index);

/// IVF linear scan on the horizontal layout with explicit-SIMD kernels:
/// the `nprobe` nearest buckets of `data` (ranked by RankBucketsNary), k
/// nearest returned. This is what FAISS's and Milvus's IVF_FLAT do; `isa`
/// picks the tier.
std::vector<Neighbor> IvfNarySearch(const IvfIndex& index,
                                    const BucketOrderedSet& data,
                                    const float* query, size_t k,
                                    size_t nprobe, Metric metric = Metric::kL2,
                                    Isa isa = Isa::kBest);

}  // namespace pdx

#endif  // PDX_INDEX_IVF_H_
