#include "index/ivf.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "kernels/nary_kernels.h"
#include "kernels/pdx_kernels.h"

namespace pdx {

IvfIndex IvfIndex::Build(const VectorSet& vectors, const IvfOptions& options) {
  assert(vectors.count() > 0);
  size_t num_buckets = options.num_buckets;
  if (num_buckets == 0) {
    num_buckets = static_cast<size_t>(
        std::lround(std::sqrt(static_cast<double>(vectors.count()))));
    num_buckets = std::max<size_t>(1, num_buckets);
  }
  num_buckets = std::min(num_buckets, vectors.count());

  KMeansOptions kmeans;
  kmeans.num_clusters = num_buckets;
  kmeans.max_iterations = options.max_iterations;
  kmeans.seed = options.seed;
  KMeansResult clustering = RunKMeans(vectors, kmeans);

  IvfIndex index;
  index.count_ = vectors.count();
  index.buckets_.assign(num_buckets, {});
  for (size_t i = 0; i < vectors.count(); ++i) {
    index.buckets_[clustering.assignment[i]].push_back(
        static_cast<VectorId>(i));
  }
  index.centroids_ = std::move(clustering.centroids);
  index.centroids_pdx_ =
      PdxStore::FromVectorSet(index.centroids_, kPdxBlockSize);
  return index;
}

IvfIndex IvfIndex::FromParts(size_t count, PdxStore centroids_pdx,
                             std::vector<std::vector<VectorId>> buckets) {
  assert(centroids_pdx.count() == buckets.size());
  IvfIndex index;
  index.count_ = count;
  index.centroids_ = centroids_pdx.ToVectorSet();
  index.centroids_pdx_ = std::move(centroids_pdx);
  index.buckets_ = std::move(buckets);
  return index;
}

std::vector<uint32_t> IvfIndex::RankBuckets(const float* query) const {
  const size_t nb = buckets_.size();
  std::vector<float> distances(nb);
  size_t offset = 0;
  for (size_t b = 0; b < centroids_pdx_.num_blocks(); ++b) {
    const PdxBlock& block = centroids_pdx_.block(b);
    PdxLinearScan(Metric::kL2, query, block.data(), block.count(),
                  block.dim(), distances.data() + offset);
    offset += block.count();
  }
  // Lanes are in centroid order because the PDX store was built without
  // grouping; sort bucket ids by distance.
  std::vector<uint32_t> order(nb);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (distances[a] != distances[b]) return distances[a] < distances[b];
    return a < b;
  });
  return order;
}

BucketOrderedSet ReorderByBuckets(const VectorSet& vectors,
                                  const IvfIndex& index) {
  BucketOrderedSet out;
  out.vectors = VectorSet(vectors.dim(), vectors.count());
  out.ids.reserve(vectors.count());
  out.offsets.reserve(index.num_buckets() + 1);
  out.offsets.push_back(0);
  for (size_t b = 0; b < index.num_buckets(); ++b) {
    for (VectorId id : index.bucket(b)) {
      out.vectors.Append(vectors.Vector(id));
      out.ids.push_back(id);
    }
    out.offsets.push_back(out.ids.size());
  }
  return out;
}

std::vector<uint32_t> IvfIndex::RankBucketsNary(const float* query) const {
  const size_t nb = buckets_.size();
  std::vector<float> distances(nb);
  for (size_t b = 0; b < nb; ++b) {
    distances[b] = NaryL2(query, centroids_.Vector(static_cast<VectorId>(b)),
                          centroids_.dim());
  }
  std::vector<uint32_t> order(nb);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (distances[a] != distances[b]) return distances[a] < distances[b];
    return a < b;
  });
  return order;
}

std::vector<Neighbor> IvfNarySearch(const IvfIndex& index,
                                    const BucketOrderedSet& data,
                                    const float* query, size_t k,
                                    size_t nprobe, Metric metric, Isa isa) {
  const PairKernelFn kernel = GetNaryKernel(metric, isa);
  const std::vector<uint32_t> ranked = index.RankBucketsNary(query);
  const size_t probes = std::min(nprobe, ranked.size());
  const size_t dim = data.vectors.dim();
  TopK heap(k);
  for (size_t r = 0; r < probes; ++r) {
    const uint32_t b = ranked[r];
    for (size_t pos = data.offsets[b]; pos < data.offsets[b + 1]; ++pos) {
      heap.Push(data.ids[pos],
                kernel(query, data.vectors.Vector(
                                  static_cast<VectorId>(pos)),
                       dim));
    }
  }
  return heap.SortedResults();
}

}  // namespace pdx
