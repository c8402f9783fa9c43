#include "pruning/bsa.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "kernels/kernel_dispatch.h"
#include "kernels/nary_kernels.h"
#include "kernels/scalar_kernels.h"

namespace pdx {

BsaPruner::BsaPruner(const VectorSet& vectors, float multiplier,
                     size_t max_fit_samples)
    : dim_(vectors.dim()), multiplier_(multiplier) {
  assert(vectors.count() > 0);
  pca_.Fit(vectors.data(), vectors.count(), dim_, max_fit_samples);
}

BsaPruner::BsaPruner(Pca pca, float multiplier)
    : dim_(pca.dim()), multiplier_(multiplier), pca_(std::move(pca)) {
  assert(dim_ > 0);
}

VectorSet BsaPruner::TransformCollection(const VectorSet& vectors) const {
  assert(vectors.dim() == dim_);
  std::vector<float> projected(vectors.count() * dim_);
  pca_.TransformBatch(vectors.data(), vectors.count(), projected.data());
  return VectorSet::FromRowMajor(projected.data(), vectors.count(), dim_);
}

void BsaPruner::TransformQuery(const float* query, float* out) const {
  pca_.Transform(query, out);
}

void BsaPruner::SuffixNorms(const float* projected, size_t dim, float* out) {
  double acc = 0.0;
  out[dim] = 0.0f;
  for (size_t d = dim; d-- > 0;) {
    acc += double(projected[d]) * double(projected[d]);
    out[d] = static_cast<float>(std::sqrt(acc));
  }
}

BsaPruner::QueryState BsaPruner::PrepareQuery(const float* raw_query) const {
  QueryState qs;
  qs.query.resize(dim_);
  TransformQuery(raw_query, qs.query.data());
  qs.suffix_norms.resize(dim_ + 1);
  SuffixNorms(qs.query.data(), dim_, qs.suffix_norms.data());
  return qs;
}

void BsaPruner::BuildAux(const PdxStore& store) {
  assert(store.dim() == dim_);
  aux_.clear();
  aux_lanes_.clear();
  aux_.reserve(store.num_blocks());
  std::vector<float> lane(dim_);
  std::vector<float> norms(dim_ + 1);
  for (size_t b = 0; b < store.num_blocks(); ++b) {
    const PdxBlock& block = store.block(b);
    const size_t n = block.count();
    AlignedBuffer table((dim_ + 1) * n);
    for (size_t i = 0; i < n; ++i) {
      block.ExtractLane(i, lane.data());
      SuffixNorms(lane.data(), dim_, norms.data());
      for (size_t d = 0; d <= dim_; ++d) table[d * n + i] = norms[d];
    }
    aux_.push_back(std::move(table));
    aux_lanes_.push_back(n);
  }
}

BsaPruner::LaneTest BsaPruner::SurvivalTest(const QueryState& qs,
                                            size_t block_index,
                                            size_t dims_scanned,
                                            float threshold) const {
  assert(block_index < aux_.size() && "BuildAux must run against the store");
  const size_t n = aux_lanes_[block_index];
  const float sq = qs.suffix_norms[dims_scanned];
  return LaneTest{aux_[block_index].data() + dims_scanned * n, sq * sq,
                  2.0f * multiplier_ * sq, threshold};
}

std::vector<Neighbor> IvfHorizontalBsaSearch(
    const BsaPruner& pruner, const IvfIndex& index,
    const DualBlockStore& store, const std::vector<VectorId>& ids,
    const std::vector<size_t>& offsets,
    const std::vector<float>& suffix_norms, const float* raw_query, size_t k,
    size_t nprobe, bool use_simd, size_t delta_d,
    HorizontalScanCounters* counters) {
  assert(store.dim() == pruner.dim());
  const size_t dim = store.dim();
  const size_t checkpoints = dim + 1;
  BsaPruner::QueryState qs = pruner.PrepareQuery(raw_query);
  const float* query = qs.query.data();

  const std::vector<uint32_t> ranked = index.RankBucketsNary(raw_query);
  const size_t probes = std::min(nprobe, ranked.size());
  const PairKernelFn pair_kernel =
      use_simd ? ActiveKernels().nary_pair(Metric::kL2) : &ScalarL2;
  const float m = pruner.multiplier();

  TopK heap(k);
  for (size_t r = 0; r < probes; ++r) {
    const uint32_t b = ranked[r];
    for (size_t pos = offsets[b]; pos < offsets[b + 1]; ++pos) {
      const float* vector_suffix = suffix_norms.data() + pos * checkpoints;
      if (!heap.full()) {
        float distance =
            pair_kernel(query, store.Head(pos), store.split_dim());
        if (dim > store.split_dim()) {
          distance += pair_kernel(query + store.split_dim(), store.Tail(pos),
                                  dim - store.split_dim());
        }
        if (counters != nullptr) counters->distance_values += dim;
        heap.Push(ids[pos], distance);
        continue;
      }
      // Chunked scan with the m-scaled Cauchy-Schwarz test between chunks.
      float distance = pair_kernel(query, store.Head(pos), store.split_dim());
      size_t dims = store.split_dim();
      bool pruned = false;
      while (dims < dim) {
        if (counters != nullptr) ++counters->bound_tests;
        const float sv = vector_suffix[dims];
        const float sq = qs.suffix_norms[dims];
        const float estimate = distance + sv * sv + sq * sq - 2.0f * m * sv * sq;
        if (estimate >= heap.threshold()) {
          pruned = true;
          break;
        }
        const size_t chunk = std::min(delta_d, dim - dims);
        distance += pair_kernel(query + dims,
                                store.Tail(pos) + (dims - store.split_dim()),
                                chunk);
        dims += chunk;
      }
      if (counters != nullptr) counters->distance_values += dims;
      if (!pruned && distance < heap.threshold()) {
        heap.Push(ids[pos], distance);
      }
    }
  }
  return heap.SortedResults();
}

}  // namespace pdx
