#include "pruning/adsampling.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/random.h"
#include "kernels/kernel_dispatch.h"
#include "kernels/nary_kernels.h"
#include "kernels/scalar_kernels.h"
#include "linalg/random_orthogonal.h"

namespace pdx {

namespace {

std::vector<float> ComputeRatios(size_t dim, float epsilon0) {
  std::vector<float> ratios(dim + 1);
  ratios[0] = 0.0f;  // Never evaluated; PDXearch tests only at d >= 1.
  for (size_t d = 1; d <= dim; ++d) {
    if (d == dim) {
      ratios[d] = 1.0f;  // Full distance: the test becomes exact.
    } else {
      const double amplifier =
          1.0 + double(epsilon0) / std::sqrt(static_cast<double>(d));
      ratios[d] = static_cast<float>(double(d) / double(dim) * amplifier *
                                     amplifier);
    }
  }
  return ratios;
}

}  // namespace

AdSamplingPruner::AdSamplingPruner(size_t dim, float epsilon0, uint64_t seed)
    : dim_(dim), epsilon0_(epsilon0) {
  Rng rng(seed);
  rotation_ = RandomOrthogonalMatrix(dim, rng);
  rotation_t_ = rotation_.Transposed();
  ratios_ = ComputeRatios(dim, epsilon0);
}

AdSamplingPruner::AdSamplingPruner(Matrix rotation, float epsilon0)
    : dim_(rotation.rows()),
      epsilon0_(epsilon0),
      rotation_(std::move(rotation)) {
  assert(rotation_.rows() == rotation_.cols());
  rotation_t_ = rotation_.Transposed();
  ratios_ = ComputeRatios(dim_, epsilon0);
}

VectorSet AdSamplingPruner::TransformCollection(
    const VectorSet& vectors) const {
  assert(vectors.dim() == dim_);
  std::vector<float> rotated(vectors.count() * dim_);
  ProjectBatch(rotation_, vectors.data(), vectors.count(), rotated.data());
  return VectorSet::FromRowMajor(rotated.data(), vectors.count(), dim_);
}

void AdSamplingPruner::TransformQuery(const float* query, float* out) const {
  ApplyPretransposed(rotation_t_, query, out);
}

AdSamplingPruner::QueryState AdSamplingPruner::PrepareQuery(
    const float* raw_query) const {
  QueryState qs;
  qs.query.resize(dim_);
  TransformQuery(raw_query, qs.query.data());
  return qs;
}

namespace {

// One candidate vector, dual-block layout: chunked distance + hypothesis
// test between chunks. Returns the full distance if the vector survived all
// tests, or +inf if it was pruned.
template <typename KernelFn>
float HorizontalAdsCandidate(const AdSamplingPruner& pruner,
                             const DualBlockStore& store, size_t pos,
                             const float* query, float threshold,
                             size_t delta_d, KernelFn kernel,
                             HorizontalScanCounters* counters) {
  const size_t dim = store.dim();
  const size_t head_dim = store.split_dim();
  float distance = kernel(query, store.Head(pos), head_dim);
  size_t dims = head_dim;
  while (dims < dim) {
    if (counters != nullptr) ++counters->bound_tests;
    if (distance >= threshold * pruner.Ratio(dims)) {
      if (counters != nullptr) counters->distance_values += dims;
      return std::numeric_limits<float>::infinity();
    }
    const size_t chunk = std::min(delta_d, dim - dims);
    distance +=
        kernel(query + dims, store.Tail(pos) + (dims - head_dim), chunk);
    dims += chunk;
  }
  if (counters != nullptr) counters->distance_values += dim;
  return distance;
}

}  // namespace

std::vector<Neighbor> IvfHorizontalAdsSearch(
    const AdSamplingPruner& pruner, const IvfIndex& index,
    const DualBlockStore& store, const std::vector<VectorId>& ids,
    const std::vector<size_t>& offsets, const float* raw_query, size_t k,
    size_t nprobe, HorizontalKernel kernel, size_t delta_d,
    HorizontalScanCounters* counters) {
  assert(store.dim() == pruner.dim());
  AdSamplingPruner::QueryState qs = pruner.PrepareQuery(raw_query);
  const float* query = qs.query.data();
  const size_t dim = store.dim();

  const std::vector<uint32_t> ranked = index.RankBucketsNary(raw_query);
  const size_t probes = std::min(nprobe, ranked.size());

  const PairKernelFn pair_kernel =
      (kernel == HorizontalKernel::kScalar)
          ? &ScalarL2
          : ActiveKernels().nary_pair(Metric::kL2);

  TopK heap(k);
  for (size_t r = 0; r < probes; ++r) {
    const uint32_t b = ranked[r];
    for (size_t pos = offsets[b]; pos < offsets[b + 1]; ++pos) {
      if (!heap.full()) {
        // No threshold yet: full distance, no pruning possible.
        float distance = pair_kernel(query, store.Head(pos),
                                     store.split_dim());
        if (dim > store.split_dim()) {
          distance += pair_kernel(query + store.split_dim(),
                                  store.Tail(pos), dim - store.split_dim());
        }
        if (counters != nullptr) counters->distance_values += dim;
        heap.Push(ids[pos], distance);
        continue;
      }
      const float distance = HorizontalAdsCandidate(
          pruner, store, pos, query, heap.threshold(), delta_d, pair_kernel,
          counters);
      if (distance < heap.threshold()) heap.Push(ids[pos], distance);
    }
  }
  return heap.SortedResults();
}

}  // namespace pdx
