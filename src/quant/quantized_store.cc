#include "quant/quantized_store.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <numeric>

#include "common/parallel.h"
#include "storage/block_stats.h"
#include "storage/pdx_store.h"

namespace pdx {

namespace {

/// Floor for per-dimension scales. Degenerate (constant) dimensions would
/// otherwise divide by zero; the floor must also keep the derived values
/// finite: TransformQuery computes weight = scale^2, and a floor of 1e-30f
/// squares to 1e-60 — below the smallest normal float, so the weight
/// underflows to 0.0f while q' = (q - offset)/scale blows up, and the
/// kernel's 0 * huge^2 poisons every distance in the block with NaN.
/// 1e-10f squares to 1e-20 (comfortably normal), and a dimension only hits
/// the floor when its whole range is below 255 * 1e-10 — constant at float
/// precision anyway, so the rounding radius it implies is negligible.
constexpr float kMinScale = 1e-10f;

std::atomic<uint64_t> g_quantized_packs{0};

/// std::round's code, clamped to [0, 255], without the libm call per value:
/// rounds half away from zero (for a clamped, non-negative value, up).
/// Exact on the clamped range, where x - trunc(x) is exact; floor(x + 0.5f)
/// is not, since 0.49999997f + 0.5f rounds to 1.0f.
inline uint8_t RoundCode(float x) {
  const float clamped = std::clamp(x, 0.0f, 255.0f);
  const auto whole = static_cast<uint32_t>(clamped);
  const bool up = clamped - static_cast<float>(whole) >= 0.5f;
  return static_cast<uint8_t>(whole + (up ? 1 : 0));
}

}  // namespace

uint64_t QuantizedPackCount() {
  return g_quantized_packs.load(std::memory_order_relaxed);
}

void QuantizedPdxStore::BuildLayout(const std::vector<size_t>& group_sizes,
                                    size_t block_capacity) {
  BlockLayout layout = SplitIntoBlocks(group_sizes, block_capacity);
  block_counts_ = std::move(layout.block_counts);
  group_block_start_ = std::move(layout.group_block_start);
  block_first_row_.reserve(block_counts_.size());
  size_t position = 0;
  for (const size_t n : block_counts_) {
    block_first_row_.push_back(position);
    position += n;
  }
  assert(position == count_);
}

void QuantizedPdxStore::FitParameters(const VectorSet& vectors) {
  const DimensionStats stats =
      ComputeStats(vectors.data(), vectors.count(), vectors.dim());
  offsets_.resize(dim_);
  scales_.resize(dim_);
  for (size_t d = 0; d < dim_; ++d) {
    offsets_[d] = stats.minimums[d];
    const float range = stats.maximums[d] - stats.minimums[d];
    // Guard degenerate (constant) dimensions against divide-by-zero — see
    // kMinScale for why the floor must be this large.
    scales_[d] = std::max(range / 255.0f, kMinScale);
  }
}

void QuantizedPdxStore::EncodeRows(const VectorSet& vectors) {
  codes_.resize(count_ * dim_);
  codes_data_ = codes_.data();
  // One pool item per block: blocks own disjoint code ranges.
  ParallelFor(block_counts_.size(), [&](size_t b) {
    const size_t n = block_counts_[b];
    uint8_t* block = codes_.data() + block_first_row_[b] * dim_;
    for (size_t i = 0; i < n; ++i) {
      const size_t position = block_first_row_[b] + i;
      const VectorId row =
          ids_.empty() ? static_cast<VectorId>(position) : ids_[position];
      const float* v = vectors.Vector(row);
      for (size_t d = 0; d < dim_; ++d) {
        block[d * n + i] = RoundCode((v[d] - offsets_[d]) / scales_[d]);
      }
    }
  });
  g_quantized_packs.fetch_add(1, std::memory_order_relaxed);
}

QuantizedPdxStore QuantizedPdxStore::FromVectorSet(const VectorSet& vectors,
                                                   size_t block_capacity) {
  QuantizedPdxStore store;
  store.dim_ = vectors.dim();
  store.count_ = vectors.count();
  store.FitParameters(vectors);
  store.BuildLayout({vectors.count()}, block_capacity);
  store.EncodeRows(vectors);
  return store;
}

QuantizedPdxStore QuantizedPdxStore::FromGroups(
    const VectorSet& vectors, const std::vector<std::vector<VectorId>>& groups,
    size_t block_capacity) {
  QuantizedPdxStore store;
  store.dim_ = vectors.dim();
  store.count_ = vectors.count();
  store.FitParameters(vectors);
  std::vector<size_t> sizes;
  sizes.reserve(groups.size());
  store.ids_.reserve(vectors.count());
  for (const std::vector<VectorId>& group : groups) {
    sizes.push_back(group.size());
    store.ids_.insert(store.ids_.end(), group.begin(), group.end());
  }
  assert(store.ids_.size() == store.count_);
  store.BuildLayout(sizes, block_capacity);
  store.EncodeRows(vectors);
  return store;
}

QuantizedPdxStore QuantizedPdxStore::FromView(
    size_t dim, std::vector<float> offsets, std::vector<float> scales,
    const std::vector<size_t>& group_sizes, std::vector<VectorId> ids,
    size_t block_capacity, const uint8_t* codes) {
  QuantizedPdxStore store;
  store.dim_ = dim;
  store.count_ =
      std::accumulate(group_sizes.begin(), group_sizes.end(), size_t{0});
  store.offsets_ = std::move(offsets);
  store.scales_ = std::move(scales);
  store.ids_ = std::move(ids);
  store.BuildLayout(group_sizes, block_capacity);
  store.codes_data_ = codes;
  return store;
}

void QuantizedPdxStore::Dequantize(VectorId position, float* out) const {
  assert(position < count_);
  // Locate the block: block_first_row_ is sorted, so the containing block
  // is the last entry <= position (upper_bound - 1) — O(log blocks), where
  // the old linear walk made the rerank/fallback path O(blocks) per row.
  const auto it = std::upper_bound(block_first_row_.begin(),
                                   block_first_row_.end(), size_t{position});
  const size_t b = static_cast<size_t>(it - block_first_row_.begin()) - 1;
  const size_t lane = position - block_first_row_[b];
  const uint8_t* block = BlockData(b);
  const size_t n = block_counts_[b];
  for (size_t d = 0; d < dim_; ++d) {
    out[d] = offsets_[d] + scales_[d] * float(block[d * n + lane]);
  }
}

void QuantizedPdxStore::TransformQuery(const float* query, float* out_prime,
                                       float* out_weight) const {
  for (size_t d = 0; d < dim_; ++d) {
    out_prime[d] = (query[d] - offsets_[d]) / scales_[d];
    out_weight[d] = scales_[d] * scales_[d];
  }
}

double QuantizedPdxStore::MaxDistanceError(const float* query) const {
  // |d2(q,v) - d2(q,v~)| <= sum_d (2|q_d - v_d| + e_d) e_d with per-dim
  // rounding radius e_d = scale_d/2; bound |q_d - v_d| by the dimension
  // range (codes span [min,max]).
  double bound = 0.0;
  for (size_t d = 0; d < dim_; ++d) {
    const double radius = scales_[d] * 0.5;
    const double range = scales_[d] * 255.0;
    const double reach =
        std::max(std::fabs(double(query[d]) - offsets_[d]),
                 std::fabs(double(query[d]) - (offsets_[d] + range)));
    bound += (2.0 * reach + radius) * radius;
  }
  return bound;
}

}  // namespace pdx
