#include "storage/vector_set.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/parallel.h"

namespace pdx {

VectorSet::VectorSet(size_t dim, size_t capacity)
    : dim_(dim), count_(0), capacity_(capacity), data_(dim * capacity) {}

VectorSet VectorSet::Clone() const {
  VectorSet copy(dim_, count_);
  copy.count_ = count_;
  if (count_ == 0 || dim_ == 0) return copy;
  // Pieces of about 1 MiB on the shared pool: copying a large collection
  // is memory traffic that several threads move faster than one.
  const size_t piece_rows =
      std::max<size_t>(1, (size_t{1} << 20) / (dim_ * sizeof(float)));
  ParallelFor((count_ + piece_rows - 1) / piece_rows, [&](size_t p) {
    const size_t first = p * piece_rows;
    const size_t rows = std::min(piece_rows, count_ - first);
    std::memcpy(copy.data_.data() + first * dim_,
                data_.data() + first * dim_, rows * dim_ * sizeof(float));
  });
  return copy;
}

VectorSet VectorSet::FromRowMajor(const float* data, size_t count,
                                  size_t dim) {
  VectorSet set(dim, count);
  set.AppendBatch(data, count);
  return set;
}

VectorId VectorSet::Append(const float* values) {
  EnsureCapacity(count_ + 1);
  std::memcpy(data_.data() + count_ * dim_, values, dim_ * sizeof(float));
  return static_cast<VectorId>(count_++);
}

void VectorSet::AppendBatch(const float* values, size_t count) {
  if (count == 0) return;
  EnsureCapacity(count_ + count);
  std::memcpy(data_.data() + count_ * dim_, values,
              count * dim_ * sizeof(float));
  count_ += count;
}

void VectorSet::Update(VectorId id, const float* values) {
  assert(id < count_);
  std::memcpy(data_.data() + id * dim_, values, dim_ * sizeof(float));
}

VectorSet VectorSet::Select(const std::vector<VectorId>& ids) const {
  VectorSet out(dim_, ids.size());
  for (VectorId id : ids) {
    assert(id < count_);
    out.Append(Vector(id));
  }
  return out;
}

std::vector<float> VectorSet::DimensionMeans() const {
  std::vector<double> acc(dim_, 0.0);
  for (size_t i = 0; i < count_; ++i) {
    const float* row = Vector(static_cast<VectorId>(i));
    for (size_t d = 0; d < dim_; ++d) acc[d] += row[d];
  }
  std::vector<float> means(dim_, 0.0f);
  if (count_ > 0) {
    for (size_t d = 0; d < dim_; ++d) {
      means[d] = static_cast<float>(acc[d] / static_cast<double>(count_));
    }
  }
  return means;
}

void VectorSet::EnsureCapacity(size_t vectors) {
  if (vectors <= capacity_) return;
  size_t new_capacity = std::max<size_t>(capacity_ * 2, 16);
  new_capacity = std::max(new_capacity, vectors);
  AlignedBuffer grown(new_capacity * dim_);
  if (count_ > 0) {
    std::memcpy(grown.data(), data_.data(), count_ * dim_ * sizeof(float));
  }
  data_ = std::move(grown);
  capacity_ = new_capacity;
}

}  // namespace pdx
