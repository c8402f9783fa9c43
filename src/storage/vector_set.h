#ifndef PDX_STORAGE_VECTOR_SET_H_
#define PDX_STORAGE_VECTOR_SET_H_

#include <cstddef>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/types.h"

namespace pdx {

/// A collection of float32 vectors in the traditional horizontal
/// ("N-ary", vector-by-vector) layout: vector i occupies the contiguous
/// range data()[i*dim .. (i+1)*dim).
///
/// This is the layout of .fvecs files and of every mainstream vector
/// system's raw storage; it serves both as the ingestion format and as the
/// baseline layout that PDX is compared against.
class VectorSet {
 public:
  VectorSet() = default;
  /// Creates an empty collection of `dim`-dimensional vectors with space
  /// reserved for `capacity` vectors.
  explicit VectorSet(size_t dim, size_t capacity = 0);

  VectorSet(VectorSet&&) = default;
  VectorSet& operator=(VectorSet&&) = default;
  VectorSet(const VectorSet&) = delete;
  VectorSet& operator=(const VectorSet&) = delete;

  /// Deep copy (explicit, since vectors collections can be large), copied
  /// in pieces on the shared pool.
  VectorSet Clone() const;

  /// Builds a collection by copying `count` row-major vectors.
  static VectorSet FromRowMajor(const float* data, size_t count, size_t dim);

  size_t dim() const { return dim_; }
  size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Pointer to vector `id` (horizontal layout).
  const float* Vector(VectorId id) const { return data_.data() + id * dim_; }
  float* MutableVector(VectorId id) { return data_.data() + id * dim_; }

  const float* data() const { return data_.data(); }
  float* data() { return data_.data(); }

  /// Appends one vector (copy of `values[0..dim)`); returns its id.
  VectorId Append(const float* values);

  /// Appends `count` row-major vectors.
  void AppendBatch(const float* values, size_t count);

  /// Overwrites vector `id` in place. PDX/N-ary stores built from this set
  /// are snapshots; they do not observe later updates.
  void Update(VectorId id, const float* values);

  /// Builds a new collection containing the listed rows in order.
  VectorSet Select(const std::vector<VectorId>& ids) const;

  /// Per-dimension arithmetic means over the whole collection.
  std::vector<float> DimensionMeans() const;

 private:
  void EnsureCapacity(size_t vectors);

  size_t dim_ = 0;
  size_t count_ = 0;
  size_t capacity_ = 0;
  AlignedBuffer data_;
};

}  // namespace pdx

#endif  // PDX_STORAGE_VECTOR_SET_H_
