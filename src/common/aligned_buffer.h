#ifndef PDX_COMMON_ALIGNED_BUFFER_H_
#define PDX_COMMON_ALIGNED_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/types.h"

namespace pdx {

/// Owning, move-only float buffer aligned to kPdxAlignment (64 bytes).
///
/// Vector data is kept 64-byte aligned so that both AVX-512 loads and full
/// cache-line prefetches operate on natural boundaries. The buffer value-
/// initializes its contents (all zeros) — PDX blocks rely on zero padding in
/// the tail lanes of a partially filled block — unless made by
/// Uninitialized, for callers that write every float next. A buffer of
/// 16 MiB or more is zeroed in pieces on the shared pool (ParallelFor).
class AlignedBuffer {
 public:
  AlignedBuffer() = default;
  /// Allocates `count` zero-initialized floats.
  explicit AlignedBuffer(size_t count);

  /// Allocates `count` floats the caller writes in full before reading any:
  /// their contents are unspecified. Only the allocation's round-up past
  /// `count` (to a multiple of 64 bytes) is zeroed.
  static AlignedBuffer Uninitialized(size_t count);
  ~AlignedBuffer();

  AlignedBuffer(AlignedBuffer&& other) noexcept;
  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept;
  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  /// Copies the contents into a new, independently owned buffer.
  AlignedBuffer Clone() const;

  float* data() { return data_; }
  const float* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  float& operator[](size_t i) { return data_[i]; }
  const float& operator[](size_t i) const { return data_[i]; }

  float* begin() { return data_; }
  float* end() { return data_ + size_; }
  const float* begin() const { return data_; }
  const float* end() const { return data_ + size_; }

  /// Discards contents and reallocates to `count` zeroed floats.
  void Reset(size_t count);

 private:
  void Free();

  float* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace pdx

#endif  // PDX_COMMON_ALIGNED_BUFFER_H_
