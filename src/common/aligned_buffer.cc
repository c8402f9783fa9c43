#include "common/aligned_buffer.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>

#include "common/parallel.h"

namespace pdx {

namespace {

// Fills below this size run inline; larger ones run in kFillChunkBytes
// pieces on the shared pool. Zeroing a fresh allocation is mostly
// first-touch page faults, and those proceed in parallel.
constexpr size_t kFillChunkBytes = size_t{1} << 20;
constexpr size_t kPooledFillBytes = 16 * kFillChunkBytes;

void ZeroFill(void* ptr, size_t bytes) {
  if (bytes < kPooledFillBytes) {
    std::memset(ptr, 0, bytes);
    return;
  }
  char* base = static_cast<char*>(ptr);
  ParallelFor((bytes + kFillChunkBytes - 1) / kFillChunkBytes, [&](size_t c) {
    const size_t offset = c * kFillChunkBytes;
    std::memset(base + offset, 0, std::min(kFillChunkBytes, bytes - offset));
  });
}

// `zero` = false leaves the first `count` floats unwritten.
float* AllocateAligned(size_t count, bool zero) {
  if (count == 0) return nullptr;
  // Round the byte size up to a multiple of the alignment: required by
  // std::aligned_alloc and convenient for whole-register tail loads.
  const size_t used = count * sizeof(float);
  const size_t bytes =
      (used + kPdxAlignment - 1) / kPdxAlignment * kPdxAlignment;
  void* ptr = std::aligned_alloc(kPdxAlignment, bytes);
  if (ptr == nullptr) throw std::bad_alloc();
  if (zero) {
    ZeroFill(ptr, bytes);
  } else {
    std::memset(static_cast<char*>(ptr) + used, 0, bytes - used);
  }
  return static_cast<float*>(ptr);
}

}  // namespace

AlignedBuffer::AlignedBuffer(size_t count)
    : data_(AllocateAligned(count, true)), size_(count) {}

AlignedBuffer AlignedBuffer::Uninitialized(size_t count) {
  AlignedBuffer buffer;
  buffer.data_ = AllocateAligned(count, false);
  buffer.size_ = count;
  return buffer;
}

AlignedBuffer::~AlignedBuffer() { Free(); }

AlignedBuffer::AlignedBuffer(AlignedBuffer&& other) noexcept
    : data_(other.data_), size_(other.size_) {
  other.data_ = nullptr;
  other.size_ = 0;
}

AlignedBuffer& AlignedBuffer::operator=(AlignedBuffer&& other) noexcept {
  if (this != &other) {
    Free();
    data_ = other.data_;
    size_ = other.size_;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

AlignedBuffer AlignedBuffer::Clone() const {
  AlignedBuffer copy = Uninitialized(size_);
  if (size_ > 0) std::memcpy(copy.data_, data_, size_ * sizeof(float));
  return copy;
}

void AlignedBuffer::Reset(size_t count) {
  Free();
  data_ = AllocateAligned(count, true);
  size_ = count;
}

void AlignedBuffer::Free() {
  std::free(data_);
  data_ = nullptr;
  size_ = 0;
}

}  // namespace pdx
