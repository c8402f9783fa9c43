#include "common/aligned_buffer.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "common/types.h"

namespace pdx {
namespace {

TEST(AlignedBufferTest, DefaultEmpty) {
  AlignedBuffer buffer;
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(buffer.data(), nullptr);
}

TEST(AlignedBufferTest, AllocatesRequestedCount) {
  AlignedBuffer buffer(100);
  EXPECT_EQ(buffer.size(), 100u);
  ASSERT_NE(buffer.data(), nullptr);
}

TEST(AlignedBufferTest, AlignmentIs64Bytes) {
  for (size_t count : {1u, 7u, 64u, 1000u}) {
    AlignedBuffer buffer(count);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(buffer.data()) % kPdxAlignment, 0u)
        << "count=" << count;
  }
}

TEST(AlignedBufferTest, ZeroInitialized) {
  AlignedBuffer buffer(513);
  for (size_t i = 0; i < buffer.size(); ++i) {
    ASSERT_EQ(buffer[i], 0.0f) << "index " << i;
  }
}

TEST(AlignedBufferTest, MoveTransfersOwnership) {
  AlignedBuffer a(16);
  a[3] = 42.0f;
  float* raw = a.data();
  AlignedBuffer b = std::move(a);
  EXPECT_EQ(b.data(), raw);
  EXPECT_EQ(b[3], 42.0f);
  EXPECT_EQ(a.data(), nullptr);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.size(), 0u);
}

TEST(AlignedBufferTest, MoveAssignReleasesOld) {
  AlignedBuffer a(8);
  AlignedBuffer b(4);
  b = std::move(a);
  EXPECT_EQ(b.size(), 8u);
}

TEST(AlignedBufferTest, CloneIsIndependent) {
  AlignedBuffer a(10);
  a[0] = 1.0f;
  AlignedBuffer b = a.Clone();
  EXPECT_EQ(b[0], 1.0f);
  b[0] = 2.0f;
  EXPECT_EQ(a[0], 1.0f);
}

TEST(AlignedBufferTest, UninitializedZeroesOnlyTheRoundUp) {
  // The caller writes the 7 floats; the 9 the allocation rounds up to a
  // 64-byte multiple are zeroed, so whole-register tail loads read zeros.
  AlignedBuffer buffer = AlignedBuffer::Uninitialized(7);
  EXPECT_EQ(buffer.size(), 7u);
  ASSERT_EQ(reinterpret_cast<uintptr_t>(buffer.data()) % kPdxAlignment, 0u);
  for (size_t i = 7; i < 16; ++i) ASSERT_EQ(buffer.data()[i], 0.0f) << i;
  EXPECT_TRUE(AlignedBuffer::Uninitialized(0).empty());
}

TEST(AlignedBufferTest, ResetReallocatesZeroed) {
  AlignedBuffer buffer(4);
  buffer[0] = 5.0f;
  buffer.Reset(32);
  EXPECT_EQ(buffer.size(), 32u);
  for (float v : buffer) ASSERT_EQ(v, 0.0f);
}

TEST(AlignedBufferTest, IterationCoversAll) {
  AlignedBuffer buffer(5);
  for (size_t i = 0; i < 5; ++i) buffer[i] = float(i);
  float sum = 0.0f;
  for (float v : buffer) sum += v;
  EXPECT_EQ(sum, 10.0f);
}

}  // namespace
}  // namespace pdx
