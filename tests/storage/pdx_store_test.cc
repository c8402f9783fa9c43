#include "storage/pdx_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numeric>
#include <set>
#include <vector>

#include "common/random.h"
#include "storage/vector_set.h"

namespace pdx {
namespace {

VectorSet RandomVectors(size_t count, size_t dim, uint64_t seed) {
  Rng rng(seed);
  VectorSet set(dim, count);
  std::vector<float> row(dim);
  for (size_t i = 0; i < count; ++i) {
    for (float& v : row) v = static_cast<float>(rng.Gaussian());
    set.Append(row.data());
  }
  return set;
}

class PdxStoreRoundTripTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {};

TEST_P(PdxStoreRoundTripTest, TransposeRoundTrip) {
  const auto [count, dim, block_capacity] = GetParam();
  VectorSet original = RandomVectors(count, dim, count * 31 + dim);
  PdxStore store = PdxStore::FromVectorSet(original, block_capacity);
  EXPECT_EQ(store.count(), count);
  EXPECT_EQ(store.dim(), dim);

  VectorSet restored = store.ToVectorSet();
  ASSERT_EQ(restored.count(), count);
  for (size_t i = 0; i < count; ++i) {
    for (size_t d = 0; d < dim; ++d) {
      ASSERT_EQ(restored.Vector(i)[d], original.Vector(i)[d])
          << "vector " << i << " dim " << d;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PdxStoreRoundTripTest,
    ::testing::Values(std::make_tuple(1, 4, 64), std::make_tuple(64, 8, 64),
                      std::make_tuple(65, 8, 64), std::make_tuple(100, 3, 16),
                      std::make_tuple(130, 5, 64),
                      std::make_tuple(1000, 12, 256),
                      std::make_tuple(63, 7, 64)));

TEST(PdxStoreTest, BlockCountAndSizes) {
  VectorSet vectors = RandomVectors(130, 4, 1);
  PdxStore store = PdxStore::FromVectorSet(vectors, 64);
  ASSERT_EQ(store.num_blocks(), 3u);
  EXPECT_EQ(store.block(0).count(), 64u);
  EXPECT_EQ(store.block(1).count(), 64u);
  EXPECT_EQ(store.block(2).count(), 2u);
}

TEST(PdxStoreTest, DimensionMajorWithinBlock) {
  VectorSet vectors(2);
  const float r0[2] = {1.0f, 2.0f};
  const float r1[2] = {3.0f, 4.0f};
  vectors.Append(r0);
  vectors.Append(r1);
  PdxStore store = PdxStore::FromVectorSet(vectors, 64);
  const PdxBlock& block = store.block(0);
  // Dimension 0 of both vectors adjacent, then dimension 1.
  EXPECT_FLOAT_EQ(block.Dimension(0)[0], 1.0f);
  EXPECT_FLOAT_EQ(block.Dimension(0)[1], 3.0f);
  EXPECT_FLOAT_EQ(block.Dimension(1)[0], 2.0f);
  EXPECT_FLOAT_EQ(block.Dimension(1)[1], 4.0f);
}

TEST(PdxStoreTest, GroupsMapToBlocks) {
  VectorSet vectors = RandomVectors(200, 6, 2);
  std::vector<std::vector<VectorId>> groups(3);
  for (VectorId id = 0; id < 200; ++id) groups[id % 3].push_back(id);
  PdxStore store = PdxStore::FromGroups(vectors, groups, 32);
  ASSERT_EQ(store.num_groups(), 3u);

  // Every group's blocks hold exactly the group's ids.
  for (size_t g = 0; g < 3; ++g) {
    const auto [first, last] = store.GroupBlockRange(g);
    std::set<VectorId> found;
    for (size_t b = first; b < last; ++b) {
      for (VectorId id : store.block(b).ids()) found.insert(id);
    }
    std::set<VectorId> expected(groups[g].begin(), groups[g].end());
    EXPECT_EQ(found, expected) << "group " << g;
  }
}

TEST(PdxStoreTest, GroupsWithEmptyGroup) {
  VectorSet vectors = RandomVectors(10, 3, 3);
  std::vector<std::vector<VectorId>> groups(3);
  for (VectorId id = 0; id < 10; ++id) groups[2].push_back(id);
  PdxStore store = PdxStore::FromGroups(vectors, groups, 4);
  const auto [f0, l0] = store.GroupBlockRange(0);
  EXPECT_EQ(f0, l0);  // Empty group -> empty block range.
  const auto [f2, l2] = store.GroupBlockRange(2);
  EXPECT_EQ(l2 - f2, 3u);  // ceil(10/4).
}

TEST(PdxStoreTest, ViewOverPackedArenaIsTheSameStore) {
  // The loader derives a store's layout from its group sizes and capacity
  // instead of reading it: SplitIntoBlocks must be the split FromGroups
  // packed, and a view over the packed arena must reproduce every block,
  // lane id and value.
  VectorSet vectors = RandomVectors(150, 5, 5);
  std::vector<std::vector<VectorId>> groups(4);
  for (VectorId id = 0; id < 150; ++id) groups[(id * 7) % 3].push_back(id);
  const PdxStore packed = PdxStore::FromGroups(vectors, groups, 16);

  const BlockLayout layout = SplitIntoBlocks({50, 50, 50, 0}, 16);
  ASSERT_EQ(layout.block_counts.size(), packed.num_blocks());
  for (size_t b = 0; b < packed.num_blocks(); ++b) {
    EXPECT_EQ(layout.block_counts[b], packed.block(b).count()) << b;
  }
  for (size_t g = 0; g < groups.size(); ++g) {
    EXPECT_EQ(layout.group_block_start[g], packed.GroupBlockRange(g).first);
    EXPECT_EQ(layout.group_block_start[g + 1],
              packed.GroupBlockRange(g).second);
  }
  EXPECT_EQ(PdxStore::ArenaFloats(5, groups, 16), packed.arena_floats());

  const PdxStore view =
      PdxStore::FromView(5, groups, 16, packed.arena_data());
  EXPECT_EQ(view.arena_data(), packed.arena_data());
  EXPECT_EQ(view.count(), packed.count());
  EXPECT_EQ(view.num_groups(), packed.num_groups());
  ASSERT_EQ(view.num_blocks(), packed.num_blocks());
  for (size_t b = 0; b < view.num_blocks(); ++b) {
    EXPECT_EQ(view.block(b).data(), packed.block(b).data()) << b;
    EXPECT_EQ(view.block(b).ids(), packed.block(b).ids()) << b;
  }
}

// The arena and lane ids of a one-vector-at-a-time pack: blocks laid out
// group by group, every block starting on a 16-float boundary, each vector
// transposed into its lane by FillLane.
struct LaneByLanePack {
  std::vector<float> arena;
  std::vector<std::vector<VectorId>> ids;  ///< Per block.
};

LaneByLanePack PackLaneByLane(const VectorSet& vectors,
                              const std::vector<std::vector<VectorId>>& groups,
                              size_t capacity) {
  const size_t dim = vectors.dim();
  LaneByLanePack pack;
  pack.arena.assign(PdxStore::ArenaFloats(dim, groups, capacity), 0.0f);
  size_t offset = 0;
  for (const std::vector<VectorId>& group : groups) {
    for (size_t first = 0; first < group.size(); first += capacity) {
      const size_t n = std::min(capacity, group.size() - first);
      PdxBlock block(dim, n, pack.arena.data() + offset);
      for (size_t i = 0; i < n; ++i) {
        block.FillLane(i, vectors.Vector(group[first + i]), group[first + i]);
      }
      pack.ids.push_back(block.ids());
      offset += (dim * n + 15) / 16 * 16;
    }
  }
  EXPECT_EQ(offset, pack.arena.size());
  return pack;
}

/// Fills and frees heap blocks the size of a `floats` arena, so that a pack
/// which left an arena float unwritten would likely read this NaN garbage
/// rather than the zeros of a fresh page. The first block of a size above
/// the allocator's mmap threshold raises that threshold when freed; the
/// next ones then come from, and return to, the heap the arena is cut from.
void DirtyTheHeap(size_t floats) {
  const size_t bytes = (floats * sizeof(float) + 63) / 64 * 64;
  for (int round = 0; round < 3; ++round) {
    float* block = static_cast<float*>(std::aligned_alloc(64, bytes));
    ASSERT_NE(block, nullptr);
    std::fill(block, block + floats, std::numeric_limits<float>::quiet_NaN());
    std::free(block);
  }
}

void ExpectPackedLaneByLane(const VectorSet& vectors,
                            const std::vector<std::vector<VectorId>>& groups,
                            size_t capacity) {
  const uint64_t packs = PdxStorePackCount();
  DirtyTheHeap(PdxStore::ArenaFloats(vectors.dim(), groups, capacity));
  const PdxStore store = PdxStore::FromGroups(vectors, groups, capacity);
  EXPECT_EQ(PdxStorePackCount(), packs + 1);
  const LaneByLanePack expected = PackLaneByLane(vectors, groups, capacity);
  ASSERT_EQ(store.arena_floats(), expected.arena.size());
  EXPECT_EQ(std::memcmp(store.arena_data(), expected.arena.data(),
                        expected.arena.size() * sizeof(float)),
            0);
  // The arena is allocated without a fill, so the pack itself zeroes the
  // padding after each block's last dimension (the memcmp covers it too).
  size_t padding = 0;
  for (size_t b = 0; b < store.num_blocks(); ++b) {
    const PdxBlock& block = store.block(b);
    const float* end = block.data() + block.dim() * block.count();
    for (size_t f = 0; (block.dim() * block.count() + f) % 16 != 0; ++f) {
      EXPECT_EQ(end[f], 0.0f) << "block " << b << " padding float " << f;
      ++padding;
    }
  }
  EXPECT_GT(padding, 0u);
  ASSERT_EQ(store.num_blocks(), expected.ids.size());
  for (size_t b = 0; b < store.num_blocks(); ++b) {
    EXPECT_EQ(store.block(b).ids(), expected.ids[b]) << "block " << b;
  }
}

TEST(PdxStoreTest, PackedArenaEqualsLaneByLanePack) {
  // 37 dimensions (not a multiple of 16, so every block ends in padding)
  // and 300-lane blocks (a packing tile and a partial one each).
  const VectorSet vectors = RandomVectors(1300, 37, 11);
  std::vector<VectorId> all(1300);
  std::iota(all.begin(), all.end(), 0);
  ExpectPackedLaneByLane(vectors, {all}, 300);
  ExpectPackedLaneByLane(vectors, {all}, 1000);

  // IVF-style groups, shuffled members and an empty group, at both the
  // large capacity and the 64-lane blocks IVF uses.
  Rng rng(12);
  rng.Shuffle(all);
  const std::vector<std::vector<VectorId>> groups = {
      std::vector<VectorId>(all.begin(), all.begin() + 700), {},
      std::vector<VectorId>(all.begin() + 700, all.begin() + 1001),
      std::vector<VectorId>(all.begin() + 1001, all.end())};
  ExpectPackedLaneByLane(vectors, groups, 300);
  ExpectPackedLaneByLane(vectors, groups, 64);
}

TEST(PdxBlockTest, FillAndExtractLane) {
  PdxBlock block(3, 4);
  const float row[3] = {7.0f, 8.0f, 9.0f};
  block.FillLane(2, row, 42);
  EXPECT_EQ(block.id(2), 42u);
  float out[3];
  block.ExtractLane(2, out);
  EXPECT_FLOAT_EQ(out[0], 7.0f);
  EXPECT_FLOAT_EQ(out[1], 8.0f);
  EXPECT_FLOAT_EQ(out[2], 9.0f);
}

TEST(PdxBlockTest, UnfilledLanesAreZero) {
  PdxBlock block(2, 3);
  EXPECT_FLOAT_EQ(block.At(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(block.At(1, 2), 0.0f);
}

}  // namespace
}  // namespace pdx
