#include "storage/pdx_store.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <numeric>

#include "common/parallel.h"

namespace pdx {

namespace {

// Lanes per FromGroups packing task. Dimension by dimension, a tile reads
// one value of each of its rows: the 256 cache lines in use (16 KB) stay
// in L1 across the 16 dimensions each line holds.
constexpr size_t kPackTileLanes = 256;

// Blocks start on 16-float (64-byte) boundaries within the arena.
size_t AlignedBlockFloats(size_t dim, size_t n) {
  const size_t floats = dim * n;
  return (floats + 15) / 16 * 16;
}

std::vector<size_t> GroupSizes(
    const std::vector<std::vector<VectorId>>& groups) {
  std::vector<size_t> sizes;
  sizes.reserve(groups.size());
  for (const std::vector<VectorId>& group : groups) {
    sizes.push_back(group.size());
  }
  return sizes;
}

std::atomic<uint64_t> g_pack_count{0};

}  // namespace

uint64_t PdxStorePackCount() {
  return g_pack_count.load(std::memory_order_relaxed);
}

BlockLayout SplitIntoBlocks(const std::vector<size_t>& group_sizes,
                            size_t block_capacity) {
  assert(block_capacity > 0);
  BlockLayout layout;
  layout.group_block_start.reserve(group_sizes.size() + 1);
  layout.group_block_start.push_back(0);
  for (const size_t size : group_sizes) {
    size_t remaining = size;
    while (remaining > 0) {
      const size_t n = std::min(block_capacity, remaining);
      layout.block_counts.push_back(n);
      remaining -= n;
    }
    layout.group_block_start.push_back(layout.block_counts.size());
  }
  return layout;
}

size_t PdxStore::ArenaFloats(size_t dim,
                             const std::vector<std::vector<VectorId>>& groups,
                             size_t block_capacity) {
  size_t total = 0;
  for (const size_t n :
       SplitIntoBlocks(GroupSizes(groups), block_capacity).block_counts) {
    total += AlignedBlockFloats(dim, n);
  }
  return total;
}

PdxStore PdxStore::Lay(size_t dim,
                       const std::vector<std::vector<VectorId>>& groups,
                       size_t block_capacity, float* arena) {
  BlockLayout layout = SplitIntoBlocks(GroupSizes(groups), block_capacity);
  PdxStore store;
  store.dim_ = dim;
  store.blocks_.reserve(layout.block_counts.size());
  size_t arena_offset = 0;
  for (size_t g = 0; g < groups.size(); ++g) {
    auto lane = groups[g].begin();
    for (size_t b = layout.group_block_start[g];
         b < layout.group_block_start[g + 1]; ++b) {
      const size_t n = layout.block_counts[b];
      PdxBlock block(dim, n, arena + arena_offset);
      block.AssignIds(std::vector<VectorId>(lane, lane + n));
      store.blocks_.push_back(std::move(block));
      arena_offset += AlignedBlockFloats(dim, n);
      lane += n;
    }
    store.count_ += groups[g].size();
  }
  store.group_block_start_ = std::move(layout.group_block_start);
  return store;
}

PdxStore PdxStore::FromVectorSet(const VectorSet& vectors,
                                 size_t block_capacity) {
  std::vector<VectorId> all(vectors.count());
  std::iota(all.begin(), all.end(), 0);
  return FromGroups(vectors, {all}, block_capacity);
}

PdxStore PdxStore::FromGroups(const VectorSet& vectors,
                              const std::vector<std::vector<VectorId>>& groups,
                              size_t block_capacity) {
  g_pack_count.fetch_add(1, std::memory_order_relaxed);
  const size_t dim = vectors.dim();
  // Every lane value is written below, so the arena skips the zero-fill;
  // only each block's tail padding (fewer than 16 floats) is zeroed here,
  // which keeps saved files byte-identical.
  AlignedBuffer arena =
      AlignedBuffer::Uninitialized(ArenaFloats(dim, groups, block_capacity));
  PdxStore store = Lay(dim, groups, block_capacity, arena.data());
  store.arena_ = std::move(arena);
  for (PdxBlock& block : store.blocks_) {
    const size_t n = block.count();
    float* data = block.MutableDimension(0);
    std::fill(data + dim * n, data + AlignedBlockFloats(dim, n), 0.0f);
  }
  // Lay installed the lane ids; the pool writes the values, one tile per
  // item. A tile is up to kPackTileLanes lanes of one block across every
  // dimension, so each dimension receives one contiguous run per tile
  // instead of single values a block's lane count apart.
  struct Tile {
    PdxBlock* block;
    size_t first_lane;
  };
  std::vector<Tile> tiles;
  for (PdxBlock& block : store.blocks_) {
    for (size_t first = 0; first < block.count(); first += kPackTileLanes) {
      tiles.push_back({&block, first});
    }
  }
  ParallelFor(tiles.size(), [&](size_t t) {
    PdxBlock& block = *tiles[t].block;
    const size_t first = tiles[t].first_lane;
    const size_t lanes = std::min(kPackTileLanes, block.count() - first);
    const float* rows[kPackTileLanes];
    for (size_t i = 0; i < lanes; ++i) {
      rows[i] = vectors.Vector(block.id(first + i));
    }
    for (size_t d = 0; d < dim; ++d) {
      float* run = block.MutableDimension(d) + first;
      for (size_t i = 0; i < lanes; ++i) run[i] = rows[i][d];
    }
  });
  return store;
}

PdxStore PdxStore::FromView(size_t dim,
                            const std::vector<std::vector<VectorId>>& groups,
                            size_t block_capacity, const float* arena) {
  // arena_ stays empty: the blocks view the caller's region at the exact
  // offsets FromGroups lays out, so arena_data()/arena_floats() and every
  // scan path behave identically to an owned store.
  return Lay(dim, groups, block_capacity, const_cast<float*>(arena));
}

size_t PdxStore::arena_floats() const {
  size_t total = 0;
  for (const PdxBlock& block : blocks_) {
    total += AlignedBlockFloats(dim_, block.count());
  }
  return total;
}

VectorSet PdxStore::ToVectorSet() const {
  // Rebuild rows in global-id order so the result is comparable to the
  // original collection (blocks may hold vectors in bucket order).
  VectorSet out(dim_, count_);
  std::vector<float> row(dim_ * count_, 0.0f);
  for (const PdxBlock& block : blocks_) {
    std::vector<float> lane(dim_);
    for (size_t i = 0; i < block.count(); ++i) {
      block.ExtractLane(i, lane.data());
      const VectorId id = block.id(i);
      assert(id < count_);
      std::copy(lane.begin(), lane.end(), row.begin() + size_t(id) * dim_);
    }
  }
  out.AppendBatch(row.data(), count_);
  return out;
}

}  // namespace pdx
