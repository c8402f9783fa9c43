#ifndef PDX_STORAGE_PDX_STORE_H_
#define PDX_STORAGE_PDX_STORE_H_

#include <cstddef>
#include <vector>

#include "common/types.h"
#include "storage/pdx_block.h"
#include "storage/vector_set.h"

namespace pdx {

/// How groups of vectors split into blocks: group g becomes
/// ceil(|g| / block_capacity) consecutive blocks, each full but the last.
/// The float store, the u8 store and the collection loader share this one
/// split, so a layout derived from (group sizes, capacity) at load is the
/// layout the build packed.
struct BlockLayout {
  std::vector<size_t> block_counts;       ///< Lanes per block, block order.
  std::vector<size_t> group_block_start;  ///< num_groups + 1 boundaries.
};

/// Splits groups of `group_sizes` vectors into blocks of at most
/// `block_capacity` (> 0) lanes; an empty group gets no block.
BlockLayout SplitIntoBlocks(const std::vector<size_t>& group_sizes,
                            size_t block_capacity);

/// A collection stored in the PDX layout: a sequence of dimension-major
/// blocks in one contiguous arena.
///
/// Blocks either follow the original order (horizontal partitioning, used
/// for exact search) or an explicit grouping (IVF buckets — Figure 2: the
/// bucket structure naturally maps to PDX blocks). Each block keeps the
/// global ids of its vectors so search results refer to the original rows.
class PdxStore {
 public:
  PdxStore() = default;

  PdxStore(PdxStore&&) = default;
  PdxStore& operator=(PdxStore&&) = default;
  PdxStore(const PdxStore&) = delete;
  PdxStore& operator=(const PdxStore&) = delete;

  /// Builds a store by horizontally partitioning `vectors` into blocks of at
  /// most `block_capacity` vectors, in row order.
  static PdxStore FromVectorSet(const VectorSet& vectors,
                                size_t block_capacity = kPdxBlockSize);

  /// Builds a store whose blocks follow an explicit grouping, split by
  /// SplitIntoBlocks. Used to lay IVF buckets out as PDX blocks;
  /// `GroupBlockRange` recovers which blocks belong to which group.
  static PdxStore FromGroups(const VectorSet& vectors,
                             const std::vector<std::vector<VectorId>>& groups,
                             size_t block_capacity = kPdxBlockSize);

  /// Floats in the arena FromGroups packs `groups` of `dim`-d vectors into
  /// with `block_capacity`, counting the padding that starts every block
  /// on a 64-byte boundary.
  static size_t ArenaFloats(size_t dim,
                            const std::vector<std::vector<VectorId>>& groups,
                            size_t block_capacity);

  /// Reconstructs a store as a zero-copy view over an externally owned
  /// arena (a loaded collection image) that holds `groups` exactly as
  /// FromGroups packs them with `block_capacity`: the blocks point into
  /// `arena` at the same offsets, the lane ids are the group members in
  /// order, and no vector data is copied or repacked. The caller must have
  /// checked that `arena` holds ArenaFloats(dim, groups, block_capacity)
  /// floats, keep it alive for the store's lifetime and never mutate it —
  /// PDX blocks are read-only after packing, which is what makes serving
  /// straight from a PROT_READ mapping safe.
  static PdxStore FromView(size_t dim,
                           const std::vector<std::vector<VectorId>>& groups,
                           size_t block_capacity, const float* arena);

  size_t dim() const { return dim_; }
  size_t count() const { return count_; }
  size_t num_blocks() const { return blocks_.size(); }

  const PdxBlock& block(size_t b) const { return blocks_[b]; }

  /// Number of vector groups (1 for FromVectorSet; #buckets for
  /// FromGroups).
  size_t num_groups() const { return group_block_start_.size() - 1; }

  /// Half-open block range [first, last) of group g.
  std::pair<size_t, size_t> GroupBlockRange(size_t g) const {
    return {group_block_start_[g], group_block_start_[g + 1]};
  }

  /// Reconstructs the horizontal layout (transpose back), rows in global-id
  /// order; used by tests to verify the round-trip and by the loader to
  /// recover the IVF centroid rows from their PDX arena.
  VectorSet ToVectorSet() const;

  /// Start of the contiguous arena backing every block (null when empty).
  /// Valid for both owned stores and FromView stores.
  const float* arena_data() const {
    return blocks_.empty() ? nullptr : blocks_.front().data();
  }

  /// Total floats in the arena, including per-block alignment padding.
  size_t arena_floats() const;

 private:
  /// Lays `groups` out over `arena` (ArenaFloats floats): one view block
  /// per SplitIntoBlocks entry, lane ids installed, values untouched.
  static PdxStore Lay(size_t dim,
                      const std::vector<std::vector<VectorId>>& groups,
                      size_t block_capacity, float* arena);

  size_t dim_ = 0;
  size_t count_ = 0;
  /// One contiguous allocation backing every block, in block order: a
  /// block-by-block scan is a single sequential memory stream. Empty for
  /// FromView stores.
  AlignedBuffer arena_;
  std::vector<PdxBlock> blocks_;
  std::vector<size_t> group_block_start_;
};

/// Process-wide count of PdxStore packing runs (FromGroups calls). The
/// persistence tests pin "loading a collection does zero packing work" by
/// snapshotting this counter around CollectionImage loads.
uint64_t PdxStorePackCount();

}  // namespace pdx

#endif  // PDX_STORAGE_PDX_STORE_H_
