#ifndef PDX_INDEX_TOPK_H_
#define PDX_INDEX_TOPK_H_

#include <cstddef>
#include <limits>
#include <vector>

#include "common/types.h"

namespace pdx {

/// One search hit: the ordering key (squared L2 / negated IP / L1) and the
/// global id of the vector.
struct Neighbor {
  VectorId id = kInvalidVectorId;
  float distance = std::numeric_limits<float>::infinity();

  friend bool operator==(const Neighbor&, const Neighbor&) = default;
};

/// Bounded max-heap that keeps the k smallest candidates seen so far — the
/// "KNN candidate list" every VSS search maintains. Candidates are ordered
/// by (distance, id), so among candidates tied at exactly the k-th distance
/// the heap keeps the lowest ids, whatever order they arrive in: any two
/// heaps offered the same candidates hold the same k, and merging heaps
/// over disjoint candidate sets yields the heap over their union.
///
/// threshold() exposes the current k-th best distance, which is exactly the
/// pruning threshold ADSampling/BSA/PDX-BOND test partial distances
/// against. Until the heap holds k entries the threshold is +inf (nothing
/// can be pruned), which is why PDXearch's START phase linear-scans the
/// first block.
class TopK {
 public:
  /// Creates a collector for the k nearest neighbors (k >= 1).
  explicit TopK(size_t k);

  size_t k() const { return k_; }
  size_t size() const { return heap_.size(); }
  bool full() const { return heap_.size() == k_; }

  /// Current pruning threshold: the k-th best distance, or +inf while the
  /// collector is not yet full.
  float threshold() const {
    return full() ? heap_.front().distance
                  : std::numeric_limits<float>::infinity();
  }

  /// True when a vector at `distance` would enter the current top-k.
  bool WouldAccept(float distance) const { return distance < threshold(); }

  /// Offers one candidate; keeps it only if it is among the k best by
  /// (distance, id).
  void Push(VectorId id, float distance);

  /// Offers every candidate `other` holds.
  void Merge(const TopK& other) {
    for (const Neighbor& n : other.heap_) Push(n.id, n.distance);
  }

  /// Heap contents sorted by (distance, id). Does not consume the
  /// collector.
  std::vector<Neighbor> SortedResults() const;

  /// Removes all entries, keeping k.
  void Clear() { heap_.clear(); }

  /// Removes all entries and collects the k nearest from now on (k >= 1).
  /// Allocates only when k exceeds every k the collector held before.
  void Reset(size_t k);

 private:
  void SiftUp(size_t pos);
  void SiftDown(size_t pos);

  size_t k_;
  std::vector<Neighbor> heap_;  // Max-heap on (distance, id).
};

}  // namespace pdx

#endif  // PDX_INDEX_TOPK_H_
