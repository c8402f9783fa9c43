#include "index/topk.h"

#include <algorithm>
#include <cassert>

namespace pdx {

namespace {

// The heap's one order: ascending distance, ties broken by ascending id.
bool Before(const Neighbor& a, const Neighbor& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.id < b.id;
}

}  // namespace

TopK::TopK(size_t k) : k_(k) {
  assert(k >= 1);
  heap_.reserve(k);
}

void TopK::Reset(size_t k) {
  assert(k >= 1);
  k_ = k;
  heap_.clear();
  heap_.reserve(k);
}

void TopK::Push(VectorId id, float distance) {
  const Neighbor candidate{id, distance};
  if (heap_.size() < k_) {
    heap_.push_back(candidate);
    SiftUp(heap_.size() - 1);
    return;
  }
  if (!Before(candidate, heap_.front())) return;
  heap_.front() = candidate;
  SiftDown(0);
}

std::vector<Neighbor> TopK::SortedResults() const {
  std::vector<Neighbor> out = heap_;
  std::sort(out.begin(), out.end(), Before);
  return out;
}

void TopK::SiftUp(size_t pos) {
  while (pos > 0) {
    const size_t parent = (pos - 1) / 2;
    if (!Before(heap_[parent], heap_[pos])) break;
    std::swap(heap_[parent], heap_[pos]);
    pos = parent;
  }
}

void TopK::SiftDown(size_t pos) {
  const size_t n = heap_.size();
  for (;;) {
    const size_t left = 2 * pos + 1;
    const size_t right = left + 1;
    size_t largest = pos;
    if (left < n && Before(heap_[largest], heap_[left])) largest = left;
    if (right < n && Before(heap_[largest], heap_[right])) largest = right;
    if (largest == pos) break;
    std::swap(heap_[pos], heap_[largest]);
    pos = largest;
  }
}

}  // namespace pdx
