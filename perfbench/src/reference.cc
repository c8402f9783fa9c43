// The benchmark's own brute-force reference. Compiled with
// -ffp-contract=off (perfbench/CMakeLists.txt): each distance is the float
// sum of (q[d] - x[d])^2 for d ascending, with no fused multiply-add — the
// exact operation sequence of the library's PDX vertical kernels, so exact
// searchers must reproduce these distances bit for bit.

#include <algorithm>
#include <cstring>
#include <thread>

#include "bench.h"

namespace perfbench {
namespace {

bool Better(const pdx::Neighbor& a, const pdx::Neighbor& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.id < b.id;
}

/// Keeps the k best neighbors seen (by distance, then id).
class BestK {
 public:
  explicit BestK(size_t k) : k_(k) { best_.reserve(k); }
  void Offer(pdx::Neighbor n) {
    if (best_.size() < k_) {
      best_.push_back(n);
      if (best_.size() == k_) FindWorst();
      return;
    }
    if (!Better(n, best_[worst_])) return;
    best_[worst_] = n;
    FindWorst();
  }
  std::vector<pdx::Neighbor> Sorted() {
    std::sort(best_.begin(), best_.end(), Better);
    return best_;
  }

 private:
  void FindWorst() {
    worst_ = 0;
    for (size_t i = 1; i < best_.size(); ++i) {
      if (Better(best_[worst_], best_[i])) worst_ = i;
    }
  }
  size_t k_;
  size_t worst_ = 0;
  std::vector<pdx::Neighbor> best_;
};

constexpr size_t kLanes = 8;  // Independent rows summed side by side.

std::vector<pdx::Neighbor> OneQuery(const float* rows, const uint32_t* ids,
                                    size_t count, size_t dim,
                                    const float* query, size_t k) {
  BestK best(k);
  size_t r = 0;
  for (; r + kLanes <= count; r += kLanes) {
    float acc[kLanes] = {};
    for (size_t d = 0; d < dim; ++d) {
      for (size_t j = 0; j < kLanes; ++j) {
        const float diff = query[d] - rows[(r + j) * dim + d];
        acc[j] += diff * diff;
      }
    }
    for (size_t j = 0; j < kLanes; ++j) {
      const size_t row = r + j;
      best.Offer({ids != nullptr ? ids[row] : static_cast<uint32_t>(row),
                  acc[j]});
    }
  }
  for (; r < count; ++r) {
    float acc = 0.0f;
    for (size_t d = 0; d < dim; ++d) {
      const float diff = query[d] - rows[r * dim + d];
      acc += diff * diff;
    }
    best.Offer({ids != nullptr ? ids[r] : static_cast<uint32_t>(r), acc});
  }
  return best.Sorted();
}

}  // namespace

std::vector<std::vector<pdx::Neighbor>> BruteForceKnn(
    const float* rows, const uint32_t* ids, size_t count, size_t dim,
    const pdx::VectorSet& queries, size_t k) {
  std::vector<std::vector<pdx::Neighbor>> out(queries.count());
  const size_t threads = std::max<size_t>(
      1, std::min<size_t>(4, std::thread::hardware_concurrency()));
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t q = t; q < queries.count(); q += threads) {
        out[q] = OneQuery(rows, ids, count, dim,
                          queries.Vector(static_cast<pdx::VectorId>(q)), k);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  return out;
}

double RecallAt(const std::vector<pdx::Neighbor>& got,
                const std::vector<pdx::Neighbor>& truth, size_t k) {
  const size_t n = std::min(k, truth.size());
  if (n == 0) return 1.0;
  size_t hits = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < std::min(k, got.size()); ++j) {
      if (got[j].id == truth[i].id) {
        ++hits;
        break;
      }
    }
  }
  return static_cast<double>(hits) / static_cast<double>(n);
}

bool SameNeighbors(const std::vector<pdx::Neighbor>& a,
                   const std::vector<pdx::Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id) return false;
    if (std::memcmp(&a[i].distance, &b[i].distance, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
