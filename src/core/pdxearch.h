#ifndef PDX_CORE_PDXEARCH_H_
#define PDX_CORE_PDXEARCH_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/timer.h"
#include "common/types.h"
#include "index/ivf.h"
#include "index/topk.h"
#include "kernels/kernel_dispatch.h"
#include "obs/pdxearch_profile.h"
#include "storage/pdx_store.h"

namespace pdx {

/// Tuning knobs of the PDXearch framework (Section 4). The metric is fixed
/// at engine construction and k is passed per search call.
struct PdxearchOptions {
  /// Fraction of not-yet-pruned vectors at which the search advances from
  /// WARMUP to PRUNE (Figure 10's sweet spot: ~20%).
  float selection_fraction = 0.20f;
  /// First WARMUP fetch size; subsequent fetches double (2, 4, 8, ...).
  size_t initial_step = 2;
  /// When false, fetch `fixed_step` dims every time (ADSampling's fixed
  /// Δd=32 — the Figure 7 ablation).
  bool adaptive_steps = true;
  size_t fixed_step = 32;
  /// Collect per-phase wall-clock times (Table 7). Off by default: the
  /// timer calls would distort micro-benchmarks.
  bool collect_phase_times = false;
  /// Optional per-step observer: (dims_scanned, survivors, block_count).
  /// Invoked with dims_scanned == 0 when a block enters WARMUP, after every
  /// pruning test, and once more at dims_scanned == dim before the final
  /// merge. Used to trace pruning curves (Tables 2 & 6); leave empty
  /// otherwise.
  std::function<void(size_t, size_t, size_t)> step_observer;
};

/// The "prune nothing" policy: PDXearch degenerates to a blockwise linear
/// scan (the PDX-LINEAR-SCAN competitor, and the baseline of Figure 10).
/// Its test keeps every lane, so the compiler drops the engine's
/// compaction loop for it.
class NoPruner {
 public:
  struct QueryState {
    const float* query = nullptr;
  };
  struct LaneTest {
    bool operator()(uint32_t, float) const { return true; }
  };
  QueryState PrepareQuery(const float* raw_query) const {
    return QueryState{raw_query};
  }
  const float* KernelQuery(const QueryState& qs) const { return qs.query; }
  bool has_visit_order() const { return false; }
  const std::vector<uint32_t>* VisitOrder(const QueryState&) const {
    return nullptr;
  }
  void BuildAux(const PdxStore&) {}
  LaneTest SurvivalTest(const QueryState&, size_t, size_t, float) const {
    return {};
  }
};

/// The PDXearch framework (Section 4): dimension-by-dimension, block-by-
/// block pruned search over a PdxStore, parameterized by a pruner policy.
///
/// Per block the search runs three phases:
///   START  — first block(s) while the k-NN heap is not yet full: plain
///            linear scan to seed the pruning threshold.
///   WARMUP — fetch dimensions at (exponentially) increasing steps for ALL
///            vectors, evaluating the pruning predicate after each step but
///            not yet skipping pruned lanes (skipping few lanes costs more
///            in random access than it saves).
///   PRUNE  — once survivors drop below `selection_fraction`, compute only
///            the survivors' lanes. Their partial distances move once, at
///            PRUNE entry, into an array indexed by survivor beside the
///            survivor positions, so the PRUNE kernels gather values
///            without scattering distances back to lanes.
///
/// After every step the engine asks the pruner's per-lane test which
/// survivors may still enter the top-k and compacts the positions (and, in
/// PRUNE, the distances beside them) itself; a pruner supplies only the
/// test. The framework never changes *what* that test accepts — only how
/// many dimensions are fetched per step and when computation is broken
/// off — so the underlying algorithm's exactness/recall is preserved.
///
/// Every search takes an ExcludedIds view (index/topk.h) of ids it must
/// not return: START's lanes and a block's final survivors are tested
/// against it just before they would enter the heap, so an excluded lane
/// never enters a heap and never sets the threshold. Excluded lanes are
/// still scanned and pruned like any other, so excluding ids that could
/// never have entered a full heap leaves the work record as it was.
///
/// The Pruner policy must provide:
///   struct QueryState;
///   struct LaneTest;  // bool operator()(uint32_t lane, float partial) const
///   QueryState PrepareQuery(const float* raw_query) const;
///   const float* KernelQuery(const QueryState&) const;
///   bool has_visit_order() const;
///   const std::vector<uint32_t>* VisitOrder(const QueryState&) const;
///   void BuildAux(const PdxStore&);
///   LaneTest SurvivalTest(const QueryState&, size_t block_index,
///                         size_t dims_scanned, float threshold) const;
/// SurvivalTest fixes one test of block `block_index` after
/// `dims_scanned` dimensions against `threshold` (the k-th distance); the
/// LaneTest it returns says whether lane `lane`, at partial distance
/// `partial`, survives.
template <typename Pruner>
class PdxearchEngine {
 public:
  /// `store` and `pruner` must outlive the engine. The pruner's BuildAux
  /// must already have been called with `store` where applicable. Pruners
  /// typically require `metric` = kL2.
  PdxearchEngine(const PdxStore* store, const Pruner* pruner,
                 Metric metric = Metric::kL2, PdxearchOptions options = {})
      : store_(store),
        pruner_(pruner),
        metric_(metric),
        options_(std::move(options)),
        kernels_(ActiveKernels()) {
    size_t max_lanes = kPdxBlockSize;
    for (size_t b = 0; b < store_->num_blocks(); ++b) {
      max_lanes = std::max(max_lanes, store_->block(b).count());
    }
    distances_.Reset(max_lanes);
    survivor_distances_.Reset(max_lanes);
    positions_.resize(max_lanes);
  }

  /// Exact/flat search for the `k` nearest ids `excluded` does not name:
  /// visits every block in store order.
  std::vector<Neighbor> SearchFlat(const float* raw_query, size_t k,
                                   ExcludedIds excluded = {}) {
    profile_ = PdxearchProfile{};
    Timer timer;
    typename Pruner::QueryState qs = pruner_->PrepareQuery(raw_query);
    if (options_.collect_phase_times) {
      profile_.preprocess_ms = timer.ElapsedMillis();
    }
    // k saturates at the store's count: a larger k returns the same
    // results, and the heap is sized by it.
    TopK heap(std::min(k, store_->count()));
    for (size_t b = 0; b < store_->num_blocks(); ++b) {
      SearchBlock(qs, b, heap, kNoBound, excluded);
    }
    return heap.SortedResults();
  }

  /// One range of a flat search spread over several engines: searches
  /// blocks [first, last) into `heap`, pruning against the smaller of the
  /// heap's k-th distance and `bound`. With `bound` = kNoBound the range
  /// runs as SearchFlat does from block `first`: START scans whole blocks
  /// until the heap is full. A finite `bound` is the k-th distance of a
  /// full heap over lanes that precede every lane of the range (START's);
  /// the range then prunes from its first block, even while its own heap
  /// is not full; START's heap counts only lanes `excluded` lets in, so
  /// one that ends short of k passes kNoBound on. `qs` is the pruner's
  /// PrepareQuery of the query, shared read-only by the ranges other
  /// engines run at the same time. last_profile() then holds this range's
  /// work alone.
  void SearchBlockRange(const typename Pruner::QueryState& qs, size_t first,
                        size_t last, float bound, TopK& heap,
                        ExcludedIds excluded = {}) {
    profile_ = PdxearchProfile{};
    for (size_t b = first; b < last; ++b) {
      SearchBlock(qs, b, heap, bound, excluded);
    }
  }

  /// IVF search for the `k` nearest: ranks buckets by centroid distance
  /// (on the index's PDX centroid store), then runs PDXearch over the
  /// `nprobe` nearest buckets' blocks, skipping the ids `excluded` names.
  /// `index` must be the index the store was grouped by.
  std::vector<Neighbor> SearchIvf(const IvfIndex& index,
                                  const float* raw_query, size_t k,
                                  size_t nprobe, ExcludedIds excluded = {}) {
    profile_ = PdxearchProfile{};
    Timer timer;
    typename Pruner::QueryState qs = pruner_->PrepareQuery(raw_query);
    if (options_.collect_phase_times) {
      profile_.preprocess_ms = timer.ElapsedMillis();
      timer.Reset();
    }
    const std::vector<uint32_t> ranked = index.RankBuckets(raw_query);
    if (options_.collect_phase_times) {
      profile_.find_buckets_ms = timer.ElapsedMillis();
    }
    const size_t probes = std::min(nprobe, ranked.size());
    TopK heap(std::min(k, store_->count()));
    for (size_t r = 0; r < probes; ++r) {
      const auto [first, last] = store_->GroupBlockRange(ranked[r]);
      for (size_t b = first; b < last; ++b) {
        SearchBlock(qs, b, heap, kNoBound, excluded);
      }
    }
    return heap.SortedResults();
  }

  /// Measurements of the most recent Search* call.
  const PdxearchProfile& last_profile() const { return profile_; }

  /// The `bound` of a search that no other range bounds.
  static constexpr float kNoBound = std::numeric_limits<float>::infinity();

 private:
  // Searches one block, updating the heap with the lanes `excluded` lets
  // in; `bound` caps the pruning threshold (see SearchBlockRange).
  void SearchBlock(const typename Pruner::QueryState& qs, size_t block_index,
                   TopK& heap, float bound, ExcludedIds excluded) {
    const PdxBlock& block = store_->block(block_index);
    const size_t n = block.count();
    const size_t dim = block.dim();
    if (n == 0) return;
    const float* query = pruner_->KernelQuery(qs);
    const std::vector<uint32_t>* order = pruner_->VisitOrder(qs);
    float* distances = distances_.data();
    profile_.values_total += uint64_t(n) * dim;
    ++profile_.blocks_visited;

    Timer timer;
    const bool timed = options_.collect_phase_times;

    // START: no threshold yet -> linear scan, merge everything.
    if (!heap.full() && bound == kNoBound) {
      if (timed) timer.Reset();
      if (order != nullptr) {
        std::fill(distances, distances + n, 0.0f);
        kernels_.pdx_accumulate_dims(metric_, query, block.data(), n,
                                     order->data(), dim, distances);
      } else {
        kernels_.pdx_linear_scan(metric_, query, block.data(), n, dim,
                                 distances);
      }
      profile_.values_scanned += uint64_t(n) * dim;
      profile_.dims_scanned += dim;
      for (size_t i = 0; i < n; ++i) {
        const VectorId id = block.id(i);
        if (!excluded.Excludes(id)) heap.Push(id, distances[i]);
      }
      if (timed) profile_.distance_ms += timer.ElapsedMillis();
      return;
    }

    // WARMUP / PRUNE. WARMUP accumulates every lane into `distances`;
    // PRUNE accumulates survivor p's lane positions[p] into
    // survivor_distances[p].
    std::fill(distances, distances + n, 0.0f);
    uint32_t* positions = positions_.data();
    float* survivor_distances = survivor_distances_.data();
    std::iota(positions, positions + n, 0u);
    size_t alive = n;
    if (options_.step_observer) options_.step_observer(0, n, n);
    size_t dims_done = 0;
    size_t next_step = options_.adaptive_steps ? options_.initial_step
                                               : options_.fixed_step;
    // Clamped to [0, n-1]: selection_fraction >= 1.0 would otherwise put
    // every block straight into PRUNE (positions-gather kernels for all
    // lanes), and an n == 1 block would enter PRUNE before its single lane
    // was ever tested. prune_entry == 0 (only possible when n == 1) means
    // the block completes in WARMUP.
    const size_t prune_entry = std::min<size_t>(
        n - 1, std::max<size_t>(
                   1, static_cast<size_t>(options_.selection_fraction *
                                          static_cast<float>(n))));
    bool pruning_phase = false;

    while (dims_done < dim && alive > 0) {
      const size_t step = std::min(next_step, dim - dims_done);

      if (timed) timer.Reset();
      if (!pruning_phase) {
        // WARMUP: all lanes.
        if (order != nullptr) {
          kernels_.pdx_accumulate_dims(metric_, query, block.data(), n,
                                       order->data() + dims_done, step,
                                       distances);
        } else {
          kernels_.pdx_accumulate(metric_, query, block.data(), n,
                                  dims_done, dims_done + step, distances);
        }
        profile_.values_scanned += uint64_t(n) * step;
      } else {
        // PRUNE: survivors only.
        if (order != nullptr) {
          kernels_.pdx_accumulate_dims_positions(
              metric_, query, block.data(), n, order->data() + dims_done, step,
              positions, alive, survivor_distances);
        } else {
          kernels_.pdx_accumulate_positions(
              metric_, query, block.data(), n, dims_done, dims_done + step,
              positions, alive, survivor_distances);
        }
        profile_.values_scanned += uint64_t(alive) * step;
      }
      if (timed) profile_.distance_ms += timer.ElapsedMillis();

      dims_done += step;
      if (options_.adaptive_steps) next_step *= 2;

      if (dims_done >= dim) break;  // Full distances: no test needed.

      if (timed) timer.Reset();
      const typename Pruner::LaneTest survives = pruner_->SurvivalTest(
          qs, block_index, dims_done, std::min(heap.threshold(), bound));
      alive = pruning_phase
                  ? KeepSurvivors(survives, positions, survivor_distances,
                                  alive)
                  : KeepLanes(survives, distances, positions, alive);
      ++profile_.predicate_evaluations;
      if (timed) profile_.bounds_ms += timer.ElapsedMillis();

      if (options_.step_observer) {
        options_.step_observer(dims_done, alive, n);
      }
      if (!pruning_phase && alive <= prune_entry) {
        pruning_phase = true;
        for (size_t p = 0; p < alive; ++p) {
          survivor_distances[p] = distances[positions[p]];
        }
      }
    }

    if (options_.step_observer) options_.step_observer(dim, alive, n);
    profile_.dims_scanned += dims_done;
    profile_.vectors_pruned += n - alive;

    // Merge survivors (their distances are complete).
    if (timed) timer.Reset();
    for (size_t p = 0; p < alive; ++p) {
      const uint32_t lane = positions[p];
      const VectorId id = block.id(lane);
      if (excluded.Excludes(id)) continue;
      heap.Push(id, pruning_phase ? survivor_distances[p] : distances[lane]);
    }
    if (timed) profile_.distance_ms += timer.ElapsedMillis();
  }

  // The two compactions keep, in order, the survivors `survives` passes
  // and return how many are left. Each writes every survivor and advances
  // the write cursor only past those that pass, so neither branches on the
  // test. WARMUP's distances are lane-indexed and stay where they are.
  template <typename LaneTest>
  static size_t KeepLanes(const LaneTest& survives, const float* distances,
                          uint32_t* positions, size_t count) {
    size_t out = 0;
    for (size_t p = 0; p < count; ++p) {
      const uint32_t lane = positions[p];
      positions[out] = lane;
      out += static_cast<size_t>(survives(lane, distances[lane]));
    }
    return out;
  }

  // PRUNE's distances are survivor-indexed and move with their positions.
  template <typename LaneTest>
  static size_t KeepSurvivors(const LaneTest& survives, uint32_t* positions,
                              float* distances, size_t count) {
    size_t out = 0;
    for (size_t p = 0; p < count; ++p) {
      const uint32_t lane = positions[p];
      const float partial = distances[p];
      positions[out] = lane;
      distances[out] = partial;
      out += static_cast<size_t>(survives(lane, partial));
    }
    return out;
  }

  const PdxStore* store_;
  const Pruner* pruner_;
  Metric metric_;
  PdxearchOptions options_;
  /// The runtime-dispatched kernel tier, resolved once at engine creation
  /// so the block loop pays one indirect call per kernel, not a dispatch.
  const KernelTable& kernels_;
  AlignedBuffer distances_;           ///< Lane-indexed (START, WARMUP).
  AlignedBuffer survivor_distances_;  ///< Survivor-indexed (PRUNE).
  std::vector<uint32_t> positions_;
  PdxearchProfile profile_;
};

}  // namespace pdx

#endif  // PDX_CORE_PDXEARCH_H_
