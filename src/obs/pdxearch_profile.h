#ifndef PDX_OBS_PDXEARCH_PROFILE_H_
#define PDX_OBS_PDXEARCH_PROFILE_H_

#include <cstdint>

namespace pdx {

/// One query's search work: the paper's Table 7 phase times and its
/// pruning counters (Tables 2 & 6: fraction of dimension values never
/// touched). The PDXearch block loop fills it (core/pdxearch.h), the facade
/// hands it out per query through SearchBatchWith, and the serving layer
/// carries it in the dispatcher scratch, QueryTrace and SlowQueryEntry.
///
/// Deliberately a plain trivially-copyable aggregate: the serving layer
/// keeps one pre-reserved array of these per dispatcher, so collecting
/// them on the dispatch path costs no heap traffic — the "tracing off adds
/// zero allocations" contract rests on this type staying POD.
struct PdxearchProfile {
  double preprocess_ms = 0.0;
  double find_buckets_ms = 0.0;
  double bounds_ms = 0.0;
  double distance_ms = 0.0;
  uint64_t values_scanned = 0;  ///< Dimension values used in kernels.
  uint64_t values_total = 0;    ///< D x (vectors in visited blocks).
  uint64_t predicate_evaluations = 0;
  uint64_t blocks_visited = 0;  ///< Blocks whose lanes were touched.
  uint64_t vectors_pruned = 0;  ///< Lanes broken off before full distance.
  /// Dimension steps walked, summed over blocks (== blocks * D with no
  /// pruning; less when whole blocks die early).
  uint64_t dims_scanned = 0;
  /// Candidates the u8 quantized tier re-ranked on exact distances (0 on
  /// the float tiers and with rerank_factor = 0).
  uint64_t rerank_candidates = 0;

  double total_ms() const {
    return preprocess_ms + find_buckets_ms + bounds_ms + distance_ms;
  }
  /// Field-wise sum; keeps aggregation next to the fields so a new counter
  /// can't be silently dropped from it.
  PdxearchProfile& operator+=(const PdxearchProfile& other) {
    preprocess_ms += other.preprocess_ms;
    find_buckets_ms += other.find_buckets_ms;
    bounds_ms += other.bounds_ms;
    distance_ms += other.distance_ms;
    values_scanned += other.values_scanned;
    values_total += other.values_total;
    predicate_evaluations += other.predicate_evaluations;
    blocks_visited += other.blocks_visited;
    vectors_pruned += other.vectors_pruned;
    dims_scanned += other.dims_scanned;
    rerank_candidates += other.rerank_candidates;
    return *this;
  }
  /// Dimension values of the visited blocks that no kernel touched.
  uint64_t values_avoided() const {
    return values_total > values_scanned ? values_total - values_scanned : 0;
  }
  /// Pruning power: fraction of values avoided (0 when nothing visited).
  double pruning_power() const {
    return values_total == 0
               ? 0.0
               : 1.0 - double(values_scanned) / double(values_total);
  }
};

}  // namespace pdx

#endif  // PDX_OBS_PDXEARCH_PROFILE_H_
