#ifndef PDX_PRUNING_PDX_BOND_H_
#define PDX_PRUNING_PDX_BOND_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "pruning/bond.h"
#include "storage/pdx_store.h"

namespace pdx {

/// PDX-BOND (Section 5): the paper's own DCO optimizer.
///
/// An *exact* pruner: the only bound is the partially computed distance
/// itself, which for L2/L1 grows monotonically with every dimension — if
/// the partial already exceeds the k-th best distance the vector can never
/// enter the top-k. No data transformation, no parameters to tune, no
/// recall trade-off; what makes it competitive is (a) PDXearch's START
/// phase seeding a tight threshold from the first block and (b) a
/// query-aware dimension visit order that grows the partial distance as
/// fast as possible (distance-to-means / dimension zones).
class PdxBondPruner {
 public:
  /// `means` are collection-level per-dimension means (ComputeStats at
  /// build; the pruner's own PDXC section at load). `zone_size` applies to
  /// kDimensionZones.
  PdxBondPruner(std::vector<float> means,
                DimensionOrder order = DimensionOrder::kDimensionZones,
                size_t zone_size = 16);

  size_t dim() const { return means_.size(); }
  const std::vector<float>& means() const { return means_; }
  DimensionOrder order() const { return order_; }

  // --- PDXearch pruner policy -------------------------------------------

  struct QueryState {
    const float* query = nullptr;     ///< Raw query (no transformation!).
    std::vector<uint32_t> visit_order;
  };

  /// Exact test: a lane survives while partial < threshold.
  struct LaneTest {
    float threshold;
    bool operator()(uint32_t, float partial) const {
      return partial < threshold;
    }
  };

  /// Query preprocessing = computing the visit order; the paper measures
  /// this at ~microseconds (Table 7's "almost free" row).
  QueryState PrepareQuery(const float* raw_query) const;

  const float* KernelQuery(const QueryState& qs) const { return qs.query; }

  bool has_visit_order() const {
    return order_ != DimensionOrder::kSequential;
  }
  const std::vector<uint32_t>* VisitOrder(const QueryState& qs) const {
    return has_visit_order() ? &qs.visit_order : nullptr;
  }

  void BuildAux(const PdxStore&) {}

  LaneTest SurvivalTest(const QueryState&, size_t, size_t,
                        float threshold) const {
    return LaneTest{threshold};
  }

 private:
  std::vector<float> means_;
  DimensionOrder order_;
  size_t zone_size_;
};

}  // namespace pdx

#endif  // PDX_PRUNING_PDX_BOND_H_
