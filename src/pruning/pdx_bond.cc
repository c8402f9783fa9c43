#include "pruning/pdx_bond.h"

#include <utility>

namespace pdx {

PdxBondPruner::PdxBondPruner(std::vector<float> means, DimensionOrder order,
                             size_t zone_size)
    : means_(std::move(means)), order_(order), zone_size_(zone_size) {}

PdxBondPruner::QueryState PdxBondPruner::PrepareQuery(
    const float* raw_query) const {
  QueryState qs;
  qs.query = raw_query;
  if (has_visit_order()) {
    qs.visit_order = ComputeVisitOrder(raw_query, means_, order_, zone_size_);
  }
  return qs;
}

}  // namespace pdx
