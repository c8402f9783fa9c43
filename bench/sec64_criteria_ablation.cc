// Section 6.4 / Figure 5 ablation: dimension visit-order criteria for
// PDX-BOND — sequential vs BOND's decreasing-query-value vs
// distance-to-means vs dimension zones — plus a zone-size sweep.
//
// Paper shape to reproduce: on IVF (small blocks), dimension zones beat
// plain distance-to-means (~30%) and decreasing (~40%) thanks to
// sequential stretches; on flat exact search (large blocks),
// distance-to-means achieves the best pruning and wins.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"

namespace pdx {
namespace {

void RunIvf(const SyntheticSpec& spec, TextTable& table) {
  bench::IvfScenario s = bench::BuildIvfScenario(spec);
  const size_t nprobe = std::min<size_t>(64, s.index.num_buckets());

  auto measure = [&](DimensionOrder order, size_t zone_size) {
    SearcherConfig config =
        bench::PdxConfig(SearcherLayout::kIvf, PrunerKind::kBond, s.k);
    config.bond_order = order;
    config.bond_zone_size = zone_size;
    auto searcher = bench::MustMakeSearcher(s.dataset.data, &s.index, config);
    double power = 0.0;
    Timer timer;
    for (size_t q = 0; q < s.dataset.queries.count(); ++q) {
      PdxearchProfile profile;
      searcher->SearchWith(0, {s.k, nprobe}, s.dataset.queries.Vector(q),
                           &profile);
      power += profile.pruning_power();
    }
    const double qps = s.dataset.queries.count() / timer.ElapsedSeconds();
    std::string label = DimensionOrderName(order);
    if (order == DimensionOrder::kDimensionZones) {
      label += "(z=" + std::to_string(zone_size) + ")";
    }
    table.AddRow({spec.name, "ivf", label, TextTable::Num(qps, 0),
                  TextTable::Num(
                      100.0 * power / s.dataset.queries.count(), 1) +
                      "%"});
  };

  measure(DimensionOrder::kSequential, 16);
  measure(DimensionOrder::kDecreasingQuery, 16);
  measure(DimensionOrder::kDistanceToMeans, 16);
  for (size_t zone : {4u, 16u, 64u}) {
    measure(DimensionOrder::kDimensionZones, zone);
  }
}

void RunFlat(const SyntheticSpec& spec, TextTable& table) {
  Dataset dataset = GenerateDataset(spec);
  auto measure = [&](DimensionOrder order) {
    SearcherConfig config =
        bench::PdxConfig(SearcherLayout::kFlat, PrunerKind::kBond);
    config.bond_order = order;
    config.block_capacity =
        std::max<size_t>(1024, dataset.data.count() / 8);
    auto searcher = bench::MustMakeSearcher(dataset.data, nullptr, config);
    double power = 0.0;
    Timer timer;
    for (size_t q = 0; q < dataset.queries.count(); ++q) {
      PdxearchProfile profile;
      searcher->SearchWith(0, {10, 0}, dataset.queries.Vector(q), &profile);
      power += profile.pruning_power();
    }
    const double qps = dataset.queries.count() / timer.ElapsedSeconds();
    table.AddRow({spec.name, "flat", DimensionOrderName(order),
                  TextTable::Num(qps, 0),
                  TextTable::Num(
                      100.0 * power / dataset.queries.count(), 1) +
                      "%"});
  };
  measure(DimensionOrder::kSequential);
  measure(DimensionOrder::kDecreasingQuery);
  measure(DimensionOrder::kDistanceToMeans);
  measure(DimensionOrder::kDimensionZones);
}

}  // namespace
}  // namespace pdx

int main() {
  using namespace pdx;
  PrintBanner(
      "Section 6.4: PDX-BOND dimension-order criteria ablation "
      "(+ zone-size sweep)");
  const double scale = BenchScaleFromEnv();
  TextTable table(
      {"dataset", "setting", "criterion", "QPS", "pruning power"});
  for (SyntheticSpec spec : CoreWorkloads(scale)) {
    spec.num_queries = 30;
    RunIvf(spec, table);
    RunFlat(spec, table);
  }
  table.Print();
  return 0;
}
