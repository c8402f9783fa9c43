// Figure 9: exact-search QPS (KNN=10) across the whole dataset roster —
// PDX-BOND and the PDX linear scan against horizontal SIMD scans (the
// FAISS/USearch role), a DSM linear scan, and a scalar baseline (the
// Scikit-learn role).
//
// Paper shape to reproduce: PDX-BOND and PDX-LINEAR win everywhere;
// horizontal SIMD needs high dimensionality to approach them; DSM trails
// PDX (~1.5x); the scalar baseline is slowest.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"

namespace pdx {
namespace {

void RunDataset(const SyntheticSpec& spec) {
  Dataset dataset = GenerateDataset(spec);
  const size_t k = 10;

  PdxStore pdx_store = PdxStore::FromVectorSet(dataset.data);
  DsmStore dsm_store = DsmStore::FromVectorSet(dataset.data);
  // Flat PDX-BOND: distance-to-means order (Section 6.5) on partitions of
  // at most kExactSearchBlockCapacity lanes (the paper's are 10K), capped
  // so small collections still have several blocks.
  SearcherConfig bond_config =
      bench::PdxConfig(SearcherLayout::kFlat, PrunerKind::kBond, k);
  bond_config.block_capacity =
      std::min<size_t>(kExactSearchBlockCapacity,
                       std::max<size_t>(1024, dataset.data.count() / 8));
  auto bond = bench::MustMakeSearcher(dataset.data, nullptr, bond_config);

  const size_t nq = dataset.queries.count();
  TextTable table({"dataset", "method", "QPS", "speedup vs scalar"});
  double scalar_qps = 0.0;
  auto measure = [&](const char* name, auto&& fn) {
    Timer timer;
    for (size_t q = 0; q < nq; ++q) fn(dataset.queries.Vector(q));
    const double qps = nq / timer.ElapsedSeconds();
    if (scalar_qps == 0.0) scalar_qps = qps;  // First row is the baseline.
    table.AddRow({spec.name, name, TextTable::Num(qps, 0),
                  TextTable::Num(qps / scalar_qps)});
  };

  measure("Sklearn-like (scalar)", [&](const float* q) {
    FlatSearchScalar(dataset.data, q, k, Metric::kL2);
  });
  measure("FAISS-like (N-ary SIMD)", [&](const float* q) {
    FlatSearchNary(dataset.data, q, k, Metric::kL2, Isa::kBest);
  });
  measure("USearch-like (N-ary AVX2)", [&](const float* q) {
    FlatSearchNary(dataset.data, q, k, Metric::kL2, Isa::kAvx2);
  });
  measure("DSM-LINEAR-SCAN", [&](const float* q) {
    FlatSearchDsm(dsm_store, q, k, Metric::kL2);
  });
  measure("PDX-LINEAR-SCAN", [&](const float* q) {
    FlatSearchPdx(pdx_store, q, k, Metric::kL2);
  });
  measure("PDX-BOND", [&](const float* q) { bond->SearchWith(0, {k, 0}, q); });
  table.Print();
}

}  // namespace
}  // namespace pdx

int main() {
  using namespace pdx;
  PrintBanner("Figure 9: exact-search QPS across the dataset roster");
  const double scale = BenchScaleFromEnv();
  for (SyntheticSpec spec : PaperWorkloads(scale)) {
    spec.num_queries = 30;
    RunDataset(spec);
  }
  return 0;
}
