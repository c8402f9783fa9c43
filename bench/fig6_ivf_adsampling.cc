// Figure 6: QPS vs recall on an IVF index (K=10), comparing three versions
// of ADSampling — vanilla scalar (SCALAR-ADS), SIMDized horizontal
// (SIMD-ADS), and PDXearch (PDX-ADS) — against IVF_FLAT linear scans
// standing in for FAISS (shared index) and Milvus (its own k-means).
//
// Paper shape to reproduce: only PDX-ADS beats the linear-scan systems
// everywhere; SIMD-ADS can *lose* to them (the paper's key negative
// result); gaps grow with dimensionality and recall.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"

namespace pdx {
namespace {

void RunDataset(const SyntheticSpec& spec) {
  bench::IvfScenario s = bench::BuildIvfScenario(spec);
  const size_t dim = s.dataset.dim();
  const size_t delta_d = std::min<size_t>(32, std::max<size_t>(1, dim / 4));

  // Shared preprocessing: one rotation used by all three ADS variants (the
  // same seed gives the horizontal variants the searcher's transform).
  const SearcherConfig ads_config =
      bench::PdxConfig(SearcherLayout::kIvf, PrunerKind::kAdsampling, s.k);
  auto pdx_ads = bench::MustMakeSearcher(s.dataset.data, &s.index, ads_config);
  const AdSamplingPruner pruner(dim, ads_config.ads_epsilon0,
                                ads_config.ads_seed);
  VectorSet rotated = pruner.TransformCollection(s.dataset.data);
  BucketOrderedSet rotated_ordered = ReorderByBuckets(rotated, s.index);
  DualBlockStore dual =
      DualBlockStore::FromVectorSet(rotated_ordered.vectors, delta_d);

  // Milvus stand-in: builds its *own* IVF index (different seed).
  IvfOptions milvus_options;
  milvus_options.seed = 1337;
  IvfIndex milvus_index = IvfIndex::Build(s.dataset.data, milvus_options);
  BucketOrderedSet milvus_ordered =
      ReorderByBuckets(s.dataset.data, milvus_index);

  TextTable table({"dataset", "nprobe", "method", "recall@10",
                          "QPS"});
  for (size_t nprobe : bench::NprobeLadder(s.index.num_buckets())) {
    auto add = [&](const char* method, const bench::SweepResult& r) {
      table.AddRow({spec.name, std::to_string(nprobe), method,
                    TextTable::Num(r.recall, 3),
                    TextTable::Num(r.qps, 0)});
    };
    add("SCALAR-ADS", bench::MeasureSweep(s, [&](size_t q) {
          return IvfHorizontalAdsSearch(
              pruner, s.index, dual, rotated_ordered.ids,
              rotated_ordered.offsets, s.dataset.queries.Vector(q), s.k,
              nprobe, HorizontalKernel::kScalar, delta_d);
        }));
    add("SIMD-ADS", bench::MeasureSweep(s, [&](size_t q) {
          return IvfHorizontalAdsSearch(
              pruner, s.index, dual, rotated_ordered.ids,
              rotated_ordered.offsets, s.dataset.queries.Vector(q), s.k,
              nprobe, HorizontalKernel::kSimd, delta_d);
        }));
    add("PDX-ADS", bench::MeasureSweep(s, [&](size_t q) {
          return pdx_ads->SearchWith(0, {s.k, nprobe},
                                     s.dataset.queries.Vector(q));
        }));
    add("FAISS-like", bench::MeasureSweep(s, [&](size_t q) {
          return IvfNarySearch(s.index, s.ordered,
                               s.dataset.queries.Vector(q), s.k, nprobe);
        }));
    add("Milvus-like", bench::MeasureSweep(s, [&](size_t q) {
          return IvfNarySearch(milvus_index, milvus_ordered,
                               s.dataset.queries.Vector(q), s.k, nprobe);
        }));
  }
  table.Print();
}

}  // namespace
}  // namespace pdx

int main() {
  using namespace pdx;
  PrintBanner(
      "Figure 6: IVF QPS vs recall — SCALAR-ADS / SIMD-ADS / PDX-ADS vs "
      "FAISS/Milvus stand-ins (KNN=10)");
  const double scale = BenchScaleFromEnv();
  for (SyntheticSpec spec : PaperWorkloads(scale)) {
    spec.num_queries = 40;
    RunDataset(spec);
  }
  return 0;
}
