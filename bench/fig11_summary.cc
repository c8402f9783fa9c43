// Figure 11: geometric-mean speedup summary over all datasets, per
// "architecture". The paper runs four CPUs; this reproduction has one
// host, so the architecture axis is substituted by kernel ISA tiers
// (scalar / AVX2 / AVX512) for the horizontal competitors, while PDX stays
// the same intrinsic-free auto-vectorized source everywhere (its whole
// point). Baselines follow the paper: Scikit-learn-like scalar scan for
// exact search, scalar IVF linear scan for approximate search.
//
// Paper shape to reproduce: PDX-BOND and PDX-LINEAR on top for exact
// search on every tier; PDX-ADS dominates approximate search; horizontal
// competitors' standing depends on their ISA tier.

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/math_utils.h"

namespace pdx {
namespace {

struct Speedups {
  std::map<std::string, std::vector<double>> by_method;
  void Add(const std::string& method, double value) {
    by_method[method].push_back(value);
  }
};

void RunExact(const SyntheticSpec& spec, Speedups& out) {
  Dataset dataset = GenerateDataset(spec);
  const size_t k = 10;
  const size_t nq = dataset.queries.count();
  PdxStore pdx_store = PdxStore::FromVectorSet(dataset.data);
  DsmStore dsm_store = DsmStore::FromVectorSet(dataset.data);
  SearcherConfig bond_config =
      bench::PdxConfig(SearcherLayout::kFlat, PrunerKind::kBond, k);
  bond_config.block_capacity =
      std::min<size_t>(kExactSearchBlockCapacity,
                       std::max<size_t>(1024, dataset.data.count() / 8));
  auto bond = bench::MustMakeSearcher(dataset.data, nullptr, bond_config);

  auto qps = [&](auto&& fn) {
    Timer timer;
    for (size_t q = 0; q < nq; ++q) fn(dataset.queries.Vector(q));
    return nq / timer.ElapsedSeconds();
  };
  const double base = qps([&](const float* q) {
    FlatSearchScalar(dataset.data, q, k, Metric::kL2);
  });
  out.Add("exact/NARY-scalar", 1.0);
  for (Isa isa : {Isa::kAvx2, Isa::kAvx512}) {
    const double v = qps([&](const float* q) {
      FlatSearchNary(dataset.data, q, k, Metric::kL2, isa);
    });
    out.Add(std::string("exact/NARY-") + IsaName(isa), v / base);
  }
  out.Add("exact/DSM-LINEAR",
          qps([&](const float* q) {
            FlatSearchDsm(dsm_store, q, k, Metric::kL2);
          }) /
              base);
  out.Add("exact/PDX-LINEAR",
          qps([&](const float* q) {
            FlatSearchPdx(pdx_store, q, k, Metric::kL2);
          }) /
              base);
  out.Add("exact/PDX-BOND",
          qps([&](const float* q) { bond->SearchWith(0, {k, 0}, q); }) / base);
}

void RunApproximate(const SyntheticSpec& spec, Speedups& out) {
  bench::IvfScenario s = bench::BuildIvfScenario(spec);
  const size_t nprobe = std::min<size_t>(64, s.index.num_buckets());
  const size_t dim = s.dataset.dim();
  const size_t delta_d = std::min<size_t>(32, std::max<size_t>(1, dim / 4));

  // The horizontal SIMD-ADS rotates with the searcher's seed, so both scan
  // the same transformed collection.
  const SearcherConfig ads_config =
      bench::PdxConfig(SearcherLayout::kIvf, PrunerKind::kAdsampling, s.k);
  auto ads = bench::MustMakeSearcher(s.dataset.data, &s.index, ads_config);
  const AdSamplingPruner pruner(dim, ads_config.ads_epsilon0,
                                ads_config.ads_seed);
  VectorSet rotated = pruner.TransformCollection(s.dataset.data);
  BucketOrderedSet rotated_ordered = ReorderByBuckets(rotated, s.index);
  DualBlockStore dual =
      DualBlockStore::FromVectorSet(rotated_ordered.vectors, delta_d);

  auto qps = [&](auto&& fn) {
    Timer timer;
    for (size_t q = 0; q < s.dataset.queries.count(); ++q) {
      fn(s.dataset.queries.Vector(q));
    }
    return s.dataset.queries.count() / timer.ElapsedSeconds();
  };
  // Baseline: scalar (non-SIMD) IVF linear scan, as in the paper.
  const double base = qps([&](const float* q) {
    IvfNarySearch(s.index, s.ordered, q, s.k, nprobe, Metric::kL2,
                  Isa::kScalar);
  });
  for (Isa isa : {Isa::kAvx2, Isa::kAvx512}) {
    const double v = qps([&](const float* q) {
      IvfNarySearch(s.index, s.ordered, q, s.k, nprobe, Metric::kL2, isa);
    });
    out.Add(std::string("ivf/FAISS-") + IsaName(isa), v / base);
  }
  out.Add("ivf/SIMD-ADS",
          qps([&](const float* q) {
            IvfHorizontalAdsSearch(pruner, s.index, dual,
                                   rotated_ordered.ids,
                                   rotated_ordered.offsets, q, s.k, nprobe,
                                   HorizontalKernel::kSimd, delta_d);
          }) /
              base);
  out.Add("ivf/PDX-ADS",
          qps([&](const float* q) {
            return ads->SearchWith(0, {s.k, nprobe}, q);
          }) / base);
}

}  // namespace
}  // namespace pdx

int main() {
  using namespace pdx;
  PrintBanner(
      "Figure 11: geomean speedups over all datasets (ISA tiers substitute "
      "the paper's four CPUs)");
  const double scale = BenchScaleFromEnv();

  Speedups speedups;
  for (SyntheticSpec spec : PaperWorkloads(scale)) {
    spec.num_queries = 20;
    RunExact(spec, speedups);
  }
  for (SyntheticSpec spec : CoreWorkloads(scale)) {
    spec.num_queries = 20;
    RunApproximate(spec, speedups);
  }

  TextTable table({"setting/method", "geomean speedup vs baseline"});
  for (const auto& [method, values] : speedups.by_method) {
    table.AddRow({method, TextTable::Num(GeometricMean(values))});
  }
  table.Print();
  std::printf(
      "\nBaselines: exact = Sklearn-like scalar scan; ivf = scalar IVF "
      "linear scan. Expected shape: PDX-BOND/PDX-LINEAR lead exact search; "
      "PDX-ADS leads IVF search on every tier.\n");
  return 0;
}
