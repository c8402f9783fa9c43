// Figure 10: effect of the selection-percentage threshold (when PDXearch
// advances from WARMUP to PRUNE) on the speedup of PDX-ADS over a PDX
// linear scan, on an IVF index.
//
// Paper shape to reproduce: too early (<10%) and too late (>40%) both
// hurt; a broad sweet spot around 20%; 5% vs 20% nearly indistinguishable
// (pruning collapses exponentially, both are hit in the same step); on
// low-pruning datasets (NYTimes-like/16) the linear scan wins outright.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"

namespace pdx {
namespace {

void RunDataset(const SyntheticSpec& spec, TextTable& table) {
  bench::IvfScenario s = bench::BuildIvfScenario(spec);
  const size_t nprobe = std::min<size_t>(64, s.index.num_buckets());

  auto linear = bench::MustMakeSearcher(
      s.dataset.data, &s.index,
      bench::PdxConfig(SearcherLayout::kIvf, PrunerKind::kLinear, s.k));
  const bench::SweepResult linear_result =
      bench::MeasureSweep(s, [&](size_t q) {
        return linear->SearchWith(0, {s.k, nprobe},
                                  s.dataset.queries.Vector(q));
      });

  for (float threshold : {0.02f, 0.05f, 0.10f, 0.20f, 0.40f, 0.60f, 0.80f}) {
    // One PDX-ADS searcher per threshold, all over the shared index.
    SearcherConfig config =
        bench::PdxConfig(SearcherLayout::kIvf, PrunerKind::kAdsampling, s.k);
    config.search.selection_fraction = threshold;
    auto ads = bench::MustMakeSearcher(s.dataset.data, &s.index, config);
    const bench::SweepResult r = bench::MeasureSweep(s, [&](size_t q) {
      return ads->SearchWith(0, {s.k, nprobe}, s.dataset.queries.Vector(q));
    });
    table.AddRow({spec.name,
                  TextTable::Num(100.0 * threshold, 0) + "%",
                  TextTable::Num(r.qps, 0),
                  TextTable::Num(r.qps / linear_result.qps)});
  }
}

}  // namespace
}  // namespace pdx

int main() {
  using namespace pdx;
  PrintBanner(
      "Figure 10: selection-percentage threshold vs speedup over PDX "
      "linear scan (IVF, PDX-ADS)");
  const double scale = BenchScaleFromEnv();
  TextTable table(
      {"dataset", "threshold", "QPS", "speedup vs PDX linear"});
  // Six datasets as in the figure: a spread of dims and distributions.
  for (SyntheticSpec spec : PaperWorkloads(scale)) {
    if (spec.name == "glove-200" || spec.name == "arxiv-768" ||
        spec.name == "deep-96" || spec.name == "msong-420") {
      continue;
    }
    spec.num_queries = 30;
    RunDataset(spec, table);
  }
  table.Print();
  return 0;
}
