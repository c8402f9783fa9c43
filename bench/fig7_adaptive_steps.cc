// Figure 7: adaptive (exponential) fetch steps vs ADSampling's fixed
// Δd = 32, per query, on a GIST-like dataset (960 dims, skewed) — the very
// dataset the Δd=32 default was tuned on.
//
// Paper shape to reproduce: ~43% of queries improve, a few >= 1.5x, <1%
// regress by more than 10%.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/math_utils.h"

int main() {
  using namespace pdx;
  PrintBanner("Figure 7: adaptive vs fixed (Δd=32) steps on GIST-like/960");
  const double scale = BenchScaleFromEnv();

  SyntheticSpec spec;
  spec.name = "gist-960";
  spec.dim = 960;
  spec.count = std::max<size_t>(2000, static_cast<size_t>(12000 * scale));
  spec.num_queries = 100;
  spec.num_clusters = 24;
  spec.distribution = ValueDistribution::kSkewed;
  spec.seed = 42 + 960;

  bench::IvfScenario s = bench::BuildIvfScenario(spec);
  SearcherConfig adaptive_config =
      bench::PdxConfig(SearcherLayout::kIvf, PrunerKind::kAdsampling, s.k);
  adaptive_config.search.adaptive_steps = true;
  auto adaptive =
      bench::MustMakeSearcher(s.dataset.data, &s.index, adaptive_config);
  SearcherConfig fixed_config = adaptive_config;
  fixed_config.search.adaptive_steps = false;
  fixed_config.search.fixed_step = 32;
  auto fixed = bench::MustMakeSearcher(s.dataset.data, &s.index, fixed_config);

  const size_t nprobe = std::min<size_t>(64, s.index.num_buckets());
  size_t faster_150 = 0;
  size_t faster_110 = 0;
  size_t faster_any = 0;
  size_t slower_110 = 0;
  std::vector<double> speedups;
  for (size_t q = 0; q < s.dataset.queries.count(); ++q) {
    const float* query = s.dataset.queries.Vector(q);
    const double fixed_ns = MedianRunNanos(
        [&]() { fixed->SearchWith(0, {s.k, nprobe}, query); }, 5);
    const double adaptive_ns = MedianRunNanos(
        [&]() { adaptive->SearchWith(0, {s.k, nprobe}, query); }, 5);
    const double speedup = fixed_ns / adaptive_ns;
    speedups.push_back(speedup);
    if (speedup >= 1.5) ++faster_150;
    if (speedup >= 1.1) ++faster_110;
    if (speedup > 1.0) ++faster_any;
    if (speedup < 1.0 / 1.1) ++slower_110;
  }

  const size_t nq = speedups.size();
  TextTable table({"bucket", "queries", "fraction"});
  auto frac = [&](size_t count) {
    return TextTable::Num(100.0 * count / nq, 1) + "%";
  };
  table.AddRow({"faster (any)", std::to_string(faster_any),
                frac(faster_any)});
  table.AddRow({"faster >=1.1x", std::to_string(faster_110),
                frac(faster_110)});
  table.AddRow({"faster >=1.5x", std::to_string(faster_150),
                frac(faster_150)});
  table.AddRow({"slower >=1.1x", std::to_string(slower_110),
                frac(slower_110)});
  table.Print();

  std::vector<float> as_float(speedups.begin(), speedups.end());
  std::printf(
      "speedup quartiles: p25=%.2f p50=%.2f p75=%.2f max=%.2f\n",
      Percentile(as_float, 25), Percentile(as_float, 50),
      Percentile(as_float, 75), Percentile(as_float, 100));
  std::printf(
      "Expected shape: a large minority of queries improve, a tail "
      ">=1.5x, almost none regress >10%%.\n");
  return 0;
}
