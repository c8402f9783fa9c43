#ifndef PDX_BENCH_BENCH_COMMON_H_
#define PDX_BENCH_BENCH_COMMON_H_

// Shared scaffolding for the per-table/figure benchmark binaries.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <vector>

#include "benchlib/bench_utils.h"
#include "benchlib/datagen.h"
#include "benchlib/latency.h"
#include "benchlib/recall.h"
#include "benchlib/workloads.h"
#include "common/timer.h"
#include "core/pdx.h"

namespace pdx {
namespace bench {

/// Everything the IVF experiments need about one dataset, built once.
struct IvfScenario {
  Dataset dataset;
  IvfIndex index;
  BucketOrderedSet ordered;  // Raw vectors in bucket order.
  std::vector<std::vector<VectorId>> truth;
  size_t k = 10;
};

inline IvfScenario BuildIvfScenario(const SyntheticSpec& spec,
                                    size_t k = 10) {
  IvfScenario s;
  s.k = k;
  s.dataset = GenerateDataset(spec);
  s.index = IvfIndex::Build(s.dataset.data, {});
  s.ordered = ReorderByBuckets(s.dataset.data, s.index);
  s.truth = ComputeGroundTruth(s.dataset.data, s.dataset.queries, k);
  return s;
}

/// MakeSearcher for bench code: over the shared `index` when non-null (the
/// paper's "all competitors share one IVF index"), else over `vectors`
/// alone. A config the bench got wrong aborts with its status instead of
/// running on a null searcher.
inline std::unique_ptr<Searcher> MustMakeSearcher(
    const VectorSet& vectors, const IvfIndex* index,
    const SearcherConfig& config) {
  Result<std::unique_ptr<Searcher>> made =
      index != nullptr ? MakeSearcher(vectors, *index, config)
                       : MakeSearcher(vectors, config);
  if (!made.ok()) {
    std::fprintf(stderr, "MakeSearcher failed: %s\n",
                 made.status().ToString().c_str());
    std::abort();
  }
  return std::move(made).value();
}

/// Facade config of one PDX searcher with the paper's defaults.
inline SearcherConfig PdxConfig(SearcherLayout layout, PrunerKind pruner,
                                size_t k = 10) {
  SearcherConfig config;
  config.layout = layout;
  config.pruner = pruner;
  config.k = k;
  return config;
}

/// Runs `search(query_index)` for every query; returns mean recall, QPS,
/// and the per-query latency distribution (p50/p95/p99).
struct SweepResult {
  double recall = 0.0;
  double qps = 0.0;
  LatencySummary latency;
};

inline SweepResult MeasureSweep(
    const IvfScenario& s,
    const std::function<std::vector<Neighbor>(size_t)>& search) {
  const size_t nq = s.dataset.queries.count();
  std::vector<std::vector<Neighbor>> results;
  results.reserve(nq);
  LatencyRecorder latencies;
  Timer timer;
  for (size_t q = 0; q < nq; ++q) {
    Timer per_query;
    results.push_back(search(q));
    latencies.Record(per_query.ElapsedMillis());
  }
  const double seconds = timer.ElapsedSeconds();
  SweepResult out;
  out.qps = static_cast<double>(nq) / seconds;
  out.recall = MeanRecallAtK(results, s.truth, s.k);
  out.latency = latencies.Summary();
  return out;
}

/// nprobe ladder clipped to the bucket count (the paper sweeps to 512).
inline std::vector<size_t> NprobeLadder(size_t num_buckets) {
  std::vector<size_t> ladder;
  for (size_t p : {2u, 8u, 32u, 128u}) {
    ladder.push_back(std::min<size_t>(p, num_buckets));
  }
  // Dedup in case the bucket count clipped several rungs together.
  ladder.erase(std::unique(ladder.begin(), ladder.end()), ladder.end());
  return ladder;
}

}  // namespace bench
}  // namespace pdx

#endif  // PDX_BENCH_BENCH_COMMON_H_
