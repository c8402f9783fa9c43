// Quickstart: store vectors in the PDX layout and run an exact k-NN search
// with PDX-BOND — no preprocessing, no index, no recall loss.
//
//   $ ./quickstart
//
// This is the smallest end-to-end use of the library: generate a toy
// embedding collection, build a searcher through the runtime facade, and
// query it one query at a time and as a batch.

#include <cstdio>
#include <vector>

#include "benchlib/datagen.h"
#include "common/timer.h"
#include "core/pdx.h"

int main() {
  // 1. A toy collection: 20,000 vectors of 128 dims (SIFT-like shape).
  pdx::SyntheticSpec spec;
  spec.name = "quickstart";
  spec.dim = 128;
  spec.count = 20000;
  spec.num_queries = 3;
  spec.distribution = pdx::ValueDistribution::kSkewed;
  pdx::Dataset dataset = pdx::GenerateDataset(spec);
  std::printf("collection: %zu vectors x %zu dims\n", dataset.data.count(),
              dataset.dim());

  // 2. Build a searcher straight from the raw floats. The default config is
  //    flat PDX-BOND: vectors are transposed into dimension-major PDX
  //    blocks, per-dimension statistics drive the query-aware dimension
  //    ordering, and no transformation touches the data.
  pdx::SearcherConfig config;
  config.k = 5;
  auto made = pdx::MakeSearcher(dataset.data, config);
  if (!made.ok()) {
    std::printf("MakeSearcher failed: %s\n", made.status().ToString().c_str());
    return 1;
  }
  auto searcher = std::move(made).value();
  const pdx::SearcherShape shape = searcher->shape();
  std::printf("searcher: %s layout, %s pruner, %zu vectors in %zu PDX "
              "blocks\n",
              pdx::SearcherLayoutName(searcher->options().layout),
              pdx::PrunerKindName(searcher->options().pruner), shape.count,
              shape.num_blocks);

  // 3. Query. Results are exact (identical to brute force), but most
  //    dimension values are never touched thanks to pruning.
  for (size_t q = 0; q < dataset.queries.count(); ++q) {
    const auto neighbors = searcher->Search(dataset.queries.Vector(q));
    const auto& profile = searcher->last_profile();
    std::printf("query %zu: ", q);
    for (const pdx::Neighbor& n : neighbors) {
      std::printf("(id=%u, d2=%.3f) ", n.id, n.distance);
    }
    std::printf("| pruned %.1f%% of values\n",
                100.0 * profile.pruning_power());
  }

  // 4. The same queries as one batched call — the serving-path API. The
  //    batch fans out over the thread pool it is given, still returns
  //    exactly the sequential results, and fills one work record per query.
  const size_t nq = dataset.queries.count();
  pdx::ThreadPool pool(2);
  std::vector<pdx::PdxearchProfile> work(nq);
  const pdx::Timer timer;
  const auto batch = searcher->SearchBatchWith(
      0, pdx::QueryKnobs{}, dataset.queries.data(), nq, &pool, work.data());
  const double ms = timer.ElapsedMillis();
  pdx::PdxearchProfile sum;
  for (const pdx::PdxearchProfile& w : work) sum += w;
  std::printf("batch: %zu queries in %.2f ms (%.0f QPS), pruned %.1f%%\n",
              nq, ms, 1000.0 * static_cast<double>(nq) / ms,
              100.0 * sum.pruning_power());
  return batch.size() == nq ? 0 : 1;
}
