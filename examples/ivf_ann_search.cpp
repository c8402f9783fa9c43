// Approximate-search scenario: a RAG-style retrieval service over LLM text
// embeddings (768 dims, the paper's Contriever/arXiv shape).
//
// The service trades a little recall for large speedups: an IVF index
// narrows the search to a few buckets, and ADSampling + PDXearch prunes
// most dimension values inside them. Both searchers are built through the
// runtime facade over ONE shared index; the example sweeps nprobe, prints
// the recall/QPS frontier, then serves the whole query set as a
// multi-threaded batch — the "heavy traffic" path.

#include <cstdio>
#include <utility>
#include <vector>

#include "benchlib/datagen.h"
#include "benchlib/recall.h"
#include "common/timer.h"
#include "core/pdx.h"

int main() {
  pdx::SyntheticSpec spec;
  spec.name = "rag";
  spec.dim = 768;
  spec.count = 12000;
  spec.num_queries = 30;
  spec.distribution = pdx::ValueDistribution::kNormal;
  pdx::Dataset dataset = pdx::GenerateDataset(spec);
  const size_t nq = dataset.queries.count();
  const size_t k = 10;

  std::printf("building IVF index over %zu x %zu ...\n",
              dataset.data.count(), dataset.dim());
  pdx::IvfIndex index = pdx::IvfIndex::Build(dataset.data, {});
  std::printf("  %zu buckets\n", index.num_buckets());

  std::printf("preprocessing (ADSampling rotation, PDX layout) ...\n");
  pdx::SearcherConfig config;
  config.layout = pdx::SearcherLayout::kIvf;
  config.k = k;
  config.pruner = pdx::PrunerKind::kAdsampling;
  auto ads = pdx::MakeSearcher(dataset.data, index, config).value();
  config.pruner = pdx::PrunerKind::kBond;  // The "no preprocessing" option.
  auto bond = pdx::MakeSearcher(dataset.data, index, config).value();
  const auto truth =
      pdx::ComputeGroundTruth(dataset.data, dataset.queries, k);

  std::printf("\n%8s %12s %12s %12s %12s\n", "nprobe", "ADS recall",
              "ADS QPS", "BOND recall", "BOND QPS");
  for (size_t nprobe : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    if (nprobe > index.num_buckets()) break;

    // Sequential batches (no pool): per-query latency methodology.
    auto sweep = [&](pdx::Searcher& searcher) {
      const pdx::Timer timer;
      const auto results = searcher.SearchBatchWith(
          0, pdx::QueryKnobs{0, nprobe}, dataset.queries.data(), nq);
      const double qps = static_cast<double>(nq) / timer.ElapsedSeconds();
      return std::make_pair(pdx::MeanRecallAtK(results, truth, k), qps);
    };

    const auto [ads_recall, ads_qps] = sweep(*ads);
    const auto [bond_recall, bond_qps] = sweep(*bond);
    std::printf("%8zu %12.3f %12.0f %12.3f %12.0f\n", nprobe, ads_recall,
                ads_qps, bond_recall, bond_qps);
  }

  // Serving mode: same API, multiple workers per batch, at the build-time
  // default nprobe = 16.
  for (size_t threads : {1u, 4u}) {
    ads->set_threads(threads);
    const pdx::Timer timer;
    ads->SearchBatch(dataset.queries.data(), nq);
    const double ms = timer.ElapsedMillis();
    std::printf("\nbatched ADS @ nprobe=16, threads=%zu: %.2f ms wall "
                "(%.0f QPS)",
                threads, ms, 1000.0 * static_cast<double>(nq) / ms);
  }
  std::printf(
      "\n\nNote: PDX-BOND recall == recall of the probed buckets (exact "
      "within them); ADSampling adds probabilistic dimension pruning on "
      "top.\n");
  return 0;
}
