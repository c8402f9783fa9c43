// Exact-search scenario: near-duplicate detection over image-feature
// vectors (GIST-like: 960 dims, skewed marginals).
//
// A deduplication pipeline cannot tolerate missed neighbors, so it needs
// *exact* k-NN — the setting of the paper's Figure 9. This example runs
// the same query workload through every exact searcher in the library and
// reports per-query latency, demonstrating that PDX-BOND returns identical
// results while touching a fraction of the data, and that PDX-BOND run as
// a one-query batch on a pool of 4 (START on the caller, the partitions
// after it split over the pool) returns its sequential answers.

#include <cstdio>
#include <cstring>
#include <vector>

#include "benchlib/datagen.h"
#include "common/timer.h"
#include "core/pdx.h"

namespace {

template <typename SearchFn>
double MeasureMillisPerQuery(const pdx::VectorSet& queries, SearchFn&& fn) {
  pdx::Timer timer;
  for (size_t q = 0; q < queries.count(); ++q) fn(queries.Vector(q));
  return timer.ElapsedMillis() / static_cast<double>(queries.count());
}

}  // namespace

int main() {
  pdx::SyntheticSpec spec;
  spec.name = "dedup";
  spec.dim = 960;
  // Past three split tasks (kSplitTaskLanes lanes each after START), so a
  // one-query batch on a pool splits into three ranges.
  spec.count = 32768;
  spec.num_queries = 20;
  spec.distribution = pdx::ValueDistribution::kSkewed;
  pdx::Dataset dataset = pdx::GenerateDataset(spec);
  const size_t k = 10;

  // Competing exact searchers over the same collection. PDX-BOND goes
  // through the runtime facade (flat layout is its default).
  pdx::PdxStore pdx_store = pdx::PdxStore::FromVectorSet(dataset.data);
  pdx::DsmStore dsm_store = pdx::DsmStore::FromVectorSet(dataset.data);
  pdx::SearcherConfig bond_config;
  bond_config.pruner = pdx::PrunerKind::kBond;
  bond_config.k = k;
  bond_config.block_capacity = 1024;  // 32 partitions for 32K vectors.
  auto bond = pdx::MakeSearcher(dataset.data, bond_config).value();

  std::vector<std::vector<pdx::Neighbor>> reference;
  const double nary_ms = MeasureMillisPerQuery(
      dataset.queries, [&](const float* q) {
        reference.push_back(
            pdx::FlatSearchNary(dataset.data, q, k, pdx::Metric::kL2));
      });
  const double scalar_ms = MeasureMillisPerQuery(
      dataset.queries, [&](const float* q) {
        pdx::FlatSearchScalar(dataset.data, q, k, pdx::Metric::kL2);
      });
  const double pdx_ms = MeasureMillisPerQuery(
      dataset.queries, [&](const float* q) {
        pdx::FlatSearchPdx(pdx_store, q, k, pdx::Metric::kL2);
      });
  const double dsm_ms = MeasureMillisPerQuery(
      dataset.queries, [&](const float* q) {
        pdx::FlatSearchDsm(dsm_store, q, k, pdx::Metric::kL2);
      });

  // PDX-BOND, with a correctness check against the SIMD reference.
  size_t mismatches = 0;
  size_t query_index = 0;
  std::vector<std::vector<pdx::Neighbor>> bond_results;
  const double bond_ms = MeasureMillisPerQuery(
      dataset.queries, [&](const float* q) {
        bond_results.push_back(bond->Search(q));
        const auto& result = bond_results.back();
        const auto& expected = reference[query_index++];
        for (size_t i = 0; i < k; ++i) {
          if (result[i].id != expected[i].id) ++mismatches;
        }
      });

  // The same searcher, each query a one-query batch on a caller pool of 4,
  // checked against its sequential answers: ids and distance bits.
  pdx::ThreadPool pool(4);
  bond->ReserveScratch(pool.num_threads());
  size_t split_mismatches = 0;
  query_index = 0;
  const double split_ms = MeasureMillisPerQuery(
      dataset.queries, [&](const float* q) {
        const auto result = bond->SearchBatchWith(0, {}, q, 1, &pool).front();
        const auto& expected = bond_results[query_index++];
        for (size_t i = 0; i < k; ++i) {
          if (result[i].id != expected[i].id ||
              std::memcmp(&result[i].distance, &expected[i].distance,
                          sizeof(float)) != 0) {
            ++split_mismatches;
          }
        }
      });

  std::printf("exact 10-NN over %zu x %zu (ms/query):\n",
              dataset.data.count(), dataset.dim());
  std::printf("  scalar (sklearn-like)  %8.3f\n", scalar_ms);
  std::printf("  N-ary SIMD (FAISS-like)%8.3f\n", nary_ms);
  std::printf("  DSM linear scan        %8.3f\n", dsm_ms);
  std::printf("  PDX linear scan        %8.3f\n", pdx_ms);
  std::printf("  PDX-BOND (pruned)      %8.3f\n", bond_ms);
  std::printf("  PDX-BOND, pool of 4    %8.3f\n", split_ms);
  std::printf(
      "PDX-BOND on a pool of 4 mismatches vs sequential PDX-BOND (ids and "
      "distance bits): %zu (must be 0)\n",
      split_mismatches);
  std::printf("PDX-BOND result mismatches vs reference: %zu (must be 0)\n",
              mismatches);
  return mismatches == 0 && split_mismatches == 0 ? 0 : 1;
}
