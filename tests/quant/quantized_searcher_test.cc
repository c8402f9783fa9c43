// Facade-level tests of the quantized serving tier: SearcherConfig with
// quantization = kU8 routed through MakeSearcher / MakeShardedSearcher,
// the exact-rerank recall contract, batch parity, the rerank_candidates
// counter, the resident-bytes accounting, and the PDXC save -> load round
// trip with zero requantization work.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "benchlib/datagen.h"
#include "benchlib/recall.h"
#include "core/any_searcher.h"
#include "core/persist.h"
#include "core/sharded_searcher.h"
#include "obs/pdxearch_profile.h"
#include "quant/quantized_store.h"

namespace pdx {
namespace {

Dataset MakeData(size_t dim = 32, size_t count = 2000, size_t num_queries = 20,
                 uint64_t seed = 42) {
  SyntheticSpec spec;
  spec.name = "quant-searcher-test";
  spec.dim = dim;
  spec.count = count;
  spec.num_queries = num_queries;
  spec.num_clusters = 8;
  spec.seed = seed;
  spec.distribution = ValueDistribution::kNormal;
  return GenerateDataset(spec);
}

SearcherConfig QuantConfig(SearcherLayout layout, size_t rerank_factor,
                           size_t k = 10) {
  SearcherConfig config;
  config.layout = layout;
  config.quantization = QuantizationKind::kU8;
  config.rerank_factor = rerank_factor;
  config.k = k;
  config.nprobe = 4;
  return config;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// The ISSUE acceptance bar: at rerank_factor = 4 the u8 tier recovers at
// least 0.95 of the exact tier's recall on a flat collection (where the
// exact tier IS the ground truth).
TEST(QuantizedSearcherTest, FlatRerankRecallMeetsAcceptanceBar) {
  Dataset data = MakeData();
  const size_t k = 10;
  auto made = MakeSearcher(data.data, QuantConfig(SearcherLayout::kFlat, 4));
  ASSERT_TRUE(made.ok()) << made.status().message();
  std::unique_ptr<Searcher> searcher = std::move(made).value();

  const auto truth = ComputeGroundTruth(data.data, data.queries, k);
  std::vector<std::vector<Neighbor>> results;
  for (size_t q = 0; q < data.queries.count(); ++q) {
    results.push_back(searcher->Search(data.queries.Vector(q)));
  }
  EXPECT_GE(MeanRecallAtK(results, truth, k), 0.95);
}

// IVF routing composes with quantization: both searchers visit the same
// nprobe buckets of the facade-built index, so the reranked u8 results
// must track the float IVF results closely.
TEST(QuantizedSearcherTest, IvfQuantizedTracksFloatIvf) {
  Dataset data = MakeData();
  const size_t k = 10;
  SearcherConfig float_config;
  float_config.layout = SearcherLayout::kIvf;
  float_config.pruner = PrunerKind::kLinear;
  float_config.k = k;
  float_config.nprobe = 4;
  // Same seed-deterministic k-means on identical input: the two facades
  // build identical bucket lists, so the candidate sets match.
  auto exact = MakeSearcher(data.data, float_config);
  ASSERT_TRUE(exact.ok()) << exact.status().message();
  auto quant = MakeSearcher(data.data, QuantConfig(SearcherLayout::kIvf, 4));
  ASSERT_TRUE(quant.ok()) << quant.status().message();

  double recall_sum = 0.0;
  for (size_t q = 0; q < data.queries.count(); ++q) {
    const float* query = data.queries.Vector(q);
    const std::vector<Neighbor> reference = exact.value()->Search(query);
    std::vector<VectorId> reference_ids;
    for (const Neighbor& n : reference) reference_ids.push_back(n.id);
    recall_sum +=
        RecallAtK(quant.value()->Search(query), reference_ids, k);
  }
  EXPECT_GE(recall_sum / data.queries.count(), 0.95);
}

// SearchBatch must reproduce sequential Search result-for-result — the
// facade's batch-parity guarantee holds on the quantized tier too.
TEST(QuantizedSearcherTest, BatchMatchesSequential) {
  Dataset data = MakeData(24, 1200, 12, 7);
  auto made = MakeSearcher(data.data, QuantConfig(SearcherLayout::kFlat, 4));
  ASSERT_TRUE(made.ok()) << made.status().message();
  std::unique_ptr<Searcher> searcher = std::move(made).value();

  const std::vector<std::vector<Neighbor>> batched =
      searcher->SearchBatch(data.queries.data(), data.queries.count());
  ASSERT_EQ(batched.size(), data.queries.count());
  for (size_t q = 0; q < data.queries.count(); ++q) {
    const std::vector<Neighbor> sequential =
        searcher->Search(data.queries.Vector(q));
    ASSERT_EQ(batched[q].size(), sequential.size()) << "query " << q;
    for (size_t i = 0; i < sequential.size(); ++i) {
      EXPECT_EQ(batched[q][i].id, sequential[i].id)
          << "query " << q << " rank " << i;
      EXPECT_EQ(batched[q][i].distance, sequential[i].distance)
          << "query " << q << " rank " << i;
    }
  }
}

// The knob-explicit surface reports how many candidates the exact rerank
// touched: k * rerank_factor when the collection is big enough, and zero
// with rerank disabled (raw quantized distances are served).
TEST(QuantizedSearcherTest, RerankCandidatesCounterSurfaces) {
  Dataset data = MakeData(16, 800, 4, 13);
  const size_t k = 10;
  const size_t rerank_factor = 4;
  auto made =
      MakeSearcher(data.data, QuantConfig(SearcherLayout::kFlat,
                                          rerank_factor, k));
  ASSERT_TRUE(made.ok()) << made.status().message();
  std::unique_ptr<Searcher> searcher = std::move(made).value();
  searcher->ReserveScratch(1);

  std::vector<PdxearchProfile> counters(data.queries.count());
  (void)searcher->SearchBatchWith(0, QueryKnobs{}, data.queries.data(),
                                  data.queries.count(), nullptr,
                                  counters.data());
  for (size_t q = 0; q < counters.size(); ++q) {
    EXPECT_EQ(counters[q].rerank_candidates, k * rerank_factor)
        << "query " << q;
  }

  auto raw = MakeSearcher(data.data,
                          QuantConfig(SearcherLayout::kFlat, 0, k));
  ASSERT_TRUE(raw.ok()) << raw.status().message();
  raw.value()->ReserveScratch(1);
  std::vector<PdxearchProfile> raw_counters(data.queries.count());
  (void)raw.value()->SearchBatchWith(0, QueryKnobs{}, data.queries.data(),
                                     data.queries.count(), nullptr,
                                     raw_counters.data());
  for (size_t q = 0; q < raw_counters.size(); ++q) {
    EXPECT_EQ(raw_counters[q].rerank_candidates, 0u) << "query " << q;
  }
}

// An over-fetch of count() candidates already reranks every scanned
// vector, so a rerank_factor far beyond it (one the config and the wire
// accept) serves byte-identical results, with the same rerank work,
// instead of overflowing or exhausting memory in the candidate heap.
TEST(QuantizedSearcherTest, HugeRerankFactorMatchesRerankingEverything) {
  Dataset data = MakeData(16, 600, 6, 29);
  const size_t count = data.data.count();
  ShardingOptions three;
  three.num_shards = 3;
  struct Shape {
    const char* name;
    SearcherLayout layout;
    ShardingOptions sharding;
  };
  for (const Shape& shape : {Shape{"flat", SearcherLayout::kFlat, {}},
                             Shape{"ivf", SearcherLayout::kIvf, {}},
                             Shape{"3-shard", SearcherLayout::kFlat, three}}) {
    auto everything = MakeShardedSearcher(
        data.data, QuantConfig(shape.layout, count), shape.sharding);
    auto huge = MakeShardedSearcher(
        data.data, QuantConfig(shape.layout, size_t{1000000000000000}),
        shape.sharding);
    ASSERT_TRUE(everything.ok()) << everything.status().message();
    ASSERT_TRUE(huge.ok()) << huge.status().message();
    const size_t nq = data.queries.count();
    std::vector<PdxearchProfile> expected_work(nq);
    std::vector<PdxearchProfile> huge_work(nq);
    const auto expected = everything.value()->SearchBatchWith(
        0, QueryKnobs{}, data.queries.data(), nq, nullptr,
        expected_work.data());
    const auto actual = huge.value()->SearchBatchWith(
        0, QueryKnobs{}, data.queries.data(), nq, nullptr, huge_work.data());
    for (size_t q = 0; q < nq; ++q) {
      ASSERT_EQ(actual[q].size(), expected[q].size()) << shape.name;
      for (size_t i = 0; i < actual[q].size(); ++i) {
        EXPECT_EQ(actual[q][i].id, expected[q][i].id) << shape.name;
        EXPECT_EQ(actual[q][i].distance, expected[q][i].distance)
            << shape.name;
      }
      EXPECT_EQ(huge_work[q].rerank_candidates,
                expected_work[q].rerank_candidates)
          << shape.name;
    }
  }
}

// The saved meta holds the factor in 32 bits. It saturates there instead
// of wrapping — 2^40 would wrap to 0 and reload with reranking off — and
// any factor past the vector count serves the same results.
TEST(QuantizedSearcherTest, HugeRerankFactorSurvivesSaveAndLoad) {
  Dataset data = MakeData(16, 600, 6, 31);
  auto built = MakeSearcher(
      data.data, QuantConfig(SearcherLayout::kFlat, size_t{1} << 40));
  ASSERT_TRUE(built.ok()) << built.status().message();
  const std::string path = TempPath("quant_huge_rerank.pdxc");
  ASSERT_TRUE(built.value()->Save(path).ok());
  auto loaded = LoadCollection(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value().config.rerank_factor, size_t{UINT32_MAX});
  for (size_t q = 0; q < data.queries.count(); ++q) {
    const float* query = data.queries.Vector(q);
    const std::vector<Neighbor> expect = built.value()->Search(query);
    const std::vector<Neighbor> got = loaded.value().searcher->Search(query);
    ASSERT_EQ(got.size(), expect.size()) << "query " << q;
    for (size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(got[i].id, expect[i].id) << "query " << q;
      EXPECT_EQ(got[i].distance, expect[i].distance) << "query " << q;
    }
  }
  std::remove(path.c_str());
}

// The compressed footprint is one byte per value: the shape's
// quantized_bytes == count * dim, a quarter of the float arena — and the
// float tier reports zero.
TEST(QuantizedSearcherTest, QuantizedBytesIsOneBytePerValue) {
  Dataset data = MakeData(16, 700, 2, 5);
  auto quant =
      MakeSearcher(data.data, QuantConfig(SearcherLayout::kFlat, 4));
  ASSERT_TRUE(quant.ok()) << quant.status().message();
  EXPECT_EQ(quant.value()->shape().quantized_bytes,
            data.data.count() * data.data.dim());

  SearcherConfig float_config;
  float_config.k = 10;
  auto exact = MakeSearcher(data.data, float_config);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact.value()->shape().quantized_bytes, 0u);
}

// Sharded composition: quantized shards behind MakeShardedSearcher serve
// one exact global top-k merge with the same recall bar, and the facade
// sums the per-shard code bytes.
TEST(QuantizedSearcherTest, ShardedQuantizedComposes) {
  Dataset data = MakeData();
  const size_t k = 10;
  ShardingOptions sharding;
  sharding.num_shards = 3;
  auto made = MakeShardedSearcher(
      data.data, QuantConfig(SearcherLayout::kFlat, 4), sharding);
  ASSERT_TRUE(made.ok()) << made.status().message();
  std::unique_ptr<Searcher> searcher = std::move(made).value();
  EXPECT_EQ(searcher->shape().num_shards, 3u);
  EXPECT_EQ(searcher->dim(), data.data.dim());
  EXPECT_EQ(searcher->shape().quantized_bytes,
            data.data.count() * data.data.dim());

  const auto truth = ComputeGroundTruth(data.data, data.queries, k);
  std::vector<std::vector<Neighbor>> results;
  for (size_t q = 0; q < data.queries.count(); ++q) {
    results.push_back(searcher->Search(data.queries.Vector(q)));
  }
  EXPECT_GE(MeanRecallAtK(results, truth, k), 0.95);
}

// Save -> load round trip: the loaded searcher restores the SAME codes
// and parameters (byte-identical results), the config survives
// (quantization + rerank_factor), and loading runs ZERO requantization —
// the codes are views into the image, never re-derived.
TEST(QuantizedSearcherTest, SaveLoadRoundTripWithZeroRequantization) {
  Dataset data = MakeData(24, 1500, 6, 99);
  for (SearcherLayout layout :
       {SearcherLayout::kFlat, SearcherLayout::kIvf}) {
    const std::string label =
        layout == SearcherLayout::kFlat ? "flat" : "ivf";
    auto built = MakeSearcher(data.data, QuantConfig(layout, 4));
    ASSERT_TRUE(built.ok()) << label << ": " << built.status().message();
    std::unique_ptr<Searcher> searcher = std::move(built).value();

    const std::string path = TempPath("quant_roundtrip.pdxc");
    ASSERT_TRUE(searcher->Save(path).ok()) << label;

    for (bool allow_mmap : {true, false}) {
      const uint64_t packs_before = QuantizedPackCount();
      LoadOptions options;
      options.allow_mmap = allow_mmap;
      auto loaded = LoadCollection(path, options);
      ASSERT_TRUE(loaded.ok()) << label << ": " << loaded.status().message();
      EXPECT_EQ(QuantizedPackCount(), packs_before)
          << label << ": loading must not requantize";
      EXPECT_EQ(loaded.value().config.quantization, QuantizationKind::kU8)
          << label;
      EXPECT_EQ(loaded.value().config.rerank_factor, 4u) << label;
      EXPECT_EQ(loaded.value().searcher->shape().quantized_bytes,
                data.data.count() * data.data.dim())
          << label;
      for (size_t q = 0; q < data.queries.count(); ++q) {
        const float* query = data.queries.Vector(q);
        const std::vector<Neighbor> expect = searcher->Search(query);
        const std::vector<Neighbor> got =
            loaded.value().searcher->Search(query);
        ASSERT_EQ(got.size(), expect.size()) << label << " query " << q;
        for (size_t i = 0; i < expect.size(); ++i) {
          EXPECT_EQ(got[i].id, expect[i].id)
              << label << " query " << q << " rank " << i;
          EXPECT_EQ(got[i].distance, expect[i].distance)
              << label << " query " << q << " rank " << i;
        }
      }
    }
    std::remove(path.c_str());
  }
}

// Config validation at the facade: the u8 tier is L2-only and composes
// with the linear pruner only — everything else is an explicit
// kUnsupported, not a silent wrong answer.
TEST(QuantizedSearcherTest, RejectsUnsupportedCombinations) {
  Dataset data = MakeData(8, 200, 1, 3);
  SearcherConfig config = QuantConfig(SearcherLayout::kFlat, 4);
  config.metric = Metric::kIp;
  auto wrong_metric = MakeSearcher(data.data, config);
  ASSERT_FALSE(wrong_metric.ok());
  EXPECT_TRUE(wrong_metric.status().IsUnsupported());

  config = QuantConfig(SearcherLayout::kFlat, 4);
  config.pruner = PrunerKind::kAdsampling;
  auto wrong_pruner = MakeSearcher(data.data, config);
  ASSERT_FALSE(wrong_pruner.ok());
  EXPECT_TRUE(wrong_pruner.status().IsUnsupported());
}

}  // namespace
}  // namespace pdx
