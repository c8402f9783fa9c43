// End-to-end pipeline tests: generate data -> build index -> run every
// searcher family -> validate results, recall ordering, and persistence.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "benchlib/datagen.h"
#include "benchlib/recall.h"
#include "core/pdx.h"

namespace pdx {
namespace {

struct Pipeline {
  Dataset dataset;
  IvfIndex index;
  BucketOrderedSet ordered;
  std::vector<std::vector<VectorId>> truth;
};

Pipeline BuildPipeline(size_t dim, ValueDistribution distribution,
                       uint64_t seed) {
  SyntheticSpec spec;
  spec.name = "e2e";
  spec.dim = dim;
  spec.count = 4000;
  spec.num_queries = 12;
  spec.num_clusters = 12;
  spec.seed = seed;
  spec.distribution = distribution;
  Pipeline p{GenerateDataset(spec), {}, {}, {}};
  p.index = IvfIndex::Build(p.dataset.data, {});
  p.ordered = ReorderByBuckets(p.dataset.data, p.index);
  p.truth =
      ComputeGroundTruth(p.dataset.data, p.dataset.queries, 10, Metric::kL2);
  return p;
}

/// The searcher `config` describes: over `index` when non-null (kIvf).
std::unique_ptr<Searcher> Make(const VectorSet& data, const IvfIndex* index,
                               const SearcherConfig& config) {
  auto made = index != nullptr ? MakeSearcher(data, *index, config)
                               : MakeSearcher(data, config);
  EXPECT_TRUE(made.ok()) << made.status().ToString();
  return made.ok() ? std::move(made).value() : nullptr;
}

SearcherConfig Config(SearcherLayout layout, PrunerKind pruner) {
  SearcherConfig config;
  config.layout = layout;
  config.pruner = pruner;
  return config;
}

class EndToEndTest
    : public ::testing::TestWithParam<std::tuple<size_t, ValueDistribution>> {
};

TEST_P(EndToEndTest, AllExactSearchersAgreeEverywhere) {
  const auto [dim, distribution] = GetParam();
  Pipeline p = BuildPipeline(dim, distribution, dim * 3);

  PdxStore pdx_store = PdxStore::FromVectorSet(p.dataset.data);
  DsmStore dsm_store = DsmStore::FromVectorSet(p.dataset.data);
  auto bond = Make(p.dataset.data, nullptr, {});
  auto linear = Make(p.dataset.data, nullptr,
                     Config(SearcherLayout::kFlat, PrunerKind::kLinear));
  ASSERT_NE(bond, nullptr);
  ASSERT_NE(linear, nullptr);

  for (size_t q = 0; q < p.dataset.queries.count(); ++q) {
    const float* query = p.dataset.queries.Vector(q);
    const auto& expected = p.truth[q];
    const auto nary = FlatSearchNary(p.dataset.data, query, 10, Metric::kL2);
    const auto pdx = FlatSearchPdx(pdx_store, query, 10, Metric::kL2);
    const auto dsm = FlatSearchDsm(dsm_store, query, 10, Metric::kL2);
    const auto bond_result = bond->SearchWith(0, {10, 0}, query);
    const auto linear_result = linear->SearchWith(0, {10, 0}, query);
    for (size_t i = 0; i < 10; ++i) {
      ASSERT_EQ(nary[i].id, expected[i]);
      ASSERT_EQ(pdx[i].id, expected[i]);
      ASSERT_EQ(dsm[i].id, expected[i]);
      ASSERT_EQ(bond_result[i].id, expected[i]);
      ASSERT_EQ(linear_result[i].id, expected[i]);
    }
  }
}

TEST_P(EndToEndTest, ApproximateSearchersReachHighRecallAtFullProbe) {
  const auto [dim, distribution] = GetParam();
  Pipeline p = BuildPipeline(dim, distribution, dim * 5);

  auto ads = Make(p.dataset.data, &p.index,
                  Config(SearcherLayout::kIvf, PrunerKind::kAdsampling));
  auto bsa = Make(p.dataset.data, &p.index,
                  Config(SearcherLayout::kIvf, PrunerKind::kBsa));
  auto bond = Make(p.dataset.data, &p.index,
                   Config(SearcherLayout::kIvf, PrunerKind::kBond));
  ASSERT_NE(ads, nullptr);
  ASSERT_NE(bsa, nullptr);
  ASSERT_NE(bond, nullptr);

  const QueryKnobs full_probe{10, p.index.num_buckets()};
  std::vector<std::vector<Neighbor>> ads_results;
  std::vector<std::vector<Neighbor>> bsa_results;
  std::vector<std::vector<Neighbor>> bond_results;
  for (size_t q = 0; q < p.dataset.queries.count(); ++q) {
    const float* query = p.dataset.queries.Vector(q);
    ads_results.push_back(ads->SearchWith(0, full_probe, query));
    bsa_results.push_back(bsa->SearchWith(0, full_probe, query));
    bond_results.push_back(bond->SearchWith(0, full_probe, query));
  }
  EXPECT_GT(MeanRecallAtK(ads_results, p.truth, 10), 0.95);
  EXPECT_DOUBLE_EQ(MeanRecallAtK(bsa_results, p.truth, 10), 1.0);  // m=1.
  EXPECT_DOUBLE_EQ(MeanRecallAtK(bond_results, p.truth, 10), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, EndToEndTest,
    ::testing::Values(
        std::make_tuple(16, ValueDistribution::kNormal),
        std::make_tuple(50, ValueDistribution::kNormal),
        std::make_tuple(96, ValueDistribution::kSkewed)),
    [](const auto& info) {
      return "d" + std::to_string(std::get<0>(info.param)) + "_" +
             ValueDistributionName(std::get<1>(info.param));
    });

TEST(EndToEndTest, RecallIsMonotonicInNprobeForLinearScan) {
  Pipeline p = BuildPipeline(32, ValueDistribution::kNormal, 91);
  // The probed-bucket set grows with nprobe, so recall of an exact scan
  // over probed buckets is monotonically non-decreasing.
  double last = -1.0;
  for (size_t nprobe : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    std::vector<std::vector<Neighbor>> results;
    for (size_t q = 0; q < p.dataset.queries.count(); ++q) {
      results.push_back(IvfNarySearch(p.index, p.ordered,
                                      p.dataset.queries.Vector(q), 10,
                                      nprobe));
    }
    const double recall = MeanRecallAtK(results, p.truth, 10);
    ASSERT_GE(recall + 1e-9, last) << "nprobe " << nprobe;
    last = recall;
  }
  EXPECT_DOUBLE_EQ(last, 1.0);  // Full probe is exact.
}

TEST(EndToEndTest, PersistRoundTripThroughFvecs) {
  Pipeline p = BuildPipeline(24, ValueDistribution::kSkewed, 92);
  const auto dir = std::filesystem::temp_directory_path() /
                   ("pdx_e2e_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "data.fvecs").string();

  ASSERT_TRUE(WriteFvecs(path, p.dataset.data).ok());
  Result<VectorSet> restored = ReadFvecs(path);
  ASSERT_TRUE(restored.ok());

  auto original_searcher = Make(p.dataset.data, nullptr, {});
  auto restored_searcher = Make(restored.value(), nullptr, {});
  ASSERT_NE(original_searcher, nullptr);
  ASSERT_NE(restored_searcher, nullptr);
  for (size_t q = 0; q < 5; ++q) {
    const float* query = p.dataset.queries.Vector(q);
    const auto a = original_searcher->SearchWith(0, {10, 0}, query);
    const auto b = restored_searcher->SearchWith(0, {10, 0}, query);
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].id, b[i].id);
      ASSERT_EQ(a[i].distance, b[i].distance);
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(EndToEndTest, AppendThenRebuildFindsNewVector) {
  Pipeline p = BuildPipeline(16, ValueDistribution::kNormal, 93);
  // Plant a vector identical to query 0: it must become the 1-NN after
  // appending and rebuilding the PDX store (PDX's "as-is, no
  // preprocessing" ingestion claim).
  VectorSet grown = p.dataset.data.Clone();
  const VectorId planted = grown.Append(p.dataset.queries.Vector(0));
  auto searcher = Make(grown, nullptr, {});
  ASSERT_NE(searcher, nullptr);
  const auto result =
      searcher->SearchWith(0, {1, 0}, p.dataset.queries.Vector(0));
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].id, planted);
  EXPECT_FLOAT_EQ(result[0].distance, 0.0f);
}

TEST(EndToEndTest, PruningPowerHigherOnSkewedData) {
  Pipeline normal = BuildPipeline(48, ValueDistribution::kNormal, 94);
  Pipeline skewed = BuildPipeline(48, ValueDistribution::kSkewed, 94);

  auto run = [](Pipeline& p) {
    SearcherConfig config;
    config.block_capacity = 512;  // Multiple blocks -> pruning can engage.
    auto searcher = Make(p.dataset.data, nullptr, config);
    double power = 0.0;
    for (size_t q = 0; q < p.dataset.queries.count(); ++q) {
      PdxearchProfile profile;
      searcher->SearchWith(0, {10, 0}, p.dataset.queries.Vector(q), &profile);
      power += profile.pruning_power();
    }
    return power / p.dataset.queries.count();
  };
  // The paper's Table 2/6 observation: skewed datasets prune (much) better.
  EXPECT_GT(run(skewed), run(normal));
}

}  // namespace
}  // namespace pdx
