#include "benchlib/workloads.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "benchlib/datagen.h"

namespace pdx {
namespace {

Dataset SmallDataset() {
  SyntheticSpec spec;
  spec.name = "workloads-test";
  spec.dim = 16;
  spec.count = 1500;
  spec.num_queries = 3;
  spec.num_clusters = 6;
  spec.seed = 5;
  spec.distribution = ValueDistribution::kNormal;
  return GenerateDataset(spec);
}

TEST(WorkloadsTest, PaperRosterShapes) {
  const auto workloads = PaperWorkloads(1.0);
  ASSERT_EQ(workloads.size(), 10u);  // Table 1's ten datasets.
  for (const auto& spec : workloads) {
    EXPECT_GT(spec.dim, 0u);
    EXPECT_GE(spec.count, 1000u);
  }
}

TEST(WorkloadsTest, PrunerRosterCoversAllPruners) {
  const auto roster = PrunerRoster(SearcherLayout::kIvf, 5, 8, 2);
  ASSERT_EQ(roster.size(), 4u);
  for (const auto& [name, config] : roster) {
    EXPECT_FALSE(name.empty());
    EXPECT_EQ(config.layout, SearcherLayout::kIvf);
    EXPECT_EQ(config.k, 5u);
    EXPECT_EQ(config.nprobe, 8u);
    EXPECT_EQ(config.threads, 2u);
  }
}

TEST(WorkloadsTest, BuildPrunerRosterFlatAndIvf) {
  Dataset dataset = SmallDataset();
  const auto flat = BuildPrunerRoster(dataset.data, nullptr,
                                      SearcherLayout::kFlat, 5);
  ASSERT_EQ(flat.size(), 4u);
  for (const auto& entry : flat) {
    ASSERT_NE(entry.searcher, nullptr) << entry.name;
    EXPECT_EQ(entry.searcher->Search(dataset.queries.Vector(0)).size(), 5u)
        << entry.name;
  }

  // Not the auto bucket count (~sqrt(1500)), so a searcher that built an
  // index of its own would show.
  IvfOptions options;
  options.num_buckets = 12;
  IvfIndex index = IvfIndex::Build(dataset.data, options);
  const auto ivf = BuildPrunerRoster(dataset.data, &index,
                                     SearcherLayout::kIvf, 5, 4);
  ASSERT_EQ(ivf.size(), 4u);
  for (const auto& entry : ivf) {
    // Routed through the shared index: its buckets are the nprobe
    // ceiling, and a searcher built over it answers identically.
    EXPECT_EQ(entry.searcher->shape().max_nprobe, index.num_buckets())
        << entry.name;
    auto direct =
        MakeSearcher(dataset.data, index, entry.searcher->options());
    ASSERT_TRUE(direct.ok()) << entry.name;
    for (size_t q = 0; q < dataset.queries.count(); ++q) {
      const auto expected = direct.value()->Search(dataset.queries.Vector(q));
      const auto actual = entry.searcher->Search(dataset.queries.Vector(q));
      ASSERT_EQ(actual.size(), expected.size()) << entry.name;
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(actual[i].id, expected[i].id) << entry.name;
        EXPECT_EQ(actual[i].distance, expected[i].distance) << entry.name;
      }
    }
  }
}

TEST(WorkloadsTest, BuildPrunerRosterCustomizeFiltersAndTunes) {
  Dataset dataset = SmallDataset();
  const auto roster = BuildPrunerRoster(
      dataset.data, nullptr, SearcherLayout::kFlat, 5, 16, 1,
      [](const std::string&, SearcherConfig& config) {
        if (config.pruner == PrunerKind::kLinear) return false;
        config.block_capacity = 128;
        return true;
      });
  ASSERT_EQ(roster.size(), 3u);
  for (const auto& entry : roster) {
    EXPECT_EQ(entry.searcher->options().block_capacity, 128u) << entry.name;
  }
}

}  // namespace
}  // namespace pdx
