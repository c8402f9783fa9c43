#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "benchlib/datagen.h"
#include "serve/search_service.h"

namespace pdx {
namespace {

using namespace std::chrono_literals;

Dataset MakeData(size_t dim = 20, size_t count = 1200, uint64_t seed = 31) {
  SyntheticSpec spec;
  spec.name = "persist-serve-test";
  spec.dim = dim;
  spec.count = count;
  spec.num_queries = 6;
  spec.num_clusters = 6;
  spec.seed = seed;
  spec.distribution = ValueDistribution::kNormal;
  return GenerateDataset(spec);
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::vector<Neighbor> SearchOne(SearchService& service,
                                const std::string& name, const float* query) {
  QueryResult result = service.Submit(name, query).result.get();
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  return result.neighbors;
}

// Save -> remove -> load through the service: the restored collection
// serves the exact same results, reports its load source, and keeps the
// streaming-mutation surface alive.
TEST(ServicePersistenceTest, SaveRemoveLoadRoundTrip) {
  const Dataset data = MakeData();
  const std::string path = TempPath("svc_roundtrip.pdxc");
  SearchService service(ServiceConfig{});
  SearcherConfig config;
  config.layout = SearcherLayout::kIvf;
  config.pruner = PrunerKind::kBond;
  config.k = 10;
  config.nprobe = 4;
  ASSERT_TRUE(service.AddCollection("c", data.data, config).ok());

  std::vector<std::vector<Neighbor>> before;
  for (size_t q = 0; q < data.queries.count(); ++q) {
    before.push_back(SearchOne(service, "c", data.queries.Vector(q)));
  }

  ASSERT_TRUE(service.SaveCollection("c", path).ok());
  ASSERT_TRUE(service.RemoveCollection("c").ok());
  ASSERT_TRUE(service.LoadCollection("c", path).ok());

  for (size_t q = 0; q < data.queries.count(); ++q) {
    const std::vector<Neighbor> after =
        SearchOne(service, "c", data.queries.Vector(q));
    ASSERT_EQ(after.size(), before[q].size()) << "query " << q;
    for (size_t i = 0; i < after.size(); ++i) {
      EXPECT_EQ(after[i].id, before[q][i].id) << "query " << q;
      EXPECT_EQ(after[i].distance, before[q][i].distance) << "query " << q;
    }
  }

  const ServiceStats stats = service.Stats();
  const CollectionStats& cs = stats.collections.at("c");
  EXPECT_EQ(cs.source, "mmap");
  EXPECT_GT(cs.mapped_bytes, 0u);
  EXPECT_EQ(cs.count, data.data.count());
  // A restored collection is still mutable: the snapshot carries the
  // delta/tombstone machinery, not just the packed base.
  EXPECT_TRUE(cs.is_mutable);
  const float* row = data.data.Vector(0);
  EXPECT_TRUE(service.AddVectors("c", row, 1, data.data.dim(), nullptr).ok());

  std::remove(path.c_str());
}

TEST(ServicePersistenceTest, HeapFallbackLoadServesToo) {
  const Dataset data = MakeData(12, 500, 17);
  const std::string path = TempPath("svc_heap.pdxc");
  SearchService service(ServiceConfig{});
  SearcherConfig config;
  config.k = 5;
  ASSERT_TRUE(service.AddCollection("c", data.data, config).ok());
  ASSERT_TRUE(service.SaveCollection("c", path).ok());
  ASSERT_TRUE(service.RemoveCollection("c").ok());
  ASSERT_TRUE(service.LoadCollection("c", path, /*allow_mmap=*/false).ok());
  EXPECT_FALSE(SearchOne(service, "c", data.queries.Vector(0)).empty());
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.collections.at("c").source, "loaded");
  EXPECT_EQ(stats.collections.at("c").mapped_bytes, 0u);
  std::remove(path.c_str());
}

TEST(ServicePersistenceTest, ErrorsSurfaceCleanly) {
  SearchService service(ServiceConfig{});
  EXPECT_TRUE(service.SaveCollection("ghost", TempPath("x.pdxc")).IsNotFound());
  EXPECT_FALSE(service.LoadCollection("c", TempPath("missing.pdxc")).ok());
  // A failed load must not half-host anything.
  EXPECT_TRUE(service.GetCollectionInfo("c").status().IsNotFound());
}

// After SaveCollection marks a path, every background compaction re-saves
// the snapshot there — a restart after the fold replays a short delta, not
// the whole mutation history.
TEST(ServicePersistenceTest, CompactorKeepsSnapshotCurrent) {
  const Dataset data = MakeData(16, 600, 23);
  const std::string path = TempPath("svc_compact.pdxc");
  ServiceConfig sc;
  sc.mutation.compact_threshold = 128;
  SearchService service(sc);
  SearcherConfig config;
  config.k = 5;
  ASSERT_TRUE(service.AddCollection("c", data.data, config).ok());
  ASSERT_TRUE(service.SaveCollection("c", path).ok());
  const uint64_t saved_size = std::filesystem::file_size(path);

  // Push the delta past the threshold so the background compactor folds.
  std::vector<float> rows(256 * data.data.dim());
  for (size_t i = 0; i < 256; ++i) {
    const float* src = data.data.Vector(i % data.data.count());
    std::copy(src, src + data.data.dim(),
              rows.begin() + static_cast<long>(i * data.data.dim()));
  }
  ASSERT_TRUE(service.AddVectors("c", rows.data(), 256, data.data.dim(),
                                 nullptr).ok());

  // Wait for the compaction to finish, then for the re-save it triggers.
  // The compaction is counted before the re-save starts, so keep polling
  // until the (atomically renamed) file changes and a fresh load of it
  // restores the post-compaction count.
  bool compacted = false;
  for (int spin = 0; spin < 250 && !compacted; ++spin) {
    std::this_thread::sleep_for(20ms);
    compacted = service.Stats().collections.at("c").compactions > 0;
  }
  ASSERT_TRUE(compacted) << "background compaction never ran";
  bool resaved = false;
  for (int spin = 0; spin < 250 && !resaved; ++spin) {
    std::this_thread::sleep_for(20ms);
    if (std::filesystem::file_size(path) == saved_size) continue;
    SearchService fresh(ServiceConfig{});
    if (!fresh.LoadCollection("c", path).ok()) continue;
    const ServiceStats stats = fresh.Stats();
    resaved = stats.collections.at("c").count == data.data.count() + 256;
  }
  EXPECT_TRUE(resaved) << "compactor never re-saved a loadable snapshot";
  service.Shutdown();
  std::remove(path.c_str());
}

// mapped_bytes (GET /stats) and the pdx_mmap_bytes gauge describe the
// hosted searcher, not the load: once a fold replaces the base a live
// collection restored by mmap, the file is no longer mapped and both read 0.
TEST(ServicePersistenceTest, FoldOfAMappedLiveCollectionReportsNoMapping) {
  const Dataset data = MakeData(16, 600, 41);
  const std::string path = TempPath("svc_fold_unmaps.pdxc");
  ServiceConfig sc;
  sc.mutation.compact_threshold = 128;
  SearchService service(sc);
  SearcherConfig config;
  config.k = 5;
  ASSERT_TRUE(service.AddCollection("c", data.data, config).ok());
  ASSERT_TRUE(service.SaveCollection("c", path).ok());
  ASSERT_TRUE(service.LoadCollection("c", path).ok());
  MetricGauge* mmap_bytes = service.metrics().GetGauge(
      "pdx_mmap_bytes",
      "Collection-file bytes served from a live memory mapping",
      {{"collection", "c"}});
  const CollectionStats loaded = service.Stats().collections.at("c");
  ASSERT_EQ(loaded.source, "mmap");
  EXPECT_GT(loaded.mapped_bytes, 0u);
  EXPECT_EQ(mmap_bytes->value(), static_cast<double>(loaded.mapped_bytes));

  std::vector<float> rows(256 * data.data.dim());
  for (size_t i = 0; i < 256; ++i) {
    const float* src = data.data.Vector(static_cast<VectorId>(i));
    std::copy(src, src + data.data.dim(),
              rows.begin() + static_cast<long>(i * data.data.dim()));
  }
  ASSERT_TRUE(
      service.AddVectors("c", rows.data(), 256, data.data.dim()).ok());
  // The compactor counts the fold after the swap, in the same service-lock
  // section that restamps the gauges.
  bool compacted = false;
  for (int spin = 0; spin < 250 && !compacted; ++spin) {
    std::this_thread::sleep_for(20ms);
    compacted = service.Stats().collections.at("c").compactions > 0;
  }
  ASSERT_TRUE(compacted) << "background compaction never ran";
  const CollectionStats folded = service.Stats().collections.at("c");
  EXPECT_EQ(folded.mapped_bytes, 0u);
  EXPECT_EQ(mmap_bytes->value(), 0.0);
  EXPECT_EQ(folded.count, data.data.count() + 256);
  service.Shutdown();
  std::remove(path.c_str());
}

// A fold that outlives its collection must not re-save it. Each round
// saves a live collection to P and pushes it past the compaction
// threshold, then removes it and hosts and saves a small collection under
// the same name and path while that fold may still run. Shutdown() joins
// the compactor, so nothing writes P after it returns: P must load as the
// small collection, and the name's size gauge must describe it. The search
// between the append and the remove lets the compactor start the fold
// first — without it the remove usually wins, and the fold is skipped.
TEST(ServicePersistenceTest, StaleFoldNeverOverwritesNewerSave) {
  const Dataset big = MakeData(16, 4000, 29);
  const Dataset small = MakeData(16, 40, 37);
  const size_t dim = big.data.dim();
  const std::string path = TempPath("svc_stale_fold.pdxc");
  SearcherConfig config;
  config.k = 5;
  std::vector<float> rows(256 * dim);
  for (size_t i = 0; i < 256; ++i) {
    const float* src = big.data.Vector(static_cast<VectorId>(i));
    std::copy(src, src + dim, rows.begin() + static_cast<long>(i * dim));
  }
  constexpr size_t kRounds = 8;
  size_t stale_files = 0;
  size_t stale_gauges = 0;
  for (size_t round = 0; round < kRounds; ++round) {
    ServiceConfig sc;
    sc.mutation.compact_threshold = 128;
    SearchService service(sc);
    ASSERT_TRUE(service.AddCollection("c", big.data, config).ok());
    ASSERT_TRUE(service.SaveCollection("c", path).ok());
    ASSERT_TRUE(service.AddVectors("c", rows.data(), 256, dim).ok());
    EXPECT_FALSE(SearchOne(service, "c", big.queries.Vector(0)).empty());
    ASSERT_TRUE(service.RemoveCollection("c").ok());
    ASSERT_TRUE(service.AddCollection("c", small.data, config).ok());
    ASSERT_TRUE(service.SaveCollection("c", path).ok());
    service.Shutdown();

    const double gauge =
        service.metrics()
            .GetGauge("pdx_collection_vectors",
                      "Vectors hosted, per collection", {{"collection", "c"}})
            ->value();
    if (gauge != static_cast<double>(small.data.count())) ++stale_gauges;
    SearchService fresh(ServiceConfig{});
    ASSERT_TRUE(fresh.LoadCollection("c", path).ok());
    if (fresh.GetCollectionInfo("c").value().count != small.data.count()) {
      ++stale_files;
    }
  }
  EXPECT_EQ(stale_files, 0u) << "of " << kRounds << " rounds";
  EXPECT_EQ(stale_gauges, 0u) << "of " << kRounds << " rounds";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pdx
