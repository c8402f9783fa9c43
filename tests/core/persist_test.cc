#include "core/persist.h"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "benchlib/datagen.h"
#include "index/kmeans.h"
#include "storage/pdx_store.h"

namespace pdx {
namespace {

Dataset MakeData(size_t dim = 24, size_t count = 1500, size_t num_queries = 6,
                 uint64_t seed = 11) {
  SyntheticSpec spec;
  spec.name = "persist-test";
  spec.dim = dim;
  spec.count = count;
  spec.num_queries = num_queries;
  spec.num_clusters = 8;
  spec.seed = seed;
  spec.distribution = ValueDistribution::kSkewed;
  return GenerateDataset(spec);
}

SearcherConfig Config(SearcherLayout layout, PrunerKind pruner) {
  SearcherConfig config;
  config.layout = layout;
  config.pruner = pruner;
  config.k = 10;
  config.nprobe = 4;
  return config;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

/// Byte-identical: same ids in the same order, same distance bits.
void ExpectIdenticalResults(const std::vector<Neighbor>& loaded,
                            const std::vector<Neighbor>& built,
                            const std::string& label) {
  ASSERT_EQ(loaded.size(), built.size()) << label;
  for (size_t i = 0; i < loaded.size(); ++i) {
    ASSERT_EQ(loaded[i].id, built[i].id) << label << " rank " << i;
    ASSERT_EQ(loaded[i].distance, built[i].distance) << label << " rank " << i;
  }
}

const char* PrunerName(PrunerKind pruner) {
  switch (pruner) {
    case PrunerKind::kLinear: return "linear";
    case PrunerKind::kBond: return "bond";
    case PrunerKind::kAdsampling: return "ads";
    case PrunerKind::kBsa: return "bsa";
  }
  return "?";
}

// --- Acceptance: Save -> Load round-trip is byte-identical across the
// whole {flat, ivf} x {linear, bond, ads, bsa} x {unsharded, sharded}
// matrix, for both the mmap and the heap-fallback load source. Unlike the
// build-vs-build parity tests, IVF needs no all-buckets nprobe here: the
// loaded searcher restores the SAME centroids and bucket lists, so even
// the approximate configurations must reproduce result-for-result. -------

TEST(PersistTest, RoundTripMatrixIsByteIdentical) {
  Dataset data = MakeData();
  for (SearcherLayout layout : {SearcherLayout::kFlat, SearcherLayout::kIvf}) {
    for (PrunerKind pruner :
         {PrunerKind::kLinear, PrunerKind::kBond, PrunerKind::kAdsampling,
          PrunerKind::kBsa}) {
      for (size_t num_shards : {size_t{1}, size_t{3}}) {
        const std::string label =
            std::string(layout == SearcherLayout::kFlat ? "flat" : "ivf") +
            "/" + PrunerName(pruner) + "/shards=" +
            std::to_string(num_shards);
        SearcherConfig config = Config(layout, pruner);
        ShardingOptions sharding;
        sharding.num_shards = num_shards;
        auto built =
            num_shards > 1
                ? MakeShardedSearcher(data.data, config, sharding)
                : MakeSearcher(data.data, config);
        ASSERT_TRUE(built.ok()) << label << ": " << built.status().message();
        std::unique_ptr<Searcher> searcher = std::move(built).value();

        const std::string path = TempPath("roundtrip.pdxc");
        Status saved = searcher->Save(path);
        ASSERT_TRUE(saved.ok()) << label << ": " << saved.message();

        for (bool allow_mmap : {true, false}) {
          LoadOptions options;
          options.allow_mmap = allow_mmap;
          auto loaded = LoadCollection(path, options);
          ASSERT_TRUE(loaded.ok())
              << label << ": " << loaded.status().message();
          EXPECT_EQ(loaded.value().source, allow_mmap ? "mmap" : "loaded");
          EXPECT_EQ(loaded.value().live, nullptr);
          EXPECT_EQ(loaded.value().searcher->dim(), data.dim());
          // The restored searcher serves the saved one's shape, from the
          // mapping when there is one.
          const SearcherShape shape = loaded.value().searcher->shape();
          const SearcherShape saved_shape = searcher->shape();
          EXPECT_EQ(shape.count, data.data.count());
          EXPECT_EQ(shape.num_shards, num_shards > 1 ? num_shards : 1);
          EXPECT_EQ(shape.num_blocks, saved_shape.num_blocks);
          EXPECT_EQ(shape.max_nprobe, saved_shape.max_nprobe);
          EXPECT_EQ(shape.quantized_bytes, saved_shape.quantized_bytes);
          EXPECT_EQ(saved_shape.mapped_bytes, 0u);
          EXPECT_EQ(shape.mapped_bytes > 0, allow_mmap);
          for (size_t q = 0; q < data.queries.count(); ++q) {
            const float* query = data.queries.Vector(q);
            ExpectIdenticalResults(loaded.value().searcher->Search(query),
                                   searcher->Search(query),
                                   label + " query " + std::to_string(q));
          }
        }
        std::remove(path.c_str());
      }
    }
  }
}

// A flat PDX-BOND file keeps the partition size it was packed at: its meta
// names the capacity. One saved at the paper's 10,240 lanes restores at
// 10,240, and a default one at kExactSearchBlockCapacity (2,048).
TEST(PersistTest, FlatBondRestoresAtTheCapacityItWasSavedAt) {
  const size_t kCount = 25000;  // 3 partitions of 10,240, or 13 of 2,048.
  Dataset data = MakeData(24, kCount);
  for (size_t capacity : {size_t{10240}, size_t{0}}) {
    const size_t resolved =
        capacity == 0 ? kExactSearchBlockCapacity : capacity;
    const std::string label = "capacity " + std::to_string(resolved);
    SearcherConfig config = Config(SearcherLayout::kFlat, PrunerKind::kBond);
    config.block_capacity = capacity;
    auto built = MakeSearcher(data.data, config);
    ASSERT_TRUE(built.ok()) << label << ": " << built.status().message();
    Searcher& searcher = *built.value();
    const size_t blocks = (kCount + resolved - 1) / resolved;
    EXPECT_EQ(searcher.options().block_capacity, resolved) << label;
    EXPECT_EQ(searcher.shape().num_blocks, blocks) << label;

    const std::string path = TempPath("capacity.pdxc");
    ASSERT_TRUE(searcher.Save(path).ok()) << label;
    auto loaded = LoadCollection(path);
    ASSERT_TRUE(loaded.ok()) << label << ": " << loaded.status().message();
    EXPECT_EQ(loaded.value().source, "mmap") << label;
    Searcher& restored = *loaded.value().searcher;
    EXPECT_EQ(restored.options().block_capacity, resolved) << label;
    EXPECT_EQ(restored.shape().num_blocks, blocks) << label;
    for (size_t q = 0; q < data.queries.count(); ++q) {
      const float* query = data.queries.Vector(q);
      ExpectIdenticalResults(restored.Search(query), searcher.Search(query),
                             label + " query " + std::to_string(q));
    }
    std::remove(path.c_str());
  }
}

// --- Acceptance: loading does zero build work — no k-means run, no block
// packing. The stores are views into the image and the IVF structures are
// decoded, not re-derived. ------------------------------------------------

TEST(PersistTest, LoadRunsNoKmeansAndNoPacking) {
  Dataset data = MakeData();
  SearcherConfig config = Config(SearcherLayout::kIvf, PrunerKind::kBsa);
  auto built = MakeSearcher(data.data, config);
  ASSERT_TRUE(built.ok()) << built.status().message();
  const std::string path = TempPath("zerowork.pdxc");
  ASSERT_TRUE(built.value()->Save(path).ok());

  const uint64_t packs_before = PdxStorePackCount();
  const uint64_t kmeans_before = KMeansRunCount();
  auto loaded = LoadCollection(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(PdxStorePackCount(), packs_before)
      << "loading must not pack PDX blocks";
  EXPECT_EQ(KMeansRunCount(), kmeans_before) << "loading must not run k-means";

  // And the loaded collection actually serves.
  EXPECT_EQ(loaded.value().searcher->Search(data.queries.Vector(0)).size(),
            config.k);
  EXPECT_GT(loaded.value().searcher->shape().mapped_bytes, 0u);
  EXPECT_GT(loaded.value().file_bytes, 0u);
  std::remove(path.c_str());
}

// --- Mutable snapshots: mid-delta state (appends, deletes, an upsert, a
// compaction) survives the round-trip, including id allocation. -----------

TEST(PersistTest, MutableSnapshotRestoresMidDeltaState) {
  Dataset data = MakeData(16, 600, 4, 23);
  SearcherConfig config = Config(SearcherLayout::kFlat, PrunerKind::kLinear);
  MutationConfig mutation;
  mutation.compact_threshold = 0;  // Explicit control over compaction.
  auto made = MutableSearcher::Make(data.data, config, mutation);
  ASSERT_TRUE(made.ok()) << made.status().message();
  std::unique_ptr<MutableSearcher> live = std::move(made).value();

  // Mutate: append a batch, delete a few base rows, upsert one id, compact,
  // then append again so the snapshot carries a non-empty delta AND a
  // non-zero compaction count.
  Dataset extra = MakeData(16, 80, 1, 91);
  ASSERT_TRUE(live->Add(extra.data.Vector(0), 40).ok());
  ASSERT_TRUE(live->Delete(3).ok());
  ASSERT_TRUE(live->Delete(617).ok());  // A delta row.
  const uint64_t upsert_id = 7;
  ASSERT_TRUE(live->Add(extra.data.Vector(41), 1, &upsert_id).ok());
  ASSERT_TRUE(live->Compact().ok());
  ASSERT_TRUE(live->Add(extra.data.Vector(42), 30).ok());
  ASSERT_TRUE(live->Delete(10).ok());
  const MutationStats before = live->mutation_stats();
  ASSERT_GT(before.delta_rows, 0u);
  ASSERT_GT(before.tombstones, 0u);

  const std::string path = TempPath("mutable.pdxc");
  ASSERT_TRUE(live->Save(path).ok());
  auto loaded = LoadCollection(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ASSERT_NE(loaded.value().live, nullptr);
  MutableSearcher* restored = loaded.value().live;

  const MutationStats after = restored->mutation_stats();
  EXPECT_EQ(restored->shape().count, live->shape().count);
  EXPECT_EQ(after.base_rows, before.base_rows);
  EXPECT_EQ(after.delta_rows, before.delta_rows);
  EXPECT_EQ(after.tombstones, before.tombstones);
  EXPECT_EQ(after.compactions, before.compactions);

  for (size_t q = 0; q < data.queries.count(); ++q) {
    const float* query = data.queries.Vector(q);
    ExpectIdenticalResults(restored->Search(query), live->Search(query),
                           "mutable query " + std::to_string(q));
  }

  // Deleted ids stay deleted; auto-id allocation resumes where it left off.
  EXPECT_FALSE(restored->Delete(3).ok());
  auto ids_live = live->Add(extra.data.Vector(43), 1);
  auto ids_restored = restored->Add(extra.data.Vector(43), 1);
  ASSERT_TRUE(ids_live.ok());
  ASSERT_TRUE(ids_restored.ok());
  EXPECT_EQ(ids_restored.value(), ids_live.value());
  std::remove(path.c_str());
}

// --- Mutable + sharded base compose. --------------------------------------

TEST(PersistTest, MutableShardedSnapshotRoundTrips) {
  Dataset data = MakeData(16, 500, 3, 37);
  SearcherConfig config = Config(SearcherLayout::kIvf, PrunerKind::kBond);
  MutationConfig mutation;
  mutation.compact_threshold = 0;
  ShardingOptions sharding;
  sharding.num_shards = 2;
  sharding.assignment = ShardAssignment::kRoundRobin;
  auto made = MutableSearcher::Make(data.data, config, mutation, sharding);
  ASSERT_TRUE(made.ok()) << made.status().message();
  std::unique_ptr<MutableSearcher> live = std::move(made).value();
  Dataset extra = MakeData(16, 20, 1, 5);
  ASSERT_TRUE(live->Add(extra.data.Vector(0), 20).ok());
  ASSERT_TRUE(live->Delete(11).ok());

  const std::string path = TempPath("mutable_sharded.pdxc");
  ASSERT_TRUE(live->Save(path).ok());
  auto loaded = LoadCollection(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ASSERT_NE(loaded.value().live, nullptr);
  EXPECT_EQ(loaded.value().searcher->shape().num_shards, 2u);
  for (size_t q = 0; q < data.queries.count(); ++q) {
    const float* query = data.queries.Vector(q);
    ExpectIdenticalResults(loaded.value().live->Search(query),
                           live->Search(query),
                           "sharded mutable query " + std::to_string(q));
  }
  std::remove(path.c_str());
}

// --- The loaded image must outlive the searcher's views (pin check): drop
// the LoadedCollection wrapper, keep only the searcher, and query. Under
// ASan a missing pin is a use-after-free here. Only the unsharded tiers pin
// the image (a sharded or live facade views none of it), so the sharded
// and live restores lean on their inner searchers' pins. ------------------

TEST(PersistTest, SearcherPinsImageAfterWrapperDies) {
  Dataset data = MakeData(16, 400, 2, 53);
  const SearcherConfig config =
      Config(SearcherLayout::kIvf, PrunerKind::kBond);
  ShardingOptions sharding;
  sharding.num_shards = 3;
  std::vector<std::pair<std::string, std::unique_ptr<Searcher>>> built;
  built.emplace_back("plain", MakeSearcher(data.data, config).value());
  built.emplace_back("sharded",
                     MakeShardedSearcher(data.data, config, sharding).value());
  built.emplace_back("live",
                     MutableSearcher::Make(data.data, config, {}, sharding)
                         .value());
  for (const auto& [label, searcher] : built) {
    const std::string path = TempPath("pin.pdxc");
    ASSERT_TRUE(searcher->Save(path).ok()) << label;
    std::unique_ptr<Searcher> survivor;
    {
      auto loaded = LoadCollection(path);
      ASSERT_TRUE(loaded.ok()) << label;
      survivor = std::move(loaded.value().searcher);
    }
    std::remove(path.c_str());  // mmap stays valid after unlink on POSIX.
    EXPECT_GT(survivor->shape().mapped_bytes, 0u) << label;
    EXPECT_EQ(survivor->Search(data.queries.Vector(0)).size(), 10u) << label;
  }
}

/// True while `path` is mapped into this process.
bool IsMapped(const std::string& path) {
  const std::string target = std::filesystem::canonical(path).string();
  std::ifstream maps("/proc/self/maps");
  std::string line;
  while (std::getline(maps, line)) {
    if (line.size() >= target.size() &&
        line.compare(line.size() - target.size(), target.size(), target) ==
            0) {
      return true;
    }
  }
  return false;
}

// A live collection restored by mmap copies its rows, delta, ids and
// tombstones out of the file; only its base views the mapping. The fold
// that replaces that base releases the file, and the shape says so.
TEST(PersistTest, FoldUnmapsARestoredLiveCollection) {
  Dataset data = MakeData(16, 600, 3, 71);
  MutationConfig mutation;
  mutation.compact_threshold = 0;
  auto made = MutableSearcher::Make(
      data.data, Config(SearcherLayout::kFlat, PrunerKind::kLinear), mutation);
  ASSERT_TRUE(made.ok()) << made.status().message();
  std::unique_ptr<MutableSearcher> live = std::move(made).value();
  ASSERT_TRUE(live->Add(data.queries.Vector(0), 1).ok());
  ASSERT_TRUE(live->Delete(3).ok());

  const std::string path = TempPath("fold_unmaps.pdxc");
  ASSERT_TRUE(live->Save(path).ok());
  auto loaded = LoadCollection(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ASSERT_EQ(loaded.value().source, "mmap");
  MutableSearcher* restored = loaded.value().live;
  ASSERT_NE(restored, nullptr);
  EXPECT_GT(restored->shape().mapped_bytes, 0u);
  EXPECT_TRUE(IsMapped(path));

  ASSERT_TRUE(restored->Compact().ok());
  EXPECT_EQ(restored->shape().mapped_bytes, 0u);
  EXPECT_FALSE(IsMapped(path));
  EXPECT_EQ(restored->shape().count, live->shape().count);
  for (size_t q = 0; q < data.queries.count(); ++q) {
    const float* query = data.queries.Vector(q);
    ExpectIdenticalResults(restored->Search(query), live->Search(query),
                           "folded query " + std::to_string(q));
  }
  std::remove(path.c_str());
}

// --- Saving over the file a collection is served from. A save writes a
// temp file and renames it over the path, so a searcher mapped over the
// old file keeps its inode: self-save of an mmap-loaded collection must
// succeed, keep serving the same results, and leave a loadable file. -----

std::vector<uint8_t> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in), {});
}

/// Files in `path`'s directory whose name starts with `path`'s + ".tmp".
size_t LeftoverTempFiles(const std::string& path) {
  const std::filesystem::path target(path);
  const std::string prefix = target.filename().string() + ".tmp";
  size_t leftovers = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(target.parent_path())) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) ++leftovers;
  }
  return leftovers;
}

/// Saves `built` to `path`, loads it by mmap, saves the loaded collection
/// over the very file it is mapped from, then checks the loaded searcher
/// and a fresh reload both still answer exactly like `built`.
void ExpectSelfSaveKeepsServing(Searcher& built, const Dataset& data,
                                const std::string& path,
                                const std::string& label) {
  ASSERT_TRUE(built.Save(path).ok()) << label;
  auto loaded = LoadCollection(path);
  ASSERT_TRUE(loaded.ok()) << label << ": " << loaded.status().message();
  ASSERT_EQ(loaded.value().source, "mmap") << label;
  Searcher& mapped = *loaded.value().searcher;

  const Status resaved = mapped.Save(path);
  ASSERT_TRUE(resaved.ok()) << label << ": " << resaved.message();
  EXPECT_EQ(LeftoverTempFiles(path), 0u) << label;

  auto reloaded = LoadCollection(path);
  ASSERT_TRUE(reloaded.ok()) << label << ": " << reloaded.status().message();
  for (size_t q = 0; q < data.queries.count(); ++q) {
    const float* query = data.queries.Vector(q);
    const std::vector<Neighbor> expected = built.Search(query);
    ExpectIdenticalResults(mapped.Search(query), expected,
                           label + " mapped query " + std::to_string(q));
    ExpectIdenticalResults(reloaded.value().searcher->Search(query), expected,
                           label + " reloaded query " + std::to_string(q));
  }
  std::remove(path.c_str());
}

TEST(PersistTest, SelfSaveOfMappedPlainCollection) {
  Dataset data = MakeData(20, 2000, 4, 61);
  for (SearcherLayout layout : {SearcherLayout::kFlat, SearcherLayout::kIvf}) {
    auto built = MakeSearcher(data.data, Config(layout, PrunerKind::kBond));
    ASSERT_TRUE(built.ok()) << built.status().message();
    ExpectSelfSaveKeepsServing(
        *built.value(), data, TempPath("self_plain.pdxc"),
        layout == SearcherLayout::kFlat ? "flat" : "ivf");
  }
}

TEST(PersistTest, SelfSaveOfMappedShardedCollection) {
  Dataset data = MakeData(20, 1800, 4, 62);
  ShardingOptions sharding;
  sharding.num_shards = 3;
  auto built = MakeShardedSearcher(
      data.data, Config(SearcherLayout::kFlat, PrunerKind::kBond), sharding);
  ASSERT_TRUE(built.ok()) << built.status().message();
  ExpectSelfSaveKeepsServing(*built.value(), data,
                             TempPath("self_sharded.pdxc"), "3 shards");
}

TEST(PersistTest, SelfSaveOfMappedMutableSnapshot) {
  Dataset data = MakeData(16, 800, 4, 63);
  MutationConfig mutation;
  mutation.compact_threshold = 0;
  auto made = MutableSearcher::Make(
      data.data, Config(SearcherLayout::kFlat, PrunerKind::kBond), mutation);
  ASSERT_TRUE(made.ok()) << made.status().message();
  std::unique_ptr<MutableSearcher> live = std::move(made).value();
  Dataset extra = MakeData(16, 30, 1, 64);
  ASSERT_TRUE(live->Add(extra.data.Vector(0), 30).ok());
  ASSERT_TRUE(live->Delete(5).ok());
  ExpectSelfSaveKeepsServing(*live, data, TempPath("self_mutable.pdxc"),
                             "mutable");
}

// A save that fails part-way must leave the previous file byte-identical
// and no temp file behind. The failure is real, not injected: a forked
// child saves under an RLIMIT_FSIZE smaller than the snapshot (with
// SIGXFSZ ignored, so the write returns EFBIG instead of killing it).
TEST(PersistTest, FailedSaveLeavesPreviousFileIntact) {
  Dataset data = MakeData(24, 3000, 2, 65);
  const std::string path = TempPath("failed_save.pdxc");
  auto first = MakeSearcher(data.data,
                            Config(SearcherLayout::kFlat, PrunerKind::kLinear));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first.value()->Save(path).ok());
  const std::vector<uint8_t> before = ReadBytes(path);
  ASSERT_GT(before.size(), 4096u);

  // A different collection, so a torn or completed write would show.
  auto second = MakeSearcher(data.data,
                             Config(SearcherLayout::kFlat, PrunerKind::kBond));
  ASSERT_TRUE(second.ok());
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::signal(SIGXFSZ, SIG_IGN);
    const rlim_t limit = before.size() / 2;
    const rlimit cap{limit, limit};
    if (::setrlimit(RLIMIT_FSIZE, &cap) != 0) ::_exit(3);
    const Status saved = second.value()->Save(path);
    ::_exit(saved.ok() ? 1 : (saved.IsIoError() ? 0 : 2));
  }
  int wait_status = 0;
  ASSERT_EQ(::waitpid(child, &wait_status, 0), child);
  ASSERT_TRUE(WIFEXITED(wait_status)) << "child died, status " << wait_status;
  ASSERT_EQ(WEXITSTATUS(wait_status), 0)
      << "the save under a file-size limit must fail with IoError";

  EXPECT_EQ(ReadBytes(path), before) << "the failed save touched " << path;
  EXPECT_EQ(LeftoverTempFiles(path), 0u);
  auto loaded = LoadCollection(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value().searcher->options().pruner, PrunerKind::kLinear);
  std::remove(path.c_str());
}

// --- Error surface. --------------------------------------------------------

TEST(PersistTest, SaveToUnwritablePathFails) {
  Dataset data = MakeData(16, 200, 1, 3);
  auto built = MakeSearcher(
      data.data, Config(SearcherLayout::kFlat, PrunerKind::kLinear));
  ASSERT_TRUE(built.ok());
  EXPECT_FALSE(built.value()->Save("/nonexistent-dir/x/y.pdxc").ok());
}

TEST(PersistTest, LoadMissingFileFails) {
  auto loaded = LoadCollection(TempPath("does-not-exist.pdxc"));
  EXPECT_FALSE(loaded.ok());
}

}  // namespace
}  // namespace pdx
