// Re-sealed mutation loop over the PDXC loader. One small file per tier is
// saved; bytes of its header, its section table and every non-arena section
// are edited; then every checksum is recomputed with the format's hash, so
// the edit gets past validation and reaches the decoders. Loading the file
// and running one search must then either fail with a Status or answer —
// never crash, throw, or hang. Deterministic (fixed seeds), no fuzzing
// engine. The other tests craft whole files, each a regression for a shape
// the loader used to accept, that single edits cannot reach.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <exception>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/persist.h"
#include "serve/search_service.h"
#include "storage/collection_format.h"
#include "storage/vector_set.h"

namespace pdx {
namespace {

// The PDXC header and table layout (collection_format.h).
constexpr size_t kHeaderBytes = 32;
constexpr size_t kEntryBytes = 32;
constexpr size_t kOffSectionCount = 8;
constexpr size_t kOffFileSize = 16;
constexpr size_t kOffHeaderChecksum = 24;

constexpr size_t kMutationsPerTier = 600;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

VectorSet RandomVectors(size_t count, size_t dim, uint64_t seed) {
  Rng rng(seed);
  VectorSet set(dim, count);
  std::vector<float> row(dim);
  for (size_t i = 0; i < count; ++i) {
    for (float& v : row) v = static_cast<float>(rng.Gaussian());
    set.Append(row.data());
  }
  return set;
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

template <typename T>
T Get(const std::vector<uint8_t>& bytes, size_t at) {
  T value{};
  std::memcpy(&value, bytes.data() + at, sizeof(T));
  return value;
}

template <typename T>
void Put(std::vector<uint8_t>& bytes, size_t at, T value) {
  std::memcpy(bytes.data() + at, &value, sizeof(T));
}

/// Recomputes every checksum the loader verifies: each section whose table
/// entry still lies inside the file gets the hash of its payload, then the
/// header gets the hash of the table chained from the header's first 24
/// bytes. A table that no longer fits the file is left as it is (the loader
/// rejects it before any checksum).
void Reseal(std::vector<uint8_t>& bytes) {
  if (bytes.size() < kHeaderBytes) return;
  const uint64_t sections = Get<uint32_t>(bytes, kOffSectionCount);
  if (sections > (bytes.size() - kHeaderBytes) / kEntryBytes) return;
  for (uint64_t s = 0; s < sections; ++s) {
    const size_t entry = kHeaderBytes + s * kEntryBytes;
    const uint64_t offset = Get<uint64_t>(bytes, entry + 8);
    const uint64_t size = Get<uint64_t>(bytes, entry + 16);
    if (offset > bytes.size() || size > bytes.size() - offset) continue;
    Put(bytes, entry + 24, XxHash64(bytes.data() + offset, size));
  }
  Put(bytes, kOffHeaderChecksum,
      XxHash64(bytes.data() + kHeaderBytes, sections * kEntryBytes,
               XxHash64(bytes.data(), kOffHeaderChecksum)));
}

struct Region {
  size_t begin = 0;
  size_t size = 0;
  uint32_t kind = 0;  ///< SectionKind, or 0 for the header and the table.
};

bool IsArena(uint32_t kind) {
  switch (static_cast<SectionKind>(kind)) {
    case SectionKind::kStoreArena:
    case SectionKind::kIvfCentroids:
    case SectionKind::kRawRows:
    case SectionKind::kQuantCodes:
    case SectionKind::kQuantRows:
      return true;
    default:
      return false;
  }
}

/// The mutation targets of a pristine file: the header up to its checksum,
/// the whole section table, and the payload of every non-arena section.
std::vector<Region> Targets(const std::vector<uint8_t>& bytes) {
  const uint32_t sections = Get<uint32_t>(bytes, kOffSectionCount);
  std::vector<Region> out;
  out.push_back({0, kOffHeaderChecksum, 0});
  out.push_back({kHeaderBytes, sections * kEntryBytes, 0});
  for (uint32_t s = 0; s < sections; ++s) {
    const size_t entry = kHeaderBytes + s * kEntryBytes;
    const uint32_t kind = Get<uint32_t>(bytes, entry);
    const uint64_t size = Get<uint64_t>(bytes, entry + 16);
    if (IsArena(kind) || size == 0) continue;
    out.push_back({static_cast<size_t>(Get<uint64_t>(bytes, entry + 8)),
                   static_cast<size_t>(size), kind});
  }
  return out;
}

/// One edit inside `region`: a bit flip, a random byte, a boundary value
/// written over the aligned 4- or 8-byte field holding the chosen byte, or
/// an off-by-one of that 8-byte field. Sections start 8-byte aligned and
/// their fields are 4 or 8 bytes wide, so aligned words land on whole
/// fields.
std::string Mutate(std::vector<uint8_t>& bytes, const Region& region,
                   Rng& rng) {
  static constexpr uint32_t kWords32[] = {0u, 1u, 0x7fffffffu, 0x80000000u,
                                          0xffffffffu};
  static constexpr uint64_t kWords64[] = {
      0,
      1,
      uint64_t{1} << 31,
      uint64_t{1} << 32,
      uint64_t{1} << 40,
      uint64_t{1} << 62,
      uint64_t{1} << 63,
      ~uint64_t{0},
  };
  const size_t at = region.begin + rng.UniformInt(region.size);
  const size_t end = region.begin + region.size;
  const size_t word4 = at & ~size_t{3};
  const size_t word8 = at & ~size_t{7};
  const std::string where = "@" + std::to_string(at) + " (section kind " +
                            std::to_string(region.kind) + ")";
  switch (rng.UniformInt(5)) {
    case 0: {
      const int bit = static_cast<int>(rng.UniformInt(8));
      bytes[at] ^= static_cast<uint8_t>(1u << bit);
      return "flip bit " + std::to_string(bit) + where;
    }
    case 1:
      bytes[at] = static_cast<uint8_t>(rng());
      return "random byte" + where;
    case 2:
      if (word4 >= region.begin && word4 + 4 <= end) {
        const uint32_t value = kWords32[rng.UniformInt(std::size(kWords32))];
        Put(bytes, word4, value);
        return "u32 " + std::to_string(value) + where;
      }
      break;
    case 3:
      if (word8 >= region.begin && word8 + 8 <= end) {
        const uint64_t value = kWords64[rng.UniformInt(std::size(kWords64))];
        Put(bytes, word8, value);
        return "u64 " + std::to_string(value) + where;
      }
      break;
    case 4:
      if (word8 >= region.begin && word8 + 8 <= end) {
        const bool up = rng.UniformInt(2) == 0;
        Put(bytes, word8,
            Get<uint64_t>(bytes, word8) + (up ? 1 : ~uint64_t{0}));
        return std::string(up ? "u64 +1" : "u64 -1") + where;
      }
      break;
  }
  bytes[at] = 0xff;
  return "byte 0xff" + where;
}

/// Loads `path` and runs one search on what loaded; true when it answered,
/// false when the load returned an error. Any escaped exception fails the
/// test; a crash or a hang fails the binary.
bool LoadAndSearch(const std::string& path, const std::string& what) {
  try {
    auto loaded = LoadCollection(path, LoadOptions{/*allow_mmap=*/false});
    if (!loaded.ok()) return false;
    Searcher& searcher = *loaded.value().searcher;
    std::vector<float> query(searcher.dim());
    for (size_t d = 0; d < query.size(); ++d) {
      query[d] = 0.25f * static_cast<float>(d % 7) - 0.5f;
    }
    (void)searcher.Search(query.data());
    return true;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": exception escaped: " << e.what();
  } catch (...) {
    ADD_FAILURE() << what << ": non-std exception escaped";
  }
  return false;
}

struct Tier {
  const char* name;
  Status (*save)(const std::string& path);
};

SearcherConfig BaseConfig(SearcherLayout layout, PrunerKind pruner) {
  SearcherConfig config;
  config.layout = layout;
  config.pruner = pruner;
  config.k = 5;
  config.nprobe = 3;
  config.ivf.num_buckets = 6;
  return config;
}

Status SaveMade(Result<std::unique_ptr<Searcher>> made,
                const std::string& path) {
  if (!made.ok()) return made.status();
  return made.value()->Save(path);
}

const VectorSet& TierVectors() {
  static const VectorSet vectors = RandomVectors(240, 12, 5);
  return vectors;
}

const Tier kTiers[] = {
    {"flat-bond",
     [](const std::string& path) -> Status {
       return SaveMade(MakeSearcher(TierVectors(),
                                    BaseConfig(SearcherLayout::kFlat,
                                               PrunerKind::kBond)),
                       path);
     }},
    {"ivf-ads",
     [](const std::string& path) -> Status {
       return SaveMade(MakeSearcher(TierVectors(),
                                    BaseConfig(SearcherLayout::kIvf,
                                               PrunerKind::kAdsampling)),
                       path);
     }},
    {"flat-bsa",
     [](const std::string& path) -> Status {
       return SaveMade(MakeSearcher(TierVectors(),
                                    BaseConfig(SearcherLayout::kFlat,
                                               PrunerKind::kBsa)),
                       path);
     }},
    {"flat-u8",
     [](const std::string& path) -> Status {
       SearcherConfig config =
           BaseConfig(SearcherLayout::kFlat, PrunerKind::kLinear);
       config.quantization = QuantizationKind::kU8;
       config.rerank_factor = 4;
       return SaveMade(MakeSearcher(TierVectors(), std::move(config)), path);
     }},
    {"ivf-u8",
     [](const std::string& path) -> Status {
       SearcherConfig config =
           BaseConfig(SearcherLayout::kIvf, PrunerKind::kLinear);
       config.quantization = QuantizationKind::kU8;
       config.rerank_factor = 4;
       return SaveMade(MakeSearcher(TierVectors(), std::move(config)), path);
     }},
    {"sharded-3",
     [](const std::string& path) -> Status {
       ShardingOptions sharding;
       sharding.num_shards = 3;
       sharding.assignment = ShardAssignment::kRoundRobin;
       return SaveMade(
           MakeShardedSearcher(TierVectors(),
                               BaseConfig(SearcherLayout::kFlat,
                                          PrunerKind::kBond),
                               sharding),
           path);
     }},
    {"live",
     [](const std::string& path) -> Status {
       auto made = MutableSearcher::Make(
           TierVectors(), BaseConfig(SearcherLayout::kFlat, PrunerKind::kBond),
           MutationConfig{}, ShardingOptions{});
       if (!made.ok()) return made.status();
       MutableSearcher& live = *made.value();
       const std::vector<float> row(TierVectors().dim(), 0.5f);
       auto added = live.Add(row.data(), 1);
       if (!added.ok()) return added.status();
       PDX_RETURN_IF_ERROR(live.Delete(3));
       return live.Save(path);
     }},
};

const Tier& TierNamed(const std::string& name) {
  for (const Tier& tier : kTiers) {
    if (name == tier.name) return tier;
  }
  ADD_FAILURE() << "no tier " << name;
  return kTiers[0];
}

TEST(PersistMutationTest, ResealedEditsFailCleanlyOrAnswer) {
  for (const Tier& tier : kTiers) {
    SCOPED_TRACE(tier.name);
    const std::string path = TempPath(std::string("mut_") + tier.name);
    ASSERT_TRUE(tier.save(path).ok());
    const std::vector<uint8_t> pristine = ReadFile(path);
    ASSERT_GE(pristine.size(), kHeaderBytes);

    // The re-seal reproduces the writer's checksums exactly, and the
    // pristine file answers: otherwise every edit below would stop at a
    // checksum and the loop would test nothing.
    std::vector<uint8_t> resealed = pristine;
    Reseal(resealed);
    ASSERT_EQ(resealed, pristine);
    ASSERT_TRUE(LoadAndSearch(path, "pristine"));

    const std::vector<Region> targets = Targets(pristine);
    const std::string mutated_path = path + ".mutated";
    const auto try_edit = [&](std::vector<uint8_t> bytes,
                              const std::string& what) {
      Reseal(bytes);
      WriteFile(mutated_path, bytes);
      return LoadAndSearch(mutated_path, std::string(tier.name) + " " + what);
    };

    Rng rng(0x5eed0000 + static_cast<uint64_t>(&tier - kTiers));
    size_t answered = 0;
    for (size_t m = 0; m < kMutationsPerTier; ++m) {
      std::vector<uint8_t> bytes = pristine;
      const Region& region = targets[rng.UniformInt(targets.size())];
      const std::string what =
          "#" + std::to_string(m) + " " + Mutate(bytes, region, rng);
      if (try_edit(std::move(bytes), what)) ++answered;
    }
    // Many edits land in fields no check can tell from intent (float
    // values, knobs in range): those files must load and answer too.
    EXPECT_GT(answered, kMutationsPerTier / 5);

    // Then every aligned 8-byte word of every target once, with bit 62
    // flipped: each count, size and offset field meets one huge value,
    // including the wrap class (count + 2^62 leaves count x dim unchanged
    // modulo 2^64 whenever dim is a multiple of 4).
    for (const Region& region : targets) {
      for (size_t at = (region.begin + 7) & ~size_t{7};
           at + 8 <= region.begin + region.size; at += 8) {
        std::vector<uint8_t> bytes = pristine;
        Put(bytes, at, Get<uint64_t>(bytes, at) ^ (uint64_t{1} << 62));
        (void)try_edit(std::move(bytes), "bit 62 of the word @" +
                                             std::to_string(at));
      }
    }
  }
}

/// Byte offset of section (kind, unit)'s table entry in `bytes`.
size_t EntryOf(const std::vector<uint8_t>& bytes, SectionKind kind,
               uint32_t unit) {
  const uint32_t sections = Get<uint32_t>(bytes, kOffSectionCount);
  for (uint32_t s = 0; s < sections; ++s) {
    const size_t entry = kHeaderBytes + s * kEntryBytes;
    if (Get<uint32_t>(bytes, entry) == static_cast<uint32_t>(kind) &&
        Get<uint32_t>(bytes, entry + 4) == unit) {
      return entry;
    }
  }
  ADD_FAILURE() << "no section " << static_cast<uint32_t>(kind) << "/"
                << unit;
  return 0;
}

TEST(PersistMutationTest, OutOfRangeLaneIdsAreCorruption) {
  // The bucket lists are the only record of which vector sits in which
  // lane of an IVF store, and a search remaps every lane id through
  // per-slot tables without a check (before the loader checked lane ids, a
  // file with ids past the store loaded fine and the first query died with
  // SIGSEGV). Two ways to get there on a checksum-valid live IVF
  // collection: the bucket members rewritten past the count, and the
  // buckets entry of the table pointed at the arena, whose float bits read
  // as huge counts and ids.
  const VectorSet vectors = RandomVectors(2000, 16, 9);
  auto made = MutableSearcher::Make(
      vectors, BaseConfig(SearcherLayout::kIvf, PrunerKind::kBond),
      MutationConfig{}, ShardingOptions{});
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  const std::string path = TempPath("lane_ids.pdxc");
  ASSERT_TRUE(made.value()->Save(path).ok());
  const std::vector<uint8_t> pristine = ReadFile(path);
  const size_t buckets_entry = EntryOf(pristine, SectionKind::kIvfBuckets, 0);
  const size_t arena_entry = EntryOf(pristine, SectionKind::kStoreArena, 0);
  const uint64_t buckets_offset = Get<uint64_t>(pristine, buckets_entry + 8);
  // {u64 num_buckets, u64 total, (num_buckets + 1) x u64 offsets,
  //  total x u32 members}.
  const uint64_t num_buckets = Get<uint64_t>(pristine, buckets_offset);
  ASSERT_EQ(Get<uint64_t>(pristine, buckets_offset + 8), vectors.count());
  const uint64_t members_offset = buckets_offset + 16 + (num_buckets + 1) * 8;

  std::vector<uint8_t> rewritten = pristine;
  for (uint64_t i = 0; i < vectors.count(); ++i) {
    Put(rewritten, members_offset + i * sizeof(uint32_t),
        static_cast<uint32_t>(0x80000000u + i));
  }
  std::vector<uint8_t> redirected = pristine;
  Put(redirected, buckets_entry + 8, Get<uint64_t>(pristine, arena_entry + 8));

  const std::string crafted = TempPath("lane_ids_crafted.pdxc");
  for (std::vector<uint8_t>* bytes : {&rewritten, &redirected}) {
    Reseal(*bytes);
    WriteFile(crafted, *bytes);
    auto loaded = LoadCollection(crafted);
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
    EXPECT_NE(loaded.status().message().find("IVF buckets"),
              std::string::npos)
        << loaded.status().ToString();
    // The route behind PUT /collections/<name>/load refuses it too.
    SearchService service;
    EXPECT_FALSE(service.LoadCollection("c", crafted).ok());
  }
}

TEST(PersistMutationTest, DuplicateBucketMembersAreCorruption) {
  // Bucket lists that keep the total and the id range but name one vector
  // twice and drop another: the lane ids derived from them would serve
  // that vector twice (the u8 tier answered with it twice before the
  // loader required each id exactly once).
  for (const char* tier : {"ivf-u8", "ivf-ads"}) {
    SCOPED_TRACE(tier);
    const std::string path = TempPath(std::string("dup_") + tier);
    ASSERT_TRUE(TierNamed(tier).save(path).ok());
    std::vector<uint8_t> bytes = ReadFile(path);
    const size_t entry = EntryOf(bytes, SectionKind::kIvfBuckets, 0);
    const uint64_t offset = Get<uint64_t>(bytes, entry + 8);
    const uint64_t num_buckets = Get<uint64_t>(bytes, offset);
    const uint64_t members = offset + 16 + (num_buckets + 1) * 8;
    Put(bytes, members + sizeof(uint32_t), Get<uint32_t>(bytes, members));
    Reseal(bytes);
    WriteFile(path, bytes);
    auto loaded = LoadCollection(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  }
}

TEST(PersistMutationTest, SwappedShardsAreCorruption) {
  // The loader recomputes each shard's id map, and with it the shard's
  // vector count, from (count, shards, assignment) instead of reading it. A
  // table that swaps the arenas of two shards of different sizes keeps
  // every checksum and the total count, but the larger arena cannot hold
  // the smaller shard's derived layout, nor the other way round.
  const VectorSet vectors = RandomVectors(241, 12, 13);  // 81 + 80 + 80.
  ShardingOptions sharding;
  sharding.num_shards = 3;
  sharding.assignment = ShardAssignment::kRoundRobin;
  const std::string path = TempPath("swapped_shards.pdxc");
  ASSERT_TRUE(SaveMade(MakeShardedSearcher(vectors,
                                           BaseConfig(SearcherLayout::kFlat,
                                                      PrunerKind::kBond),
                                           sharding),
                       path)
                  .ok());
  std::vector<uint8_t> bytes = ReadFile(path);
  ASSERT_TRUE(LoadCollection(path).ok());

  const uint32_t sections = Get<uint32_t>(bytes, kOffSectionCount);
  for (uint32_t s = 0; s < sections; ++s) {
    const size_t entry = kHeaderBytes + s * kEntryBytes;
    if (static_cast<SectionKind>(Get<uint32_t>(bytes, entry)) !=
        SectionKind::kStoreArena) {
      continue;
    }
    const uint32_t unit = Get<uint32_t>(bytes, entry + 4);
    if (unit <= 1) Put<uint32_t>(bytes, entry + 4, 1 - unit);
  }
  Reseal(bytes);
  WriteFile(path, bytes);
  auto loaded = LoadCollection(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
}

/// The payload of the section whose table entry starts at `entry`.
std::vector<uint8_t> Payload(const std::vector<uint8_t>& bytes, size_t entry) {
  const uint64_t offset = Get<uint64_t>(bytes, entry + 8);
  return std::vector<uint8_t>(
      bytes.begin() + offset,
      bytes.begin() + offset + Get<uint64_t>(bytes, entry + 16));
}

/// Gives the section at `entry` a new payload of any size: appended at the
/// end of the file, 8-byte aligned like the writer's sections, with the
/// table and the recorded file size pointed at it. The old payload stays
/// behind as unreferenced bytes.
void ReplacePayload(std::vector<uint8_t>& bytes, size_t entry,
                    const std::vector<uint8_t>& payload) {
  bytes.resize((bytes.size() + 7) & ~size_t{7}, 0);
  Put<uint64_t>(bytes, entry + 8, bytes.size());
  Put<uint64_t>(bytes, entry + 16, payload.size());
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  Put<uint64_t>(bytes, kOffFileSize, bytes.size());
}

TEST(PersistMutationTest, ResizedShapesAreCorruption) {
  // Single-field edits cannot reach these: each rewrites a whole section,
  // consistent in itself, whose shape disagrees with what the searcher
  // indexes by. Each loaded cleanly before the loader compared the shapes.
  const size_t dim = TierVectors().dim();
  const std::string crafted = TempPath("resized.pdxc");

  // A BSA basis with one component row more than its dim: the query
  // transform writes one output per row into a dim-sized buffer.
  {
    const std::string path = TempPath("resized_bsa.pdxc");
    ASSERT_TRUE(TierNamed("flat-bsa").save(path).ok());
    std::vector<uint8_t> bytes = ReadFile(path);
    const size_t entry = EntryOf(bytes, SectionKind::kPrunerPca, 0);
    std::vector<uint8_t> pca = Payload(bytes, entry);
    // {u64 dim, dim means, dim variances, u64 rows, u64 cols, rows x cols}.
    const size_t rows_at = 8 + 2 * dim * sizeof(float);
    ASSERT_EQ(Get<uint64_t>(pca, rows_at), dim);
    Put<uint64_t>(pca, rows_at, dim + 1);
    pca.resize(pca.size() + dim * sizeof(float), 0);
    ReplacePayload(bytes, entry, pca);
    Reseal(bytes);
    WriteFile(crafted, bytes);
    auto loaded = LoadCollection(crafted);
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  }

  // Bucket lists with their first two buckets merged into one: the IVF
  // store's groups and the centroid arena are derived from the lists, so
  // the engine would scan bucket b as group b of a layout the arenas do
  // not hold.
  {
    const std::string path = TempPath("resized_ivf.pdxc");
    ASSERT_TRUE(TierNamed("ivf-ads").save(path).ok());
    std::vector<uint8_t> bytes = ReadFile(path);
    const size_t entry = EntryOf(bytes, SectionKind::kIvfBuckets, 0);
    std::vector<uint8_t> buckets = Payload(bytes, entry);
    // {u64 num_buckets, u64 total, (num_buckets + 1) x u64 offsets,
    //  total x u32 members}: dropping offset 1 merges buckets 0 and 1.
    const uint64_t num_buckets = Get<uint64_t>(buckets, 0);
    ASSERT_GE(num_buckets, 2u);
    Put<uint64_t>(buckets, 0, num_buckets - 1);
    buckets.erase(buckets.begin() + 24, buckets.begin() + 32);
    ReplacePayload(bytes, entry, buckets);
    Reseal(bytes);
    WriteFile(crafted, bytes);
    auto loaded = LoadCollection(crafted);
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  }

  // An arena one block shorter than the layout derived from the count and
  // block_capacity: 240 vectors in 64-lane blocks end with a 48-lane block.
  {
    const std::string path = TempPath("resized_arena.pdxc");
    SearcherConfig config =
        BaseConfig(SearcherLayout::kFlat, PrunerKind::kLinear);
    config.block_capacity = 64;
    ASSERT_TRUE(SaveMade(MakeSearcher(TierVectors(), config), path).ok());
    std::vector<uint8_t> bytes = ReadFile(path);
    const size_t entry = EntryOf(bytes, SectionKind::kStoreArena, 0);
    ASSERT_EQ(Get<uint64_t>(bytes, entry + 16),
              TierVectors().count() * dim * sizeof(float));
    Put<uint64_t>(bytes, entry + 16,
                  Get<uint64_t>(bytes, entry + 16) - 48 * dim * sizeof(float));
    Reseal(bytes);
    WriteFile(crafted, bytes);
    auto loaded = LoadCollection(crafted);
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  }

  // PDX-BOND means one float short of, then one float past, the dim.
  for (const size_t floats : {dim - 1, dim + 1}) {
    const std::string path = TempPath("resized_means.pdxc");
    ASSERT_TRUE(TierNamed("flat-bond").save(path).ok());
    std::vector<uint8_t> bytes = ReadFile(path);
    const size_t entry = EntryOf(bytes, SectionKind::kPrunerMeans, 0);
    std::vector<uint8_t> means = Payload(bytes, entry);
    ASSERT_EQ(means.size(), dim * sizeof(float));
    means.resize(floats * sizeof(float), 0);
    ReplacePayload(bytes, entry, means);
    Reseal(bytes);
    WriteFile(crafted, bytes);
    auto loaded = LoadCollection(crafted);
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  }
}

}  // namespace
}  // namespace pdx
