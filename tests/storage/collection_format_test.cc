#include "storage/collection_format.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/any_searcher.h"
#include "storage/vector_set.h"

namespace pdx {
namespace {

// Byte offsets pinned by the format doc in collection_format.h. These are
// the on-disk contract: moving any of them is a format break and must come
// with a version bump.
constexpr size_t kOffMagic = 0;
constexpr size_t kOffVersion = 4;
constexpr size_t kOffSectionCount = 8;
constexpr size_t kOffReserved = 12;
constexpr size_t kOffFileSize = 16;
constexpr size_t kOffHeaderChecksum = 24;
constexpr size_t kSectionTableStart = 32;
constexpr size_t kSectionEntrySize = 32;

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

/// Writes one small flat/BOND collection file and returns its bytes.
std::vector<uint8_t> WriteSampleFile(const std::string& path) {
  const VectorSet vectors = RandomVectors(300, 16, 7);
  SearcherConfig config;
  config.layout = SearcherLayout::kFlat;
  config.pruner = PrunerKind::kBond;
  config.k = 5;
  auto made = MakeSearcher(vectors, std::move(config));
  EXPECT_TRUE(made.ok()) << made.status().ToString();
  EXPECT_TRUE(made.value()->Save(path).ok());
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  return bytes;
}

void WriteBytes(const std::string& path, const uint8_t* data, size_t size) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good());
  out.write(reinterpret_cast<const char*>(data), static_cast<long>(size));
  ASSERT_TRUE(out.good());
}

template <typename T>
T ReadAt(const std::vector<uint8_t>& bytes, size_t offset) {
  T value{};
  EXPECT_LE(offset + sizeof(T), bytes.size());
  std::memcpy(&value, bytes.data() + offset, sizeof(T));
  return value;
}

/// Recomputes and patches the header checksum so a surgical header edit
/// (e.g. the version bump test) fails for the edited field, not the
/// checksum.
void FixHeaderChecksum(std::vector<uint8_t>& bytes) {
  const uint32_t sections = ReadAt<uint32_t>(bytes, kOffSectionCount);
  uint64_t checksum = XxHash64(bytes.data(), kOffHeaderChecksum);
  checksum = XxHash64(bytes.data() + kSectionTableStart,
                      sections * kSectionEntrySize, checksum);
  std::memcpy(bytes.data() + kOffHeaderChecksum, &checksum, sizeof(checksum));
}

TEST(CollectionFormatTest, GoldenHeaderAndSectionTableLayout) {
  const std::string path = TempPath("golden.pdxc");
  const std::vector<uint8_t> bytes = WriteSampleFile(path);
  ASSERT_GE(bytes.size(), kSectionTableStart);

  // Header, field by field, at pinned offsets.
  EXPECT_EQ(std::memcmp(bytes.data() + kOffMagic, "PDXC", 4), 0);
  EXPECT_EQ(ReadAt<uint32_t>(bytes, kOffVersion), 3u);
  EXPECT_EQ(kCollectionFormatVersion, 3u);
  const uint32_t sections = ReadAt<uint32_t>(bytes, kOffSectionCount);
  EXPECT_EQ(ReadAt<uint32_t>(bytes, kOffReserved), 0u);
  EXPECT_EQ(ReadAt<uint64_t>(bytes, kOffFileSize), bytes.size());
  uint64_t expected = XxHash64(bytes.data(), kOffHeaderChecksum);
  expected = XxHash64(bytes.data() + kSectionTableStart,
                      sections * kSectionEntrySize, expected);
  EXPECT_EQ(ReadAt<uint64_t>(bytes, kOffHeaderChecksum), expected);

  // Section table: 32-byte entries {u32 kind, u32 unit, u64 offset,
  // u64 size, u64 checksum}. A flat PDX-BOND collection of 300 x 16 is
  // three sections: the meta, the store's arena alone (one 2048-lane
  // block of 300 x 16 floats, on a 64-byte file offset for the mmap
  // zero-copy contract; its block counts and lane ids are derived) and
  // BOND's 16 means. Kind numbers, order, offsets and sizes are pinned.
  struct Entry {
    uint32_t kind;
    uint32_t unit;
    uint64_t offset;
    uint64_t size;
  };
  const Entry golden[] = {
      {1, 0, 128, 184},             // kCollectionMeta: SavedMeta.
      {5, 0, 320, 300 * 16 * 4},    // kStoreArena.
      {17, 0, 19520, 16 * 4},       // kPrunerMeans.
  };
  EXPECT_EQ(static_cast<uint32_t>(SectionKind::kStoreArena), 5u);
  EXPECT_EQ(static_cast<uint32_t>(SectionKind::kIvfCentroids), 16u);
  EXPECT_EQ(static_cast<uint32_t>(SectionKind::kPrunerMeans), 17u);
  EXPECT_EQ(sizeof(SavedMeta), 184u);
  ASSERT_EQ(sections, std::size(golden));
  for (uint32_t s = 0; s < sections; ++s) {
    const size_t entry = kSectionTableStart + s * kSectionEntrySize;
    const uint64_t offset = ReadAt<uint64_t>(bytes, entry + 8);
    const uint64_t size = ReadAt<uint64_t>(bytes, entry + 16);
    EXPECT_EQ(ReadAt<uint32_t>(bytes, entry), golden[s].kind) << s;
    EXPECT_EQ(ReadAt<uint32_t>(bytes, entry + 4), golden[s].unit) << s;
    EXPECT_EQ(offset, golden[s].offset) << s;
    EXPECT_EQ(size, golden[s].size) << s;
    ASSERT_LE(offset + size, bytes.size());
    EXPECT_EQ(XxHash64(bytes.data() + offset, size),
              ReadAt<uint64_t>(bytes, entry + 24))
        << s;
  }
  EXPECT_EQ(bytes.size(), 19584u);

  // And the file actually loads.
  auto image = CollectionImage::Load(path);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_EQ(image.value()->meta().count, 300u);
  EXPECT_EQ(image.value()->meta().dim, 16u);
}

TEST(CollectionFormatTest, FutureVersionIsRejectedAsInvalidArgument) {
  const std::string path = TempPath("future.pdxc");
  std::vector<uint8_t> bytes = WriteSampleFile(path);
  const uint32_t future = kCollectionFormatVersion + 1;
  std::memcpy(bytes.data() + kOffVersion, &future, sizeof(future));
  // With a true checksum the ONLY complaint left is the version — pinning
  // that old readers reject newer files explicitly, not as corruption.
  FixHeaderChecksum(bytes);
  WriteBytes(path, bytes.data(), bytes.size());
  auto image = CollectionImage::Load(path);
  ASSERT_FALSE(image.ok());
  EXPECT_TRUE(image.status().IsInvalidArgument());
  EXPECT_NE(image.status().message().find("newer"), std::string::npos)
      << image.status().ToString();
}

TEST(CollectionFormatTest, OldVersionsAreRejectedNamingTheirVersion) {
  // Version 1 files carry FNV-1a checksums, which this build no longer
  // computes, and version 2 files carry store sections this build no
  // longer reads. Both must fail on the version, named in the message, not
  // as a checksum mismatch (the header checksum is left as written for
  // version 3, so a checksum that ran would fail) or a missing section.
  const std::string path = TempPath("old_version.pdxc");
  const std::vector<uint8_t> pristine = WriteSampleFile(path);
  for (const uint32_t version : {1u, 2u}) {
    std::vector<uint8_t> bytes = pristine;
    std::memcpy(bytes.data() + kOffVersion, &version, sizeof(version));
    WriteBytes(path, bytes.data(), bytes.size());
    for (const bool allow_mmap : {true, false}) {
      auto image = CollectionImage::Load(path, allow_mmap);
      ASSERT_FALSE(image.ok());
      EXPECT_TRUE(image.status().IsInvalidArgument())
          << image.status().ToString();
      EXPECT_NE(image.status().message().find("format version " +
                                              std::to_string(version)),
                std::string::npos)
          << image.status().ToString();
      EXPECT_EQ(image.status().message().find("checksum"), std::string::npos)
          << image.status().ToString();
    }
  }
}

TEST(CollectionFormatTest, VersionZeroIsCorruption) {
  const std::string path = TempPath("vzero.pdxc");
  std::vector<uint8_t> bytes = WriteSampleFile(path);
  const uint32_t zero = 0;
  std::memcpy(bytes.data() + kOffVersion, &zero, sizeof(zero));
  FixHeaderChecksum(bytes);
  WriteBytes(path, bytes.data(), bytes.size());
  auto image = CollectionImage::Load(path);
  ASSERT_FALSE(image.ok());
  EXPECT_TRUE(image.status().IsCorruption());
}

TEST(CollectionFormatTest, BadMagicIsCorruption) {
  const std::string path = TempPath("magic.pdxc");
  std::vector<uint8_t> bytes = WriteSampleFile(path);
  bytes[0] = 'Q';
  WriteBytes(path, bytes.data(), bytes.size());
  auto image = CollectionImage::Load(path);
  ASSERT_FALSE(image.ok());
  EXPECT_TRUE(image.status().IsCorruption());
}

TEST(CollectionFormatTest, EveryPrefixTruncationFailsCleanly) {
  const std::string path = TempPath("whole.pdxc");
  const std::vector<uint8_t> bytes = WriteSampleFile(path);
  ASSERT_GT(bytes.size(), 0u);
  const std::string cut = TempPath("cut.pdxc");
  // EVERY proper prefix, not a sample: any cut point — mid-header,
  // mid-table, mid-payload — must fail validation with a Status, never
  // load half a collection and never crash. Heap path keeps the loop fast
  // (no mmap/munmap churn) and runs the same validation code.
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteBytes(cut, bytes.data(), len);
    auto image = CollectionImage::Load(cut, /*allow_mmap=*/false);
    ASSERT_FALSE(image.ok()) << "prefix of " << len << " bytes loaded";
  }
}

TEST(CollectionFormatTest, FlippedChecksumBytesFailLoad) {
  const std::string path = TempPath("flip.pdxc");
  const std::vector<uint8_t> bytes = WriteSampleFile(path);
  const std::string corrupt = TempPath("flip_corrupt.pdxc");
  const uint32_t sections = ReadAt<uint32_t>(bytes, kOffSectionCount);

  // Flip each byte of the header checksum itself...
  std::vector<size_t> targets;
  for (size_t i = 0; i < 8; ++i) targets.push_back(kOffHeaderChecksum + i);
  // ...each byte of every per-section checksum field...
  for (uint32_t s = 0; s < sections; ++s) {
    const size_t entry = kSectionTableStart + s * kSectionEntrySize;
    for (size_t i = 0; i < 8; ++i) targets.push_back(entry + 24 + i);
  }
  for (const size_t at : targets) {
    std::vector<uint8_t> mutated = bytes;
    mutated[at] ^= 0xff;
    WriteBytes(corrupt, mutated.data(), mutated.size());
    auto image = CollectionImage::Load(corrupt, /*allow_mmap=*/false);
    ASSERT_FALSE(image.ok()) << "checksum byte " << at << " flip loaded";
  }

  // ...and one byte in the middle of every section payload: the payload
  // checksum must catch single-bit rot anywhere, not only in the header.
  for (uint32_t s = 0; s < sections; ++s) {
    const size_t entry = kSectionTableStart + s * kSectionEntrySize;
    const uint64_t offset = ReadAt<uint64_t>(bytes, entry + 8);
    const uint64_t size = ReadAt<uint64_t>(bytes, entry + 16);
    if (size == 0) continue;
    std::vector<uint8_t> mutated = bytes;
    mutated[offset + size / 2] ^= 0x01;
    WriteBytes(corrupt, mutated.data(), mutated.size());
    auto image = CollectionImage::Load(corrupt, /*allow_mmap=*/false);
    ASSERT_FALSE(image.ok()) << "payload flip in section " << s << " loaded";
  }
}

TEST(CollectionFormatTest, XxHash64ChecksumIsPinned) {
  // The checksum algorithm is part of the format: a different hash would
  // silently orphan every existing file. Published XXH64 seed-0 vectors,
  // chosen so that between them they take every branch: the short-input
  // seed, the 32-byte stripe loop, and the 8-byte, 4-byte and 1-byte tails.
  const auto xxh = [](const std::string& s) {
    return XxHash64(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  };
  EXPECT_EQ(XxHash64(nullptr, 0), 0xef46db3751d8e999ull);
  EXPECT_EQ(xxh("a"), 0xd24ec4f1a98c6e5bull);
  EXPECT_EQ(xxh("abc"), 0x44bc2cf5ad770999ull);
  const std::string spam = "Nobody inspects the spammish repetition";
  ASSERT_EQ(spam.size(), 39u);  // A stripe, a 4-byte and three 1-byte tails.
  EXPECT_EQ(xxh(spam), 0xfbcea83c8a378bf1ull);
  const std::string fox = "The quick brown fox jumps over the lazy dog";
  ASSERT_EQ(fox.size(), 43u);  // A stripe, an 8-byte and three 1-byte tails.
  EXPECT_EQ(xxh(fox), 0x0b242d361fda71bcull);
}

}  // namespace
}  // namespace pdx
