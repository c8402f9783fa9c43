#ifndef PDX_STORAGE_COLLECTION_FORMAT_H_
#define PDX_STORAGE_COLLECTION_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/status.h"
#include "common/types.h"
#include "linalg/matrix.h"
#include "storage/mmap_file.h"

namespace pdx {

/// The versioned on-disk collection format ("PDXC"):
///
///   [0]  magic "PDXC"
///   [4]  u32 format version (kCollectionFormatVersion)
///   [8]  u32 section count
///   [12] u32 reserved (0)
///   [16] u64 file size
///   [24] u64 header checksum (XxHash64 of the whole section table,
///        seeded with XxHash64 of bytes [0, 24))
///   [32] section table: per section
///        {u32 kind, u32 unit, u64 offset, u64 size, u64 payload checksum}
///   ...  payload sections
///
/// A file holds each vector once and only what cannot be derived. A float
/// PDX store is its arena alone: the loader derives the store's blocks
/// from the shard's vector count and the meta's block_capacity
/// (SplitIntoBlocks), and its lane ids from row order on the flat layout
/// or from the shard's bucket lists on IVF — the same split the u8 tier's
/// code arena uses. The IVF centroids are one PDX arena laid out with
/// kPdxBlockSize (transposed back to rows at load), and PDX-BOND's
/// collection means are the pruner's own section, as ADSampling's rotation
/// and BSA's basis are.
///
/// Sections carrying payload meant to be served directly from a memory
/// mapping (kStoreArena, kIvfCentroids, kRawRows, kQuantCodes, kQuantRows)
/// start on 64-byte-aligned file offsets, so a page-aligned mmap of the
/// file yields kPdxAlignment-aligned arena pointers — PDX blocks become
/// zero-copy views over the mapping. Everything else (bucket lists,
/// transform matrices, means) is small relative to the payload and is
/// decoded into owned structures at load.
///
/// The `unit` field is the shard: every per-shard section uses unit s.
/// Collection-wide sections use unit 0.
///
/// The loader rejects every version but the current one by its version,
/// before any checksum runs: version 1 checksummed with FNV-1a 64, and
/// version 2 also stored each float store's block counts, lane ids and
/// per-block statistics, and a second copy of the centroids.
inline constexpr char kCollectionMagic[4] = {'P', 'D', 'X', 'C'};
inline constexpr uint32_t kCollectionFormatVersion = 3;

enum class SectionKind : uint32_t {
  kCollectionMeta = 1,  ///< One SavedMeta (unit 0).
  kStoreArena = 5,      ///< The float store's dimension-major arena.
  kIvfBuckets = 6,      ///< Bucket membership lists.
  kPrunerRotation = 8,  ///< ADSampling rotation matrix.
  kPrunerPca = 9,       ///< BSA PCA basis.
  kRawRows = 10,        ///< Mutable base rows, horizontal (unit 0).
  kDeltaRows = 11,      ///< Mutable delta rows + slots (unit 0).
  kTombstones = 12,     ///< Mutable slot ids + tombstone bitmap (unit 0).
  kQuantParams = 13,    ///< u8 tier per-dimension offsets + scales.
  kQuantCodes = 14,     ///< u8 tier code arena, block order.
  kQuantRows = 15,      ///< u8 tier rerank rows, horizontal.
  kIvfCentroids = 16,   ///< Centroid PDX arena, one group of kPdxBlockSize.
  kPrunerMeans = 17,    ///< PDX-BOND per-dimension collection means.
};

/// Fixed-layout collection metadata — the serialized form of the
/// SearcherConfig/ShardingOptions/MutationConfig triple a searcher was
/// built with (already *resolved*: block_capacity and bond_order carry the
/// values ResolveConfig derived, so a later change of defaults cannot
/// silently re-shape a loaded collection). Written to disk verbatim; the
/// golden-file test pins this layout.
struct SavedMeta {
  uint32_t layout = 0;      ///< SearcherLayout
  uint32_t pruner = 0;      ///< PrunerKind
  uint32_t metric = 0;      ///< Metric
  uint32_t assignment = 0;  ///< ShardAssignment
  uint64_t num_shards = 1;
  uint64_t dim = 0;
  uint64_t count = 0;  ///< Vectors in the (base) collection, all shards.
  uint64_t k = 0;
  uint64_t nprobe = 0;
  uint64_t block_capacity = 0;
  uint32_t bond_order = 0;  ///< DimensionOrder (resolved)
  uint32_t bond_zone_size = 0;
  float ads_epsilon0 = 0.0f;
  /// QuantizationKind. Occupies a former reserved field: old files read 0
  /// = kNone, so the format version is unchanged.
  uint32_t quantization = 0;
  uint64_t ads_seed = 0;
  float bsa_multiplier = 0.0f;
  /// u8 tier candidate over-fetch (former reserved field; see above).
  uint32_t rerank_factor = 0;
  uint64_t bsa_max_fit_samples = 0;
  uint64_t ivf_num_buckets = 0;  ///< IvfOptions as configured (rebuilds).
  int64_t ivf_max_iterations = 0;
  uint64_t ivf_seed = 0;
  float search_selection_fraction = 0.0f;
  uint32_t search_adaptive_steps = 0;
  uint64_t search_initial_step = 0;
  uint64_t search_fixed_step = 0;
  uint32_t mutable_snapshot = 0;  ///< 1 = carries raw/delta/tombstone state.
  uint32_t delta_block_capacity = 0;
  uint64_t compact_threshold = 0;
  uint64_t next_auto_id = 0;
  uint64_t compactions = 0;
};
static_assert(sizeof(SavedMeta) == 184, "SavedMeta layout is pinned on disk");

/// One shard's worth of searcher state. Pointer members borrow from the
/// exporting searcher: a SavedShard is valid only while that searcher is
/// alive and unchanged.
struct SavedShard {
  const float* arena = nullptr;  ///< Float store arena (empty under u8).
  uint64_t arena_floats = 0;
  bool has_ivf = false;
  const float* centroid_arena = nullptr;  ///< Centroid PDX arena (has_ivf).
  uint64_t centroid_arena_floats = 0;
  std::vector<uint64_t> bucket_offsets;  ///< nb + 1 (has_ivf).
  std::vector<uint32_t> bucket_ids;      ///< Flat members (has_ivf).
  Matrix ads_rotation;               ///< rows() > 0 for ADSampling.
  std::vector<float> pca_mean;       ///< BSA only.
  std::vector<float> pca_variance;   ///< BSA only.
  Matrix pca_components;             ///< rows() > 0 for BSA.
  std::vector<float> bond_means;     ///< PDX-BOND only (dim floats).
  /// u8 quantized tier (has_quant): the shard persists kQuantParams /
  /// kQuantCodes / kQuantRows *instead of* a float store arena.
  bool has_quant = false;
  std::vector<float> quant_offsets;  ///< Per-dimension offsets (dim).
  std::vector<float> quant_scales;   ///< Per-dimension scales (dim).
  const uint8_t* quant_codes = nullptr;  ///< Block-order code arena.
  uint64_t quant_codes_bytes = 0;        ///< count x dim.
  const float* quant_rows = nullptr;     ///< count x dim, global-id order.
};

/// Everything WriteCollectionFile needs: metadata, per-shard stores and
/// transforms, and (for mutable snapshots) the delta/tombstone overlay.
/// Pointer members borrow from the exporting searcher.
struct SavedCollection {
  SavedMeta meta;
  std::vector<SavedShard> shards;
  const float* raw_rows = nullptr;  ///< base_count x dim (mutable only).
  uint64_t raw_row_count = 0;
  const float* delta_rows = nullptr;  ///< delta_count x dim (mutable only).
  uint64_t delta_row_count = 0;
  std::vector<uint32_t> delta_slots;
  std::vector<uint64_t> slot_ids;
  std::vector<uint8_t> dead;
};

/// Serializes `saved` to `path` atomically: the bytes go to a temp file in
/// the same directory, which is fsynced and renamed over `path`, and the
/// directory is fsynced. `path` is never truncated in place, so a reader
/// mapping the old file (including the searcher `saved` was exported from,
/// when it was loaded from `path`) keeps serving it, and a failed or
/// interrupted write leaves the previous file byte-identical.
Status WriteCollectionFile(const std::string& path,
                           const SavedCollection& saved);

/// A bounds-checked window into one section's payload.
struct SectionView {
  const uint8_t* data = nullptr;
  uint64_t size = 0;
};

/// A validated, loaded collection file: either a live memory mapping
/// (source() == "mmap" — the arena is served straight from the page
/// cache) or a heap copy fallback (source() == "loaded"). Load verifies
/// magic, version, bounds, and every section checksum up front, so a
/// truncated or bit-flipped file fails with a clean Status instead of
/// crashing later under a searcher.
///
/// Searchers constructed over an image keep it alive via shared_ptr
/// (Searcher::PinImage); the image must outlive every view into it.
class CollectionImage {
 public:
  /// Loads and validates `path`. `allow_mmap` = false forces the heap
  /// fallback (tests exercise both sources; callers on weird filesystems
  /// may too).
  static Result<std::shared_ptr<CollectionImage>> Load(
      const std::string& path, bool allow_mmap = true);

  const SavedMeta& meta() const { return meta_; }
  /// "mmap" when the file is served from a live mapping, else "loaded".
  const char* source() const { return mmap_.mapped() ? "mmap" : "loaded"; }
  uint64_t mapped_bytes() const { return mmap_.mapped() ? mmap_.size() : 0; }
  uint64_t file_bytes() const { return size_; }
  const std::string& path() const { return path_; }

  bool HasSection(SectionKind kind, uint32_t unit) const;
  /// The section's payload; Corruption when absent (a file that validated
  /// but lacks a section the meta implies is malformed).
  Result<SectionView> Section(SectionKind kind, uint32_t unit) const;

 private:
  CollectionImage() = default;

  MmapFile mmap_;
  AlignedBuffer heap_;  ///< Heap fallback backing (64-byte aligned).
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  std::string path_;
  SavedMeta meta_;
  struct Entry {
    uint32_t kind = 0;
    uint32_t unit = 0;
    uint64_t offset = 0;
    uint64_t size = 0;
  };
  std::vector<Entry> sections_;
};

/// The float arena of section (`kind`, shard `unit`): a borrowed
/// 64-byte-aligned view into the image, which must hold exactly `floats`
/// floats — the size of the layout the loader derived for it.
Result<const float*> DecodeArena(const CollectionImage& image,
                                 SectionKind kind, uint32_t unit,
                                 size_t floats);

/// Bucket lists of shard `unit`, which hold `count` vectors. The lists are
/// the only record of which vector sits in which lane, so they must
/// partition the shard: every id below `count`, each exactly once.
Result<std::vector<std::vector<VectorId>>> DecodeBuckets(
    const CollectionImage& image, uint32_t unit, size_t count);

/// PDX-BOND collection means of shard `unit`: exactly meta dim floats.
Result<std::vector<float>> DecodeMeans(const CollectionImage& image,
                                       uint32_t unit);

/// ADSampling rotation of shard `unit`.
Result<Matrix> DecodeRotation(const CollectionImage& image, uint32_t unit);

/// BSA PCA basis of shard `unit`.
struct PcaImage {
  std::vector<float> mean;
  std::vector<float> variance;
  Matrix components;
};
Result<PcaImage> DecodePca(const CollectionImage& image, uint32_t unit);

/// u8 quantized tier of shard `unit`, which holds `count` vectors:
/// parameters owned, codes (count x dim bytes) and rerank rows (count x dim
/// floats) borrowed 64-byte-aligned views into the image.
struct QuantImage {
  size_t dim = 0;
  size_t count = 0;
  std::vector<float> offsets;
  std::vector<float> scales;
  const uint8_t* codes = nullptr;
  uint64_t codes_bytes = 0;
  const float* rows = nullptr;  ///< count x dim, global-id order.
};
Result<QuantImage> DecodeQuant(const CollectionImage& image, uint32_t unit,
                               size_t count);

/// Mutable-snapshot overlay (raw base rows, delta, tombstones).
struct MutableImage {
  const float* raw_rows = nullptr;
  size_t raw_count = 0;
  size_t raw_dim = 0;
  const float* delta_rows = nullptr;
  size_t delta_count = 0;
  size_t delta_dim = 0;
  std::vector<VectorId> delta_slots;
  std::vector<uint64_t> slot_ids;
  std::vector<uint8_t> dead;
};
Result<MutableImage> DecodeMutable(const CollectionImage& image);

/// xxHash64 (XXH64 of the published xxHash spec) — the format's checksum,
/// for every section payload and for the header. The header checksum chains
/// through `seed`. Exposed for tests that corrupt files surgically.
uint64_t XxHash64(const uint8_t* data, size_t size, uint64_t seed = 0);

}  // namespace pdx

#endif  // PDX_STORAGE_COLLECTION_FORMAT_H_
