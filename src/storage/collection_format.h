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
#include "storage/block_stats.h"
#include "storage/mmap_file.h"
#include "storage/pdx_store.h"

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
/// Sections carrying raw float payload meant to be served directly from a
/// memory mapping (kStoreArena, kRawRows) start on 64-byte-aligned file
/// offsets, so a page-aligned mmap of the file yields kPdxAlignment-aligned
/// arena pointers — PDX blocks become zero-copy views over the mapping.
/// Everything else (ids, stats, bucket lists, transform matrices) is small
/// relative to the payload and is decoded into owned structures at load.
///
/// The `unit` field namespaces repeated kinds: shard s's main PDX store
/// uses unit 2*s, its IVF-centroid store unit 2*s + 1; per-shard sections
/// (buckets, pruner transforms) use unit s. Collection-wide sections use
/// unit 0.
///
/// Version 2 checksums with xxHash64; version 1 used FNV-1a 64 with the same
/// layout. The loader rejects every version but the current one.
inline constexpr char kCollectionMagic[4] = {'P', 'D', 'X', 'C'};
inline constexpr uint32_t kCollectionFormatVersion = 2;

enum class SectionKind : uint32_t {
  kCollectionMeta = 1,   ///< One SavedMeta (unit 0).
  kStoreMeta = 2,        ///< Shape of one PDX store (per store unit).
  kStoreIds = 3,         ///< Lane -> global id, block order (per store unit).
  kStoreStats = 4,       ///< Collection + per-block DimensionStats.
  kStoreArena = 5,       ///< The dimension-major float arena (mmap-able).
  kIvfBuckets = 6,       ///< Bucket membership lists (per shard).
  kIvfCentroidRows = 7,  ///< Horizontal centroids (per shard).
  kPrunerRotation = 8,   ///< ADSampling rotation matrix (per shard).
  kPrunerPca = 9,        ///< BSA PCA basis (per shard).
  kRawRows = 10,         ///< Mutable base rows, horizontal (mmap-able).
  kDeltaRows = 11,       ///< Mutable delta rows + slots.
  kTombstones = 12,      ///< Mutable slot ids + tombstone bitmap.
  kQuantParams = 13,     ///< u8 tier per-dimension offsets + scales.
  kQuantCodes = 14,      ///< u8 tier code arena, block order (mmap-able).
  kQuantRows = 15,       ///< u8 tier rerank rows, horizontal (mmap-able).
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

/// One PDX store, described for serialization. The arena pointer borrows
/// from the live store: a SavedCollection is valid only while the searcher
/// it was exported from is alive and unchanged.
struct SavedStore {
  uint64_t dim = 0;
  uint64_t count = 0;
  std::vector<uint32_t> block_counts;      ///< Lanes per block, block order.
  std::vector<uint64_t> group_block_start; ///< num_groups + 1 boundaries.
  std::vector<uint32_t> ids;               ///< Lane ids, block order.
  std::vector<float> stats;  ///< (1 + num_blocks) x 4 x dim floats.
  const float* arena = nullptr;
  uint64_t arena_floats = 0;
};

/// Flattens `store` into its serializable description (arena borrowed).
SavedStore ExportStore(const PdxStore& store);

/// One shard's worth of searcher state.
struct SavedShard {
  SavedStore store;
  bool has_ivf = false;
  SavedStore centroids;              ///< Centroid PDX store (has_ivf).
  std::vector<float> centroid_rows;  ///< nb x dim horizontal (has_ivf).
  std::vector<uint64_t> bucket_offsets;  ///< nb + 1 (has_ivf).
  std::vector<uint32_t> bucket_ids;      ///< Flat members (has_ivf).
  Matrix ads_rotation;               ///< rows() > 0 for ADSampling.
  std::vector<float> pca_mean;       ///< BSA only.
  std::vector<float> pca_variance;   ///< BSA only.
  Matrix pca_components;             ///< rows() > 0 for BSA.
  /// u8 quantized tier (has_quant): the shard persists kQuantParams /
  /// kQuantCodes / kQuantRows *instead of* a float PDX store (`store` stays
  /// empty). Codes and rows borrow from the exporting searcher.
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

/// One PDX store decoded from an image: small structures owned, the arena
/// a borrowed 64-byte-aligned pointer into the image.
struct StoreImage {
  size_t dim = 0;
  size_t count = 0;
  std::vector<uint32_t> block_counts;
  std::vector<size_t> group_block_start;
  std::vector<VectorId> ids;
  DimensionStats stats;
  std::vector<DimensionStats> block_stats;
  const float* arena = nullptr;
  size_t arena_floats = 0;
};

/// Decodes store unit `unit` (meta + ids + stats + arena view). Every lane
/// id is below the store's count.
Result<StoreImage> DecodeStore(const CollectionImage& image, uint32_t unit);

/// IVF structures of shard `unit`, whose `count` vectors the buckets must
/// partition: every member is below `count` and the lists hold `count` ids.
struct IvfImage {
  std::vector<std::vector<VectorId>> buckets;
  const float* centroid_rows = nullptr;  ///< nb x dim floats.
  size_t num_buckets = 0;
};
Result<IvfImage> DecodeIvf(const CollectionImage& image, uint32_t unit,
                           size_t count);

/// ADSampling rotation of shard `unit`.
Result<Matrix> DecodeRotation(const CollectionImage& image, uint32_t unit);

/// BSA PCA basis of shard `unit`.
struct PcaImage {
  std::vector<float> mean;
  std::vector<float> variance;
  Matrix components;
};
Result<PcaImage> DecodePca(const CollectionImage& image, uint32_t unit);

/// u8 quantized tier of shard `unit`: parameters owned, codes (count x dim
/// bytes) and rerank rows (count x dim floats) borrowed 64-byte-aligned
/// views into the image.
struct QuantImage {
  size_t dim = 0;
  size_t count = 0;
  std::vector<float> offsets;
  std::vector<float> scales;
  const uint8_t* codes = nullptr;
  uint64_t codes_bytes = 0;
  const float* rows = nullptr;  ///< count x dim, global-id order.
};
Result<QuantImage> DecodeQuant(const CollectionImage& image, uint32_t unit);

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
