#include "storage/collection_format.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

namespace pdx {

namespace {

// The five primes of the xxHash64 spec.
constexpr uint64_t kXxPrime1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kXxPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kXxPrime3 = 0x165667B19E3779F9ULL;
constexpr uint64_t kXxPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr uint64_t kXxPrime5 = 0x27D4EB2F165667C5ULL;

constexpr size_t kHeaderBytes = 32;
constexpr size_t kEntryBytes = 32;
constexpr size_t kHeaderChecksumOffset = 24;

/// Bounds-checked little-endian reader over one section payload. Every
/// Read* returns false instead of walking past the end, so a malformed
/// section degrades to Status::Corruption at the call site, never a crash.
class ByteReader {
 public:
  explicit ByteReader(SectionView view)
      : cursor_(view.data), end_(view.data + view.size) {}

  size_t remaining() const { return static_cast<size_t>(end_ - cursor_); }
  bool AtEnd() const { return cursor_ == end_; }
  const uint8_t* cursor() const { return cursor_; }

  bool ReadU32(uint32_t* out) { return ReadPod(out); }
  bool ReadU64(uint64_t* out) { return ReadPod(out); }
  bool ReadI64(int64_t* out) { return ReadPod(out); }

  // The array readers skip the copy when n == 0: an empty vector's data()
  // may be null, and memcpy with a null pointer is undefined even for zero
  // bytes.
  bool ReadU32Array(size_t n, std::vector<uint32_t>* out) {
    if (n > remaining() / sizeof(uint32_t)) return false;
    out->resize(n);
    if (n > 0) std::memcpy(out->data(), cursor_, n * sizeof(uint32_t));
    cursor_ += n * sizeof(uint32_t);
    return true;
  }

  bool ReadU64Array(size_t n, std::vector<uint64_t>* out) {
    if (n > remaining() / sizeof(uint64_t)) return false;
    out->resize(n);
    if (n > 0) std::memcpy(out->data(), cursor_, n * sizeof(uint64_t));
    cursor_ += n * sizeof(uint64_t);
    return true;
  }

  bool ReadU8Array(size_t n, std::vector<uint8_t>* out) {
    if (n > remaining()) return false;
    out->resize(n);
    if (n > 0) std::memcpy(out->data(), cursor_, n);
    cursor_ += n;
    return true;
  }

  bool ReadFloats(size_t n, float* out) {
    if (n > remaining() / sizeof(float)) return false;
    std::memcpy(out, cursor_, n * sizeof(float));
    cursor_ += n * sizeof(float);
    return true;
  }

  bool ReadFloatVector(size_t n, std::vector<float>* out) {
    if (n > remaining() / sizeof(float)) return false;
    out->resize(n);
    return ReadFloats(n, out->data());
  }

  /// Borrows `n` floats in place (caller must know the bytes stay alive and
  /// are at least 4-byte aligned — section payloads start 8-byte aligned and
  /// all preceding fields are multiples of 4 bytes).
  bool ViewFloats(size_t n, const float** out) {
    if (n > remaining() / sizeof(float)) return false;
    *out = reinterpret_cast<const float*>(cursor_);
    cursor_ += n * sizeof(float);
    return true;
  }

 private:
  template <typename T>
  bool ReadPod(T* out) {
    if (remaining() < sizeof(T)) return false;
    std::memcpy(out, cursor_, sizeof(T));
    cursor_ += sizeof(T);
    return true;
  }

  const uint8_t* cursor_;
  const uint8_t* end_;
};

template <typename T>
void AppendPod(std::vector<uint8_t>& out, const T& value) {
  const uint8_t* bytes = reinterpret_cast<const uint8_t*>(&value);
  out.insert(out.end(), bytes, bytes + sizeof(T));
}

void AppendBytes(std::vector<uint8_t>& out, const void* data, size_t size) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  out.insert(out.end(), bytes, bytes + size);
}

/// One section staged for writing: either an owned serialized payload or a
/// window borrowed from the exporting searcher (arena, raw rows).
struct PendingSection {
  SectionKind kind = SectionKind::kCollectionMeta;
  uint32_t unit = 0;
  std::vector<uint8_t> owned;
  const uint8_t* external = nullptr;
  uint64_t external_size = 0;
  bool align64 = false;

  const uint8_t* data() const { return external != nullptr ? external : owned.data(); }
  uint64_t size() const { return external != nullptr ? external_size : owned.size(); }
};

/// A payload borrowed from the exporting searcher and served by mmap at
/// load, so it starts on a 64-byte file offset.
PendingSection Borrowed(SectionKind kind, uint32_t unit, const void* data,
                        uint64_t size) {
  PendingSection section;
  section.kind = kind;
  section.unit = unit;
  section.external = static_cast<const uint8_t*>(data);
  section.external_size = size;
  section.align64 = true;
  return section;
}

/// Creates the file the next snapshot of `path` is written to, in the same
/// directory (so the final rename stays on one filesystem). The name is
/// unique per call — pid plus a process-wide counter, created O_EXCL — so
/// concurrent saves of one path never share a temp file; the mode is 0666
/// less the umask, like any new file. Returns the fd, or -1 with errno set.
int CreateTempBeside(const std::string& path, std::string* tmp) {
  static std::atomic<uint64_t> counter{0};
  for (int attempt = 0; attempt < 64; ++attempt) {
    *tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
           std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
    const int fd =
        ::open(tmp->c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
    if (fd >= 0 || errno != EEXIST) return fd;
  }
  return -1;
}

/// fsyncs the directory holding `path`, which makes a rename into it
/// durable.
bool SyncParentDirectory(const std::string& path) {
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  return synced;
}

// Unaligned little-endian word reads go through memcpy, which compiles to
// one load and keeps UBSan's alignment check quiet on any input pointer.
uint64_t LoadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t RotL64(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

uint64_t XxRound(uint64_t acc, uint64_t input) {
  acc += input * kXxPrime2;
  return RotL64(acc, 31) * kXxPrime1;
}

uint64_t XxMergeRound(uint64_t acc, uint64_t lane) {
  acc ^= XxRound(0, lane);
  return acc * kXxPrime1 + kXxPrime4;
}

}  // namespace

uint64_t XxHash64(const uint8_t* data, size_t size, uint64_t seed) {
  const uint8_t* p = data;
  const uint8_t* const end = data + size;
  uint64_t hash;
  if (size >= 32) {
    // Four independent lanes over 32-byte stripes: the multiplies of one
    // stripe overlap, which is what lifts this past a byte-serial hash.
    uint64_t v1 = seed + kXxPrime1 + kXxPrime2;
    uint64_t v2 = seed + kXxPrime2;
    uint64_t v3 = seed;
    uint64_t v4 = seed - kXxPrime1;
    const uint8_t* const last_stripe = end - 32;
    do {
      v1 = XxRound(v1, LoadU64(p));
      v2 = XxRound(v2, LoadU64(p + 8));
      v3 = XxRound(v3, LoadU64(p + 16));
      v4 = XxRound(v4, LoadU64(p + 24));
      p += 32;
    } while (p <= last_stripe);
    hash = RotL64(v1, 1) + RotL64(v2, 7) + RotL64(v3, 12) + RotL64(v4, 18);
    hash = XxMergeRound(hash, v1);
    hash = XxMergeRound(hash, v2);
    hash = XxMergeRound(hash, v3);
    hash = XxMergeRound(hash, v4);
  } else {
    hash = seed + kXxPrime5;
  }
  hash += static_cast<uint64_t>(size);
  // Tail: 8-byte words, then at most one 4-byte word, then single bytes.
  while (end - p >= 8) {
    hash ^= XxRound(0, LoadU64(p));
    hash = RotL64(hash, 27) * kXxPrime1 + kXxPrime4;
    p += 8;
  }
  if (end - p >= 4) {
    hash ^= static_cast<uint64_t>(LoadU32(p)) * kXxPrime1;
    hash = RotL64(hash, 23) * kXxPrime2 + kXxPrime3;
    p += 4;
  }
  while (p < end) {
    hash ^= static_cast<uint64_t>(*p) * kXxPrime5;
    hash = RotL64(hash, 11) * kXxPrime1;
    ++p;
  }
  // Avalanche.
  hash ^= hash >> 33;
  hash *= kXxPrime2;
  hash ^= hash >> 29;
  hash *= kXxPrime3;
  hash ^= hash >> 32;
  return hash;
}

Status WriteCollectionFile(const std::string& path,
                           const SavedCollection& saved) {
  std::vector<PendingSection> sections;

  PendingSection meta;
  meta.kind = SectionKind::kCollectionMeta;
  meta.unit = 0;
  AppendPod(meta.owned, saved.meta);
  sections.push_back(std::move(meta));

  for (size_t s = 0; s < saved.shards.size(); ++s) {
    const SavedShard& shard = saved.shards[s];
    const uint32_t shard_unit = static_cast<uint32_t>(s);
    if (shard.has_quant) {
      // The quantized tier persists no float PDX store: its state is the
      // per-dimension parameters, the block-order code arena, and the
      // full-precision rerank rows (both arenas mmap-served at load).
      const uint64_t qdim = shard.quant_offsets.size();
      const uint64_t qcount = qdim == 0 ? 0 : shard.quant_codes_bytes / qdim;

      PendingSection params;
      params.kind = SectionKind::kQuantParams;
      params.unit = shard_unit;
      AppendPod(params.owned, qdim);
      AppendPod(params.owned, qcount);
      AppendBytes(params.owned, shard.quant_offsets.data(),
                  shard.quant_offsets.size() * sizeof(float));
      AppendBytes(params.owned, shard.quant_scales.data(),
                  shard.quant_scales.size() * sizeof(float));
      sections.push_back(std::move(params));

      sections.push_back(Borrowed(SectionKind::kQuantCodes, shard_unit,
                                  shard.quant_codes,
                                  shard.quant_codes_bytes));
      sections.push_back(Borrowed(SectionKind::kQuantRows, shard_unit,
                                  shard.quant_rows,
                                  qcount * qdim * sizeof(float)));
    } else {
      // A float store is its arena alone: the loader derives its blocks
      // and lane ids (collection_format.h).
      sections.push_back(Borrowed(SectionKind::kStoreArena, shard_unit,
                                  shard.arena,
                                  shard.arena_floats * sizeof(float)));
    }
    if (shard.has_ivf) {
      sections.push_back(Borrowed(SectionKind::kIvfCentroids, shard_unit,
                                  shard.centroid_arena,
                                  shard.centroid_arena_floats * sizeof(float)));

      PendingSection buckets;
      buckets.kind = SectionKind::kIvfBuckets;
      buckets.unit = shard_unit;
      AppendPod(buckets.owned,
                static_cast<uint64_t>(shard.bucket_offsets.size() - 1));
      AppendPod(buckets.owned, static_cast<uint64_t>(shard.bucket_ids.size()));
      AppendBytes(buckets.owned, shard.bucket_offsets.data(),
                  shard.bucket_offsets.size() * sizeof(uint64_t));
      AppendBytes(buckets.owned, shard.bucket_ids.data(),
                  shard.bucket_ids.size() * sizeof(uint32_t));
      sections.push_back(std::move(buckets));
    }
    if (shard.ads_rotation.rows() > 0) {
      PendingSection rot;
      rot.kind = SectionKind::kPrunerRotation;
      rot.unit = shard_unit;
      AppendPod(rot.owned, static_cast<uint64_t>(shard.ads_rotation.rows()));
      AppendPod(rot.owned, static_cast<uint64_t>(shard.ads_rotation.cols()));
      AppendBytes(
          rot.owned, shard.ads_rotation.data(),
          shard.ads_rotation.rows() * shard.ads_rotation.cols() * sizeof(float));
      sections.push_back(std::move(rot));
    }
    if (shard.pca_components.rows() > 0) {
      PendingSection pca;
      pca.kind = SectionKind::kPrunerPca;
      pca.unit = shard_unit;
      AppendPod(pca.owned, static_cast<uint64_t>(shard.pca_mean.size()));
      AppendBytes(pca.owned, shard.pca_mean.data(),
                  shard.pca_mean.size() * sizeof(float));
      AppendBytes(pca.owned, shard.pca_variance.data(),
                  shard.pca_variance.size() * sizeof(float));
      AppendPod(pca.owned, static_cast<uint64_t>(shard.pca_components.rows()));
      AppendPod(pca.owned, static_cast<uint64_t>(shard.pca_components.cols()));
      AppendBytes(pca.owned, shard.pca_components.data(),
                  shard.pca_components.rows() * shard.pca_components.cols() *
                      sizeof(float));
      sections.push_back(std::move(pca));
    }
    if (!shard.bond_means.empty()) {
      PendingSection means;
      means.kind = SectionKind::kPrunerMeans;
      means.unit = shard_unit;
      AppendBytes(means.owned, shard.bond_means.data(),
                  shard.bond_means.size() * sizeof(float));
      sections.push_back(std::move(means));
    }
  }

  if (saved.meta.mutable_snapshot != 0) {
    sections.push_back(
        Borrowed(SectionKind::kRawRows, 0, saved.raw_rows,
                 saved.raw_row_count * saved.meta.dim * sizeof(float)));

    PendingSection delta;
    delta.kind = SectionKind::kDeltaRows;
    delta.unit = 0;
    AppendPod(delta.owned, saved.delta_row_count);
    AppendPod(delta.owned, saved.meta.dim);
    AppendBytes(delta.owned, saved.delta_slots.data(),
                saved.delta_slots.size() * sizeof(uint32_t));
    if (saved.delta_row_count > 0) {
      AppendBytes(delta.owned, saved.delta_rows,
                  saved.delta_row_count * saved.meta.dim * sizeof(float));
    }
    sections.push_back(std::move(delta));

    PendingSection tombs;
    tombs.kind = SectionKind::kTombstones;
    tombs.unit = 0;
    AppendPod(tombs.owned, static_cast<uint64_t>(saved.slot_ids.size()));
    AppendBytes(tombs.owned, saved.slot_ids.data(),
                saved.slot_ids.size() * sizeof(uint64_t));
    AppendBytes(tombs.owned, saved.dead.data(),
                saved.dead.size() * sizeof(uint8_t));
    sections.push_back(std::move(tombs));
  }

  // Layout pass: every section starts 8-byte aligned (so fixed-width fields
  // inside payloads read aligned); mmap-served float payloads start on
  // 64-byte file offsets.
  uint64_t offset = kHeaderBytes + kEntryBytes * sections.size();
  std::vector<uint64_t> offsets(sections.size());
  for (size_t i = 0; i < sections.size(); ++i) {
    const uint64_t align = sections[i].align64 ? 64 : 8;
    offset = (offset + align - 1) / align * align;
    offsets[i] = offset;
    offset += sections[i].size();
  }
  const uint64_t file_size = offset;

  std::vector<uint8_t> table;
  table.reserve(kEntryBytes * sections.size());
  for (size_t i = 0; i < sections.size(); ++i) {
    AppendPod(table, static_cast<uint32_t>(sections[i].kind));
    AppendPod(table, sections[i].unit);
    AppendPod(table, offsets[i]);
    AppendPod(table, sections[i].size());
    AppendPod(table, XxHash64(sections[i].data(), sections[i].size()));
  }

  uint8_t header[kHeaderBytes] = {0};
  std::memcpy(header, kCollectionMagic, 4);
  const uint32_t version = kCollectionFormatVersion;
  std::memcpy(header + 4, &version, 4);
  const uint32_t section_count = static_cast<uint32_t>(sections.size());
  std::memcpy(header + 8, &section_count, 4);
  std::memcpy(header + 16, &file_size, 8);
  const uint64_t header_checksum = XxHash64(
      table.data(), table.size(), XxHash64(header, kHeaderChecksumOffset));
  std::memcpy(header + kHeaderChecksumOffset, &header_checksum, 8);

  // The snapshot goes to a fresh file beside `path`, is fsynced, and is
  // then renamed over `path`. A process serving the old file by mmap keeps
  // its inode (so saving a collection over the file it was loaded from is
  // safe), a crash mid-write leaves the last good snapshot in place, and a
  // failed write removes only its own temp file.
  std::string tmp;
  const int fd = CreateTempBeside(path, &tmp);
  if (fd < 0) {
    return Status::IoError("cannot create a temporary file beside " + path +
                           ": " + std::strerror(errno));
  }
  std::FILE* f = ::fdopen(fd, "wb");
  if (f == nullptr) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::IoError("cannot open " + tmp + " for writing");
  }
  const auto write = [&f](const void* data, size_t size) {
    return size == 0 || std::fwrite(data, 1, size, f) == size;
  };
  bool ok = write(header, kHeaderBytes) && write(table.data(), table.size());
  uint64_t written = kHeaderBytes + table.size();
  static constexpr uint8_t kZeros[64] = {0};
  for (size_t i = 0; ok && i < sections.size(); ++i) {
    if (offsets[i] > written) {
      ok = write(kZeros, offsets[i] - written);
      written = offsets[i];
    }
    ok = ok && write(sections[i].data(), sections[i].size());
    written += sections[i].size();
  }
  ok = ok && std::fflush(f) == 0 && ::fsync(fd) == 0;
  const bool closed = std::fclose(f) == 0;
  if (!ok || !closed) {
    ::unlink(tmp.c_str());
    return Status::IoError("short write to " + path);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int error = errno;
    ::unlink(tmp.c_str());
    return Status::IoError("cannot rename " + tmp + " over " + path + ": " +
                           std::strerror(error));
  }
  if (!SyncParentDirectory(path)) {
    return Status::IoError("wrote " + path +
                           " but could not fsync its directory");
  }
  return Status::OK();
}

Result<std::shared_ptr<CollectionImage>> CollectionImage::Load(
    const std::string& path, bool allow_mmap) {
  std::shared_ptr<CollectionImage> image(new CollectionImage());
  image->path_ = path;

  if (allow_mmap) {
    Result<MmapFile> mapped = MmapFile::Open(path);
    if (mapped.ok()) {
      image->mmap_ = std::move(mapped).value();
      image->data_ = image->mmap_.data();
      image->size_ = image->mmap_.size();
    }
  }
  if (image->data_ == nullptr) {
    // Heap fallback: read the whole file into a 64-byte-aligned buffer so
    // arena views get the same alignment guarantees as the mapped path.
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
      return Status::IoError("cannot open collection file " + path);
    }
    std::fseek(f, 0, SEEK_END);
    const long end = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    if (end <= 0) {
      std::fclose(f);
      return Status::Corruption("collection file " + path + ": empty file");
    }
    const size_t size = static_cast<size_t>(end);
    image->heap_.Reset((size + sizeof(float) - 1) / sizeof(float));
    const size_t got =
        std::fread(image->heap_.data(), 1, size, f);
    std::fclose(f);
    if (got != size) {
      return Status::IoError("short read of collection file " + path);
    }
    image->data_ = reinterpret_cast<const uint8_t*>(image->heap_.data());
    image->size_ = size;
  }

  const uint8_t* data = image->data_;
  const size_t size = image->size_;
  if (size < kHeaderBytes) {
    return Status::Corruption("collection file " + path +
                              ": truncated header");
  }
  if (std::memcmp(data, kCollectionMagic, 4) != 0) {
    return Status::Corruption("collection file " + path +
                              ": bad magic (not a PDXC file)");
  }
  uint32_t version = 0;
  std::memcpy(&version, data + 4, 4);
  if (version > kCollectionFormatVersion) {
    return Status::InvalidArgument(
        "collection file " + path + ": format version " +
        std::to_string(version) + " is newer than supported version " +
        std::to_string(kCollectionFormatVersion));
  }
  if (version < 1) {
    return Status::Corruption("collection file " + path +
                              ": invalid format version 0");
  }
  if (version < kCollectionFormatVersion) {
    // Only the current layout and checksum are read, so an older file is
    // refused here, before any checksum runs, rather than as a checksum
    // mismatch or a missing section.
    return Status::InvalidArgument(
        "collection file " + path + ": format version " +
        std::to_string(version) + " is no longer supported (this build " +
        "reads version " + std::to_string(kCollectionFormatVersion) +
        " only; rebuild the collection and save it again)");
  }
  uint32_t section_count = 0;
  std::memcpy(&section_count, data + 8, 4);
  uint64_t recorded_size = 0;
  std::memcpy(&recorded_size, data + 16, 8);
  if (recorded_size != size) {
    return Status::Corruption(
        "collection file " + path + ": size mismatch (header says " +
        std::to_string(recorded_size) + " bytes, file has " +
        std::to_string(size) + ")");
  }
  if (section_count == 0 ||
      section_count > (size - kHeaderBytes) / kEntryBytes) {
    return Status::Corruption("collection file " + path +
                              ": section table exceeds file");
  }
  uint64_t stored_header_checksum = 0;
  std::memcpy(&stored_header_checksum, data + kHeaderChecksumOffset, 8);
  const uint64_t computed_header_checksum =
      XxHash64(data + kHeaderBytes, kEntryBytes * section_count,
               XxHash64(data, kHeaderChecksumOffset));
  if (stored_header_checksum != computed_header_checksum) {
    return Status::Corruption("collection file " + path +
                              ": header checksum mismatch");
  }

  const uint64_t table_end = kHeaderBytes + kEntryBytes * section_count;
  image->sections_.reserve(section_count);
  for (uint32_t i = 0; i < section_count; ++i) {
    const uint8_t* entry = data + kHeaderBytes + kEntryBytes * i;
    Entry e;
    std::memcpy(&e.kind, entry, 4);
    std::memcpy(&e.unit, entry + 4, 4);
    std::memcpy(&e.offset, entry + 8, 8);
    std::memcpy(&e.size, entry + 16, 8);
    uint64_t checksum = 0;
    std::memcpy(&checksum, entry + 24, 8);
    if (e.offset < table_end || e.offset > size || e.size > size - e.offset) {
      return Status::Corruption("collection file " + path + ": section " +
                                std::to_string(e.kind) + "/" +
                                std::to_string(e.unit) +
                                " extends past end of file");
    }
    if ((static_cast<SectionKind>(e.kind) == SectionKind::kStoreArena ||
         static_cast<SectionKind>(e.kind) == SectionKind::kIvfCentroids ||
         static_cast<SectionKind>(e.kind) == SectionKind::kRawRows ||
         static_cast<SectionKind>(e.kind) == SectionKind::kQuantCodes ||
         static_cast<SectionKind>(e.kind) == SectionKind::kQuantRows) &&
        e.offset % kPdxAlignment != 0) {
      return Status::Corruption("collection file " + path +
                                ": misaligned arena section");
    }
    if (XxHash64(data + e.offset, e.size) != checksum) {
      return Status::Corruption("collection file " + path + ": section " +
                                std::to_string(e.kind) + "/" +
                                std::to_string(e.unit) +
                                " checksum mismatch");
    }
    image->sections_.push_back(e);
  }

  Result<SectionView> meta =
      image->Section(SectionKind::kCollectionMeta, 0);
  if (!meta.ok()) return meta.status();
  if (meta.value().size != sizeof(SavedMeta)) {
    return Status::Corruption("collection file " + path +
                              ": unexpected metadata size");
  }
  std::memcpy(&image->meta_, meta.value().data, sizeof(SavedMeta));
  const SavedMeta& m = image->meta_;
  if (m.dim == 0 || m.num_shards == 0) {
    return Status::Corruption("collection file " + path +
                              ": metadata has zero dim or shards");
  }
  // Every vector takes at least one byte per dimension in the file (u8
  // codes; float arenas and rows take four), every shard holds a vector
  // and at least one section. A shape the file cannot hold is corrupt, and
  // bounding it here keeps every later size product from overflowing.
  if (m.dim > size || m.count > size / m.dim || m.num_shards > m.count ||
      m.num_shards > section_count) {
    return Status::Corruption("collection file " + path +
                              ": metadata shape exceeds the file");
  }
  return image;
}

bool CollectionImage::HasSection(SectionKind kind, uint32_t unit) const {
  for (const Entry& e : sections_) {
    if (e.kind == static_cast<uint32_t>(kind) && e.unit == unit) return true;
  }
  return false;
}

Result<SectionView> CollectionImage::Section(SectionKind kind,
                                             uint32_t unit) const {
  for (const Entry& e : sections_) {
    if (e.kind == static_cast<uint32_t>(kind) && e.unit == unit) {
      return SectionView{data_ + e.offset, e.size};
    }
  }
  return Status::Corruption("collection file " + path_ + ": missing section " +
                            std::to_string(static_cast<uint32_t>(kind)) +
                            "/" + std::to_string(unit));
}

Result<const float*> DecodeArena(const CollectionImage& image,
                                 SectionKind kind, uint32_t unit,
                                 size_t floats) {
  Result<SectionView> arena = image.Section(kind, unit);
  if (!arena.ok()) return arena.status();
  if (arena.value().size % sizeof(float) != 0 ||
      arena.value().size / sizeof(float) != floats) {
    return Status::Corruption(
        "collection file " + image.path() + ": arena " +
        std::to_string(static_cast<uint32_t>(kind)) + "/" +
        std::to_string(unit) + " holds " +
        std::to_string(arena.value().size) + " bytes, its derived layout " +
        std::to_string(floats * sizeof(float)));
  }
  if (reinterpret_cast<uintptr_t>(arena.value().data) % kPdxAlignment != 0) {
    return Status::Internal("collection file " + image.path() +
                            ": arena view not 64-byte aligned");
  }
  return reinterpret_cast<const float*>(arena.value().data);
}

Result<std::vector<std::vector<VectorId>>> DecodeBuckets(
    const CollectionImage& image, uint32_t unit, size_t count) {
  Result<SectionView> section = image.Section(SectionKind::kIvfBuckets, unit);
  if (!section.ok()) return section.status();
  const Status malformed =
      Status::Corruption("collection file " + image.path() +
                         ": malformed IVF buckets (shard " +
                         std::to_string(unit) + ")");

  ByteReader reader(section.value());
  uint64_t num_buckets = 0, total = 0;
  if (!reader.ReadU64(&num_buckets) || !reader.ReadU64(&total)) {
    return malformed;
  }
  std::vector<uint64_t> offsets;
  std::vector<uint32_t> members;
  if (num_buckets == 0 || num_buckets + 1 < num_buckets ||
      !reader.ReadU64Array(num_buckets + 1, &offsets) ||
      !reader.ReadU32Array(total, &members) || !reader.AtEnd()) {
    return malformed;
  }
  // The buckets partition the shard: every vector sits in exactly one, so
  // each lane id derived from them names a distinct vector of the shard.
  if (offsets.front() != 0 || offsets.back() != total || total != count) {
    return malformed;
  }
  std::vector<bool> seen(count, false);
  for (const uint32_t id : members) {
    if (id >= count || seen[id]) return malformed;
    seen[id] = true;
  }
  std::vector<std::vector<VectorId>> buckets(num_buckets);
  for (size_t b = 0; b < num_buckets; ++b) {
    if (offsets[b + 1] < offsets[b] || offsets[b + 1] > total) {
      return malformed;
    }
    buckets[b].assign(members.begin() + offsets[b],
                      members.begin() + offsets[b + 1]);
  }
  return buckets;
}

Result<std::vector<float>> DecodeMeans(const CollectionImage& image,
                                       uint32_t unit) {
  Result<SectionView> section = image.Section(SectionKind::kPrunerMeans, unit);
  if (!section.ok()) return section.status();
  ByteReader reader(section.value());
  std::vector<float> means;
  if (!reader.ReadFloatVector(image.meta().dim, &means) || !reader.AtEnd()) {
    return Status::Corruption("collection file " + image.path() +
                              ": BOND means are not " +
                              std::to_string(image.meta().dim) + " floats");
  }
  return means;
}

Result<Matrix> DecodeRotation(const CollectionImage& image, uint32_t unit) {
  Result<SectionView> section =
      image.Section(SectionKind::kPrunerRotation, unit);
  if (!section.ok()) return section.status();
  ByteReader reader(section.value());
  uint64_t rows = 0, cols = 0;
  if (!reader.ReadU64(&rows) || !reader.ReadU64(&cols) || rows == 0 ||
      rows != cols || rows > reader.remaining() / sizeof(float) / cols) {
    return Status::Corruption("collection file " + image.path() +
                              ": malformed rotation matrix");
  }
  Matrix m(rows, cols);
  if (!reader.ReadFloats(rows * cols, m.data()) || !reader.AtEnd()) {
    return Status::Corruption("collection file " + image.path() +
                              ": malformed rotation matrix");
  }
  return m;
}

Result<PcaImage> DecodePca(const CollectionImage& image, uint32_t unit) {
  Result<SectionView> section = image.Section(SectionKind::kPrunerPca, unit);
  if (!section.ok()) return section.status();
  const Status malformed = Status::Corruption(
      "collection file " + image.path() + ": malformed PCA section");
  ByteReader reader(section.value());
  PcaImage out;
  uint64_t dim = 0;
  if (!reader.ReadU64(&dim) || dim == 0 || dim > reader.remaining() ||
      !reader.ReadFloatVector(dim, &out.mean) ||
      !reader.ReadFloatVector(dim, &out.variance)) {
    return malformed;
  }
  uint64_t rows = 0, cols = 0;
  // A full basis: the transform writes one output per component row into
  // a dim-sized query buffer.
  if (!reader.ReadU64(&rows) || !reader.ReadU64(&cols) || rows != dim ||
      cols != dim || rows > reader.remaining() / sizeof(float) / cols) {
    return malformed;
  }
  out.components = Matrix(rows, cols);
  if (!reader.ReadFloats(rows * cols, out.components.data()) ||
      !reader.AtEnd()) {
    return malformed;
  }
  return out;
}

Result<QuantImage> DecodeQuant(const CollectionImage& image, uint32_t unit,
                               size_t count) {
  Result<SectionView> params = image.Section(SectionKind::kQuantParams, unit);
  if (!params.ok()) return params.status();
  const Status malformed = Status::Corruption(
      "collection file " + image.path() + ": malformed quant params (unit " +
      std::to_string(unit) + ")");
  ByteReader reader(params.value());
  QuantImage out;
  uint64_t dim = 0, stored_count = 0;
  if (!reader.ReadU64(&dim) || !reader.ReadU64(&stored_count) ||
      dim != image.meta().dim || stored_count != count ||
      !reader.ReadFloatVector(dim, &out.offsets) ||
      !reader.ReadFloatVector(dim, &out.scales) || !reader.AtEnd()) {
    return malformed;
  }
  out.dim = dim;
  out.count = count;

  Result<SectionView> codes = image.Section(SectionKind::kQuantCodes, unit);
  if (!codes.ok()) return codes.status();
  if (codes.value().size % dim != 0 || codes.value().size / dim != count) {
    return Status::Corruption("collection file " + image.path() +
                              ": quant codes size disagrees with count x dim");
  }
  out.codes = codes.value().data;
  out.codes_bytes = codes.value().size;

  Result<SectionView> rows = image.Section(SectionKind::kQuantRows, unit);
  if (!rows.ok()) return rows.status();
  if (rows.value().size % (dim * sizeof(float)) != 0 ||
      rows.value().size / (dim * sizeof(float)) != count) {
    return Status::Corruption("collection file " + image.path() +
                              ": quant rows size disagrees with count x dim");
  }
  out.rows = reinterpret_cast<const float*>(rows.value().data);
  return out;
}

Result<MutableImage> DecodeMutable(const CollectionImage& image) {
  MutableImage out;
  const uint64_t dim = image.meta().dim;

  Result<SectionView> raw = image.Section(SectionKind::kRawRows, 0);
  if (!raw.ok()) return raw.status();
  if (raw.value().size % (dim * sizeof(float)) != 0) {
    return Status::Corruption("collection file " + image.path() +
                              ": raw rows size not a multiple of dim");
  }
  out.raw_rows = reinterpret_cast<const float*>(raw.value().data);
  out.raw_count = raw.value().size / (dim * sizeof(float));
  out.raw_dim = dim;

  Result<SectionView> delta = image.Section(SectionKind::kDeltaRows, 0);
  if (!delta.ok()) return delta.status();
  const Status malformed_delta = Status::Corruption(
      "collection file " + image.path() + ": malformed delta section");
  ByteReader delta_reader(delta.value());
  uint64_t delta_count = 0, delta_dim = 0;
  if (!delta_reader.ReadU64(&delta_count) ||
      !delta_reader.ReadU64(&delta_dim) || delta_dim != dim) {
    return malformed_delta;
  }
  std::vector<uint32_t> slots;
  if (!delta_reader.ReadU32Array(delta_count, &slots) ||
      delta_count > delta_reader.remaining() / sizeof(float) / dim ||
      !delta_reader.ViewFloats(delta_count * dim, &out.delta_rows) ||
      !delta_reader.AtEnd()) {
    return malformed_delta;
  }
  out.delta_count = delta_count;
  out.delta_dim = dim;
  out.delta_slots.assign(slots.begin(), slots.end());

  Result<SectionView> tombs = image.Section(SectionKind::kTombstones, 0);
  if (!tombs.ok()) return tombs.status();
  const Status malformed_tombs = Status::Corruption(
      "collection file " + image.path() + ": malformed tombstone section");
  ByteReader tombs_reader(tombs.value());
  uint64_t slot_count = 0;
  if (!tombs_reader.ReadU64(&slot_count) ||
      !tombs_reader.ReadU64Array(slot_count, &out.slot_ids) ||
      !tombs_reader.ReadU8Array(slot_count, &out.dead) ||
      !tombs_reader.AtEnd()) {
    return malformed_tombs;
  }
  if (slot_count != out.raw_count + out.delta_count) {
    return Status::Corruption("collection file " + image.path() +
                              ": tombstone count disagrees with rows");
  }
  return out;
}

}  // namespace pdx
