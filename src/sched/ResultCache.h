//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A content-addressed incremental result cache. Summary-based analyses
/// scale because per-unit results are reusable across runs; RustSight's
/// unit is the file, keyed by a stable 64-bit FNV-1a fingerprint of the
/// file's canonical MIR text folded with a detector-set/version salt
/// (the engine derives the key; the cache is payload-agnostic and stores
/// opaque serialized reports).
///
/// Two layers:
///  - in-memory: an LRU map, bounded by MaxMemoryEntries, thread-safe;
///  - on-disk (optional): one JSON file per entry in DiskDir, written to a
///    temporary name and atomically renamed into place so readers never
///    see a torn entry. A corrupt, truncated, mismatched or unreadable
///    entry degrades to a cache miss — never a crash (PR 1's resilience
///    rules apply to the cache too).
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_SCHED_RESULTCACHE_H
#define RUSTSIGHT_SCHED_RESULTCACHE_H

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace rs::sched {

class ResultCache {
public:
  struct Options {
    /// In-memory entry cap; older entries are LRU-evicted past it.
    /// 0 means unbounded.
    size_t MaxMemoryEntries = 4096;

    /// On-disk layer root ("" disables the disk layer). Created on first
    /// store if missing.
    std::string DiskDir;
  };

  /// Counters since construction. Reads that hit the disk layer count as
  /// both a Hit and a DiskHit. The blob layer (lookupBlob/storeBlob) keeps
  /// its own hit/miss counters so report-cache accounting — which feeds
  /// CorpusReport::Stats and several exactness tests — is unaffected by
  /// how many snapshot probes a run makes.
  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Evictions = 0;
    uint64_t DiskHits = 0;
    uint64_t CorruptEntries = 0; ///< Disk entries that failed to load.
    uint64_t StoreErrors = 0;    ///< Disk writes that failed (non-fatal).
    uint64_t BlobHits = 0;       ///< lookupBlob successes (either layer).
    uint64_t BlobMisses = 0;     ///< lookupBlob misses.
    uint64_t BlobDiskHits = 0;   ///< lookupBlob hits served from disk.
  };

  ResultCache(); ///< Default options (memory-only, default cap).
  explicit ResultCache(Options O);

  /// Returns the payload stored under \p Key, or nullopt. A disk hit is
  /// promoted into the memory layer. Thread-safe.
  std::optional<std::string> lookup(uint64_t Key);

  /// Stores \p Payload under \p Key in both layers. Disk failures are
  /// counted, not raised — and the first write failure (disk full,
  /// permission lost, directory unwritable) disables the disk layer for
  /// the rest of the run with a single stderr warning, so a sick
  /// filesystem costs one syscall round-trip total, not one per file.
  /// Thread-safe. Fault-injection probe site: "cache.disk.store".
  void store(uint64_t Key, std::string_view Payload);

  /// Binary-safe lookup: like lookup(), but the disk layer reads the
  /// length-framed ".bin" envelope instead of the JSON one. Payloads may
  /// contain any bytes (the MIR snapshot layer stores serialized modules
  /// here). Callers must keep blob keys disjoint from JSON-entry keys —
  /// the in-memory layer is shared.
  std::optional<std::string> lookupBlob(uint64_t Key);

  /// Binary-safe store; same failure/disable semantics as store().
  /// Fault-injection probe site: "cache.disk.store".
  void storeBlob(uint64_t Key, std::string_view Payload);

  /// A blob payload together with the buffer that owns its bytes (a copy
  /// of the memory-layer entry, or the disk envelope as read); bytes() is
  /// valid for the lifetime of the BlobRef.
  class BlobRef {
  public:
    std::string_view bytes() const {
      return std::string_view(Owned).substr(Off, Len);
    }

  private:
    friend class ResultCache;
    std::string Owned;
    size_t Off = 0;
    size_t Len = 0;
  };

  /// Like lookupBlob(), but a disk hit hands over the envelope it read and
  /// a view of its payload, without copying it out or promoting it into the
  /// memory layer — snapshot blobs are typically read once per (run, file).
  /// Counters move exactly as for lookupBlob(). Thread-safe.
  std::optional<BlobRef> lookupBlobRef(uint64_t Key);

  /// True once a write failure has disabled the disk layer (memory layer
  /// unaffected). Always false when no DiskDir was configured.
  bool diskDisabled() const;

  /// Drops every in-memory entry (the disk layer is untouched).
  void clearMemory();

  Stats stats() const;

  size_t memoryEntryCount() const;

  /// The on-disk file name for \p Key: "rscache-<16 hex digits>.json".
  static std::string entryFileName(uint64_t Key);

  /// The on-disk file name for a blob entry: "rscache-<16 hex>.bin".
  static std::string blobFileName(uint64_t Key);

  /// The on-disk entry format version; bump when the envelope changes.
  static constexpr int64_t DiskFormatVersion = 1;

  /// The binary envelope version ("RSCB" magic + version + key + size +
  /// checksum + bytes); bump when the framing changes.
  static constexpr uint32_t DiskBlobFormatVersion = 1;

private:
  std::optional<std::string> loadFromDisk(uint64_t Key);
  std::optional<BlobRef> loadBlobFromDisk(uint64_t Key);
  void storeToDisk(uint64_t Key, std::string_view Payload);
  void storeBlobToDisk(uint64_t Key, std::string_view Payload);
  bool writeDiskFile(const std::string &FileName, std::string_view Contents);
  void insertMemory(uint64_t Key, std::string Payload);

  Options Opts;

  mutable std::mutex M;
  /// LRU list, most-recent first; the map points into it.
  std::list<std::pair<uint64_t, std::string>> Lru;
  std::unordered_map<uint64_t, decltype(Lru)::iterator> Index;
  Stats Counters;
  /// Set by the first disk write failure; gates both disk reads and
  /// writes from then on (guarded by M).
  bool DiskDisabledFlag = false;
};

} // namespace rs::sched

#endif // RUSTSIGHT_SCHED_RESULTCACHE_H
