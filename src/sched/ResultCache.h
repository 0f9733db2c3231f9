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
/// (the engine derives the keys; the cache is payload-agnostic).
///
/// One store holds every kind of entry the engine keeps — file reports,
/// MIR snapshots, link facts and whole-program summaries — under keys its
/// callers salt apart. Two layers:
///  - in-memory: one LRU map, bounded by MaxMemoryEntries, thread-safe;
///  - on-disk (optional): one file per entry in DiskDir,
///    "rscache-<16 hex digits>.bin", in the one checksummed binary
///    envelope ("RSCB" magic + version + key + size + FNV-1a checksum +
///    payload bytes), written by rs::writeFileAtomic so readers never see
///    a torn entry. A corrupt, truncated, mismatched or unreadable entry
///    degrades to a cache miss — never a crash (the engine's resilience
///    rules apply to the cache too).
///
/// Every entry is read by one path and written by one path. The two API
/// pairs, lookup/store for reports and lookupBlobRef/storeBlob for
/// everything else, differ only in which counters they move and in
/// whether a disk hit is promoted into memory.
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
  /// both a Hit and a DiskHit. Blob lookups (lookupBlobRef) keep their own
  /// hit/miss counters so report-cache accounting — which feeds
  /// CorpusReport::Stats and several exactness tests — is unaffected by
  /// how many snapshot, facts and summary probes a run makes. The
  /// remaining counters cover every entry.
  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Evictions = 0;
    uint64_t DiskHits = 0;
    uint64_t CorruptEntries = 0; ///< Disk entries that failed to load.
    uint64_t StoreErrors = 0;    ///< Disk writes that failed (non-fatal).
    uint64_t BlobHits = 0;       ///< lookupBlobRef successes (either layer).
    uint64_t BlobMisses = 0;     ///< lookupBlobRef misses.
    uint64_t BlobDiskHits = 0;   ///< lookupBlobRef hits served from disk.
  };

  ResultCache(); ///< Default options (memory-only, default cap).
  explicit ResultCache(Options O);

  /// Returns the report payload stored under \p Key, or nullopt. A disk
  /// hit is promoted into the memory layer. Thread-safe.
  std::optional<std::string> lookup(uint64_t Key);

  /// Stores \p Payload under \p Key in both layers. Disk failures are
  /// counted, not raised — and the first write failure (disk full,
  /// permission lost, directory unwritable) disables the disk layer for
  /// the rest of the run with a single stderr warning, so a sick
  /// filesystem costs one syscall round-trip total, not one per file.
  /// Thread-safe. Fault-injection probe site: "cache.disk.store".
  void store(uint64_t Key, std::string_view Payload);

  /// Stores a blob payload (any bytes: serialized modules, facts,
  /// summaries); the same write as store().
  void storeBlob(uint64_t Key, std::string_view Payload) {
    store(Key, Payload);
  }

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

  /// Like lookup(), but moves the blob counters, and a disk hit hands over
  /// the envelope it read and a view of its payload, without copying it
  /// out or promoting it into the memory layer — a blob is typically read
  /// once per (run, file). Thread-safe.
  std::optional<BlobRef> lookupBlobRef(uint64_t Key);

  /// True once a write failure has disabled the disk layer (memory layer
  /// unaffected). Always false when no DiskDir was configured.
  bool diskDisabled() const;

  /// Drops every in-memory entry (the disk layer is untouched).
  void clearMemory();

  Stats stats() const;

  size_t memoryEntryCount() const;

  /// The on-disk file name of the entry under \p Key:
  /// "rscache-<16 hex digits>.bin".
  static std::string blobFileName(uint64_t Key);

  /// The binary envelope version ("RSCB" magic + version + key + size +
  /// checksum + bytes); bump when the framing changes.
  static constexpr uint32_t DiskBlobFormatVersion = 1;

private:
  /// The one read path: the memory layer, else the disk layer. \p Report
  /// picks the report counters and promotes a disk hit into memory.
  std::optional<BlobRef> find(uint64_t Key, bool Report);
  std::optional<BlobRef> readEntry(uint64_t Key);
  /// The one store-failure latch: counts the error and, on the first one,
  /// disables the disk layer with the run's single warning.
  void failStore();
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
