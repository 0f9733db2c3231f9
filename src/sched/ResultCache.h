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
/// link facts, whole-program summaries and link states — under keys its
/// callers salt apart. Two layers:
///  - in-memory: one LRU map, bounded by MaxMemoryEntries, thread-safe;
///  - on-disk (optional): segment files in DiskDir. Each instance writes at
///    most one segment, "rsseg-<generation>-<writer>.seg", sealed when the
///    instance is destroyed. A segment holds its entries back to back, each
///    in the one checksummed envelope ("RSCB" magic + version + key + size
///    + FNV-1a checksum + payload bytes), then an index of (key, offset,
///    length) records and a fixed-size footer, each with its own checksum.
///    Until the seal, stores are appended to "rsseg-<writer>.tmp", which
///    the writer holds an flock on. A temporary is never read as a segment:
///    when its writer dies unsealed, the next instance to open the
///    directory recovers it, sealing its intact envelopes up to the first
///    torn one.
///
/// A generation is one run: an instance joins one past the newest
/// generation in the directory, or the one its supervisor hands it, so
/// every process of a supervised run seals into one generation. The first
/// disk access reads the indexes of the segments of the newest
/// GenerationWindow generations, newest winning per key, and keeps their
/// descriptors open: every later disk read is one positioned read. An entry
/// stored earlier in this run is read back from the temporary file, so the
/// memory LRU can evict it. A corrupt, truncated, mismatched or unreadable
/// entry or segment degrades to a cache miss — never a crash (the engine's
/// resilience rules apply to the cache too).
///
/// The seal copies forward every entry this instance read from the oldest
/// CopyForwardZone generations of the new window or from one leaving it,
/// then deletes the segments of older generations and the per-entry
/// "rscache-*" files of earlier releases. So the directory stays
/// O(GenerationWindow) runs' segments, an entry that one in every
/// CopyForwardZone + 1 writing runs reads survives, and a run that stores
/// nothing writes nothing.
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
#include <vector>

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

    /// The generation this instance's segment joins (0 = one past the
    /// newest in DiskDir when the disk layer opens). A supervisor hands its
    /// own generation() to its workers.
    uint64_t Generation = 0;
  };

  /// Counters since construction. Reads that hit the disk layer count as
  /// both a Hit and a DiskHit, and so does a report read that asks for an
  /// epoch (lookup's StoredBefore) and finds an entry that a disk hit of
  /// that epoch brought into memory. Blob lookups (lookupBlobRef) keep
  /// their own hit/miss counters so report-cache accounting — which feeds
  /// CorpusReport::Stats and several exactness tests — is unaffected by
  /// how many facts, summary and link-state probes a run makes. The
  /// remaining counters cover every entry.
  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Evictions = 0;
    uint64_t DiskHits = 0;
    /// Disk entries that failed to load, plus segments whose footer or
    /// index failed to load (each counted once, on the first disk access).
    uint64_t CorruptEntries = 0;
    uint64_t StoreErrors = 0;    ///< Disk writes that failed (non-fatal).
    uint64_t BlobHits = 0;       ///< lookupBlobRef successes (either layer).
    uint64_t BlobMisses = 0;     ///< lookupBlobRef misses.
    uint64_t BlobDiskHits = 0;   ///< lookupBlobRef hits served from disk.
  };

  ResultCache(); ///< Default options (memory-only, default cap).
  explicit ResultCache(Options O);
  /// Seals this instance's segment (when it stored anything) and collects
  /// the directory's garbage. A failed seal goes through the store-failure
  /// latch. Fault-injection probe site: "cache.disk.seal".
  ~ResultCache();
  ResultCache(const ResultCache &) = delete;
  ResultCache &operator=(const ResultCache &) = delete;

  /// Starts a new epoch and returns its number. Entries stored from now on
  /// carry it; a lookup can ask to see only entries from earlier epochs.
  /// Thread-safe.
  uint64_t beginEpoch();

  /// Returns the report payload stored under \p Key, or nullopt. Only an
  /// entry stored before epoch \p StoredBefore began counts; by default
  /// every entry does. A disk hit is promoted into the memory layer.
  /// Thread-safe.
  std::optional<std::string> lookup(uint64_t Key,
                                    uint64_t StoredBefore = ~uint64_t(0));

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

  /// Keeps the disk entry under \p Key in the window as if this instance
  /// had read it: the seal copies it forward under the same rule, without a
  /// read now. For a run that skips a step whose entries a later run may
  /// need (docs/PARALLELISM.md, "Link state"). No-op without a disk entry.
  /// Thread-safe.
  void retain(uint64_t Key);

  /// The generation this instance's segment joins: Options::Generation, or
  /// one past the newest in DiskDir (0 without a disk layer). Its seal
  /// joins a newer generation instead when a run that started later has
  /// sealed one meanwhile. Opens the disk layer. Thread-safe.
  uint64_t generation();

  /// True once a write failure has disabled the disk layer (memory layer
  /// unaffected). Always false when no DiskDir was configured.
  bool diskDisabled() const;

  Stats stats() const;

  size_t memoryEntryCount() const;

  /// The binary envelope version ("RSCB" magic + version + key + size +
  /// checksum + bytes); bump when the framing changes.
  static constexpr uint32_t DiskBlobFormatVersion = 1;

  /// The segment framing version (index record and footer layout).
  static constexpr uint32_t SegmentFormatVersion = 1;

  /// How many of the newest generations a cache reads; the seal deletes
  /// the segments of older ones.
  static constexpr size_t GenerationWindow = 16;

  /// The oldest generations of the window whose entries a sealing run
  /// copies forward when it read them; the run that pushes a generation out
  /// copies too. So an entry survives while one in every CopyForwardZone + 1
  /// consecutive writing runs reads it: a per-file run reads no linked
  /// report, link facts or summary, and runs of both kinds interleave.
  static constexpr size_t CopyForwardZone = 4;

private:
  /// Where an entry lives on disk: a window segment (Seg indexes
  /// Segments) or this instance's temporary (Seg == NewSegment).
  struct DiskLoc {
    uint32_t Seg = 0;
    uint64_t Off = 0; ///< Offset of the envelope.
    uint64_t Len = 0; ///< Envelope length, header included.
    bool Read = false; ///< Served a hit or retained here (copy-forward).
    uint64_t Epoch = 0; ///< When this instance stored it (0: before it).
  };
  static constexpr uint32_t NewSegment = ~uint32_t(0);

  /// A window segment kept open for positioned reads.
  struct Segment {
    uint64_t Generation = 0;
    int Fd = -1;
  };

  /// The one read path: the memory layer, else the disk layer. \p Report
  /// picks the report counters and promotes a disk hit into memory. An
  /// entry from epoch \p StoredBefore or later is a miss.
  std::optional<BlobRef> find(uint64_t Key, bool Report,
                              uint64_t StoredBefore);
  /// Recovers abandoned temporaries and reads the window's indexes on the
  /// first disk access. Caller holds M.
  void openDisk();
  /// Creates this instance's locked temporary. Caller holds M.
  bool createTemporary();
  /// The one store-failure latch: counts the error and, on the first one,
  /// disables the disk layer with the run's single warning.
  void failStore();
  void seal();
  void insertMemory(uint64_t Key, std::string Payload, uint64_t Epoch,
                    uint64_t PromotedIn = 0);

  Options Opts;

  mutable std::mutex M;
  struct MemoryEntry {
    uint64_t Key;
    std::string Payload;
    uint64_t Epoch; ///< See DiskLoc::Epoch.
    /// The epoch a disk hit brought it into memory in (0: stored here).
    /// A later hit in that epoch counts as a disk hit too, as it would
    /// have been had it come first.
    uint64_t PromotedIn = 0;
  };
  /// LRU list, most-recent first; the map points into it.
  std::list<MemoryEntry> Lru;
  std::unordered_map<uint64_t, decltype(Lru)::iterator> Index;
  Stats Counters;
  uint64_t Epoch = 0; ///< The current epoch (see beginEpoch).
  /// Set by the first disk write failure; gates both disk reads and
  /// writes from then on (guarded by M).
  bool DiskDisabledFlag = false;

  /// The disk layer, opened lazily (guarded by M). Descriptors stay open
  /// until the destructor, so a positioned read outside M never races a
  /// close.
  bool DiskOpened = false;
  uint64_t RunGeneration = 0;    ///< See generation().
  std::vector<Segment> Segments; ///< The window, newest first.
  std::unordered_map<uint64_t, DiskLoc> DiskIndex;
  std::string TmpPath;           ///< "" until the first disk store.
  int TmpFd = -1;
  uint64_t TmpEnd = 0;           ///< Next append offset.
};

} // namespace rs::sched

#endif // RUSTSIGHT_SCHED_RESULTCACHE_H
