//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Addressing for the persisted summaries behind the whole-program link
/// step (docs/WHOLEPROGRAM.md). Entries are opaque payloads (the link layer
/// serializes/validates them), one per module, addressed by module key —
/// the fold of the link keys of the module's functions, each a fingerprint
/// of everything that function's summary can depend on — so a warm run
/// skips summarizing any module whose entry hits, and a source edit
/// invalidates exactly the modules that can observe it.
///
/// The engine keeps the entries in its one ResultCache, as blobs under
/// address(moduleKey, schema): the DB's schema version is folded into
/// every address, so a schema bump reads as a cold cache, never as
/// corruption, and old entries are simply never addressed again.
///
/// The SummaryDb instance API (its own ResultCache over a directory) has
/// no caller in the engine; it stays only for perfbench's replay and goes
/// with it.
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_SCHED_SUMMARYDB_H
#define RUSTSIGHT_SCHED_SUMMARYDB_H

#include "sched/ResultCache.h"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace rs::sched {

/// Summary addressing, plus a standalone store for perfbench's replay,
/// payload-agnostic (the analysis layer owns the payload schema).
/// Thread-safe.
class SummaryDb {
public:
  /// The DB's address-schema version. Bump together with the link layer's
  /// SummaryPayloadVersion when the payload shape changes: every address
  /// moves, so stale-shape entries are unreachable (cold, not corrupt).
  /// Version 2: one entry per module instead of one per function.
  static constexpr int64_t SchemaVersion = 2;

  struct Options {
    /// Disk root shared with the report cache ("" = memory-only; addresses
    /// are salted so summary entries never collide with report entries).
    std::string DiskDir;

    /// In-memory entry cap (0 = unbounded).
    size_t MaxMemoryEntries = 4096;

    /// Address-schema override, for the CI schema-bump drill (a run with a
    /// bumped schema must be cold but correct). 0 means SchemaVersion.
    int64_t SchemaOverride = 0;
  };

  SummaryDb() : SummaryDb(Options()) {}
  explicit SummaryDb(Options O);

  /// The stored payload under \p Key, or nullopt (miss or corrupt).
  std::optional<std::string> lookup(uint64_t Key);

  /// Persists \p Payload under \p Key. Callers must only store converged
  /// payloads — the link solver enforces this.
  void store(uint64_t Key, std::string_view Payload);

  /// The cache counters, with the blob lookups the DB makes reported as
  /// its Hits, Misses and DiskHits.
  ResultCache::Stats stats() const;
  bool diskDisabled() const { return Cache.diskDisabled(); }

  /// The cache address of module key \p Key under schema \p Schema: where
  /// the engine's ResultCache keeps that module's entry.
  static uint64_t address(uint64_t Key, int64_t Schema);

private:
  int64_t Schema;
  ResultCache Cache;
};

} // namespace rs::sched

#endif // RUSTSIGHT_SCHED_SUMMARYDB_H
