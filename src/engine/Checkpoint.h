//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The supervisor's checkpoint journal: a single JSON document, rewritten
/// through rs::writeFileAtomic, recording every finalized FileReport of a
/// supervised corpus run.
/// A run that dies — SIGKILL, OOM, power loss — resumes from the journal:
/// completed files replay verbatim (each entry is the report's one
/// payload, serializeFileReport in hex, so the merged report is
/// byte-identical to an uninterrupted run) and only the missing ordinals
/// are re-analyzed.
///
/// The journal is keyed by a RunKey (corpus fingerprint + engine cache
/// salt). A journal whose key does not match the current run — different
/// file list, different detector battery, different budgets — is ignored,
/// never misapplied. A corrupt or truncated journal loads as "no
/// checkpoint" (the resilience rules apply here too: degrade, never die).
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_ENGINE_CHECKPOINT_H
#define RUSTSIGHT_ENGINE_CHECKPOINT_H

#include "engine/Engine.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace rs::corpus {
struct CorpusInput;
} // namespace rs::corpus

namespace rs::engine {

/// Identity of one supervised run: resume is only valid when both parts
/// match (same expanded input list, same analysis configuration).
struct RunKey {
  uint64_t CorpusFingerprint = 0;
  uint64_t Salt = 0;
};

/// FNV-1a over the ordered expanded input list (paths and skip reasons),
/// with separators so list structure cannot alias.
uint64_t fingerprintCorpus(const std::vector<corpus::CorpusInput> &Inputs);

class CheckpointJournal {
public:
  explicit CheckpointJournal(std::string Path) : Path(std::move(Path)) {}

  const std::string &path() const { return Path; }

  /// Loads the journal into \p Out, aligned with \p Inputs (entries whose
  /// ordinal is out of range are dropped). Each report is anchored at its
  /// input's path. Returns false — with \p Out untouched — when the file
  /// is absent, unreadable, corrupt, from another format version, or
  /// keyed to a different run.
  bool load(const RunKey &Key, const std::vector<corpus::CorpusInput> &Inputs,
            std::vector<std::optional<FileReport>> &Out) const;

  /// Atomically replaces the journal with the completed entries of
  /// \p Results. Returns false on any IO failure (the supervisor treats
  /// that as "checkpointing unavailable" and keeps running).
  bool write(const RunKey &Key,
             const std::vector<std::optional<FileReport>> &Results) const;

  /// Best-effort removal (used by tests; stale journals are otherwise
  /// harmless because the RunKey gates every load).
  void remove() const;

  /// Version 2: entries carry the path-less report payload. Version 3:
  /// that payload is binary, spelled in hex.
  static constexpr int64_t FormatVersion = 3;

private:
  std::string Path;
};

} // namespace rs::engine

#endif // RUSTSIGHT_ENGINE_CHECKPOINT_H
