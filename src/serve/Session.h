//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resident analysis state behind one serve connection: a warm
/// AnalysisEngine (its content-addressed ResultCache persists across every
/// request, which is what makes re-analysis incremental), the overlay
/// DocumentStore, an overlay-aware SourceManager for snippet/token
/// rendering, and the corpus's link state: per file its last FileReport,
/// link facts and link digest, plus the converged link environment.
///
/// The session runs on the engine's corpus driver, so it reports what a
/// cold `rustsight check` over the same buffers reports, cross-file
/// findings included, under the same EngineOptions::WholeProgram mode.
/// analyzeAll() is AnalysisEngine::analyzeCorpus over the roots plus the
/// open overlays (their text rides on the inputs).
///
/// Invalidation model: an edit marks its file dirty. refresh() analyzes
/// each dirty file against the empty environment, and the same load yields
/// its new link facts. It relinks (engine::linkCorpus) only when a dirty
/// file touches a cross-file edge before or after the edit, by the rule a
/// `check` reuses a persisted link by (engine::relinkNeeded): it had a
/// non-zero link digest or was an exporter, or it now calls a name another
/// resident file defines, or defines a name another resident file calls
/// (analysis::LinkNames). A relink re-analyzes the dirty files
/// with a non-zero digest and every file whose digest moved; the latter's
/// bytes are unchanged, so a cache hit there is a revalidation. No other
/// file is touched. Per-file epoch/analysis/revalidation counters make
/// exactly that claim testable.
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_SERVE_SESSION_H
#define RUSTSIGHT_SERVE_SESSION_H

#include "diag/SourceManager.h"
#include "engine/Engine.h"
#include "serve/DocumentStore.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace rs::serve {

struct SessionOptions {
  engine::EngineOptions Engine;
  /// Corpus roots (files or directories) analyzed at session start and
  /// kept resident. Overlay documents outside the roots join the session
  /// while open and leave it on didClose.
  std::vector<std::string> Roots;
};

class Session {
public:
  explicit Session(SessionOptions O);

  DocumentStore &documents() { return Docs; }

  /// The overlay-aware SourceManager: open documents are registered as
  /// virtual buffers so snippet and token-extent rendering never touch
  /// disk for edited state.
  diag::SourceManager &sources() { return SM; }

  engine::AnalysisEngine &engine() { return Engine; }

  /// Adds a corpus root after construction — the client's rootUri from
  /// `initialize` when no roots came from the command line.
  void addRoot(std::string Root) { Opts.Roots.push_back(std::move(Root)); }

  /// Runs the corpus driver over the expanded roots plus the open overlays
  /// (warm cache hits permitting) and keeps its link state. Returns the
  /// sorted list of paths now resident.
  std::vector<std::string> analyzeAll();

  /// Marks \p Path changed; refresh() will pick it up.
  void markDirty(const std::string &Path);
  bool anyDirty() const { return !Dirty.empty() || RelinkOwed; }

  /// Re-analyzes the dirty files, relinking when one touches a cross-file
  /// edge; clears the dirty set. Returns the affected paths (the dirty
  /// files plus the files whose link digest moved) in sorted order.
  std::vector<std::string> refresh();

  /// Drops a non-corpus overlay document from the session (didClose of a
  /// scratch buffer). Corpus files are never forgotten — they fall back to
  /// their on-disk content instead. Returns true when the path was
  /// resident and outside the corpus roots. If the document was on a
  /// cross-file edge, the next refresh() relinks.
  bool forget(const std::string &Path);

  /// The most recent report for \p Path, or nullptr.
  const engine::FileReport *report(const std::string &Path) const;

  /// Per-file incrementality counters. Epoch bumps on every pass that
  /// touched the file; Analyses counts true engine runs (report-cache
  /// misses, one per detector run); Revalidations counts passes whose
  /// reports all came from the cache.
  struct FileStats {
    uint64_t Epoch = 0;
    uint64_t Analyses = 0;
    uint64_t Revalidations = 0;
  };
  FileStats fileStats(const std::string &Path) const;

  /// Total true engine runs across the session.
  uint64_t totalAnalyses() const { return TotalAnalyses; }

  /// All resident paths, sorted.
  std::vector<std::string> paths() const;

  /// The session's current state as a CorpusReport (files in sorted path
  /// order, findings finalized). For any buffer state this renders
  /// byte-identically to a cold `rustsight check --json` over the same
  /// bytes — the acceptance contract the ServeTest pins.
  engine::CorpusReport snapshot() const;

private:
  struct FileState {
    engine::FileReport Report;
    /// The link facts of the analyzed content (nullopt outside the link).
    std::optional<analysis::ModuleFacts> Facts;
    uint64_t Digest = 0; ///< The link digest Report was computed under.
    bool Exporter = false; ///< Another file's call resolves into it.
    uint64_t Epoch = 0;
    uint64_t Analyses = 0;
    uint64_t Revalidations = 0;
    bool InCorpus = false;
    bool Placeholder = false; ///< An empty root directory's entry.
  };

  /// Whether the engine would link the resident files (engine::shouldLink
  /// over the non-placeholder ones).
  bool wantsLink() const;

  /// Analyzes \p Path's current content through the warm engine into \p St
  /// and bumps its counters.
  void analyzeOne(const std::string &Path, FileState &St,
                  const analysis::ExternalSummaries *Env, uint64_t Digest,
                  std::optional<analysis::ModuleFacts> *Facts);

  /// Bumps \p St's counters for a pass that made \p Runs detector runs.
  void count(FileState &St, unsigned Runs);

  /// Re-solves the link over the resident facts and re-analyzes the files
  /// whose digest moved (and the dirty ones with a non-zero digest),
  /// adding them to \p Affected.
  void relink(std::set<std::string> &Affected);

  SessionOptions Opts;
  engine::AnalysisEngine Engine;
  DocumentStore Docs;
  diag::SourceManager SM;
  std::map<std::string, FileState> Files;
  /// Link order: the expanded roots, then other overlays as they join.
  std::vector<std::string> Order;
  analysis::ExternalSummaries Env;
  analysis::LinkNames Names; ///< Over every resident file's facts.
  bool Linked = false;
  bool RelinkOwed = false; ///< A forgotten document was on an edge.
  std::set<std::string> Dirty;
  uint64_t TotalAnalyses = 0;
};

} // namespace rs::serve

#endif // RUSTSIGHT_SERVE_SESSION_H
