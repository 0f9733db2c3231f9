//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resilient corpus analysis engine: wraps parse -> verify -> detect for
/// whole corpora the way the paper ran its detectors over Servo, TiKV,
/// Parity and the CVE sets — one bad input must cost one status entry, not
/// the run. Three mechanisms (see docs/RESILIENCE.md):
///
///  - Fault isolation: every per-file and per-detector stage runs inside a
///    containment boundary. A parse error, verifier rejection, or detector
///    fault (a thrown exception, including injected ones) quarantines that
///    unit with a structured EngineStatus and the run continues.
///
///  - Resource budgets: a per-file Budget (wall-clock and/or steps) plus a
///    per-function dataflow cap are threaded through summaries and
///    MemoryAnalysis. Exhaustion degrades along the ladder: full analysis
///    -> per-function-only summaries -> detector skipped-with-note. Never a
///    hang.
///
///  - Observability: the CorpusReport carries per-file and per-detector
///    statuses, reasons, and every surviving finding, rendered as text or
///    JSON with a documented exit-code contract.
///
/// One corpus driver, AnalysisEngine::analyzeCorpus, serves `check` and the
/// serve session: per-file analysis first, then the whole-program link
/// step over the exporters, then the linked callers again (see
/// docs/WHOLEPROGRAM.md). The supervisor runs the same link block over its
/// worker fleet.
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_ENGINE_ENGINE_H
#define RUSTSIGHT_ENGINE_ENGINE_H

#include "analysis/Link.h"
#include "corpus/CorpusWalk.h"
#include "detectors/Detector.h"
#include "diag/Baseline.h"
#include "sched/ResultCache.h"

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rs::diag {
class SourceManager;
} // namespace rs::diag

namespace rs::engine {

/// How far a unit (file or detector) got through the pipeline.
enum class EngineStatus {
  Ok,       ///< Completed fully.
  Degraded, ///< Completed, but recovery or budget exhaustion lost precision.
  Skipped,  ///< Quarantined; no (trustworthy) results for this unit.
};

/// Short stable identifier ("ok" / "degraded" / "skipped").
const char *engineStatusName(EngineStatus S);

/// One detector's outcome on one file.
struct DetectorOutcome {
  std::string Name;
  EngineStatus Status = EngineStatus::Ok;
  std::string Note; ///< Why it degraded or was skipped ("" when Ok).
  size_t Findings = 0;
};

/// One file's outcome. Parse errors, verifier rejections, suppression
/// notices, and the findings themselves are all diag::Diagnostic values —
/// one schema from producer to renderer.
struct FileReport {
  std::string Path;
  EngineStatus Status = EngineStatus::Skipped;
  std::string Reason; ///< Why the file degraded or was skipped ("" when Ok).
  std::vector<diag::Diagnostic> ParseErrors;    ///< RS-PARSE-001 entries.
  std::vector<diag::Diagnostic> VerifierErrors; ///< RS-VERIFY-001 entries.
  /// Non-finding diagnostics about the file itself, e.g. RS-META-001
  /// unknown-suppression warnings (with their machine-applicable fix-its).
  std::vector<diag::Diagnostic> Notices;
  unsigned ItemsDropped = 0; ///< Items lost to parser resynchronization.
  /// Findings dropped by `// rustsight-allow(...)` comments in the source.
  size_t SuppressedFindings = 0;
  /// Findings dropped by an accepted `--baseline` file (applyBaseline).
  size_t BaselinedFindings = 0;
  std::vector<DetectorOutcome> Detectors;
  std::vector<detectors::Diagnostic> Findings; ///< Sorted, deduplicated.

  bool analyzed() const { return Status != EngineStatus::Skipped; }

  /// A Skipped entry that never reached the pipeline (unreadable input,
  /// empty directory, interrupted run).
  static FileReport skipped(std::string Path, std::string Reason);

  /// The degradation machinery as first-class diagnostics: one
  /// RS-ENGINE-001/002 per degraded/skipped file and one RS-ENGINE-003/004
  /// per degraded/skipped detector, each carrying the budget or fault cause.
  /// Derived on demand so the statuses stay the single source of truth.
  std::vector<diag::Diagnostic> statusDiagnostics() const;
};

/// Aggregate observability for one corpus run: scheduler shape, cache
/// effectiveness, wall-clock. Deliberately NOT part of renderJson() — the
/// JSON report is byte-identical across job counts and cold/warm caches,
/// and these numbers are anything but.
struct RunStats {
  unsigned Jobs = 1;         ///< Worker threads actually used.
  double WallMs = 0;         ///< End-to-end corpus wall-clock.
  bool CacheEnabled = false; ///< False when EngineOptions::UseCache is off.
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t CacheEvictions = 0;
  uint64_t DiskHits = 0;       ///< Subset of CacheHits served from disk.
  uint64_t CorruptEntries = 0; ///< Disk entries that degraded to misses.

  // Whole-program link step (all zero when the run was per-file).
  bool LinkEnabled = false;
  unsigned LinkedFiles = 0;    ///< Modules that joined the link.
  /// The run reused the persisted link state of the last linked run over
  /// the same inputs instead of linking (docs/WHOLEPROGRAM.md, "Reusing a
  /// link"); the round and summary-db counters are then all zero.
  bool LinkReused = false;
  unsigned LinkChanged = 0; ///< Inputs a reused link saw changed.
  unsigned LinkRounds = 0;     ///< Summarization rounds the solver ran.
  /// Modules exporting nothing another module reads: never summarized.
  unsigned ModulesNeedNoSummary = 0;
  unsigned ModulesFromSummaryDb = 0; ///< Exporters served by the DB.
  uint64_t SummaryDbHits = 0;
  uint64_t SummaryDbMisses = 0;
  uint64_t SummaryDbStores = 0;

  /// One human-readable line, e.g.
  /// "cache: 3 hits, 5 misses, 0 evictions; 12.4 ms wall-clock, 8 jobs".
  std::string renderLine() const;
};

/// The whole corpus run.
struct CorpusReport {
  std::vector<FileReport> Files;
  RunStats Stats;

  size_t countWithStatus(EngineStatus S) const;
  size_t totalFindings() const;

  /// The determinism pass: explicitly re-sorts every file's findings into
  /// the canonical (function, block, statement, kind, message) order.
  /// Files are already in input order — the parallel driver merges results
  /// by input ordinal, never by completion order — so after this pass the
  /// rendered report is byte-identical for any job count. Idempotent.
  void finalize();

  /// One status line per file plus its findings (with labeled secondary
  /// spans, notes and fix-its) and detector notes. Pass a SourceManager to
  /// annotate every span with a caret snippet; with null the spans render
  /// location-only.
  std::string renderText(const diag::SourceManager *SM = nullptr) const;

  /// {"files": [...], "summary": {...}} — see docs/RESILIENCE.md and
  /// docs/DIAGNOSTICS.md for the per-diagnostic schema (schema v2).
  std::string renderJson() const;

  /// SARIF 2.1.0: the full Rules.def catalog as tool.driver.rules plus one
  /// result per finding, parse/verifier error, suppression notice, and
  /// degraded/skipped status diagnostic.
  std::string renderSarif() const;

  /// The exit-code contract: 0 = at least one file analyzed, no findings;
  /// 1 = findings reported; 2 = no file produced results (or, under
  /// \p Strict, any file was skipped/degraded or any recovery happened).
  int exitCode(bool Strict = false) const;
};

/// The fingerprints of every finding in \p Report — the payload of
/// `--write-baseline`.
diag::Baseline collectBaseline(const CorpusReport &Report);

/// Drops every finding whose fingerprint \p B contains (the `--baseline`
/// flow: only *new* findings survive). Bumps each file's BaselinedFindings
/// by the number dropped there; returns the total dropped.
size_t applyBaseline(CorpusReport &Report, const diag::Baseline &B);

/// The most worker threads (--jobs) or worker processes (--shards) one run
/// may ask for; the CLI rejects a larger count as a usage error.
inline constexpr unsigned MaxJobs = 1024;

/// Whole-program link mode for analyzeCorpus (docs/WHOLEPROGRAM.md).
enum class WholeProgramMode {
  Auto, ///< Link when the corpus has more than one analyzable file.
  On,   ///< Always link.
  Off,  ///< Strictly per-file (the historical pipeline).
};

/// Engine configuration. Zeros mean unlimited (the fail-fast pipeline's
/// historical behavior, minus the fail-fast).
struct EngineOptions {
  uint64_t BudgetMs = 0;         ///< Per-file wall-clock budget.
  uint64_t MaxFileSteps = 0;     ///< Per-file analysis step budget.
  uint64_t MaxDataflowIters = 0; ///< Per-function dataflow update cap.
  unsigned MaxSummaryRounds = 8; ///< Interprocedural summary rounds.

  /// Whole-program link step: resolve extern callees across corpus files
  /// and let detectors consume cross-file summaries.
  WholeProgramMode WholeProgram = WholeProgramMode::Auto;

  /// Worker threads for analyzeCorpus (0 = the CPUs the process may run
  /// on, 1 = serial). Output is byte-identical for every value.
  unsigned Jobs = 0;

  /// Result-cache master switch. The in-memory layer always rides along
  /// when enabled; only clean (Ok) file reports are ever cached.
  bool UseCache = true;

  /// On-disk cache layer root ("" = memory-only, which keeps no link facts
  /// and no link state).
  std::string CacheDir;

  /// In-memory entry cap of the result cache, the one LRU that reports,
  /// link facts, summaries and link states share (0 = unbounded).
  size_t CacheMaxEntries = 4096;

  /// The on-disk generation the cache's segment joins (0 = its own; see
  /// sched::ResultCache::Options::Generation). Set by a supervised run's
  /// workers to their supervisor's.
  uint64_t CacheGeneration = 0;
};

//===----------------------------------------------------------------------===//
// Cache key derivation and report serialization (exposed for tests and
// docs/PARALLELISM.md's invalidation rules).
//===----------------------------------------------------------------------===//

/// Fingerprints one file's canonical MIR text: CRLF is normalized to LF so
/// a checkout-mode change does not invalidate, any other byte change does.
uint64_t fingerprintSource(std::string_view Source);

/// Folds everything that changes analysis results — the report schema
/// version, the detector battery (names, in order), and the analysis
/// budget options — into a salt. A content fingerprint combined with a
/// different salt can never collide back onto the same cache key, so
/// adding a detector or changing a budget invalidates en masse.
uint64_t cacheSalt(const EngineOptions &Opts,
                   const std::vector<std::string> &DetectorNames);

/// The full cache key for one file under one engine configuration.
uint64_t cacheKey(uint64_t SourceFingerprint, uint64_t Salt);

/// The key a parsed-MIR snapshot blob is stored under. Its only user is
/// perfbench's pipeline replay; it is deleted with that replay (ROADMAP,
/// "Tracing inside the engine").
uint64_t snapshotCacheKey(uint64_t SourceFingerprint);

/// The cache key for one file's link facts blob (analysis::ModuleFacts
/// without its path). Content-only, independent of the detector salt,
/// with the facts schema folded in and its own tag.
uint64_t factsCacheKey(uint64_t SourceFingerprint);

/// Serializes a FileReport into its one binary payload: the report cache
/// entry (ok reports only), and, hex-encoded, a worker's report frame and a
/// checkpoint journal entry. The path is deliberately excluded: identical
/// content at two paths shares one entry, and the reader supplies the path
/// it owns. BaselinedFindings is not carried: applyBaseline runs on the
/// merged report, after every process boundary. See docs/PARALLELISM.md.
std::string serializeFileReport(const FileReport &R);

/// Rebuilds a FileReport from a payload, re-anchored at \p Path (finding
/// locations are re-interned against it). Returns nullopt on any defect
/// (another magic or schema version, a short read, an out-of-range enum,
/// an unknown rule, trailing bytes): the cache treats that as a miss, the
/// supervisor as a protocol error (worker retry), the checkpoint loader as
/// an absent journal.
std::optional<FileReport> deserializeFileReport(std::string_view Payload,
                                                const std::string &Path);

struct CorpusState;

/// Runs the detector battery over files/sources with fault isolation and
/// budgets. Fault-injection probe sites: "engine.parse", "engine.verify",
/// "engine.detector" (one probe per detector per file).
///
/// There is one pipeline. A per-file analysis is a linked analysis against
/// an empty environment with link digest 0, so both share cache entries.
/// Every entry point goes through the same steps: read (read and
/// fingerprint, or take an in-memory source), the module step (parse +
/// verify) run only when something needs the module, and
/// analyze (report lookup, then detectors and suppressions inside one
/// containment boundary).
class AnalysisEngine {
public:
  using DetectorFactory =
      std::function<std::vector<std::unique_ptr<detectors::Detector>>()>;

  explicit AnalysisEngine(EngineOptions Opts = EngineOptions());

  /// Replaces the built-in detector battery (tests inject faulty
  /// detectors through this). Re-derives the cache salt.
  void setDetectorFactory(DetectorFactory F);

  /// Analyzes one file through the result cache: \p Source when given (an
  /// editor buffer), else the bytes read from \p Path; an unreadable file
  /// is Skipped. It makes exactly one report lookup, so content matching
  /// an analyzed state is a hit and any byte change is a miss. With \p Env
  /// the detectors resolve extern callees through the whole-program link
  /// environment, and \p LinkDigest (the file's LinkedCorpus::linkDigest)
  /// is folded into the report cache key so cross-file changes invalidate
  /// this file's entry; the defaults are the per-file run. With \p Facts
  /// the same load also yields the file's link facts (nullopt when it
  /// cannot join the link). Only a cached report stored before epoch
  /// \p StoredBefore counts (ResultCache::lookup). This is the shard
  /// worker's and the serve session's analyze entry.
  FileReport analyzeFile(const std::string &Path,
                         std::optional<std::string_view> Source = std::nullopt,
                         const analysis::ExternalSummaries *Env = nullptr,
                         uint64_t LinkDigest = 0,
                         std::optional<analysis::ModuleFacts> *Facts = nullptr,
                         uint64_t StoredBefore = ~uint64_t(0));

  /// Link facts for one file: the facts cache, else the module step and
  /// the linker-visible shape. Returns nullopt when the file cannot join
  /// the link (unreadable, parse errors, verifier rejection) — such files
  /// are analyzed per-file instead. Worker entry for the supervisor's
  /// facts phase.
  std::optional<analysis::ModuleFacts>
  collectFileFacts(const std::string &Path);

  /// One link-solver round over one file: summarize every function of
  /// the module in \p Source (else read from \p Path), as corpus module
  /// \p ModuleIdx, against \p Env. Returns nullopt when the module does not
  /// load cleanly. Entry for the supervisor's summarize rounds and the
  /// serve session's relinks.
  std::optional<analysis::ModuleSummaries>
  summarizeFileForLink(const std::string &Path,
                       std::optional<std::string_view> Source,
                       uint32_t ModuleIdx,
                       const analysis::ExternalSummaries &Env);

  /// Analyzes every path, never aborting the batch. Directories expand to
  /// their .mir files (recursively, in sorted order); a directory with no
  /// .mir files yields one Skipped entry.
  CorpusReport analyzeCorpus(const std::vector<std::string> &Paths);

  /// The corpus driver behind `check` and the serve session. One task per
  /// file reads it and, when the corpus links (EngineOptions::WholeProgram),
  /// collects its link facts; a file whose facts call out of it waits for
  /// the link, every other one is analyzed against the empty environment in
  /// that task, and its module is dropped with the task. Then the link step
  /// runs (linkCorpus: only exporters are summarized), and the files whose
  /// report does not match their link digest yet are analyzed against the
  /// converged environment, each once. Each pass is one parallelFor over
  /// EngineOptions::Jobs threads, each task inside the containment
  /// boundary; results are merged in input order, so the report renders
  /// byte-identically for any job count. Clean results are served from /
  /// stored into the content-addressed cache.
  ///
  /// With a cache that persists, a linked run also stores its outcome, the
  /// link state, and a later run over the same ordered inputs reuses it
  /// instead of linking when every changed file passes relinkNeeded and
  /// every unchanged linked file's report hits (docs/WHOLEPROGRAM.md,
  /// "Reusing a link"). With a non-null \p State the run never reuses a
  /// link: it hands back its full link plan and per-file detector runs.
  CorpusReport analyzeCorpus(const std::vector<corpus::CorpusInput> &Inputs,
                             CorpusState *State);

  /// The engine's one cache (null when disabled): reports and summaries,
  /// plus link facts and link states when it has a disk layer. Persists
  /// across analyzeCorpus calls, which is what makes warm reruns hit.
  sched::ResultCache *cache() { return Cache.get(); }

private:
  struct LoadedFile;

  /// The read step: reads \p Path (or takes \p Source) and fingerprints
  /// it. An unreadable path ends in a final Skipped report.
  LoadedFile read(const std::string &Path,
                  std::optional<std::string_view> Source);
  LoadedFile read(const corpus::CorpusInput &In);
  /// True when the cache outlives the process (a --cache-dir is set). Only
  /// then are link facts and link states stored.
  bool persists() const { return Cache && !Opts.CacheDir.empty(); }
  /// The module step, at most once per file: parse + verify. Afterwards
  /// \p L carries a module, or a Skipped report.
  void loadModule(LoadedFile &L);
  /// The facts cache entry of content \p Fp, anchored at \p Path (nullopt
  /// on a miss, or when the cache does not persist).
  std::optional<analysis::ModuleFacts> cachedFacts(uint64_t Fp,
                                                   const std::string &Path);
  /// \p L's link facts: the facts cache, else its module's facts (stored
  /// in the cache when it persists()). nullopt when the file cannot join
  /// the link.
  std::optional<analysis::ModuleFacts> linkFacts(LoadedFile &L);
  /// The analyze step: the report cache first, so a warm file is one
  /// lookup with no module load; on a miss, the module step, then
  /// detectors and suppressions against \p Env inside the containment
  /// boundary (counted in \p Runs), and a clean report is stored under the
  /// \p LinkDigest-folded key. A file whose read or module step ended in a
  /// final report passes it through. Takes \p L's report; its source and
  /// module stay. Only a cached report stored before epoch \p StoredBefore
  /// counts (ResultCache::lookup).
  FileReport analyze(LoadedFile &L, const analysis::ExternalSummaries *Env,
                     uint64_t LinkDigest, unsigned *Runs = nullptr,
                     uint64_t StoredBefore = ~uint64_t(0));
  /// The report cache's ok report for \p L under \p LinkDigest, if any,
  /// stored before epoch \p StoredBefore.
  std::optional<FileReport> cachedReport(const LoadedFile &L,
                                         uint64_t LinkDigest,
                                         uint64_t StoredBefore);
  uint64_t reportKey(uint64_t Fp, uint64_t LinkDigest) const;
  void runDetectors(const mir::Module &M, FileReport &R,
                    const analysis::ExternalSummaries *Ext);

  EngineOptions Opts;
  DetectorFactory Factory;
  uint64_t Salt = 0; ///< cacheSalt of Opts and the battery.
  std::unique_ptr<sched::ResultCache> Cache;
};

/// The names of \p Factory's battery (the built-in battery when null), in
/// order: the detector half of cacheSalt.
std::vector<std::string>
detectorNames(const AnalysisEngine::DetectorFactory &Factory = nullptr);

//===----------------------------------------------------------------------===//
// The whole-program link step (docs/WHOLEPROGRAM.md)
//===----------------------------------------------------------------------===//

/// How the link step reaches the modules. The in-process driver loads them
/// on its thread pool; the supervisor maps each phase over its worker
/// fleet. The solver, and so the result, is the same either way.
struct LinkTransport {
  /// Link facts for the analyzable inputs at \p Ordinals, aligned with
  /// them; nullopt keeps that file out of the link (it stays per-file).
  std::function<std::vector<std::optional<analysis::ModuleFacts>>(
      const std::vector<size_t> &Ordinals)>
      Facts;
  /// One solver round: summarize each (module index, input ordinal) pair
  /// against \p Env. A module missing from the result is unchanged.
  std::function<std::vector<analysis::ModuleSummaries>(
      const std::vector<std::pair<uint32_t, size_t>> &Modules,
      const analysis::ExternalSummaries &Env)>
      Summarize;
};

/// What the link step decided for one corpus run.
struct LinkPlan {
  /// The converged environment (empty for a per-file run).
  analysis::ExternalSummaries Env;
  /// Per input ordinal: the link digest of a file that joined the link,
  /// nullopt for a file analyzed per-file.
  std::vector<std::optional<uint64_t>> Digest;
  /// Per input ordinal: the link facts of a file that joined the link, the
  /// run's one copy of them (empty for a per-file run).
  std::vector<std::optional<analysis::ModuleFacts>> Facts;
  /// Per input ordinal: for an exporter (a file holding the definition
  /// another file's call resolves to), its summary DB module key; nullopt
  /// for every other file.
  std::vector<std::optional<uint64_t>> ExportKey;
  /// False when a round bound truncated the fixpoint.
  bool Converged = true;
  /// Only the link fields are set (all zero for a per-file run).
  RunStats Stats;
};

/// What AnalysisEngine::analyzeCorpus hands back to a caller that keeps
/// the corpus resident (the serve session), per input ordinal.
struct CorpusState {
  LinkPlan Link;
  /// Detector runs (report-cache misses) per input: 0 when every report
  /// the file needed was served by the cache.
  std::vector<unsigned> Runs;
};

/// Whether a corpus with \p AnalyzableFiles analyzable files links under
/// \p Mode: On always, Off never, Auto from two files up.
bool shouldLink(WholeProgramMode Mode, size_t AnalyzableFiles);

/// The relink rule that `check`'s link reuse and the serve session's
/// refresh share. A file whose content changed leaves every other file's
/// link digest, and the environment, as they were when its old link digest
/// was 0 (it resolved no extern callee), it exported nothing, and its new
/// facts touch no edge of the other files in \p Names. \p OldEdges and
/// \p NewEdges are its edge names before and after (empty outside the
/// link). Moves the file's names in \p Names from the old to the new ones,
/// so a file judged later is judged against this one's new facts, and
/// returns true when the link must be rebuilt.
bool relinkNeeded(analysis::LinkNames &Names, uint64_t OldDigest,
                  bool OldExporter, const analysis::EdgeNames &OldEdges,
                  const analysis::EdgeNames &NewEdges);

/// Decides whether \p Inputs link (shouldLink over EngineOptions::
/// WholeProgram and the analyzable inputs), and if so collects facts in
/// input order and runs the link fixpoint through \p Transport, with
/// persisted summaries kept as blobs in \p Cache, the run's one cache
/// (null = none), at sched::SummaryDb::address(module key, SchemaVersion).
/// EngineOptions::MaxSummaryRounds 0 means 8.
LinkPlan linkCorpus(const EngineOptions &Opts,
                    const std::vector<corpus::CorpusInput> &Inputs,
                    sched::ResultCache *Cache, const LinkTransport &Transport);

} // namespace rs::engine

#endif // RUSTSIGHT_ENGINE_ENGINE_H
