#include "engine/Engine.h"

#include "analysis/Link.h"
#include "corpus/CorpusWalk.h"
#include "diag/Render.h"
#include "diag/Sarif.h"
#include "diag/SourceManager.h"
#include "diag/Suppress.h"
#include "diag/Version.h"
#include "mir/Parser.h"
#include "mir/Snapshot.h"
#include "mir/Verifier.h"
#include "sched/ThreadPool.h"
#include "support/FaultInjection.h"
#include "support/File.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <tuple>
#include <unordered_map>

using namespace rs;
using namespace rs::engine;

const char *rs::engine::engineStatusName(EngineStatus S) {
  switch (S) {
  case EngineStatus::Ok:
    return "ok";
  case EngineStatus::Degraded:
    return "degraded";
  case EngineStatus::Skipped:
    return "skipped";
  }
  return "?";
}

FileReport FileReport::skipped(std::string Path, std::string Reason) {
  FileReport R;
  R.Path = std::move(Path);
  R.Status = EngineStatus::Skipped;
  R.Reason = std::move(Reason);
  return R;
}

std::vector<std::string>
rs::engine::detectorNames(const AnalysisEngine::DetectorFactory &Factory) {
  std::vector<std::string> Names;
  for (const auto &D : Factory ? Factory() : detectors::makeAllDetectors())
    Names.emplace_back(D->name());
  return Names;
}

AnalysisEngine::AnalysisEngine(EngineOptions O)
    : Opts(std::move(O)), Salt(cacheSalt(Opts, detectorNames())) {
  if (!Opts.UseCache)
    return;
  sched::ResultCache::Options CO;
  CO.MaxMemoryEntries = Opts.CacheMaxEntries;
  CO.DiskDir = Opts.CacheDir;
  Cache = std::make_unique<sched::ResultCache>(std::move(CO));
  sched::SummaryDb::Options DO;
  DO.DiskDir = Opts.CacheDir; // Shared root; addresses are salted apart.
  DO.MaxMemoryEntries = Opts.CacheMaxEntries;
  DO.SchemaOverride = Opts.SummaryDbSchemaOverride;
  SummaryDbPtr = std::make_unique<sched::SummaryDb>(std::move(DO));
}

void AnalysisEngine::setDetectorFactory(DetectorFactory F) {
  Factory = std::move(F);
  Salt = cacheSalt(Opts, detectorNames(Factory));
}

//===----------------------------------------------------------------------===//
// Per-file pipeline: load, then analyze
//===----------------------------------------------------------------------===//

void AnalysisEngine::runDetectors(const mir::Module &M, FileReport &R,
                                  const analysis::ExternalSummaries *Ext) {
  Budget FileBudget;
  bool HasFileBudget = Opts.BudgetMs != 0 || Opts.MaxFileSteps != 0;
  if (Opts.BudgetMs != 0)
    FileBudget.setDeadline(Opts.BudgetMs);
  if (Opts.MaxFileSteps != 0)
    FileBudget.setMaxSteps(Opts.MaxFileSteps);

  detectors::AnalysisLimits Limits;
  Limits.ContextBudget = HasFileBudget ? &FileBudget : nullptr;
  Limits.MaxDataflowSteps = Opts.MaxDataflowIters;
  Limits.MaxSummaryRounds = Opts.MaxSummaryRounds;
  Limits.External = Ext && !Ext->empty() ? Ext : nullptr;
  detectors::AnalysisContext Ctx(M, Limits);

  detectors::DiagnosticEngine FileDiags;
  bool AnyQuarantined = false;
  bool AnyBudgetSkip = false;

  std::vector<std::unique_ptr<detectors::Detector>> Detectors =
      Factory ? Factory() : detectors::makeAllDetectors();
  for (const auto &D : Detectors) {
    DetectorOutcome O;
    O.Name = D->name();
    if (HasFileBudget && FileBudget.exhausted()) {
      // Bottom rung of the degradation ladder: no budget left, so the
      // detector is skipped with a note rather than run to a hang.
      O.Status = EngineStatus::Skipped;
      O.Note = std::string(FileBudget.reason()) + "; skipped before run";
      AnyBudgetSkip = true;
      R.Detectors.push_back(std::move(O));
      continue;
    }
    detectors::DiagnosticEngine DetDiags;
    try {
      if (fault::shouldFail("engine.detector"))
        throw std::runtime_error("injected fault at probe engine.detector");
      D->run(Ctx, DetDiags);
      DetDiags.sort();
      O.Findings = DetDiags.count();
      for (const detectors::Diagnostic &Diag : DetDiags.diagnostics())
        FileDiags.report(Diag);
      if (Ctx.anyDegraded()) {
        O.Status = EngineStatus::Degraded;
        O.Note = Ctx.summariesComplete()
                     ? "analysis budget exhausted; findings may be incomplete"
                     : "interprocedural summaries truncated; per-function "
                       "results only";
      }
    } catch (const std::exception &E) {
      // The containment boundary: a buggy (or fault-injected) detector is
      // quarantined — its partial findings are dropped so the report never
      // mixes trustworthy and half-computed results — and the battery
      // continues.
      O.Status = EngineStatus::Skipped;
      O.Note = std::string("quarantined: ") + E.what();
      O.Findings = 0;
      AnyQuarantined = true;
    } catch (...) {
      O.Status = EngineStatus::Skipped;
      O.Note = "quarantined: unknown fault";
      O.Findings = 0;
      AnyQuarantined = true;
    }
    R.Detectors.push_back(std::move(O));
  }

  FileDiags.sort();
  R.Findings = FileDiags.take();

  // Fold the stage outcomes into the file status.
  std::vector<std::string> Reasons;
  if (!R.ParseErrors.empty())
    Reasons.push_back(std::to_string(R.ItemsDropped) +
                      " malformed item(s) dropped by parser recovery");
  if (Ctx.anyDegraded())
    Reasons.push_back("analysis budget exhausted; precision degraded");
  if (AnyBudgetSkip)
    Reasons.push_back("budget exhausted: detector(s) skipped");
  if (AnyQuarantined)
    Reasons.push_back("detector fault(s) quarantined");

  bool AnyDetectorRan = Detectors.empty();
  for (const DetectorOutcome &O : R.Detectors)
    AnyDetectorRan |= O.Status != EngineStatus::Skipped;

  std::string Joined;
  for (const std::string &Reason : Reasons)
    Joined += (Joined.empty() ? "" : "; ") + Reason;

  if (!AnyDetectorRan) {
    R.Status = EngineStatus::Skipped;
    R.Reason = Joined.empty() ? "all detectors skipped" : Joined;
  } else if (!Reasons.empty()) {
    R.Status = EngineStatus::Degraded;
    R.Reason = Joined;
  } else {
    R.Status = EngineStatus::Ok;
  }
}

/// Converts a recoverable pipeline error into the file-level diagnostic
/// shape shared by every renderer.
static diag::Diagnostic errorDiagnostic(diag::RuleId Rule, const Error &E) {
  diag::Diagnostic D(Rule);
  D.Message = E.message();
  D.Loc = E.location();
  return D;
}

/// Applies `// rustsight-allow(...)` comments: drops the findings they
/// cover (keeping the per-detector counts honest via the rule table's
/// detector column) and surfaces unknown rule spellings as RS-META-001
/// warnings with a machine-applicable comment rewrite.
static void applySuppressions(std::string_view Source, FileReport &R) {
  diag::SuppressionSet Supp = diag::scanSuppressions(Source);
  if (Supp.empty())
    return;
  const std::string *File = internFileName(R.Path);
  for (const diag::UnknownSuppression &U : Supp.Unknown) {
    diag::Diagnostic D(diag::RuleId::UnknownSuppression);
    D.Message =
        "unknown rule '" + U.Token + "' in rustsight-allow comment";
    D.Loc = SourceLocation(File, U.Line, U.Col);
    diag::FixIt Fix;
    Fix.Loc = SourceLocation(File, U.Line, 1);
    Fix.Replacement = U.FixedLine;
    Fix.Description = "drop the unknown rule from the allow list";
    D.Fixes.push_back(std::move(Fix));
    R.Notices.push_back(std::move(D));
  }
  if (Supp.ByLine.empty())
    return;
  std::vector<diag::Diagnostic> Kept;
  Kept.reserve(R.Findings.size());
  for (diag::Diagnostic &D : R.Findings) {
    if (D.Loc.isValid() && Supp.allows(D.Kind, D.Loc.line())) {
      ++R.SuppressedFindings;
      for (DetectorOutcome &O : R.Detectors)
        if (O.Name == diag::ruleInfo(D.Kind).Detector && O.Findings != 0) {
          --O.Findings;
          break;
        }
    } else {
      Kept.push_back(std::move(D));
    }
  }
  R.Findings = std::move(Kept);
}

/// One file on its way through the pipeline. After the read step it holds
/// the source and its fingerprint, or a final Skipped report. The module
/// step runs at most once and only when something needs the module: a
/// report miss, a facts-cache miss or a summarize round.
struct AnalysisEngine::LoadedFile {
  FileReport Report;
  std::string Source;
  uint64_t Fp = 0;
  bool Read = false;   ///< Source holds the bytes; else Report is final.
  bool Loaded = false; ///< The module step ran.
  std::optional<mir::Module> M;
  /// M parsed without recovery (or came from a snapshot): only such a
  /// module is snapshotted or joins the link.
  bool Clean = false;
};

/// The containment boundary: runs \p Body and turns any escaping exception
/// into a Skipped file. Whatever the detectors produced is dropped, so the
/// report never mixes trustworthy and half-computed results.
template <typename Fn> static void contained(FileReport &R, Fn &&Body) {
  std::string Fault;
  try {
    Body();
    return;
  } catch (const std::exception &E) {
    Fault = E.what();
  } catch (...) {
    Fault = "unknown exception";
  }
  R.Status = EngineStatus::Skipped;
  R.Reason = "engine fault contained: " + Fault;
  R.Detectors.clear();
  R.Findings.clear();
  R.Notices.clear();
  R.SuppressedFindings = 0;
}

/// EngineOptions::MaxSummaryRounds, where 0 means the default of 8.
static unsigned linkRounds(const EngineOptions &Opts) {
  return Opts.MaxSummaryRounds ? Opts.MaxSummaryRounds : 8;
}

/// One module's summarize round inside the containment boundary. A module
/// that no longer loads cleanly (null \p M) or a fault leaves the module
/// contributing nothing, and Complete = false keeps the run's summaries
/// out of the summary DB.
static analysis::ModuleSummaries
summarizeContained(const mir::Module *M, uint32_t ModuleIdx,
                   const analysis::ExternalSummaries &Env,
                   const EngineOptions &Opts) {
  try {
    if (M)
      return analysis::summarizeLinkedModule(*M, ModuleIdx, Env,
                                             linkRounds(Opts));
  } catch (...) {
  }
  analysis::ModuleSummaries Lost;
  Lost.ModuleIdx = ModuleIdx;
  Lost.Complete = false;
  return Lost;
}

AnalysisEngine::LoadedFile
AnalysisEngine::read(const std::string &Path,
                     std::optional<std::string_view> Source) {
  LoadedFile L;
  L.Report.Path = Path;
  if (Source) {
    L.Source = std::string(*Source);
  } else {
    // A directory must not masquerade as a clean empty module.
    switch (readFile(Path, L.Source)) {
    case ReadFileError::None:
      break;
    case ReadFileError::IsDirectory:
      L.Report = FileReport::skipped(Path, "is a directory");
      return L;
    default:
      L.Report = FileReport::skipped(Path, "cannot open file");
      return L;
    }
  }
  L.Fp = fingerprintSource(L.Source);
  L.Read = true;
  return L;
}

void AnalysisEngine::loadModule(LoadedFile &L) {
  if (!L.Read || L.Loaded)
    return;
  L.Loaded = true;

  // A parsed-MIR snapshot (keyed by content only, not by the detector
  // salt) lets the detectors run without lexing or parsing — the common
  // case after a detector or option change. lookupBlobRef hands over the
  // envelope it read without another copy; the decoder's string table
  // borrows its bytes until the Module owns its data. Locations re-anchor
  // at this file's path. A defective snapshot is a miss.
  const uint64_t SnapKey = snapshotCacheKey(L.Fp);
  if (Cache)
    if (std::optional<sched::ResultCache::BlobRef> Blob =
            Cache->lookupBlobRef(SnapKey))
      if ((L.M =
               mir::snapshot::read(Blob->bytes(), &L.Fp, L.Report.Path))) {
        L.Clean = true;
        return;
      }

  FileReport &R = L.Report;
  const std::string &Path = R.Path;
  contained(R, [&] {
    if (fault::shouldFail("engine.parse"))
      throw std::runtime_error("injected fault at probe engine.parse");
    mir::ModuleParse P = mir::Parser::parseRecover(L.Source, Path);
    for (const Error &E : P.Errors)
      R.ParseErrors.push_back(errorDiagnostic(diag::RuleId::ParseError, E));
    R.ItemsDropped = P.ItemsDropped;
    if (!P.Errors.empty() && P.M.functions().empty() &&
        P.M.structs().empty() && P.M.statics().empty()) {
      R.Status = EngineStatus::Skipped;
      R.Reason = "no parseable items: " + P.Errors.front().toString();
      return;
    }

    if (fault::shouldFail("engine.verify"))
      throw std::runtime_error("injected fault at probe engine.verify");
    std::vector<Error> VErr;
    if (!mir::verifyModule(P.M, VErr)) {
      for (const Error &E : VErr)
        R.VerifierErrors.push_back(
            errorDiagnostic(diag::RuleId::VerifyError, E));
      R.Status = EngineStatus::Skipped;
      R.Reason = "verifier rejected module: " + VErr.front().toString();
      return;
    }

    // Only a fully clean parse is worth snapshotting: a recovered parse
    // carries ParseErrors/ItemsDropped that a snapshot-served report could
    // not reproduce, and dropped items a linked summary must not pretend
    // to cover.
    const bool Clean = P.Errors.empty();
    if (Cache && Clean)
      Cache->storeBlob(SnapKey, mir::snapshot::write(P.M, L.Fp));
    L.M = std::move(P.M);
    L.Clean = Clean;
  });
}

std::optional<analysis::ModuleFacts>
AnalysisEngine::linkFacts(LoadedFile &L) {
  if (!L.Read)
    return std::nullopt;
  // Facts are a pure function of content, and only a clean module's are
  // ever stored, so a hit needs no module at all. The entry carries no
  // path: it re-anchors at whatever path the content shows up at.
  const uint64_t Key = factsCacheKey(L.Fp);
  if (Cache && !L.Loaded)
    if (std::optional<sched::ResultCache::BlobRef> Blob =
            Cache->lookupBlobRef(Key))
      if (std::optional<analysis::ModuleFacts> Facts =
              analysis::deserializeModuleFacts(Blob->bytes(), L.Report.Path))
        return Facts;
  loadModule(L);
  if (!L.Clean)
    return std::nullopt;
  analysis::ModuleFacts Facts =
      analysis::collectModuleFacts(*L.M, L.Report.Path);
  if (Cache)
    Cache->storeBlob(Key, analysis::serializeModuleFacts(Facts));
  return Facts;
}

uint64_t AnalysisEngine::reportKey(uint64_t Fp, uint64_t LinkDigest) const {
  // A linked file folds its link digest into the key: a change to a callee
  // body in another corpus file must invalidate this file's entry even
  // though this file's bytes are unchanged. Leaf files (digest 0) keep
  // sharing entries with per-file runs.
  uint64_t Key = cacheKey(Fp, Salt);
  return LinkDigest != 0 ? fnv1a64U64(LinkDigest, Key) : Key;
}

FileReport AnalysisEngine::analyze(LoadedFile L,
                                   const analysis::ExternalSummaries *Env,
                                   uint64_t LinkDigest) {
  if (!L.Read)
    return std::move(L.Report);
  const uint64_t Key = reportKey(L.Fp, LinkDigest);
  if (Cache)
    if (std::optional<std::string> Payload = Cache->lookup(Key))
      if (std::optional<FileReport> Hit =
              deserializeFileReport(*Payload, L.Report.Path))
        return std::move(*Hit);
  loadModule(L);
  FileReport R = std::move(L.Report);
  if (!L.M)
    return R;
  contained(R, [&] {
    runDetectors(*L.M, R, Env);
    applySuppressions(L.Source, R);
  });
  // Only clean results are cached: degraded/skipped outcomes depend on
  // wall-clock budgets and embed path-bearing error text, neither of which
  // belongs in a content-addressed entry.
  if (Cache && R.Status == EngineStatus::Ok)
    Cache->store(Key, serializeFileReport(R));
  return R;
}

FileReport AnalysisEngine::analyzeSource(std::string_view Source,
                                         const std::string &Path) {
  return analyze(read(Path, Source), nullptr, 0);
}

FileReport AnalysisEngine::analyzeFile(const std::string &Path,
                                       const analysis::ExternalSummaries *Env,
                                       uint64_t LinkDigest) {
  return analyze(read(Path, std::nullopt), Env, LinkDigest);
}

std::optional<analysis::ModuleFacts>
AnalysisEngine::collectFileFacts(const std::string &Path) {
  LoadedFile L = read(Path, std::nullopt);
  return linkFacts(L);
}

std::optional<analysis::ModuleSummaries>
AnalysisEngine::summarizeFileForLink(const std::string &Path,
                                     uint32_t ModuleIdx,
                                     const analysis::ExternalSummaries &Env) {
  LoadedFile L = read(Path, std::nullopt);
  loadModule(L);
  if (!L.Clean)
    return std::nullopt;
  return summarizeContained(&*L.M, ModuleIdx, Env, Opts);
}

//===----------------------------------------------------------------------===//
// Cache key derivation and report serialization
//===----------------------------------------------------------------------===//

/// The FileReport serialization schema version, shared with --version and
/// the serve daemon's serverInfo via diag/Version.h. It feeds the cache
/// salt, so old entries stop matching instead of misparsing.
static constexpr uint64_t ReportSchemaVersion = version::ReportSchemaVersion;

namespace {

/// 8-byte-chunk multiply-fold over canonical bytes, the same family as
/// the snapshot body checksum. Hashing every source is the unavoidable
/// price of content addressing, so on a warm corpus this sits directly
/// on the report-hit path; chunking buys most of an order of magnitude
/// over byte-at-a-time FNV.
uint64_t hashCanonicalBytes(std::string_view Bytes) {
  constexpr uint64_t M = 0x9e3779b97f4a7c15ull;
  uint64_t H =
      Fnv1a64OffsetBasis ^ (static_cast<uint64_t>(Bytes.size()) * M);
  size_t I = 0;
  for (; I + 8 <= Bytes.size(); I += 8) {
    uint64_t Chunk;
    std::memcpy(&Chunk, Bytes.data() + I, 8);
    H = (H ^ Chunk) * M;
  }
  uint64_t Tail = 0;
  for (unsigned Shift = 0; I < Bytes.size(); ++I, Shift += 8)
    Tail |= static_cast<uint64_t>(static_cast<unsigned char>(Bytes[I]))
            << Shift;
  H = (H ^ Tail) * M;
  H ^= H >> 32;
  H *= M;
  H ^= H >> 29;
  return H;
}

} // namespace

uint64_t rs::engine::fingerprintSource(std::string_view Source) {
  // Canonicalize CRLF -> LF so checkouts differing only in line endings
  // share cache entries. Sources without a '\r' — the overwhelmingly
  // common case — hash in 8-byte chunks straight off the buffer; any
  // '\r' takes the materialize-then-hash path so both spellings of the
  // same canonical bytes agree (a lone '\r' is content and is kept).
  if (Source.find('\r') == std::string_view::npos)
    return hashCanonicalBytes(Source);
  std::string Canon;
  Canon.reserve(Source.size());
  for (size_t I = 0; I < Source.size(); ++I)
    if (!(Source[I] == '\r' && I + 1 < Source.size() &&
          Source[I + 1] == '\n'))
      Canon.push_back(Source[I]);
  return hashCanonicalBytes(Canon);
}

uint64_t rs::engine::cacheSalt(const EngineOptions &Opts,
                               const std::vector<std::string> &DetectorNames) {
  uint64_t H = fnv1a64("rustsight-filereport");
  H = fnv1a64U64(ReportSchemaVersion, H);
  for (const std::string &Name : DetectorNames) {
    H = fnv1a64(Name, H);
    H = fnv1a64("\n", H); // Separator: {"ab"} must differ from {"a","b"}.
  }
  H = fnv1a64U64(Opts.BudgetMs, H);
  H = fnv1a64U64(Opts.MaxFileSteps, H);
  H = fnv1a64U64(Opts.MaxDataflowIters, H);
  H = fnv1a64U64(Opts.MaxSummaryRounds, H);
  return H;
}

uint64_t rs::engine::cacheKey(uint64_t SourceFingerprint, uint64_t Salt) {
  return fnv1a64U64(SourceFingerprint, Salt);
}

uint64_t rs::engine::snapshotCacheKey(uint64_t SourceFingerprint) {
  uint64_t H = fnv1a64("rustsight-mir-snapshot");
  H = fnv1a64U64(mir::snapshot::SnapshotSchemaVersion, H);
  H = fnv1a64U64(Symbol::EpochVersion, H);
  return fnv1a64U64(SourceFingerprint, H);
}

uint64_t rs::engine::factsCacheKey(uint64_t SourceFingerprint) {
  uint64_t H = fnv1a64("rustsight-link-facts");
  H = fnv1a64U64(analysis::FactsSchemaVersion, H);
  return fnv1a64U64(SourceFingerprint, H);
}

namespace {

bool severityFromName(std::string_view Name, diag::Severity &Out) {
  if (Name == "error")
    Out = diag::Severity::Error;
  else if (Name == "warning")
    Out = diag::Severity::Warning;
  else if (Name == "note")
    Out = diag::Severity::Note;
  else
    return false;
  return true;
}

/// Writes one diagnostic into the cache payload. The primary location's
/// file name is omitted: it re-anchors to whatever path the content shows
/// up at on the way back in (fingerprints are recomputed from the
/// re-anchored locations, so they follow). Secondary spans and fix-its
/// carry an explicit "file" only when they point into a counterpart file
/// (whole-program link findings, schema v4) — those names are corpus
/// identities and must survive the round trip verbatim.
void writeCounterpartFile(JsonWriter &W, const SourceLocation &Loc,
                          const std::string &OwnPath) {
  if (Loc.isValid() && !Loc.file().empty() && Loc.file() != OwnPath)
    W.field("file", Loc.file());
}

void writeCachedDiagnostic(JsonWriter &W, const diag::Diagnostic &D,
                           const std::string &OwnPath) {
  W.beginObject();
  W.field("rule", diag::ruleStringId(D.Kind));
  W.field("severity", diag::severityName(D.Sev));
  W.field("function", D.Function);
  W.field("block", static_cast<int64_t>(D.Block));
  W.field("statement", static_cast<int64_t>(D.StmtIndex));
  W.field("message", D.Message);
  W.field("line", static_cast<int64_t>(D.Loc.line()));
  W.field("col", static_cast<int64_t>(D.Loc.column()));
  if (!D.Secondary.empty()) {
    W.key("secondary");
    W.beginArray();
    for (const diag::Span &S : D.Secondary) {
      W.beginObject();
      W.field("line", static_cast<int64_t>(S.Loc.line()));
      W.field("col", static_cast<int64_t>(S.Loc.column()));
      writeCounterpartFile(W, S.Loc, OwnPath);
      if (!S.Function.empty())
        W.field("function", S.Function);
      W.field("label", S.Label);
      W.endObject();
    }
    W.endArray();
  }
  if (!D.Notes.empty()) {
    W.key("notes");
    W.beginArray();
    for (const std::string &N : D.Notes)
      W.value(N);
    W.endArray();
  }
  if (!D.Fixes.empty()) {
    W.key("fixes");
    W.beginArray();
    for (const diag::FixIt &F : D.Fixes) {
      W.beginObject();
      W.field("line", static_cast<int64_t>(F.Loc.line()));
      W.field("col", static_cast<int64_t>(F.Loc.column()));
      writeCounterpartFile(W, F.Loc, OwnPath);
      W.field("replacement", F.Replacement);
      W.field("description", F.Description);
      W.endObject();
    }
    W.endArray();
  }
  W.endObject();
}

SourceLocation cachedLoc(const JsonValue &V, const std::string *File) {
  unsigned Line = static_cast<unsigned>(V.getInt("line"));
  unsigned Col = static_cast<unsigned>(V.getInt("col"));
  if (Line == 0)
    return SourceLocation();
  // An explicit "file" is a counterpart-file span (schema v4): keep it
  // verbatim instead of re-anchoring to the report's own path.
  std::string_view Counterpart = V.getString("file");
  if (!Counterpart.empty())
    File = internFileName(std::string(Counterpart));
  return SourceLocation(File, Line, Col);
}

bool readCachedDiagnostic(const JsonValue &V, const std::string *File,
                          diag::Diagnostic &D) {
  if (!V.isObject())
    return false;
  if (!diag::ruleFromString(V.getString("rule"), D.Kind))
    return false;
  if (!severityFromName(V.getString("severity"), D.Sev))
    return false;
  D.Function = V.getString("function");
  D.Block = static_cast<mir::BlockId>(V.getInt("block"));
  D.StmtIndex = static_cast<size_t>(V.getInt("statement"));
  D.Message = V.getString("message");
  D.Loc = cachedLoc(V, File);
  if (const JsonValue *Spans = V.get("secondary")) {
    if (!Spans->isArray())
      return false;
    for (const JsonValue &S : Spans->elements()) {
      if (!S.isObject())
        return false;
      diag::Span Span;
      Span.Loc = cachedLoc(S, File);
      Span.Function = S.getString("function");
      Span.Label = S.getString("label");
      D.Secondary.push_back(std::move(Span));
    }
  }
  if (const JsonValue *Notes = V.get("notes")) {
    if (!Notes->isArray())
      return false;
    for (const JsonValue &N : Notes->elements())
      D.Notes.push_back(N.isString() ? N.asString() : std::string());
  }
  if (const JsonValue *Fixes = V.get("fixes")) {
    if (!Fixes->isArray())
      return false;
    for (const JsonValue &FV : Fixes->elements()) {
      if (!FV.isObject())
        return false;
      diag::FixIt F;
      F.Loc = cachedLoc(FV, File);
      F.Replacement = FV.getString("replacement");
      F.Description = FV.getString("description");
      D.Fixes.push_back(std::move(F));
    }
  }
  return true;
}

} // namespace

std::string rs::engine::serializeFileReport(const FileReport &R) {
  JsonWriter W;
  W.beginObject();
  W.field("v", static_cast<int64_t>(ReportSchemaVersion));
  W.key("detectors");
  W.beginArray();
  for (const DetectorOutcome &D : R.Detectors) {
    W.beginObject();
    W.field("name", D.Name);
    W.field("findings", static_cast<int64_t>(D.Findings));
    W.endObject();
  }
  W.endArray();
  W.key("findings");
  W.beginArray();
  for (const detectors::Diagnostic &D : R.Findings)
    writeCachedDiagnostic(W, D, R.Path);
  W.endArray();
  if (!R.Notices.empty()) {
    W.key("notices");
    W.beginArray();
    for (const diag::Diagnostic &D : R.Notices)
      writeCachedDiagnostic(W, D, R.Path);
    W.endArray();
  }
  if (R.SuppressedFindings != 0)
    W.field("suppressed", static_cast<int64_t>(R.SuppressedFindings));
  W.endObject();
  return W.str();
}

std::optional<FileReport>
rs::engine::deserializeFileReport(std::string_view Payload,
                                  const std::string &Path) {
  std::optional<JsonValue> Doc = JsonValue::parse(Payload);
  if (!Doc || !Doc->isObject())
    return std::nullopt;
  if (Doc->getInt("v", -1) != static_cast<int64_t>(ReportSchemaVersion))
    return std::nullopt;
  const JsonValue *Dets = Doc->get("detectors");
  const JsonValue *Finds = Doc->get("findings");
  if (!Dets || !Dets->isArray() || !Finds || !Finds->isArray())
    return std::nullopt;

  FileReport R;
  R.Path = Path;
  R.Status = EngineStatus::Ok; // Only clean reports are ever cached.
  for (const JsonValue &D : Dets->elements()) {
    if (!D.isObject())
      return std::nullopt;
    DetectorOutcome O;
    O.Name = D.getString("name");
    O.Status = EngineStatus::Ok;
    O.Findings = static_cast<size_t>(D.getInt("findings"));
    R.Detectors.push_back(std::move(O));
  }
  const std::string *File = internFileName(Path);
  for (const JsonValue &F : Finds->elements()) {
    detectors::Diagnostic D;
    if (!readCachedDiagnostic(F, File, D))
      return std::nullopt;
    R.Findings.push_back(std::move(D));
  }
  if (const JsonValue *Notices = Doc->get("notices")) {
    if (!Notices->isArray())
      return std::nullopt;
    for (const JsonValue &N : Notices->elements()) {
      diag::Diagnostic D;
      if (!readCachedDiagnostic(N, File, D))
        return std::nullopt;
      R.Notices.push_back(std::move(D));
    }
  }
  R.SuppressedFindings = static_cast<size_t>(Doc->getInt("suppressed", 0));
  return R;
}

//===----------------------------------------------------------------------===//
// Wire serialization (worker protocol + checkpoint journal)
//===----------------------------------------------------------------------===//

namespace {

bool engineStatusFromName(std::string_view Name, EngineStatus &Out) {
  if (Name == "ok")
    Out = EngineStatus::Ok;
  else if (Name == "degraded")
    Out = EngineStatus::Degraded;
  else if (Name == "skipped")
    Out = EngineStatus::Skipped;
  else
    return false;
  return true;
}

bool readWireDiagnostics(const JsonValue *Arr, const std::string *File,
                         std::vector<diag::Diagnostic> &Out) {
  if (!Arr)
    return true; // Absent array == empty.
  if (!Arr->isArray())
    return false;
  for (const JsonValue &V : Arr->elements()) {
    diag::Diagnostic D;
    if (!readCachedDiagnostic(V, File, D))
      return false;
    Out.push_back(std::move(D));
  }
  return true;
}

} // namespace

std::string rs::engine::serializeWireFileReport(const FileReport &R) {
  JsonWriter W;
  W.beginObject();
  W.field("v", static_cast<int64_t>(ReportSchemaVersion));
  W.field("path", R.Path);
  W.field("status", engineStatusName(R.Status));
  if (!R.Reason.empty())
    W.field("reason", R.Reason);
  if (R.ItemsDropped != 0)
    W.field("items_dropped", static_cast<int64_t>(R.ItemsDropped));
  if (R.SuppressedFindings != 0)
    W.field("suppressed", static_cast<int64_t>(R.SuppressedFindings));
  if (R.BaselinedFindings != 0)
    W.field("baselined", static_cast<int64_t>(R.BaselinedFindings));
  auto WriteDiags = [&](const char *Key,
                        const std::vector<diag::Diagnostic> &Diags) {
    if (Diags.empty())
      return;
    W.key(Key);
    W.beginArray();
    for (const diag::Diagnostic &D : Diags)
      writeCachedDiagnostic(W, D, R.Path);
    W.endArray();
  };
  WriteDiags("parse_errors", R.ParseErrors);
  WriteDiags("verifier_errors", R.VerifierErrors);
  WriteDiags("notices", R.Notices);
  W.key("detectors");
  W.beginArray();
  for (const DetectorOutcome &D : R.Detectors) {
    W.beginObject();
    W.field("name", D.Name);
    W.field("status", engineStatusName(D.Status));
    if (!D.Note.empty())
      W.field("note", D.Note);
    W.field("findings", static_cast<int64_t>(D.Findings));
    W.endObject();
  }
  W.endArray();
  WriteDiags("findings", R.Findings);
  W.endObject();
  return W.str();
}

std::optional<FileReport>
rs::engine::fileReportFromJson(const JsonValue &Doc) {
  if (!Doc.isObject())
    return std::nullopt;
  if (Doc.getInt("v", -1) != static_cast<int64_t>(ReportSchemaVersion))
    return std::nullopt;
  FileReport R;
  R.Path = std::string(Doc.getString("path"));
  if (R.Path.empty())
    return std::nullopt;
  if (!engineStatusFromName(Doc.getString("status"), R.Status))
    return std::nullopt;
  R.Reason = std::string(Doc.getString("reason"));
  R.ItemsDropped = static_cast<unsigned>(Doc.getInt("items_dropped", 0));
  R.SuppressedFindings = static_cast<size_t>(Doc.getInt("suppressed", 0));
  R.BaselinedFindings = static_cast<size_t>(Doc.getInt("baselined", 0));

  const std::string *File = internFileName(R.Path);
  if (!readWireDiagnostics(Doc.get("parse_errors"), File, R.ParseErrors) ||
      !readWireDiagnostics(Doc.get("verifier_errors"), File,
                           R.VerifierErrors) ||
      !readWireDiagnostics(Doc.get("notices"), File, R.Notices) ||
      !readWireDiagnostics(Doc.get("findings"), File, R.Findings))
    return std::nullopt;

  const JsonValue *Dets = Doc.get("detectors");
  if (!Dets || !Dets->isArray())
    return std::nullopt;
  for (const JsonValue &D : Dets->elements()) {
    if (!D.isObject())
      return std::nullopt;
    DetectorOutcome O;
    O.Name = std::string(D.getString("name"));
    if (!engineStatusFromName(D.getString("status"), O.Status))
      return std::nullopt;
    O.Note = std::string(D.getString("note"));
    O.Findings = static_cast<size_t>(D.getInt("findings"));
    R.Detectors.push_back(std::move(O));
  }
  return R;
}

std::optional<FileReport>
rs::engine::deserializeWireFileReport(std::string_view Payload) {
  std::optional<JsonValue> Doc = JsonValue::parse(Payload);
  if (!Doc)
    return std::nullopt;
  return fileReportFromJson(*Doc);
}

//===----------------------------------------------------------------------===//
// The link step and the corpus driver
//===----------------------------------------------------------------------===//

LinkPlan rs::engine::linkCorpus(const EngineOptions &Opts,
                                const std::vector<corpus::CorpusInput> &Inputs,
                                sched::SummaryDb *Db,
                                const LinkTransport &Transport) {
  LinkPlan Plan;
  Plan.Digest.resize(Inputs.size());
  std::vector<size_t> Analyzable;
  for (size_t I = 0; I != Inputs.size(); ++I)
    if (Inputs[I].SkipReason.empty())
      Analyzable.push_back(I);
  if (Opts.WholeProgram == WholeProgramMode::Off ||
      (Opts.WholeProgram == WholeProgramMode::Auto && Analyzable.size() < 2))
    return Plan;

  // Facts are kept in input order: the determinism anchor the
  // first-definition-wins rule and the shard fleet both key on.
  std::vector<std::optional<analysis::ModuleFacts>> Got =
      Transport.Facts(Analyzable);
  std::vector<analysis::ModuleFacts> Facts;
  std::vector<size_t> ModuleInput; // Module index -> input ordinal.
  for (size_t K = 0; K != Analyzable.size(); ++K)
    if (Got[K]) {
      ModuleInput.push_back(Analyzable[K]);
      Facts.push_back(std::move(*Got[K]));
    }

  analysis::LinkedCorpus Corpus =
      analysis::LinkedCorpus::build(std::move(Facts));
  analysis::LinkOptions LO;
  LO.MaxSummaryRounds = linkRounds(Opts);

  // The solver probes and stores one entry per module, one after another.
  // So the DB's disk reads happen here first, on the transport, and its
  // writes after the solve: the hooks only touch memory.
  analysis::LinkDbHooks Hooks;
  std::unordered_map<uint64_t, std::string> Entries;
  std::vector<std::pair<uint64_t, std::string>> Pending;
  if (Db) {
    const uint32_t NumMods = static_cast<uint32_t>(Corpus.modules().size());
    std::vector<std::optional<std::string>> Got(NumMods);
    Transport.Parallel(NumMods, [&](size_t M) {
      if (!Corpus.modules()[M].Functions.empty())
        Got[M] = Db->lookup(Corpus.moduleKey(static_cast<uint32_t>(M)));
    });
    for (uint32_t M = 0; M != NumMods; ++M)
      if (Got[M])
        Entries.emplace(Corpus.moduleKey(M), std::move(*Got[M]));
    Hooks.Lookup = [&](uint64_t K) -> std::optional<std::string> {
      auto It = Entries.find(K);
      if (It == Entries.end())
        return std::nullopt;
      return It->second;
    };
    Hooks.Store = [&](uint64_t K, std::string_view P) {
      Pending.emplace_back(K, std::string(P));
    };
  }
  analysis::SummarizeRoundFn Summarize =
      [&](const std::vector<uint32_t> &ModuleIdxs,
          const analysis::ExternalSummaries &Env) {
        std::vector<std::pair<uint32_t, size_t>> Modules;
        for (uint32_t M : ModuleIdxs)
          Modules.emplace_back(M, ModuleInput[M]);
        return Transport.Summarize(Modules, Env);
      };
  analysis::LinkResult LR =
      analysis::solveLink(std::move(Corpus), LO, Hooks, Summarize);
  Transport.Parallel(Pending.size(), [&](size_t K) {
    Db->store(Pending[K].first, Pending[K].second);
  });

  Plan.Env = std::move(LR.Env);
  for (uint32_t M = 0; M != ModuleInput.size(); ++M)
    Plan.Digest[ModuleInput[M]] = LR.Corpus.linkDigest(M);
  Plan.Stats.LinkEnabled = true;
  Plan.Stats.LinkedFiles = static_cast<unsigned>(ModuleInput.size());
  Plan.Stats.LinkRounds = LR.Stats.Rounds;
  Plan.Stats.ModulesFromSummaryDb = LR.Stats.ModulesFromDb;
  Plan.Stats.SummaryDbHits = LR.Stats.DbHits;
  Plan.Stats.SummaryDbMisses = LR.Stats.DbMisses;
  Plan.Stats.SummaryDbStores = LR.Stats.DbStores;
  return Plan;
}

CorpusReport AnalysisEngine::analyzeCorpus(const std::vector<std::string> &Paths) {
  auto Start = std::chrono::steady_clock::now();
  std::vector<corpus::CorpusInput> Inputs = corpus::expandMirPaths(Paths);
  const size_t N = Inputs.size();
  sched::ResultCache::Stats Before;
  if (Cache)
    Before = Cache->stats();

  unsigned Jobs =
      Opts.Jobs == 0 ? sched::ThreadPool::defaultWorkerCount() : Opts.Jobs;
  Jobs = static_cast<unsigned>(
      std::clamp<size_t>(Jobs, 1, std::max<size_t>(N, 1)));
  std::optional<sched::ThreadPool> Pool;
  if (Jobs > 1)
    Pool.emplace(Jobs);
  auto RunParallel = [&](size_t Count, const std::function<void(size_t)> &Fn) {
    if (Pool && Count > 1)
      sched::parallelFor(*Pool, Count, Fn);
    else
      for (size_t I = 0; I != Count; ++I)
        Fn(I);
  };

  // The link step over the thread pool. Every analyzable input is read
  // once; its facts come from the facts cache, or from its module, which
  // then stays in memory for the summarize rounds and the analysis below.
  // An unchanged file is never decoded unless its report misses or its
  // module must be summarized.
  std::vector<std::optional<LoadedFile>> Loaded(N);
  LinkTransport Transport;
  Transport.Facts = [&](const std::vector<size_t> &Ordinals) {
    std::vector<std::optional<analysis::ModuleFacts>> Facts(Ordinals.size());
    RunParallel(Ordinals.size(), [&](size_t K) {
      Loaded[Ordinals[K]] = read(Inputs[Ordinals[K]].Path, std::nullopt);
      Facts[K] = linkFacts(*Loaded[Ordinals[K]]);
    });
    return Facts;
  };
  Transport.Summarize =
      [&](const std::vector<std::pair<uint32_t, size_t>> &Modules,
          const analysis::ExternalSummaries &Env) {
        std::vector<analysis::ModuleSummaries> Out(Modules.size());
        RunParallel(Modules.size(), [&](size_t K) {
          const auto &[Idx, Input] = Modules[K];
          LoadedFile &L = *Loaded[Input];
          loadModule(L);
          Out[K] = summarizeContained(L.Clean ? &*L.M : nullptr, Idx, Env,
                                      Opts);
        });
        return Out;
      };
  Transport.Parallel = RunParallel;
  LinkPlan Link = linkCorpus(Opts, Inputs, SummaryDbPtr.get(), Transport);

  // Each task owns exactly slot I of the report — the deterministic merge:
  // results land by input ordinal, never by completion order. A file
  // outside the link is a per-file run (null environment, digest 0); one
  // the link step already read is not read again. Detector lookups only
  // use the module's own callee names, so analyzing against the full
  // environment is byte-identical to the slice a shard worker sees.
  CorpusReport Report;
  Report.Files.resize(N);
  RunParallel(N, [&](size_t I) {
    const corpus::CorpusInput &In = Inputs[I];
    if (!In.SkipReason.empty()) {
      Report.Files[I] = FileReport::skipped(In.Path, In.SkipReason);
      return;
    }
    LoadedFile L =
        Loaded[I] ? std::move(*Loaded[I]) : read(In.Path, std::nullopt);
    const std::optional<uint64_t> &Digest = Link.Digest[I];
    Report.Files[I] = analyze(std::move(L), Digest ? &Link.Env : nullptr,
                              Digest.value_or(0));
  });
  Report.finalize();

  Report.Stats = Link.Stats;
  Report.Stats.Jobs = Jobs;
  Report.Stats.WallMs = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - Start)
                            .count();
  Report.Stats.CacheEnabled = Cache != nullptr;
  if (Cache) {
    sched::ResultCache::Stats After = Cache->stats();
    Report.Stats.CacheHits = After.Hits - Before.Hits;
    Report.Stats.CacheMisses = After.Misses - Before.Misses;
    Report.Stats.CacheEvictions = After.Evictions - Before.Evictions;
    Report.Stats.DiskHits = After.DiskHits - Before.DiskHits;
    Report.Stats.CorruptEntries =
        After.CorruptEntries - Before.CorruptEntries;
  }
  return Report;
}

//===----------------------------------------------------------------------===//
// CorpusReport
//===----------------------------------------------------------------------===//

std::string RunStats::renderLine() const {
  std::string Out = "cache: ";
  if (!CacheEnabled) {
    Out += "disabled";
  } else {
    Out += std::to_string(CacheHits) + " hit(s), " +
           std::to_string(CacheMisses) + " miss(es), " +
           std::to_string(CacheEvictions) + " eviction(s)";
    if (DiskHits != 0 || CorruptEntries != 0)
      Out += " (" + std::to_string(DiskHits) + " from disk, " +
             std::to_string(CorruptEntries) + " corrupt)";
  }
  if (LinkEnabled) {
    Out += "; link: " + std::to_string(LinkedFiles) + " file(s), " +
           std::to_string(LinkRounds) + " round(s), " +
           std::to_string(ModulesFromSummaryDb) + " module(s) from summary-db";
    if (SummaryDbHits != 0 || SummaryDbMisses != 0 || SummaryDbStores != 0)
      Out += " (" + std::to_string(SummaryDbHits) + " hit(s), " +
             std::to_string(SummaryDbMisses) + " miss(es), " +
             std::to_string(SummaryDbStores) + " store(s))";
  }
  Out += "; " + formatDouble(WallMs, 1) + " ms wall-clock, " +
         std::to_string(Jobs) + " job(s)";
  return Out;
}

void CorpusReport::finalize() {
  for (FileReport &F : Files)
    std::stable_sort(F.Findings.begin(), F.Findings.end(),
                     diag::diagnosticLess);
}

std::vector<diag::Diagnostic> FileReport::statusDiagnostics() const {
  std::vector<diag::Diagnostic> Out;
  const std::string *File = Path.empty() ? nullptr : internFileName(Path);
  auto FileLevel = [&](diag::RuleId Rule, std::string Message) {
    diag::Diagnostic D(Rule);
    D.Message = std::move(Message);
    // Anchor at the top of the file so renderers with location-keyed
    // output (SARIF region, text header) have somewhere to point.
    if (File)
      D.Loc = SourceLocation(File, 1, 1);
    return D;
  };
  if (Status == EngineStatus::Degraded)
    Out.push_back(FileLevel(diag::RuleId::FileDegraded,
                            "analysis degraded: " + Reason));
  else if (Status == EngineStatus::Skipped)
    Out.push_back(
        FileLevel(diag::RuleId::FileSkipped, "file skipped: " + Reason));
  for (const DetectorOutcome &O : Detectors) {
    if (O.Status == EngineStatus::Ok)
      continue;
    diag::RuleId Rule = O.Status == EngineStatus::Degraded
                            ? diag::RuleId::DetectorDegraded
                            : diag::RuleId::DetectorSkipped;
    diag::Diagnostic D = FileLevel(
        Rule, "detector '" + O.Name + "' " +
                  engineStatusName(O.Status) + " on this file");
    if (!O.Note.empty())
      D.Notes.push_back(O.Note); // The budget or fault cause.
    Out.push_back(std::move(D));
  }
  return Out;
}

size_t CorpusReport::countWithStatus(EngineStatus S) const {
  size_t N = 0;
  for (const FileReport &F : Files)
    N += F.Status == S;
  return N;
}

size_t CorpusReport::totalFindings() const {
  size_t N = 0;
  for (const FileReport &F : Files)
    N += F.Findings.size();
  return N;
}

std::string CorpusReport::renderText(const diag::SourceManager *SM) const {
  std::string Out;
  for (const FileReport &F : Files) {
    Out += "== " + F.Path + ": " + engineStatusName(F.Status) + ", " +
           std::to_string(F.Findings.size()) + " finding(s)";
    if (F.SuppressedFindings != 0)
      Out += ", " + std::to_string(F.SuppressedFindings) + " suppressed";
    if (F.BaselinedFindings != 0)
      Out += ", " + std::to_string(F.BaselinedFindings) + " baselined";
    if (!F.Reason.empty())
      Out += " (" + F.Reason + ")";
    Out += " ==\n";
    for (const diag::Diagnostic &E : F.ParseErrors)
      Out += "  recovered parse error: " + E.toString() + "\n";
    for (const diag::Diagnostic &E : F.VerifierErrors)
      Out += "  verifier: " + E.toString() + "\n";
    for (const DetectorOutcome &D : F.Detectors)
      if (D.Status != EngineStatus::Ok)
        Out += "  [" + D.Name + "] " + engineStatusName(D.Status) + ": " +
               D.Note + "\n";
    for (const diag::Diagnostic &N : F.Notices)
      Out += diag::renderDiagnosticText(N, SM);
    for (const detectors::Diagnostic &Diag : F.Findings)
      Out += diag::renderDiagnosticText(Diag, SM);
  }
  return Out;
}

std::string CorpusReport::renderJson() const {
  JsonWriter W;
  W.beginObject();
  W.key("files");
  W.beginArray();
  for (const FileReport &F : Files) {
    W.beginObject();
    W.field("path", F.Path);
    W.field("status", engineStatusName(F.Status));
    if (!F.Reason.empty())
      W.field("reason", F.Reason);
    if (!F.ParseErrors.empty()) {
      W.key("parse_errors");
      W.beginArray();
      for (const diag::Diagnostic &E : F.ParseErrors)
        diag::writeDiagnosticJson(W, E);
      W.endArray();
    }
    if (!F.VerifierErrors.empty()) {
      W.key("verifier_errors");
      W.beginArray();
      for (const diag::Diagnostic &E : F.VerifierErrors)
        diag::writeDiagnosticJson(W, E);
      W.endArray();
    }
    if (F.ItemsDropped != 0)
      W.field("items_dropped", static_cast<int64_t>(F.ItemsDropped));
    if (F.SuppressedFindings != 0)
      W.field("suppressed", static_cast<int64_t>(F.SuppressedFindings));
    if (F.BaselinedFindings != 0)
      W.field("baselined", static_cast<int64_t>(F.BaselinedFindings));
    W.key("detectors");
    W.beginArray();
    for (const DetectorOutcome &D : F.Detectors) {
      W.beginObject();
      W.field("name", D.Name);
      W.field("status", engineStatusName(D.Status));
      if (!D.Note.empty())
        W.field("note", D.Note);
      W.field("findings", static_cast<int64_t>(D.Findings));
      W.endObject();
    }
    W.endArray();
    if (!F.Notices.empty()) {
      W.key("notices");
      W.beginArray();
      for (const diag::Diagnostic &N : F.Notices)
        diag::writeDiagnosticJson(W, N);
      W.endArray();
    }
    // The per-finding objects come from writeDiagnosticJson, the single
    // diagnostic schema every JSON surface shares.
    W.key("findings");
    W.beginArray();
    for (const detectors::Diagnostic &D : F.Findings)
      diag::writeDiagnosticJson(W, D);
    W.endArray();
    W.endObject();
  }
  W.endArray();
  W.key("summary");
  W.beginObject();
  W.field("files", static_cast<int64_t>(Files.size()));
  W.field("ok", static_cast<int64_t>(countWithStatus(EngineStatus::Ok)));
  W.field("degraded",
          static_cast<int64_t>(countWithStatus(EngineStatus::Degraded)));
  W.field("skipped",
          static_cast<int64_t>(countWithStatus(EngineStatus::Skipped)));
  W.field("findings", static_cast<int64_t>(totalFindings()));
  size_t Suppressed = 0, Baselined = 0;
  for (const FileReport &F : Files) {
    Suppressed += F.SuppressedFindings;
    Baselined += F.BaselinedFindings;
  }
  W.field("suppressed", static_cast<int64_t>(Suppressed));
  W.field("baselined", static_cast<int64_t>(Baselined));
  W.endObject();
  W.endObject();
  return W.str();
}

std::string CorpusReport::renderSarif() const {
  diag::SarifWriter W;
  for (const FileReport &F : Files) {
    for (const diag::Diagnostic &E : F.ParseErrors)
      W.addResult(E, F.Path);
    for (const diag::Diagnostic &E : F.VerifierErrors)
      W.addResult(E, F.Path);
    for (const diag::Diagnostic &D : F.statusDiagnostics())
      W.addResult(D, F.Path);
    for (const diag::Diagnostic &N : F.Notices)
      W.addResult(N, F.Path);
    for (const detectors::Diagnostic &D : F.Findings)
      W.addResult(D, F.Path);
  }
  return W.finish();
}

diag::Baseline rs::engine::collectBaseline(const CorpusReport &Report) {
  diag::Baseline B;
  for (const FileReport &F : Report.Files)
    for (const detectors::Diagnostic &D : F.Findings)
      B.add(D.fingerprintHex());
  return B;
}

size_t rs::engine::applyBaseline(CorpusReport &Report,
                                 const diag::Baseline &B) {
  size_t Dropped = 0;
  for (FileReport &F : Report.Files) {
    std::vector<detectors::Diagnostic> Kept;
    Kept.reserve(F.Findings.size());
    for (detectors::Diagnostic &D : F.Findings) {
      if (B.contains(D.fingerprintHex())) {
        ++F.BaselinedFindings;
        ++Dropped;
      } else {
        Kept.push_back(std::move(D));
      }
    }
    F.Findings = std::move(Kept);
  }
  return Dropped;
}

int CorpusReport::exitCode(bool Strict) const {
  bool AnyAnalyzed = false;
  bool AnyImperfect = false;
  for (const FileReport &F : Files) {
    AnyAnalyzed |= F.analyzed();
    AnyImperfect |= F.Status != EngineStatus::Ok;
  }
  if (Files.empty() || !AnyAnalyzed)
    return 2;
  if (Strict && AnyImperfect)
    return 2;
  return totalFindings() == 0 ? 0 : 1;
}
