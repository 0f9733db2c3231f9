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
#include "sched/Parallel.h"
#include "sched/SummaryDb.h"
#include "support/FaultInjection.h"
#include "support/File.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <tuple>
#include <utility>

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
  CO.Generation = Opts.CacheGeneration;
  Cache = std::make_unique<sched::ResultCache>(std::move(CO));
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
  /// The parse, built in place and never moved (moving a Module
  /// allocates); its module counts only once it passed verification.
  std::unique_ptr<mir::ModuleParse> Parsed;
  bool Verified = false;
  /// The module parsed without recovery: only such a module joins the link.
  bool Clean = false;

  /// The verified module, or null.
  const mir::Module *module() const {
    return Verified ? &Parsed->M : nullptr;
  }
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

AnalysisEngine::LoadedFile
AnalysisEngine::read(const corpus::CorpusInput &In) {
  if (In.Source)
    return read(In.Path, std::string_view(*In.Source));
  return read(In.Path, std::nullopt);
}

void AnalysisEngine::loadModule(LoadedFile &L) {
  if (!L.Read || L.Loaded)
    return;
  L.Loaded = true;
  FileReport &R = L.Report;
  const std::string &Path = R.Path;
  contained(R, [&] {
    if (fault::shouldFail("engine.parse"))
      throw std::runtime_error("injected fault at probe engine.parse");
    L.Parsed = std::make_unique<mir::ModuleParse>();
    mir::ModuleParse &P = *L.Parsed;
    mir::Parser::parseRecoverInto(L.Source, Path, P);
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

    // A recovered parse dropped items that a linked summary must not
    // pretend to cover.
    L.Clean = P.Errors.empty();
    L.Verified = true;
  });
  if (!L.Verified)
    L.Parsed.reset();
}

std::optional<analysis::ModuleFacts>
AnalysisEngine::cachedFacts(uint64_t Fp, const std::string &Path) {
  // Facts are a pure function of content, and only a clean module's are
  // ever stored, so a hit needs no module at all. The entry carries no
  // path: it re-anchors at whatever path the content shows up at. Facts
  // are only worth caching across processes: within one, the corpus
  // driver and the serve session keep each file's facts themselves.
  if (persists())
    if (std::optional<sched::ResultCache::BlobRef> Blob =
            Cache->lookupBlobRef(factsCacheKey(Fp)))
      return analysis::deserializeModuleFacts(Blob->bytes(), Path);
  return std::nullopt;
}

std::optional<analysis::ModuleFacts>
AnalysisEngine::linkFacts(LoadedFile &L) {
  if (!L.Read)
    return std::nullopt;
  if (!L.Loaded)
    if (std::optional<analysis::ModuleFacts> Facts =
            cachedFacts(L.Fp, L.Report.Path))
      return Facts;
  loadModule(L);
  if (!L.Clean)
    return std::nullopt;
  analysis::ModuleFacts Facts =
      analysis::collectModuleFacts(*L.module(), L.Report.Path);
  if (persists())
    Cache->storeBlob(factsCacheKey(L.Fp),
                     analysis::serializeModuleFacts(Facts));
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

std::optional<FileReport>
AnalysisEngine::cachedReport(const LoadedFile &L, uint64_t LinkDigest,
                             uint64_t StoredBefore) {
  // Only ok reports are cached, so an entry saying otherwise is a miss.
  if (Cache)
    if (std::optional<std::string> Payload =
            Cache->lookup(reportKey(L.Fp, LinkDigest), StoredBefore))
      if (std::optional<FileReport> Hit =
              deserializeFileReport(*Payload, L.Report.Path);
          Hit && Hit->Status == EngineStatus::Ok)
        return Hit;
  return std::nullopt;
}

FileReport AnalysisEngine::analyze(LoadedFile &L,
                                   const analysis::ExternalSummaries *Env,
                                   uint64_t LinkDigest, unsigned *Runs,
                                   uint64_t StoredBefore) {
  if (!L.Read)
    return std::move(L.Report);
  if (std::optional<FileReport> Hit =
          cachedReport(L, LinkDigest, StoredBefore))
    return std::move(*Hit);
  if (Runs)
    ++*Runs;
  loadModule(L);
  FileReport R = std::move(L.Report);
  if (!L.module())
    return R;
  contained(R, [&] {
    runDetectors(*L.module(), R, Env);
    applySuppressions(L.Source, R);
  });
  // Only clean results are cached: degraded/skipped outcomes depend on
  // wall-clock budgets and embed path-bearing error text, neither of which
  // belongs in a content-addressed entry.
  if (Cache && R.Status == EngineStatus::Ok)
    Cache->store(reportKey(L.Fp, LinkDigest), serializeFileReport(R));
  return R;
}

FileReport AnalysisEngine::analyzeFile(
    const std::string &Path, std::optional<std::string_view> Source,
    const analysis::ExternalSummaries *Env, uint64_t LinkDigest,
    std::optional<analysis::ModuleFacts> *Facts, uint64_t StoredBefore) {
  LoadedFile L = read(Path, Source);
  if (Facts)
    *Facts = linkFacts(L);
  return analyze(L, Env, LinkDigest, nullptr, StoredBefore);
}

std::optional<analysis::ModuleFacts>
AnalysisEngine::collectFileFacts(const std::string &Path) {
  LoadedFile L = read(Path, std::nullopt);
  return linkFacts(L);
}

std::optional<analysis::ModuleSummaries>
AnalysisEngine::summarizeFileForLink(const std::string &Path,
                                     std::optional<std::string_view> Source,
                                     uint32_t ModuleIdx,
                                     const analysis::ExternalSummaries &Env) {
  LoadedFile L = read(Path, Source);
  loadModule(L);
  if (!L.Clean)
    return std::nullopt;
  return summarizeContained(L.module(), ModuleIdx, Env, Opts);
}

//===----------------------------------------------------------------------===//
// Cache key derivation and report serialization
//===----------------------------------------------------------------------===//

/// The FileReport serialization schema version, shared with --version and
/// the serve daemon's serverInfo via diag/Version.h. It feeds the cache
/// salt, so old entries stop matching instead of misparsing.
static constexpr uint64_t ReportSchemaVersion = version::ReportSchemaVersion;

namespace {

/// The word fold (support/Hash.h) over canonical bytes, the same fold as
/// the snapshot body checksum. Hashing every source is the unavoidable
/// price of content addressing, so on a warm corpus this sits directly
/// on the report-hit path; chunking buys most of an order of magnitude
/// over byte-at-a-time FNV. Unlike the checksum, a length that is a
/// multiple of eight still folds one (empty) tail word.
uint64_t hashCanonicalBytes(std::string_view Bytes) {
  uint64_t H = wordFoldBytes(wordFoldSeed(Bytes.size()), Bytes);
  if (Bytes.size() % 8 == 0)
    H = wordFold(H, 0);
  return wordFoldFinish(H);
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

void putLE(std::string &Out, uint64_t V, unsigned Bytes) {
  for (unsigned I = 0; I != Bytes; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

/// A string: its length (u32), then its bytes.
void putStr(std::string &Out, std::string_view S) {
  putLE(Out, S.size(), 4);
  Out.append(S);
}

/// Reads what putLE and putStr wrote. The first read past the end latches
/// Ok to false, and every read after it returns 0 or "", so a decoder
/// checks Ok where a bad value could mislead it and once at the end.
struct LEReader {
  std::string_view Bytes;
  size_t Pos = 0;
  bool Ok = true;

  uint64_t get(unsigned Width) {
    if (!Ok || Bytes.size() - Pos < Width) {
      Ok = false;
      return 0;
    }
    uint64_t V = 0;
    for (unsigned I = 0; I != Width; ++I)
      V |= uint64_t(static_cast<uint8_t>(Bytes[Pos + I])) << (8 * I);
    Pos += Width;
    return V;
  }

  std::string_view str() {
    const uint64_t N = get(4);
    if (!Ok || Bytes.size() - Pos < N) {
      Ok = false;
      return {};
    }
    std::string_view S = Bytes.substr(Pos, N);
    Pos += N;
    return S;
  }

  /// A record count (u32). Every record takes at least one byte, so a
  /// count above the bytes left is a defect, never a huge loop.
  uint64_t count() {
    const uint64_t N = get(4);
    if (N > Bytes.size() - Pos)
      Ok = false;
    return Ok ? N : 0;
  }

  /// Every byte was read, and nothing past the end.
  bool atEnd() const { return Ok && Pos == Bytes.size(); }

  /// An enum stored as u8, range-checked against its last value.
  template <typename E> E enumerator(E Last) {
    const uint64_t V = get(1);
    if (V > static_cast<uint64_t>(Last))
      Ok = false;
    return Ok ? static_cast<E>(V) : E();
  }
};

/// The FileReport payload: "RSRP" and ReportSchemaVersion (u32), then
///   status (u8), reason, items dropped (u32), suppressed findings (u64);
///   detectors (u32 count): name, status (u8), note, findings (u64);
///   findings, parse errors, verifier errors, notices (u32 count each) of
///     rule string ID, severity (u8), function, block (u32), statement
///     (u64), message, primary line and column (u32 each);
///     secondary spans (u32 count): location, function, label;
///     notes (u32 count): the note;
///     fix-its (u32 count): location, replacement, description.
/// A location is its line and column (u32 each) and a file name, written
/// only when it points into a counterpart file (whole-program link
/// findings) and "" otherwise. The primary location never carries a file:
/// it, and every "" location, re-anchors at the reader's path (fingerprints
/// are recomputed from the re-anchored locations, so they follow). A
/// location with line 0 has no position at all. Strings are a u32 length
/// and their bytes; integers are little-endian. Rules are stored by their
/// string ID, because Rules.def is not folded into the cache salt.
constexpr std::string_view ReportMagic = "RSRP";

/// A location's line and column, then, unless \p OwnPath is null (a
/// primary location), its file: "" when it is \p OwnPath or no position.
void putLoc(std::string &Out, const SourceLocation &Loc,
            const std::string *OwnPath) {
  putLE(Out, Loc.line(), 4);
  putLE(Out, Loc.isValid() ? Loc.column() : 0, 4);
  if (OwnPath)
    putStr(Out, Loc.isValid() && Loc.file() != *OwnPath ? Loc.file() : "");
}

SourceLocation getLoc(LEReader &In, const std::string *Own, bool HasFile) {
  const unsigned Line = static_cast<unsigned>(In.get(4));
  const unsigned Col = static_cast<unsigned>(In.get(4));
  const std::string_view File = HasFile ? In.str() : "";
  if (Line == 0)
    return SourceLocation();
  return SourceLocation(File.empty() ? Own : internFileName(File), Line, Col);
}

void putDiagnostics(std::string &Out, const std::vector<diag::Diagnostic> &Ds,
                    const std::string &OwnPath) {
  putLE(Out, Ds.size(), 4);
  for (const diag::Diagnostic &D : Ds) {
    putStr(Out, diag::ruleStringId(D.Kind));
    putLE(Out, static_cast<uint8_t>(D.Sev), 1);
    putStr(Out, D.Function);
    putLE(Out, D.Block, 4);
    putLE(Out, D.StmtIndex, 8);
    putStr(Out, D.Message);
    putLoc(Out, D.Loc, nullptr);
    putLE(Out, D.Secondary.size(), 4);
    for (const diag::Span &S : D.Secondary) {
      putLoc(Out, S.Loc, &OwnPath);
      putStr(Out, S.Function);
      putStr(Out, S.Label);
    }
    putLE(Out, D.Notes.size(), 4);
    for (const std::string &N : D.Notes)
      putStr(Out, N);
    putLE(Out, D.Fixes.size(), 4);
    for (const diag::FixIt &F : D.Fixes) {
      putLoc(Out, F.Loc, &OwnPath);
      putStr(Out, F.Replacement);
      putStr(Out, F.Description);
    }
  }
}

bool getDiagnostics(LEReader &In, const std::string *Own,
                    std::vector<diag::Diagnostic> &Out) {
  const uint64_t N = In.count();
  for (uint64_t I = 0; I != N && In.Ok; ++I) {
    diag::Diagnostic &D = Out.emplace_back();
    if (!diag::ruleFromString(In.str(), D.Kind))
      return false;
    D.Sev = In.enumerator(diag::Severity::Note);
    D.Function = In.str();
    D.Block = static_cast<mir::BlockId>(In.get(4));
    D.StmtIndex = static_cast<size_t>(In.get(8));
    D.Message = In.str();
    D.Loc = getLoc(In, Own, /*HasFile=*/false);
    const uint64_t Spans = In.count();
    for (uint64_t J = 0; J != Spans && In.Ok; ++J) {
      diag::Span &S = D.Secondary.emplace_back();
      S.Loc = getLoc(In, Own, /*HasFile=*/true);
      S.Function = In.str();
      S.Label = In.str();
    }
    const uint64_t Notes = In.count();
    for (uint64_t J = 0; J != Notes && In.Ok; ++J)
      D.Notes.emplace_back(In.str());
    const uint64_t Fixes = In.count();
    for (uint64_t J = 0; J != Fixes && In.Ok; ++J) {
      diag::FixIt &F = D.Fixes.emplace_back();
      F.Loc = getLoc(In, Own, /*HasFile=*/true);
      F.Replacement = In.str();
      F.Description = In.str();
    }
  }
  return In.Ok;
}

} // namespace

std::string rs::engine::serializeFileReport(const FileReport &R) {
  std::string Out(ReportMagic);
  putLE(Out, ReportSchemaVersion, 4);
  putLE(Out, static_cast<uint8_t>(R.Status), 1);
  putStr(Out, R.Reason);
  putLE(Out, R.ItemsDropped, 4);
  putLE(Out, R.SuppressedFindings, 8);
  putLE(Out, R.Detectors.size(), 4);
  for (const DetectorOutcome &D : R.Detectors) {
    putStr(Out, D.Name);
    putLE(Out, static_cast<uint8_t>(D.Status), 1);
    putStr(Out, D.Note);
    putLE(Out, D.Findings, 8);
  }
  putDiagnostics(Out, R.Findings, R.Path);
  putDiagnostics(Out, R.ParseErrors, R.Path);
  putDiagnostics(Out, R.VerifierErrors, R.Path);
  putDiagnostics(Out, R.Notices, R.Path);
  return Out;
}

std::optional<FileReport>
rs::engine::deserializeFileReport(std::string_view Payload,
                                  const std::string &Path) {
  if (Payload.substr(0, ReportMagic.size()) != ReportMagic)
    return std::nullopt;
  LEReader In{Payload, ReportMagic.size()};
  if (In.get(4) != ReportSchemaVersion)
    return std::nullopt;
  FileReport R;
  R.Path = Path;
  R.Status = In.enumerator(EngineStatus::Skipped);
  R.Reason = In.str();
  R.ItemsDropped = static_cast<unsigned>(In.get(4));
  R.SuppressedFindings = static_cast<size_t>(In.get(8));
  const uint64_t Detectors = In.count();
  for (uint64_t I = 0; I != Detectors && In.Ok; ++I) {
    DetectorOutcome &D = R.Detectors.emplace_back();
    D.Name = In.str();
    D.Status = In.enumerator(EngineStatus::Skipped);
    D.Note = In.str();
    D.Findings = static_cast<size_t>(In.get(8));
  }
  const std::string *File = internFileName(Path);
  if (!getDiagnostics(In, File, R.Findings) ||
      !getDiagnostics(In, File, R.ParseErrors) ||
      !getDiagnostics(In, File, R.VerifierErrors) ||
      !getDiagnostics(In, File, R.Notices) || !In.atEnd())
    return std::nullopt;
  return R;
}

//===----------------------------------------------------------------------===//
// The link step and the corpus driver
//===----------------------------------------------------------------------===//

bool rs::engine::shouldLink(WholeProgramMode Mode, size_t AnalyzableFiles) {
  return Mode == WholeProgramMode::On ||
         (Mode == WholeProgramMode::Auto && AnalyzableFiles >= 2);
}

LinkPlan rs::engine::linkCorpus(const EngineOptions &Opts,
                                const std::vector<corpus::CorpusInput> &Inputs,
                                sched::ResultCache *Cache,
                                const LinkTransport &Transport) {
  LinkPlan Plan;
  Plan.Digest.resize(Inputs.size());
  Plan.ExportKey.resize(Inputs.size());
  std::vector<size_t> Analyzable;
  for (size_t I = 0; I != Inputs.size(); ++I)
    if (Inputs[I].SkipReason.empty())
      Analyzable.push_back(I);
  if (!shouldLink(Opts.WholeProgram, Analyzable.size()))
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

  // The solver probes each exporter's entry before the first round and
  // stores the converged ones after the last, straight through the run's
  // one cache. The schema folds into every address: a bump reads as cold.
  constexpr int64_t Schema = sched::SummaryDb::SchemaVersion;
  analysis::LinkDbHooks Hooks;
  if (Cache) {
    Hooks.Lookup = [&](uint64_t K) -> std::optional<std::string> {
      if (std::optional<sched::ResultCache::BlobRef> Entry =
              Cache->lookupBlobRef(sched::SummaryDb::address(K, Schema)))
        return std::string(Entry->bytes());
      return std::nullopt;
    };
    Hooks.Store = [&](uint64_t K, std::string_view P) {
      Cache->storeBlob(sched::SummaryDb::address(K, Schema), P);
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

  Plan.Env = std::move(LR.Env);
  for (uint32_t M = 0; M != ModuleInput.size(); ++M) {
    Plan.Digest[ModuleInput[M]] = LR.Corpus.linkDigest(M);
    if (LR.Corpus.exports(M))
      Plan.ExportKey[ModuleInput[M]] = LR.Corpus.moduleKey(M);
  }
  Plan.Converged = LR.Converged;
  std::vector<analysis::ModuleFacts> Linked =
      std::move(LR.Corpus).takeModules();
  Plan.Facts.resize(Inputs.size());
  for (uint32_t M = 0; M != ModuleInput.size(); ++M)
    Plan.Facts[ModuleInput[M]] = std::move(Linked[M]);
  Plan.Stats.LinkEnabled = true;
  Plan.Stats.LinkedFiles = static_cast<unsigned>(ModuleInput.size());
  Plan.Stats.LinkRounds = LR.Stats.Rounds;
  Plan.Stats.ModulesNeedNoSummary = LR.Stats.ModulesNeedNoSummary;
  Plan.Stats.ModulesFromSummaryDb = LR.Stats.ModulesFromDb;
  Plan.Stats.SummaryDbHits = LR.Stats.DbHits;
  Plan.Stats.SummaryDbMisses = LR.Stats.DbMisses;
  Plan.Stats.SummaryDbStores = LR.Stats.DbStores;
  return Plan;
}

bool rs::engine::relinkNeeded(analysis::LinkNames &Names, uint64_t OldDigest,
                              bool OldExporter,
                              const analysis::EdgeNames &OldEdges,
                              const analysis::EdgeNames &NewEdges) {
  Names.remove(OldEdges);
  const bool Needed =
      OldDigest != 0 || OldExporter || Names.touchesEdge(NewEdges);
  Names.add(NewEdges);
  return Needed;
}

namespace {

/// One input's record in a link state.
struct LinkStateFile {
  std::optional<uint64_t> Fp; ///< Its content fingerprint, when it was read.
  bool Linked = false;        ///< It joined the link.
  uint64_t Digest = 0;
  std::optional<uint64_t> ExportKey; ///< LinkPlan::ExportKey.
  analysis::EdgeNames Edges;
};

/// The link state: what a persisted linked run leaves for the next run over
/// the same ordered inputs, one record per input ordinal.
using LinkState = std::vector<LinkStateFile>;

/// Bump when the payload layout changes, or anything a link digest or an
/// export key folds: an entry of another version reads as absent.
constexpr uint32_t LinkStateVersion = 1;
constexpr std::string_view LinkStateMagic = "RSLS";
enum : uint8_t { LsRead = 1, LsLinked = 2, LsExporter = 4 };

/// The payload: "RSLS", version (u32) and record count (u64), then per
/// record its flags (u8), fingerprint and digest (u64 each), an exporter's
/// module key (u64), the def and call hash counts (u32 each) and the hashes
/// (u64 each). Little-endian throughout.
std::string encodeLinkState(const LinkState &State) {
  std::string Out(LinkStateMagic);
  putLE(Out, LinkStateVersion, 4);
  putLE(Out, State.size(), 8);
  for (const LinkStateFile &F : State) {
    putLE(Out,
          (F.Fp ? LsRead : 0) | (F.Linked ? LsLinked : 0) |
              (F.ExportKey ? LsExporter : 0),
          1);
    putLE(Out, F.Fp.value_or(0), 8);
    putLE(Out, F.Digest, 8);
    if (F.ExportKey)
      putLE(Out, *F.ExportKey, 8);
    putLE(Out, F.Edges.Defs.size(), 4);
    putLE(Out, F.Edges.Calls.size(), 4);
    for (uint64_t H : F.Edges.Defs)
      putLE(Out, H, 8);
    for (uint64_t H : F.Edges.Calls)
      putLE(Out, H, 8);
  }
  return Out;
}

/// Decodes a link state of \p Inputs records; nullopt on any defect, which
/// the run treats as no link state at all.
std::optional<LinkState> decodeLinkState(std::string_view Bytes,
                                         size_t Inputs) {
  if (Bytes.substr(0, LinkStateMagic.size()) != LinkStateMagic)
    return std::nullopt;
  LEReader In{Bytes, LinkStateMagic.size()};
  if (In.get(4) != LinkStateVersion || In.get(8) != Inputs || !In.Ok)
    return std::nullopt;
  LinkState State(Inputs);
  for (LinkStateFile &F : State) {
    const uint64_t Flags = In.get(1);
    const uint64_t Fp = In.get(8);
    if (Flags & LsRead)
      F.Fp = Fp;
    F.Linked = Flags & LsLinked;
    F.Digest = In.get(8);
    if (Flags & LsExporter)
      F.ExportKey = In.get(8);
    const uint64_t Defs = In.get(4), Calls = In.get(4);
    if (!In.Ok || (Defs + Calls) > (Bytes.size() - In.Pos) / 8)
      return std::nullopt;
    for (uint64_t I = 0; I != Defs; ++I)
      F.Edges.Defs.push_back(In.get(8));
    for (uint64_t I = 0; I != Calls; ++I)
      F.Edges.Calls.push_back(In.get(8));
  }
  if (!In.atEnd())
    return std::nullopt;
  return State;
}

/// The link state's cache key: everything the records are read against.
/// The ordered input paths and skip reasons are in it, so a file added,
/// removed or moved in the order is a miss (records are by ordinal, and
/// the first definition in input order wins a name).
uint64_t linkStateKey(const EngineOptions &Opts,
                      const std::vector<corpus::CorpusInput> &Inputs) {
  uint64_t H = fnv1a64("rustsight-link-state");
  H = fnv1a64U64(LinkStateVersion, H);
  H = fnv1a64U64(analysis::FactsSchemaVersion, H);
  H = fnv1a64U64(Opts.MaxSummaryRounds, H);
  H = fnv1a64U64(static_cast<uint64_t>(Opts.WholeProgram), H);
  for (const corpus::CorpusInput &In : Inputs) {
    H = fnv1a64U64(In.Path.size(), fnv1a64(In.Path, H));
    H = fnv1a64U64(In.SkipReason.size(), fnv1a64(In.SkipReason, H));
  }
  return H;
}

} // namespace

CorpusReport
AnalysisEngine::analyzeCorpus(const std::vector<std::string> &Paths) {
  return analyzeCorpus(corpus::expandMirPaths(Paths), nullptr);
}

CorpusReport
AnalysisEngine::analyzeCorpus(const std::vector<corpus::CorpusInput> &Inputs,
                              CorpusState *State) {
  auto Start = std::chrono::steady_clock::now();
  const size_t N = Inputs.size();
  sched::ResultCache::Stats Before;
  // Report lookups see only what was cached before this call, so two
  // inputs with the same key both miss on a cold run, however their tasks
  // interleave: the stats line is the same on every run.
  uint64_t Epoch = ~uint64_t(0);
  if (Cache) {
    Before = Cache->stats();
    Epoch = Cache->beginEpoch();
  }

  unsigned Jobs = Opts.Jobs == 0 ? sched::defaultWorkerCount() : Opts.Jobs;
  Jobs = static_cast<unsigned>(std::clamp<size_t>(
      Jobs, 1, std::max<size_t>(std::min<size_t>(N, MaxJobs), 1)));

  // A persisted linked run leaves its link state for the next run over the
  // same ordered inputs. A caller that keeps the corpus resident always
  // gets the full plan instead.
  const size_t Analyzable = static_cast<size_t>(
      std::count_if(Inputs.begin(), Inputs.end(),
                    [](const corpus::CorpusInput &In) {
                      return In.SkipReason.empty();
                    }));
  const bool Links = shouldLink(Opts.WholeProgram, Analyzable);
  const bool KeepsLinkState = Links && persists() && !State;
  const uint64_t StateKey = KeepsLinkState ? linkStateKey(Opts, Inputs) : 0;
  std::optional<LinkState> Prev;
  if (KeepsLinkState)
    if (std::optional<sched::ResultCache::BlobRef> Blob =
            Cache->lookupBlobRef(StateKey))
      Prev = decodeLinkState(Blob->bytes(), N);

  // Each task owns exactly slot I of the report — the deterministic merge:
  // results land by input ordinal, never by completion order. The per-file
  // task reads the file once. A file unchanged since the link state takes
  // its report under its recorded digest. Any other one, when the corpus
  // links, yields its facts from the same load (the facts cache, else its
  // module); unless those call out of the file, it is analyzed against the
  // empty environment (digest 0). The module dies with the task.
  CorpusReport Report;
  Report.Files.resize(N);
  std::vector<unsigned> Runs(N, 0);
  /// Per input: the link digest its report was computed under.
  std::vector<std::optional<uint64_t>> Under(N);
  std::vector<std::optional<uint64_t>> Fps(N);
  std::vector<std::optional<analysis::ModuleFacts>> Facts(N);
  std::vector<char> Unchanged(N, 0);
  std::atomic<bool> ReportMissed{false};
  sched::parallelFor(Jobs, N, [&](size_t I) {
    const corpus::CorpusInput &In = Inputs[I];
    if (!In.SkipReason.empty()) {
      Report.Files[I] = FileReport::skipped(In.Path, In.SkipReason);
      Under[I] = 0;
      return;
    }
    LoadedFile L = read(In);
    if (L.Read)
      Fps[I] = L.Fp;
    if (Prev && Fps[I] && (*Prev)[I].Fp == Fps[I]) {
      Unchanged[I] = 1;
      const uint64_t Digest = (*Prev)[I].Digest;
      if (Digest == 0) {
        Report.Files[I] = analyze(L, nullptr, 0, &Runs[I], Epoch);
        Under[I] = 0;
      } else if (std::optional<FileReport> Hit =
                     cachedReport(L, Digest, Epoch)) {
        Report.Files[I] = std::move(*Hit);
        Under[I] = Digest;
      } else {
        ReportMissed = true;
      }
      return;
    }
    if (Links)
      Facts[I] = linkFacts(L);
    // A module that calls out of its file may resolve a callee in another
    // one: it is analyzed once, after the link, under its digest.
    if (!Facts[I] || !analysis::callsOut(*Facts[I])) {
      Report.Files[I] = analyze(L, nullptr, 0, &Runs[I], Epoch);
      Under[I] = 0;
    }
  });

  // Reuse the link state when no changed file moves a cross-file edge:
  // every other file's digest, and the environment, are then as recorded,
  // and each changed file's digest is 0.
  LinkPlan Link;
  bool Reused = false;
  if (Prev && !ReportMissed) {
    // The changed files' records are rewritten in place: if the run links
    // after all, it reads only the unchanged files' records.
    LinkState &Next = *Prev;
    std::optional<analysis::LinkNames> Names;
    unsigned Changed = 0;
    bool Relink = false;
    for (size_t I = 0; I != N && !Relink; ++I) {
      if (Unchanged[I] || !Inputs[I].SkipReason.empty())
        continue;
      ++Changed;
      if (!Names) {
        Names.emplace();
        for (const LinkStateFile &F : Next)
          Names->add(F.Edges);
      }
      LinkStateFile &F = Next[I];
      analysis::EdgeNames Edges =
          Facts[I] ? analysis::edgeNames(*Facts[I]) : analysis::EdgeNames();
      Relink = relinkNeeded(*Names, F.Digest, F.ExportKey.has_value(),
                            F.Edges, Edges);
      F = {Fps[I], Facts[I].has_value(), 0, std::nullopt, std::move(Edges)};
    }
    if (!Relink) {
      Reused = true;
      Link.Digest.resize(N);
      for (size_t I = 0; I != N; ++I) {
        const LinkStateFile &F = Next[I];
        if (!F.Linked)
          continue;
        Link.Digest[I] = F.Digest;
        ++Link.Stats.LinkedFiles;
        // The run reads no facts or summaries, yet a later run that
        // relinks needs them: keep them in the window.
        if (!Unchanged[I])
          continue;
        Cache->retain(factsCacheKey(*F.Fp));
        if (F.ExportKey)
          Cache->retain(sched::SummaryDb::address(
              *F.ExportKey, sched::SummaryDb::SchemaVersion));
      }
      Link.Stats.LinkEnabled = true;
      Link.Stats.LinkReused = true;
      Link.Stats.LinkChanged = Changed;
      if (Changed != 0)
        Cache->storeBlob(StateKey, encodeLinkState(Next));
    }
  }

  // The link step over the thread pool. A file unchanged since the link
  // state collects its facts only now. An exporter's module loads in its
  // first summarize round and stays until the link is done; it is the only
  // module that outlives its per-file task.
  std::vector<std::optional<LoadedFile>> Exporters(N);
  if (!Reused) {
    LinkTransport Transport;
    Transport.Facts = [&](const std::vector<size_t> &Ordinals) {
      std::vector<std::optional<analysis::ModuleFacts>> Out(Ordinals.size());
      std::vector<size_t> Fetch;
      for (size_t K = 0; K != Ordinals.size(); ++K) {
        const size_t I = Ordinals[K];
        if (!Unchanged[I])
          Out[K] = std::move(Facts[I]);
        else if ((*Prev)[I].Linked)
          Fetch.push_back(K);
      }
      sched::parallelFor(Jobs, Fetch.size(), [&](size_t J) {
        const size_t K = Fetch[J], I = Ordinals[K];
        Out[K] = cachedFacts(*Fps[I], Inputs[I].Path);
        if (!Out[K]) {
          LoadedFile L = read(Inputs[I]);
          Out[K] = linkFacts(L);
        }
      });
      return Out;
    };
    Transport.Summarize =
        [&](const std::vector<std::pair<uint32_t, size_t>> &Modules,
            const analysis::ExternalSummaries &Env) {
          std::vector<analysis::ModuleSummaries> Out(Modules.size());
          sched::parallelFor(Jobs, Modules.size(), [&](size_t K) {
            const auto &[Idx, Input] = Modules[K];
            std::optional<LoadedFile> &L = Exporters[Input];
            if (!L) {
              L = read(Inputs[Input]);
              loadModule(*L);
            }
            Out[K] = summarizeContained(L->Clean ? L->module() : nullptr,
                                        Idx, Env, Opts);
          });
          return Out;
        };
    Link = linkCorpus(Opts, Inputs, Cache.get(), Transport);
    if (KeepsLinkState && Link.Stats.LinkEnabled && Link.Converged) {
      LinkState Next(N);
      for (size_t I = 0; I != N; ++I) {
        LinkStateFile &F = Next[I];
        F.Fp = Fps[I];
        F.Linked = Link.Facts[I].has_value();
        F.Digest = Link.Digest[I].value_or(0);
        F.ExportKey = Link.ExportKey[I];
        if (F.Linked)
          F.Edges = analysis::edgeNames(*Link.Facts[I]);
      }
      Cache->storeBlob(StateKey, encodeLinkState(Next));
    }
    if (!State)
      Link.Facts.clear();
  }

  // Every file whose report does not match its link digest yet is analyzed
  // now: against the converged environment when its digest is non-zero (an
  // exporter from its resident module), else per-file. A digest-0 file
  // resolves no extern callee, so the empty environment observes exactly
  // what the full one would. Only those files are claimed.
  std::vector<size_t> Pending;
  for (size_t I = 0; I != N; ++I) {
    if (Under[I] != Link.Digest[I].value_or(0))
      Pending.push_back(I);
    else
      Exporters[I].reset();
  }
  sched::parallelFor(Jobs, Pending.size(), [&](size_t K) {
    const size_t I = Pending[K];
    std::optional<LoadedFile> L = std::exchange(Exporters[I], std::nullopt);
    const uint64_t Digest = Link.Digest[I].value_or(0);
    if (!L)
      L = read(Inputs[I]);
    Report.Files[I] =
        analyze(*L, Digest ? &Link.Env : nullptr, Digest, &Runs[I], Epoch);
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
  if (State) {
    State->Link = std::move(Link);
    State->Runs = std::move(Runs);
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
  if (LinkReused) {
    Out += "; link: " + std::to_string(LinkedFiles) + " file(s) reused, " +
           std::to_string(LinkChanged) + " changed";
  } else if (LinkEnabled) {
    Out += "; link: " + std::to_string(LinkedFiles) + " file(s), " +
           std::to_string(LinkRounds) + " round(s), " +
           std::to_string(ModulesNeedNoSummary) + " need no summary, " +
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
