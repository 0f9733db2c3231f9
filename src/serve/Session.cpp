#include "serve/Session.h"

#include "analysis/Link.h"
#include "corpus/CorpusWalk.h"
#include "mir/Parser.h"

#include <algorithm>

using namespace rs;
using namespace rs::serve;

Session::Session(SessionOptions O)
    : Opts(std::move(O)), Engine(Opts.Engine) {}

void Session::indexContent(FileState &St, const std::string &Path,
                           const std::string &Content) {
  // A light recovery parse just for the name-reference graph; the engine
  // owns the real (fault-isolated) analysis parse. The def/ref extraction
  // itself is the linker's — the daemon's dependency index and the
  // whole-program link phase must agree on what counts as an extern ref.
  mir::ModuleParse P = mir::Parser::parseRecover(Content, Path);
  analysis::ModuleDefsRefs DR = analysis::collectDefsAndRefs(P.M);
  St.Defines = std::move(DR.Defines);
  St.ExternalRefs = std::move(DR.ExternalRefs);
}

void Session::analyzeOne(const std::string &Path) {
  FileState &St = Files[Path];
  ++St.Epoch;

  std::optional<std::string> Content = Docs.content(Path);
  if (!Content) {
    St.Report = engine::FileReport::skipped(Path, "cannot open file");
    St.Defines.clear();
    St.ExternalRefs.clear();
    return;
  }

  // Hit/miss attribution: the engine's cache counters move by exactly one
  // lookup for this call, so the delta tells revalidation (hit) from true
  // re-analysis (miss). With the cache disabled every run is an analysis.
  sched::ResultCache *C = Engine.cache();
  const uint64_t MissesBefore = C ? C->stats().Misses : 0;
  St.Report = Engine.analyzeSource(*Content, Path);
  if (!C || C->stats().Misses > MissesBefore) {
    ++St.Analyses;
    ++TotalAnalyses;
  } else {
    ++St.Revalidations;
  }

  indexContent(St, Path, *Content);
}

std::vector<std::string> Session::analyzeAll() {
  std::vector<std::string> Affected;
  for (const corpus::CorpusInput &In : corpus::expandMirPaths(Opts.Roots)) {
    if (!In.SkipReason.empty()) {
      FileState &St = Files[In.Path];
      St.InCorpus = true;
      ++St.Epoch;
      St.Report = engine::FileReport::skipped(In.Path, In.SkipReason);
      Affected.push_back(In.Path);
      continue;
    }
    analyzeOne(In.Path);
    Files[In.Path].InCorpus = true;
    Affected.push_back(In.Path);
  }
  // Overlay documents opened before the initial pass (or outside the
  // roots) are part of the session too.
  for (const auto &[Path, Doc] : Docs.overlays()) {
    (void)Doc;
    if (!Files.count(Path)) {
      analyzeOne(Path);
      Affected.push_back(Path);
    }
  }
  Dirty.clear();
  std::sort(Affected.begin(), Affected.end());
  Affected.erase(std::unique(Affected.begin(), Affected.end()),
                 Affected.end());
  return Affected;
}

void Session::markDirty(const std::string &Path) { Dirty.insert(Path); }

std::vector<std::string>
Session::dependentsOf(const std::string &Path) const {
  std::vector<std::string> Out;
  auto It = Files.find(Path);
  if (It == Files.end())
    return Out;
  const std::vector<std::string> &Defines = It->second.Defines;
  if (Defines.empty())
    return Out;
  for (const auto &[Other, St] : Files) {
    if (Other == Path)
      continue;
    bool Depends = false;
    for (const std::string &Ref : St.ExternalRefs)
      if (std::binary_search(Defines.begin(), Defines.end(), Ref)) {
        Depends = true;
        break;
      }
    if (Depends)
      Out.push_back(Other);
  }
  return Out; // Map iteration order: already sorted.
}

std::vector<std::string> Session::refresh() {
  // The slice: every dirty file plus every file referencing a function a
  // dirty file defines. Dependents are computed against the *pre-edit*
  // index first; after re-analysis the index is fresh, so a second pass
  // catches files that now reference newly added definitions.
  std::set<std::string> Affected;
  for (const std::string &P : Dirty) {
    Affected.insert(P);
    for (const std::string &Dep : dependentsOf(P))
      Affected.insert(Dep);
  }
  std::vector<std::string> DirtyNow(Dirty.begin(), Dirty.end());
  Dirty.clear();

  for (const std::string &P : DirtyNow)
    analyzeOne(P);
  // Post-edit dependents (the defines may have changed).
  for (const std::string &P : DirtyNow)
    for (const std::string &Dep : dependentsOf(P))
      Affected.insert(Dep);
  for (const std::string &P : Affected)
    if (std::find(DirtyNow.begin(), DirtyNow.end(), P) == DirtyNow.end())
      analyzeOne(P);

  return std::vector<std::string>(Affected.begin(), Affected.end());
}

bool Session::forget(const std::string &Path) {
  auto It = Files.find(Path);
  if (It == Files.end() || It->second.InCorpus)
    return false;
  Files.erase(It);
  Dirty.erase(Path);
  return true;
}

const engine::FileReport *Session::report(const std::string &Path) const {
  auto It = Files.find(Path);
  return It == Files.end() ? nullptr : &It->second.Report;
}

Session::FileStats Session::fileStats(const std::string &Path) const {
  FileStats S;
  auto It = Files.find(Path);
  if (It != Files.end()) {
    S.Epoch = It->second.Epoch;
    S.Analyses = It->second.Analyses;
    S.Revalidations = It->second.Revalidations;
  }
  return S;
}

std::vector<std::string> Session::paths() const {
  std::vector<std::string> Out;
  Out.reserve(Files.size());
  for (const auto &[Path, St] : Files) {
    (void)St;
    Out.push_back(Path);
  }
  return Out;
}

engine::CorpusReport Session::snapshot() const {
  engine::CorpusReport Report;
  Report.Files.reserve(Files.size());
  for (const auto &[Path, St] : Files) {
    (void)Path;
    Report.Files.push_back(St.Report);
  }
  Report.finalize();
  return Report;
}
