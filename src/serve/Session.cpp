#include "serve/Session.h"

#include "corpus/CorpusWalk.h"

#include <algorithm>

using namespace rs;
using namespace rs::serve;

Session::Session(SessionOptions O)
    : Opts(std::move(O)), Engine(Opts.Engine) {}

bool Session::wantsLink() const {
  size_t Analyzable = 0;
  for (const auto &[Path, St] : Files)
    Analyzable += !St.Placeholder;
  return engine::shouldLink(Opts.Engine.WholeProgram, Analyzable);
}

void Session::count(FileState &St, unsigned Runs) {
  St.Analyses += Runs;
  TotalAnalyses += Runs;
  // A report served from the cache is always an analyzed one; a skipped
  // report that made no run never reached the cache.
  if (Runs == 0 && St.Report.analyzed())
    ++St.Revalidations;
}

void Session::analyzeOne(const std::string &Path, FileState &St,
                         const analysis::ExternalSummaries *Env,
                         uint64_t Digest,
                         std::optional<analysis::ModuleFacts> *Facts) {
  std::optional<std::string> Content = Docs.content(Path);
  if (!Content) {
    St.Report = engine::FileReport::skipped(Path, "cannot open file");
    if (Facts)
      Facts->reset();
    return;
  }
  // Hit/miss attribution: the call makes exactly one report lookup, so
  // the engine's miss counter tells a revalidation (hit) from a true
  // re-analysis (miss). With the cache disabled every run is an analysis.
  sched::ResultCache *C = Engine.cache();
  const uint64_t MissesBefore = C ? C->stats().Misses : 0;
  St.Report = Engine.analyzeFile(Path, *Content, Env, Digest, Facts);
  count(St, !C || C->stats().Misses > MissesBefore ? 1 : 0);
}

std::vector<std::string> Session::analyzeAll() {
  // The roots in corpus order, then overlays outside them in path order:
  // the link order a check over the same files would see.
  std::vector<corpus::CorpusInput> Inputs = corpus::expandMirPaths(Opts.Roots);
  const size_t NumRooted = Inputs.size();
  std::set<std::string> Seen;
  for (const corpus::CorpusInput &In : Inputs)
    Seen.insert(In.Path);
  for (const auto &[Path, Doc] : Docs.overlays())
    if (Seen.insert(Path).second)
      Inputs.push_back({Path, ""});
  for (corpus::CorpusInput &In : Inputs)
    if (In.SkipReason.empty() && Docs.isOpen(In.Path))
      In.Source = Docs.content(In.Path);

  engine::CorpusState State;
  engine::CorpusReport Report = Engine.analyzeCorpus(Inputs, &State);

  std::map<std::string, FileState> Next;
  Order.clear();
  Names = analysis::LinkNames();
  for (size_t I = 0; I != Inputs.size(); ++I) {
    const std::string &Path = Inputs[I].Path;
    FileState &St = Next[Path];
    if (auto It = Files.find(Path); It != Files.end())
      St = std::move(It->second);
    ++St.Epoch;
    St.Report = std::move(Report.Files[I]);
    St.Facts = State.Link.Facts.empty() ? std::nullopt
                                        : std::move(State.Link.Facts[I]);
    St.Digest = State.Link.Digest[I].value_or(0);
    St.Exporter = State.Link.ExportKey[I].has_value();
    St.InCorpus = I < NumRooted;
    St.Placeholder = !Inputs[I].SkipReason.empty();
    count(St, State.Runs[I]);
    if (St.Facts)
      Names.add(analysis::edgeNames(*St.Facts));
    Order.push_back(Path);
  }
  Files = std::move(Next);
  Env = std::move(State.Link.Env);
  Linked = State.Link.Stats.LinkEnabled;
  Dirty.clear();
  RelinkOwed = false;
  return paths();
}

void Session::markDirty(const std::string &Path) { Dirty.insert(Path); }

std::vector<std::string> Session::refresh() {
  std::vector<std::string> DirtyNow(Dirty.begin(), Dirty.end());
  Dirty.clear();
  for (const std::string &P : DirtyNow)
    if (Files.try_emplace(P).second)
      Order.push_back(P);
  // Auto mode links from two analyzable files up. A refresh that crosses
  // that line re-runs the corpus driver over every resident file.
  if (wantsLink() != Linked)
    return analyzeAll();

  // Each dirty file's per-file analysis yields its new facts; the engine's
  // relink rule, the one `check` reuses a link by, judges them against the
  // rest of the corpus.
  bool Relink = std::exchange(RelinkOwed, false);
  for (const std::string &P : DirtyNow) {
    FileState &St = Files[P];
    ++St.Epoch;
    std::optional<analysis::ModuleFacts> Facts;
    analyzeOne(P, St, nullptr, 0, Linked ? &Facts : nullptr);
    if (!Linked)
      continue;
    Relink |= engine::relinkNeeded(
        Names, St.Digest, St.Exporter,
        St.Facts ? analysis::edgeNames(*St.Facts) : analysis::EdgeNames(),
        Facts ? analysis::edgeNames(*Facts) : analysis::EdgeNames());
    St.Facts = std::move(Facts);
    St.Digest = 0;
    St.Exporter = false;
  }

  std::set<std::string> Affected(DirtyNow.begin(), DirtyNow.end());
  if (Relink)
    relink(Affected);
  return std::vector<std::string>(Affected.begin(), Affected.end());
}

void Session::relink(std::set<std::string> &Affected) {
  // The resident files in link order; open overlays carry their text.
  std::vector<corpus::CorpusInput> Inputs(Order.size());
  for (size_t I = 0; I != Order.size(); ++I) {
    const FileState &St = Files.at(Order[I]);
    Inputs[I].Path = Order[I];
    if (St.Placeholder)
      Inputs[I].SkipReason = St.Report.Reason;
    else if (Docs.isOpen(Order[I]))
      Inputs[I].Source = Docs.content(Order[I]);
  }
  // The facts move into the link and come back with its plan: the session
  // keeps one copy of them.
  engine::LinkTransport Transport;
  Transport.Facts = [&](const std::vector<size_t> &Ordinals) {
    std::vector<std::optional<analysis::ModuleFacts>> Facts;
    for (size_t I : Ordinals)
      Facts.push_back(std::move(Files[Order[I]].Facts));
    return Facts;
  };
  Transport.Summarize =
      [&](const std::vector<std::pair<uint32_t, size_t>> &Modules,
          const analysis::ExternalSummaries &RoundEnv) {
        std::vector<analysis::ModuleSummaries> Round;
        for (const auto &[Idx, I] : Modules) {
          const corpus::CorpusInput &In = Inputs[I];
          std::optional<std::string_view> Source;
          if (In.Source)
            Source = *In.Source;
          if (std::optional<analysis::ModuleSummaries> MS =
                  Engine.summarizeFileForLink(In.Path, Source, Idx, RoundEnv))
            Round.push_back(std::move(*MS));
        }
        return Round;
      };
  engine::LinkPlan Plan =
      engine::linkCorpus(Opts.Engine, Inputs, Engine.cache(), Transport);

  Env = std::move(Plan.Env);
  for (size_t I = 0; I != Order.size(); ++I) {
    const std::string &Path = Order[I];
    FileState &St = Files[Path];
    St.Facts = std::move(Plan.Facts[I]);
    St.Exporter = Plan.ExportKey[I].has_value();
    const uint64_t Digest = Plan.Digest[I].value_or(0);
    // A dirty file's per-file report stands when its digest is 0.
    if (Digest == St.Digest)
      continue;
    St.Digest = Digest;
    if (Affected.insert(Path).second)
      ++St.Epoch;
    analyzeOne(Path, St, Digest ? &Env : nullptr, Digest, nullptr);
  }
}

bool Session::forget(const std::string &Path) {
  auto It = Files.find(Path);
  if (It == Files.end() || It->second.InCorpus)
    return false;
  FileState &St = It->second;
  if (St.Digest != 0 || St.Exporter)
    RelinkOwed = true;
  if (St.Facts)
    Names.remove(analysis::edgeNames(*St.Facts));
  Files.erase(It);
  Order.erase(std::find(Order.begin(), Order.end(), Path));
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
