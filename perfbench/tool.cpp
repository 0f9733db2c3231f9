//===----------------------------------------------------------------------===//
//
// perfbench_tool: the in-process half of the RustSight benchmark
// (perfbench/run.py drives it; perfbench/README.md explains the design).
//
//   perfbench_tool gen --seed S --files N --edits E --out DIR
//       Writes the seed's generated corpus (DIR/gen/*.mir) and DIR/labels.json:
//       every file's known verdict (from the injection label, never from the
//       detectors), the buggy/benign twin texts of E edit candidates, and the
//       rule-id -> detector map.
//
//   perfbench_tool trace-check --root DIR... --edits FILE --work DIR
//   perfbench_tool trace-serve --root DIR --edits FILE
//   perfbench_tool trace-fuzz --seed S --iters N
//       Replays one scenario at jobs 1 through each layer's public
//       functions, recording spans (name, start, end, parent, operation id)
//       in memory. Prints one JSON object of per-layer metrics, derived from
//       span self times (a span's duration minus its children's), and writes
//       the spans as Chrome trace-event JSON to --spans at exit.
//
//===----------------------------------------------------------------------===//

#include "analysis/Link.h"
#include "corpus/CorpusWalk.h"
#include "detectors/Detector.h"
#include "diag/Lsp.h"
#include "diag/SourceManager.h"
#include "engine/Engine.h"
#include "interp/Interp.h"
#include "mir/Parser.h"
#include "mir/Snapshot.h"
#include "mir/Verifier.h"
#include "sched/ResultCache.h"
#include "sched/SummaryDb.h"
#include "serve/DocumentStore.h"
#include "serve/Server.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "testgen/Fuzz.h"
#include "testgen/Generator.h"
#include "testgen/Harness.h"
#include "testgen/Metamorph.h"
#include "testgen/Minimizer.h"
#include "testgen/Mutators.h"
#include "testgen/Oracles.h"
#include "vm/Lower.h"
#include "vm/Vm.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

using namespace rs;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// In-memory span recorder for one replayed scenario. The replay is single
/// threaded, so spans nest strictly: a span's parent is the span open when
/// it began.
class Tracer {
public:
  struct Span {
    std::string Name;
    double StartUs = 0;
    double EndUs = 0;
    int Parent = -1;
    uint64_t Op = 0; ///< Operation id shared by the spans of one request.
  };

  explicit Tracer(std::string Phase) : Phase(std::move(Phase)) {}

  int begin(std::string Name, uint64_t Op) {
    Spans.push_back({std::move(Name), nowUs(), 0, Open, Op});
    Open = static_cast<int>(Spans.size() - 1);
    return Open;
  }

  void end(int Id) {
    Spans[Id].EndUs = nowUs();
    Open = Spans[Id].Parent;
  }

  const std::string Phase;
  std::vector<Span> Spans;

private:
  static double nowUs() {
    static const Clock::time_point Epoch = Clock::now();
    return std::chrono::duration<double, std::micro>(Clock::now() - Epoch)
        .count();
  }

  int Open = -1;
};

class ScopedSpan {
public:
  ScopedSpan(Tracer &T, std::string Name, uint64_t Op = 0)
      : T(T), Id(T.begin(std::move(Name), Op)) {}
  ~ScopedSpan() { T.end(Id); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Tracer &T;
  int Id;
};

/// Per-span self time (us): duration minus its direct children's.
std::vector<double> selfUs(const Tracer &T) {
  std::vector<double> Self(T.Spans.size());
  for (size_t I = 0; I != T.Spans.size(); ++I)
    Self[I] = T.Spans[I].EndUs - T.Spans[I].StartUs;
  for (const Tracer::Span &S : T.Spans)
    if (S.Parent >= 0)
      Self[S.Parent] -= S.EndUs - S.StartUs;
  return Self;
}

/// Summed self time (ms) per span name over spans [From, end).
std::map<std::string, double> layerMs(const Tracer &T, size_t From = 0) {
  std::vector<double> Self = selfUs(T);
  std::map<std::string, double> Ms;
  for (size_t I = From; I < T.Spans.size(); ++I)
    Ms[T.Spans[I].Name] += Self[I] / 1000.0;
  return Ms;
}

double get(const std::map<std::string, double> &Ms, const std::string &Name) {
  auto It = Ms.find(Name);
  return It == Ms.end() ? 0 : It->second;
}

/// Median per-operation self time (ms) of spans named \p Name from span
/// \p From on; same-named spans of one operation are summed first.
double medianPerOp(const Tracer &T, const std::string &Name, size_t From) {
  std::vector<double> Self = selfUs(T);
  std::map<uint64_t, double> PerOp;
  for (size_t I = From; I < T.Spans.size(); ++I)
    if (T.Spans[I].Name == Name)
      PerOp[T.Spans[I].Op] += Self[I] / 1000.0;
  std::vector<double> V;
  for (const auto &[Op, Ms] : PerOp)
    V.push_back(Ms);
  return median(V);
}

void writeChromeTrace(const std::string &Path,
                      const std::vector<const Tracer *> &Tracers) {
  JsonWriter W;
  W.beginObject();
  W.key("traceEvents");
  W.beginArray();
  int64_t Pid = 0;
  for (const Tracer *T : Tracers) {
    ++Pid;
    W.beginObject();
    W.field("name", "process_name");
    W.field("ph", "M");
    W.field("pid", Pid);
    W.key("args");
    W.beginObject();
    W.field("name", T->Phase);
    W.endObject();
    W.endObject();
    for (size_t I = 0; I != T->Spans.size(); ++I) {
      const Tracer::Span &S = T->Spans[I];
      W.beginObject();
      W.field("name", S.Name);
      W.field("ph", "X");
      W.key("ts");
      W.value(S.StartUs);
      W.key("dur");
      W.value(S.EndUs - S.StartUs);
      W.field("pid", Pid);
      W.field("tid", int64_t(1));
      W.key("args");
      W.beginObject();
      W.field("id", int64_t(I));
      W.field("parent", int64_t(S.Parent));
      W.field("op", int64_t(S.Op));
      W.endObject();
      W.endObject();
    }
  }
  W.endArray();
  W.endObject();
  std::ofstream Out(Path, std::ios::binary);
  Out << W.str() << "\n";
}

/// Ordered name -> value metrics plus the operation tally, printed as one
/// JSON line.
class Report {
public:
  void set(std::string Name, double V) {
    Values.emplace_back(std::move(Name), V);
  }
  void attempt(bool Ok, const std::string &Error) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      Errors.push_back(Error);
    }
  }

  std::string render(const std::string &Digest = std::string()) const {
    JsonWriter W;
    W.beginObject();
    W.field("attempted", int64_t(Attempted));
    W.field("failed", int64_t(Failed));
    W.key("errors");
    W.beginArray();
    for (const std::string &E : Errors)
      W.value(E);
    W.endArray();
    if (!Digest.empty())
      W.field("digest", Digest);
    W.key("metrics");
    W.beginObject();
    for (const auto &[Name, V] : Values) {
      W.key(Name);
      W.value(V);
    }
    W.endObject();
    W.endObject();
    return W.str();
  }

private:
  std::vector<std::pair<std::string, double>> Values;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Errors;
};

//===----------------------------------------------------------------------===//
// Files and arguments
//===----------------------------------------------------------------------===//

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    throw std::runtime_error("cannot read " + Path);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

void writeFile(const fs::path &Path, std::string_view Text) {
  if (Path.has_parent_path())
    fs::create_directories(Path.parent_path());
  std::ofstream Out(Path, std::ios::binary);
  Out.write(Text.data(), static_cast<std::streamsize>(Text.size()));
  if (!Out)
    throw std::runtime_error("cannot write " + Path.string());
}

std::pair<uint64_t, uint64_t> diskUsage(const std::string &Dir) {
  uint64_t Files = 0, Bytes = 0;
  std::error_code Ec;
  for (const auto &E : fs::recursive_directory_iterator(Dir, Ec))
    if (E.is_regular_file()) {
      ++Files;
      Bytes += E.file_size();
    }
  return {Files, Bytes};
}

/// "--flag value" pairs; a repeated flag accumulates.
struct Args {
  std::map<std::string, std::vector<std::string>> Flags;

  Args(int Argc, char **Argv) {
    for (int I = 2; I < Argc; ++I) {
      std::string A = Argv[I];
      if (A.rfind("--", 0) != 0 || I + 1 >= Argc)
        throw std::runtime_error("bad argument: " + A);
      Flags[A.substr(2)].push_back(Argv[++I]);
    }
  }
  const std::vector<std::string> &all(const std::string &Name) const {
    auto It = Flags.find(Name);
    if (It == Flags.end())
      throw std::runtime_error("missing --" + Name);
    return It->second;
  }
  std::string str(const std::string &Name) const { return all(Name).back(); }
  uint64_t num(const std::string &Name) const {
    return std::stoull(str(Name));
  }
  bool has(const std::string &Name) const { return Flags.count(Name) != 0; }
};

/// An edit handed over by run.py: the file to rewrite, its new text, and
/// the known verdict the new text carries.
struct Edit {
  std::string Path;
  std::string Text;
  std::string Detector;
  bool Positive = false;
};

std::vector<Edit> loadEdits(const std::string &Path) {
  std::optional<JsonValue> Doc = JsonValue::parse(readFile(Path));
  if (!Doc || !Doc->isArray())
    throw std::runtime_error("edits file is not a JSON array: " + Path);
  std::vector<Edit> Out;
  for (const JsonValue &E : Doc->elements())
    Out.push_back({std::string(E.getString("path")),
                   std::string(E.getString("text")),
                   std::string(E.getString("detector")),
                   E.getBool("positive")});
  return Out;
}

//===----------------------------------------------------------------------===//
// gen: the seed's corpus and its known answers
//===----------------------------------------------------------------------===//

/// Generator seed of file \p I in the corpus of benchmark seed \p Seed.
/// Seed 0 gives `rustsight gen --seed N --mutated` for N = 1..files.
uint64_t fileSeed(uint64_t Seed, uint64_t I) { return Seed * 1000000 + I + 1; }

struct Planted {
  std::string Text;
  testgen::InjectedBug Label;
  std::vector<std::string> Added; ///< Functions the mutation planted.
};

/// The sweep module at \p ModSeed, built by testgen::sweepModuleText's
/// recipe but planted with the other twin when \p Flip. Nullopt for seeds
/// the sweep leaves clean.
std::optional<Planted> plant(uint64_t ModSeed, bool Flip) {
  testgen::GenConfig G;
  G.Seed = ModSeed;
  mir::Module M = testgen::ProgramGenerator(G).generate();
  std::set<std::string> Base;
  for (const auto &F : M.functions())
    Base.insert(F.Name);
  Rng R(ModSeed * 0x9E3779B97F4A7C15ull + 0x6d);
  uint64_t Roll = R.below(3);
  if (Roll == 0)
    return std::nullopt;
  testgen::Mutation Mu =
      testgen::allMutations()[R.below(testgen::NumMutations)];
  Planted P;
  P.Label = testgen::applyMutation(M, Mu, (Roll == 1) != Flip, 0, R);
  for (const auto &F : M.functions())
    if (!Base.count(F.Name))
      P.Added.push_back(F.Name);
  P.Text = M.toString();
  return P;
}

void writeNames(JsonWriter &W, const char *Key,
                const std::vector<std::string> &Names) {
  W.key(Key);
  W.beginArray();
  for (const std::string &N : Names)
    W.value(N);
  W.endArray();
}

int cmdGen(const Args &A) {
  uint64_t Seed = A.num("seed");
  uint64_t NumFiles = A.num("files");
  uint64_t NumEdits = A.num("edits");
  fs::path Out = A.str("out");
  testgen::SweepConfig SC;
  auto FileName = [](uint64_t I) {
    char Name[32];
    std::snprintf(Name, sizeof(Name), "gen/g%05llu.mir",
                  static_cast<unsigned long long>(I));
    return std::string(Name);
  };

  JsonWriter W;
  W.beginObject();
  W.key("files");
  W.beginArray();
  std::vector<uint64_t> Mutated;
  for (uint64_t I = 0; I != NumFiles; ++I) {
    std::optional<testgen::InjectedBug> Label;
    std::string Text = testgen::sweepModuleText(SC, fileSeed(Seed, I), &Label);
    writeFile(Out / FileName(I), Text);
    W.beginObject();
    W.field("path", FileName(I));
    W.field("detector", Label ? Label->Detector : std::string("*"));
    W.field("positive", Label ? Label->Positive : false);
    W.endObject();
    if (Label)
      Mutated.push_back(I);
  }
  W.endArray();

  // Edit candidates: a seed-ordered draw of mutated files, each with both
  // twins so run.py can flip it either way.
  Rng Pick(fnv1a64U64(Seed, 0x5eed5eedull));
  for (size_t I = Mutated.size(); I > 1; --I)
    std::swap(Mutated[I - 1], Mutated[Pick.below(I)]);
  if (Mutated.size() > NumEdits)
    Mutated.resize(NumEdits);
  W.key("edits");
  W.beginArray();
  for (uint64_t I : Mutated) {
    std::optional<Planted> Now = plant(fileSeed(Seed, I), false);
    std::optional<Planted> Twin = plant(fileSeed(Seed, I), true);
    if (!Now || !Twin ||
        Now->Text != testgen::sweepModuleText(SC, fileSeed(Seed, I)))
      throw std::runtime_error("twin recipe drifted from sweepModuleText");
    W.beginObject();
    W.field("path", FileName(I));
    W.field("detector", Now->Label.Detector);
    W.field("positive", Now->Label.Positive);
    writeNames(W, "names", Now->Added);
    W.field("twin", Twin->Text);
    writeNames(W, "twin_names", Twin->Added);
    W.endObject();
  }
  W.endArray();

  W.key("rules");
  W.beginObject();
  for (size_t I = 0; I != diag::numBugRules(); ++I) {
    const diag::RuleInfo &RI = diag::ruleInfo(static_cast<diag::RuleId>(I));
    W.field(RI.StringId, RI.Detector);
  }
  W.endObject();
  W.endObject();
  writeFile(Out / "labels.json", W.str());
  return 0;
}

//===----------------------------------------------------------------------===//
// trace-check: the linked and per-file check pipelines, layer by layer
//===----------------------------------------------------------------------===//

/// One `rustsight check` pass rebuilt from the layers' public functions,
/// following AnalysisEngine::analyzeCorpus (linked) and analyzeFileCached
/// (per-file). Each pass opens its own cache objects over the disk
/// directory, as a fresh process does. Every input must load cleanly — the
/// benchmark's corpora do; recovery paths are not replayed.
class CheckReplay {
public:
  struct PassStats {
    uint64_t CacheHits = 0, CacheMisses = 0, DiskHits = 0;
    uint64_t DbHits = 0, DbStores = 0;
    unsigned Rounds = 0;
    uint64_t Summarizations = 0;
    uint64_t Findings = 0;
  };

  CheckReplay(Tracer &T, std::vector<std::string> Roots, std::string CacheDir)
      : T(T), Roots(std::move(Roots)), CacheDir(std::move(CacheDir)) {
    std::vector<std::string> Names;
    for (const auto &D : detectors::makeAllDetectors()) {
      Names.emplace_back(D->name());
      SpanNames.push_back(std::string("detectors.") + D->name());
    }
    Salt = engine::cacheSalt(Opts, Names);
  }

  /// Runs one pass and returns its `--json` rendering.
  std::string pass(bool Linked, uint64_t PassNo, PassStats &PS) {
    ScopedSpan Root(T, "engine.pass", PassNo);
    std::vector<corpus::CorpusInput> Inputs;
    {
      ScopedSpan S(T, "corpus.walk", PassNo);
      Inputs = corpus::expandMirPaths(Roots);
    }
    sched::ResultCache::Options CO;
    CO.MaxMemoryEntries = Opts.CacheMaxEntries;
    CO.DiskDir = CacheDir;
    sched::ResultCache Cache(CO);
    sched::SummaryDb::Options DO;
    DO.DiskDir = CacheDir;
    sched::SummaryDb Db(DO);

    engine::CorpusReport Report;
    Report.Files.resize(Inputs.size());
    if (Linked)
      linkedPass(Inputs, Cache, Db, Report, PS);
    else
      for (size_t I = 0; I != Inputs.size(); ++I)
        Report.Files[I] = perFile(Cache, Inputs[I].Path, I, PS);

    sched::ResultCache::Stats CS = Cache.stats();
    PS.CacheHits += CS.Hits;
    PS.CacheMisses += CS.Misses;
    PS.DiskHits += CS.DiskHits;
    ScopedSpan S(T, "engine.render_json", PassNo);
    Report.finalize();
    return Report.renderJson() + "\n";
  }

private:
  std::string read(const std::string &Path, uint64_t Op) {
    ScopedSpan S(T, "engine.read", Op);
    return readFile(Path);
  }

  uint64_t fingerprint(std::string_view Source, uint64_t Op) {
    ScopedSpan S(T, "engine.fingerprint", Op);
    return engine::fingerprintSource(Source);
  }

  /// Snapshot fast path, else parse + verify + snapshot store.
  mir::Module load(sched::ResultCache &Cache, const std::string &Path,
                   std::string_view Source, uint64_t Fp, uint64_t Op) {
    uint64_t SnapKey = engine::snapshotCacheKey(Fp);
    std::optional<sched::ResultCache::BlobRef> Blob;
    {
      ScopedSpan S(T, "sched.lookup", Op);
      Blob = Cache.lookupBlobRef(SnapKey);
    }
    if (Blob) {
      ScopedSpan S(T, "mir.snapshot_read", Op);
      if (std::optional<mir::Module> M =
              mir::snapshot::read(Blob->bytes(), &Fp))
        return std::move(*M);
    }
    mir::ModuleParse P;
    {
      ScopedSpan S(T, "mir.parse", Op);
      P = mir::Parser::parseRecover(Source, Path);
    }
    if (!P.Errors.empty())
      throw std::runtime_error("replay needs clean inputs: " + Path);
    {
      ScopedSpan S(T, "mir.verify", Op);
      std::vector<Error> VErr;
      if (!mir::verifyModule(P.M, VErr))
        throw std::runtime_error("replay needs verified inputs: " + Path);
    }
    std::string Snap;
    {
      ScopedSpan S(T, "mir.snapshot_write", Op);
      Snap = mir::snapshot::write(P.M, Fp);
    }
    ScopedSpan S(T, "sched.store", Op);
    Cache.storeBlob(SnapKey, Snap);
    return std::move(P.M);
  }

  std::optional<engine::FileReport> lookupReport(sched::ResultCache &Cache,
                                                 uint64_t Key,
                                                 const std::string &Path,
                                                 uint64_t Op) {
    ScopedSpan S(T, "sched.lookup", Op);
    if (std::optional<std::string> Payload = Cache.lookup(Key))
      return engine::deserializeFileReport(*Payload, Path);
    return std::nullopt;
  }

  void storeReport(sched::ResultCache &Cache, uint64_t Key,
                   const engine::FileReport &R, uint64_t Op) {
    ScopedSpan S(T, "sched.store", Op);
    Cache.store(Key, engine::serializeFileReport(R));
  }

  /// The detector battery over one module (AnalysisEngine::runDetectors
  /// without budgets).
  engine::FileReport analyze(const mir::Module &M, const std::string &Path,
                             const analysis::ExternalSummaries *Env,
                             uint64_t Op, PassStats &PS) {
    detectors::AnalysisLimits Limits;
    Limits.MaxSummaryRounds = Opts.MaxSummaryRounds;
    Limits.External = Env && !Env->empty() ? Env : nullptr;
    std::optional<detectors::AnalysisContext> Ctx;
    {
      ScopedSpan S(T, "analysis.memory", Op);
      Ctx.emplace(M, Limits);
      for (const auto &F : M.functions())
        Ctx->memory(F);
    }
    engine::FileReport R;
    R.Path = Path;
    R.Status = engine::EngineStatus::Ok;
    detectors::DiagnosticEngine FileDiags;
    std::vector<std::unique_ptr<detectors::Detector>> Battery =
        detectors::makeAllDetectors();
    for (size_t I = 0; I != Battery.size(); ++I) {
      detectors::DiagnosticEngine DetDiags;
      {
        ScopedSpan S(T, SpanNames[I], Op);
        Battery[I]->run(*Ctx, DetDiags);
        DetDiags.sort();
      }
      engine::DetectorOutcome O;
      O.Name = Battery[I]->name();
      O.Findings = DetDiags.count();
      for (const detectors::Diagnostic &D : DetDiags.diagnostics())
        FileDiags.report(D);
      R.Detectors.push_back(std::move(O));
    }
    FileDiags.sort();
    R.Findings = FileDiags.take();
    PS.Findings += R.Findings.size();
    return R;
  }

  engine::FileReport perFile(sched::ResultCache &Cache,
                             const std::string &Path, uint64_t Op,
                             PassStats &PS) {
    std::string Source = read(Path, Op);
    uint64_t Fp = fingerprint(Source, Op);
    uint64_t Key = engine::cacheKey(Fp, Salt);
    if (std::optional<engine::FileReport> R =
            lookupReport(Cache, Key, Path, Op))
      return std::move(*R);
    mir::Module M = load(Cache, Path, Source, Fp, Op);
    engine::FileReport R = analyze(M, Path, nullptr, Op, PS);
    storeReport(Cache, Key, R, Op);
    return R;
  }

  void linkedPass(const std::vector<corpus::CorpusInput> &Inputs,
                  sched::ResultCache &Cache, sched::SummaryDb &Db,
                  engine::CorpusReport &Report, PassStats &PS) {
    // Phase A: load every module.
    std::vector<mir::Module> Mods;
    std::vector<uint64_t> Fps;
    for (size_t I = 0; I != Inputs.size(); ++I) {
      std::string Source = read(Inputs[I].Path, I);
      Fps.push_back(fingerprint(Source, I));
      Mods.push_back(load(Cache, Inputs[I].Path, Source, Fps.back(), I));
    }

    // Phase B: facts, link structure, solver.
    std::vector<analysis::ModuleFacts> Facts;
    for (size_t I = 0; I != Inputs.size(); ++I) {
      ScopedSpan S(T, "analysis.facts", I);
      Facts.push_back(analysis::collectModuleFacts(Mods[I], Inputs[I].Path));
    }
    analysis::LinkedCorpus Corpus = [&] {
      ScopedSpan S(T, "analysis.link_build");
      return analysis::LinkedCorpus::build(std::move(Facts));
    }();
    analysis::LinkOptions LO;
    LO.MaxSummaryRounds = Opts.MaxSummaryRounds;
    analysis::LinkDbHooks Hooks;
    Hooks.Lookup = [&](uint64_t K) {
      ScopedSpan S(T, "sched.lookup");
      return Db.lookup(K);
    };
    Hooks.Store = [&](uint64_t K, std::string_view P) {
      ScopedSpan S(T, "sched.store");
      Db.store(K, P);
    };
    analysis::SummarizeRoundFn Summarize =
        [&](const std::vector<uint32_t> &Idxs,
            const analysis::ExternalSummaries &Env) {
          std::vector<analysis::ModuleSummaries> Out;
          for (uint32_t MIdx : Idxs) {
            ScopedSpan S(T, "analysis.summarize", MIdx);
            ++PS.Summarizations;
            Out.push_back(analysis::summarizeLinkedModule(
                Mods[MIdx], MIdx, Env, Opts.MaxSummaryRounds));
          }
          return Out;
        };
    analysis::LinkResult LR = [&] {
      ScopedSpan S(T, "analysis.link_solve");
      return analysis::solveLink(std::move(Corpus), LO, Hooks, Summarize);
    }();
    PS.Rounds += LR.Stats.Rounds;
    PS.DbHits += LR.Stats.DbHits;
    PS.DbStores += LR.Stats.DbStores;

    // Phase C: every file against the converged environment.
    for (size_t I = 0; I != Inputs.size(); ++I) {
      uint64_t Digest = LR.Corpus.linkDigest(static_cast<uint32_t>(I));
      uint64_t Key = engine::cacheKey(Fps[I], Salt);
      if (Digest != 0)
        Key = fnv1a64U64(Digest, Key);
      if (std::optional<engine::FileReport> R =
              lookupReport(Cache, Key, Inputs[I].Path, I)) {
        Report.Files[I] = std::move(*R);
        continue;
      }
      Report.Files[I] = analyze(Mods[I], Inputs[I].Path, &LR.Env, I, PS);
      storeReport(Cache, Key, Report.Files[I], I);
    }
  }

  Tracer &T;
  std::vector<std::string> Roots;
  std::string CacheDir;
  engine::EngineOptions Opts; ///< The CLI defaults: no budgets, 8 rounds.
  std::vector<std::string> SpanNames;
  uint64_t Salt = 0;
};

/// AnalysisEngine::analyzeCorpus plus the render, untraced.
double untracedCheckMs(const std::vector<std::string> &Roots,
                       const std::string &CacheDir, unsigned Jobs,
                       std::string *JsonOut = nullptr) {
  engine::EngineOptions EO;
  EO.Jobs = Jobs;
  EO.CacheDir = CacheDir;
  Clock::time_point T0 = Clock::now();
  engine::AnalysisEngine E(EO);
  engine::CorpusReport R = E.analyzeCorpus(Roots);
  std::string Json = R.renderJson() + "\n";
  double Ms = msSince(T0);
  if (JsonOut)
    *JsonOut = std::move(Json);
  return Ms;
}

int cmdTraceCheck(const Args &A) {
  std::vector<std::string> Roots = A.all("root");
  fs::path Work = A.str("work");
  std::vector<Edit> Edits = loadEdits(A.str("edits"));
  std::string CacheDir = (Work / "replay_cache").string();
  fs::remove_all(CacheDir);
  Report Out;

  // Cold runs use the memory-only cache, like the check_cold workload (the
  // disk layer's cost on ext4 is the filesystem's; README.md).
  // Untraced baseline: AnalysisEngine::analyzeCorpus, jobs 1, the median of
  // one run before the traced replay and two after it.
  std::string UntracedJson;
  std::vector<double> UntracedMs = {
      untracedCheckMs(Roots, "", 1, &UntracedJson)};

  Tracer Cold("check_cold");
  CheckReplay ColdReplay(Cold, Roots, "");
  CheckReplay::PassStats CS;
  Clock::time_point T0 = Clock::now();
  std::string ColdJson = ColdReplay.pass(/*Linked=*/true, 0, CS);
  double ReplayMs = msSince(T0);
  Out.attempt(ColdJson == UntracedJson,
              "cold replay --json differs from analyzeCorpus");
  for (int R = 0; R != 2; ++R)
    UntracedMs.push_back(untracedCheckMs(Roots, "", 1));
  writeFile(Work / "replay_cold.json", ColdJson);

  // Populate the on-disk cache the incremental cycles start from.
  std::string PopulatedJson;
  untracedCheckMs(Roots, CacheDir, 4, &PopulatedJson);
  Out.attempt(PopulatedJson == ColdJson,
              "disk-cache cold run --json differs from the replay");
  auto [ColdFiles, ColdBytes] = diskUsage(CacheDir);

  std::map<std::string, double> L = layerMs(Cold);
  Out.set("mir.parse_ms", get(L, "mir.parse"));
  Out.set("mir.verify_ms", get(L, "mir.verify"));
  Out.set("mir.snapshot_write_ms", get(L, "mir.snapshot_write"));
  Out.set("analysis.memory_ms", get(L, "analysis.memory"));
  Out.set("analysis.summarize_ms", get(L, "analysis.summarize"));
  Out.set("analysis.link_solve_ms", get(L, "analysis.link_solve"));
  Out.set("analysis.link_rounds", CS.Rounds);
  Out.set("analysis.summarizations", double(CS.Summarizations));
  for (const auto &D : detectors::makeAllDetectors())
    Out.set(std::string("detectors.") + D->name() + "_ms",
            get(L, std::string("detectors.") + D->name()));
  Out.set("detectors.findings", double(CS.Findings));
  Out.set("sched.store_ms", get(L, "sched.store"));
  Out.set("sched.disk_files", double(ColdFiles));
  Out.set("sched.disk_bytes", double(ColdBytes));
  Out.set("engine.render_json_ms", get(L, "engine.render_json"));
  Out.set("engine.unattributed_ms", get(L, "engine.pass"));
  Out.set("engine.replay_cold_ms", ReplayMs);
  Out.set("engine.untraced_cold_ms", median(UntracedMs));
  Out.set("engine.trace_overhead_ratio", ReplayMs / median(UntracedMs));

  // Incremental cycles on the warm replay cache: unchanged linked re-run,
  // unchanged per-file re-run, then a linked re-run after one edit.
  Tracer Inc("check_incremental");
  CheckReplay IncReplay(Inc, Roots, CacheDir);
  CheckReplay::PassStats IS;
  uint64_t PassNo = 0;
  for (size_t C = 0; C != Edits.size(); ++C) {
    std::string Prefix = "replay_cycle" + std::to_string(C);
    writeFile(Work / (Prefix + "_warm.json"),
              IncReplay.pass(true, ++PassNo, IS));
    writeFile(Work / (Prefix + "_perfile.json"),
              IncReplay.pass(false, ++PassNo, IS));
    writeFile(Edits[C].Path, Edits[C].Text);
    writeFile(Work / (Prefix + "_edit.json"),
              IncReplay.pass(true, ++PassNo, IS));
  }
  auto [IncFiles, IncBytes] = diskUsage(CacheDir);
  double Cycles = Edits.empty() ? 1 : double(Edits.size());
  std::map<std::string, double> IL = layerMs(Inc);
  Out.set("mir.snapshot_read_ms", get(IL, "mir.snapshot_read") / Cycles);
  Out.set("analysis.facts_ms", get(IL, "analysis.facts") / Cycles);
  Out.set("analysis.link_build_ms", get(IL, "analysis.link_build") / Cycles);
  Out.set("sched.lookup_ms", get(IL, "sched.lookup") / Cycles);
  Out.set("sched.cache_hits", double(IS.CacheHits) / Cycles);
  Out.set("sched.cache_misses", double(IS.CacheMisses) / Cycles);
  Out.set("sched.disk_hits", double(IS.DiskHits) / Cycles);
  Out.set("sched.summarydb_hits", double(IS.DbHits) / Cycles);
  Out.set("sched.summarydb_stores", double(IS.DbStores) / Cycles);
  Out.set("sched.disk_files_per_edit",
          (double(IncFiles) - double(ColdFiles)) / Cycles);
  Out.set("sched.disk_bytes_per_edit",
          (double(IncBytes) - double(ColdBytes)) / Cycles);
  Out.set("engine.fingerprint_ms", get(IL, "engine.fingerprint") / Cycles);
  Out.set("engine.read_ms", get(IL, "engine.read") / Cycles);
  Out.set("corpus.walk_ms", get(IL, "corpus.walk") / Cycles);
  Out.set("engine.unattributed_cycle_ms", get(IL, "engine.pass") / Cycles);

  // Warm linked scaling: analyzeCorpus at jobs 1 and jobs 4,
  // interleaved, medians of three.
  std::vector<double> J1, J4;
  for (int R = 0; R != 3; ++R) {
    J1.push_back(untracedCheckMs(Roots, CacheDir, 1));
    J4.push_back(untracedCheckMs(Roots, CacheDir, 4));
  }
  Out.set("engine.warm_jobs1_ms", median(J1));
  Out.set("engine.warm_jobs4_ms", median(J4));
  Out.set("engine.jobs4_speedup", median(J1) / median(J4));

  if (A.has("spans"))
    writeChromeTrace(A.str("spans"), {&Cold, &Inc});
  std::printf("%s\n", Out.render().c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// trace-serve: one editor session against the resident Session
//===----------------------------------------------------------------------===//

std::string rpc(const std::string &Method, const std::string &ParamsJson,
                int64_t Id = -1) {
  std::string S = "{\"jsonrpc\":\"2.0\",";
  if (Id >= 0)
    S += "\"id\":" + std::to_string(Id) + ",";
  return S + "\"method\":\"" + Method + "\",\"params\":" + ParamsJson + "}";
}

std::string docParams(const std::string &Path, int64_t Version,
                      const std::string &Text, bool Open) {
  JsonWriter W;
  W.beginObject();
  W.key("textDocument");
  W.beginObject();
  W.field("uri", serve::pathToUri(Path));
  W.field("version", Version);
  if (Open) {
    W.field("languageId", "mir");
    W.field("text", Text);
  }
  W.endObject();
  if (!Open) {
    W.key("contentChanges");
    W.beginArray();
    W.beginObject();
    W.field("text", Text);
    W.endObject();
    W.endArray();
  }
  W.endObject();
  return W.str();
}

/// The publishDiagnostics notification serve::Server queues for \p Path
/// (empty when the session has no report for it). serve::Server keeps its
/// renderer private, so this is a copy; cmdTraceServe checks every payload
/// it renders byte for byte against a second Server's own publishes.
std::string renderPublish(serve::Session &S, const std::string &Path) {
  const engine::FileReport *R = S.report(Path);
  if (!R)
    return std::string();
  JsonWriter W;
  W.beginObject();
  W.field("uri", serve::pathToUri(Path));
  if (S.documents().isOpen(Path)) {
    W.key("version");
    W.value(S.documents().version(Path));
  }
  W.key("diagnostics");
  W.beginArray();
  const diag::SourceManager *SM = &S.sources();
  auto Emit = [&](const diag::Diagnostic &D) {
    W.beginObject();
    W.key("range");
    diag::writeLspRange(W, D.Loc, SM);
    W.key("severity");
    W.value(static_cast<int64_t>(diag::lspSeverity(D.Sev)));
    W.field("code", diag::ruleStringId(D.Kind));
    W.field("source", "rustsight");
    W.field("message", D.Message);
    if (!D.Secondary.empty()) {
      W.key("relatedInformation");
      W.beginArray();
      for (const diag::Span &Sp : D.Secondary) {
        W.beginObject();
        W.key("location");
        W.beginObject();
        const std::string &File = Sp.Loc.file();
        W.field("uri", serve::pathToUri(File.empty() ? Path : File));
        W.key("range");
        diag::writeLspRange(W, Sp.Loc, SM);
        W.endObject();
        W.field("message", Sp.Function.empty()
                               ? Sp.Label
                               : Sp.Label + " (in " + Sp.Function + ")");
        W.endObject();
      }
      W.endArray();
    }
    W.key("data");
    W.beginObject();
    W.field("fingerprint", D.fingerprintHex());
    if (!D.Fixes.empty()) {
      W.key("fixes");
      W.beginArray();
      for (const diag::FixIt &F : D.Fixes) {
        W.beginObject();
        W.field("description", F.Description);
        W.field("line", static_cast<int64_t>(F.Loc.line()));
        W.field("replacement", F.Replacement);
        W.endObject();
      }
      W.endArray();
    }
    W.endObject();
    W.endObject();
  };
  for (const diag::Diagnostic &D : R->ParseErrors)
    Emit(D);
  for (const diag::Diagnostic &D : R->VerifierErrors)
    Emit(D);
  for (const diag::Diagnostic &D : R->Notices)
    Emit(D);
  for (const diag::Diagnostic &D : R->Findings)
    Emit(D);
  for (const diag::Diagnostic &D : R->statusDiagnostics())
    Emit(D);
  W.endArray();
  W.endObject();
  return serve::makeNotification("textDocument/publishDiagnostics", W.str());
}

/// The publishDiagnostics payloads among \p Outgoing, in order.
std::vector<std::string> publishes(std::vector<std::string> Outgoing) {
  std::vector<std::string> Out;
  for (std::string &P : Outgoing)
    if (P.find("\"method\":\"textDocument/publishDiagnostics\"") !=
        std::string::npos)
      Out.push_back(std::move(P));
  return Out;
}

bool detectorFired(const engine::FileReport &R, const std::string &Detector) {
  for (const diag::Diagnostic &D : R.Findings)
    if (Detector == diag::ruleInfo(D.Kind).Detector)
      return true;
  return false;
}

int cmdTraceServe(const Args &A) {
  std::vector<Edit> Edits = loadEdits(A.str("edits"));
  Report Out;

  serve::ServerOptions SO;
  SO.Session.Roots = {A.str("root")};
  serve::Server Srv(SO);
  serve::Session &Sess = Srv.session();
  Srv.handleMessage(rpc("initialize", "{}", 1));
  Srv.takeOutgoing();
  // The twin takes the same messages untraced through the Server's own
  // flush, so the replay's rendered payloads can be checked against it.
  serve::Server Twin(SO);
  Twin.handleMessage(rpc("initialize", "{}", 1));
  Twin.takeOutgoing();
  auto CheckRendered = [&](const std::vector<std::string> &Rendered,
                           const std::string &What) {
    Out.attempt(Rendered == publishes(Twin.takeOutgoing()),
                "rendered publishDiagnostics differ from serve::Server's " +
                    What);
  };

  Tracer T("serve_edit");
  std::vector<std::string> Rendered;
  {
    ScopedSpan Root(T, "serve.initial", 0);
    std::vector<std::string> Paths;
    {
      ScopedSpan S(T, "serve.initial_analyze", 0);
      Paths = Sess.analyzeAll();
    }
    ScopedSpan S(T, "diag.lsp_render", 0);
    for (const std::string &P : Paths)
      if (std::string Pub = renderPublish(Sess, P); !Pub.empty())
        Rendered.push_back(std::move(Pub));
  }
  Twin.handleMessage(rpc("initialized", "{}"));
  CheckRendered(Rendered, "initial publish");
  std::map<std::string, double> Initial = layerMs(T);
  size_t EditFrom = T.Spans.size();

  std::map<std::string, int64_t> Versions;
  uint64_t Analyses = 0, Revalidations = 0;
  for (size_t K = 0; K != Edits.size(); ++K) {
    const Edit &E = Edits[K];
    if (!Versions.count(E.Path)) {
      // Open the document with its current bytes first, outside the timed
      // edit, as the end-to-end client does.
      std::string Open = rpc("textDocument/didOpen",
                             docParams(E.Path, 1, readFile(E.Path), true));
      Srv.handleMessage(Open);
      Sess.refresh();
      Srv.takeOutgoing();
      Twin.handleMessage(Open);
      Twin.flushPending();
      Twin.takeOutgoing();
      Versions[E.Path] = 1;
    }
    int64_t Version = ++Versions[E.Path];
    std::string Change = rpc("textDocument/didChange",
                             docParams(E.Path, Version, E.Text, false));
    uint64_t AnalysesBefore = Sess.totalAnalyses();
    std::map<std::string, uint64_t> RevalBefore;
    for (const std::string &P : Sess.paths())
      RevalBefore[P] = Sess.fileStats(P).Revalidations;
    Rendered.clear();
    {
      ScopedSpan Root(T, "serve.edit", K + 1);
      {
        ScopedSpan S(T, "serve.handle", K + 1);
        Srv.handleMessage(Change);
      }
      std::vector<std::string> Affected;
      {
        ScopedSpan S(T, "serve.refresh", K + 1);
        Affected = Sess.refresh();
      }
      ScopedSpan S(T, "diag.lsp_render", K + 1);
      for (const std::string &P : Affected)
        if (std::string Pub = renderPublish(Sess, P); !Pub.empty())
          Rendered.push_back(std::move(Pub));
    }
    Srv.takeOutgoing();
    Twin.handleMessage(Change);
    Twin.flushPending();
    CheckRendered(Rendered, "after the edit of " + E.Path);
    Analyses += Sess.totalAnalyses() - AnalysesBefore;
    for (const std::string &P : Sess.paths())
      Revalidations += Sess.fileStats(P).Revalidations - RevalBefore[P];
    const engine::FileReport *R = Sess.report(E.Path);
    Out.attempt(R && detectorFired(*R, E.Detector) == E.Positive,
                "serve replay verdict wrong after edit of " + E.Path);
  }

  double N = Edits.empty() ? 1 : double(Edits.size());
  Out.set("serve.initial_analyze_ms", get(Initial, "serve.initial_analyze"));
  Out.set("serve.initial_render_ms", get(Initial, "diag.lsp_render"));
  Out.set("serve.refresh_ms", medianPerOp(T, "serve.refresh", EditFrom));
  Out.set("serve.handle_ms", medianPerOp(T, "serve.handle", EditFrom));
  Out.set("diag.lsp_render_ms", medianPerOp(T, "diag.lsp_render", EditFrom));
  Out.set("serve.unattributed_ms", medianPerOp(T, "serve.edit", EditFrom));
  Out.set("serve.analyses_per_edit", double(Analyses) / N);
  Out.set("serve.revalidations_per_edit", double(Revalidations) / N);

  if (A.has("spans"))
    writeChromeTrace(A.str("spans"), {&T});
  std::printf("%s\n", Out.render().c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// trace-fuzz: the coverage-guided loop of testgen/Fuzz.cpp, serially
//===----------------------------------------------------------------------===//

// Candidate derivation and the merge follow testgen/Fuzz.cpp step for step,
// so the replay's digest equals `rustsight fuzz`'s for the same seed and
// budget; run.py checks that.

constexpr size_t FuzzBatch = 32;

bool isMemorySafetyTrap(interp::TrapKind K) {
  switch (K) {
  case interp::TrapKind::UseAfterFree:
  case interp::TrapKind::UseAfterScope:
  case interp::TrapKind::DoubleFree:
  case interp::TrapKind::InvalidFree:
  case interp::TrapKind::UninitRead:
    return true;
  default:
    return false;
  }
}

int64_t tweakedConstant(int64_t Old, Rng &R) {
  uint64_t U = static_cast<uint64_t>(Old);
  switch (R.below(9)) {
  case 0: return 0;
  case 1: return 1;
  case 2: return 2;
  case 3: return 5;
  case 4: return 17;
  case 5: return 100;
  case 6: return static_cast<int64_t>(U + 1);
  case 7: return static_cast<int64_t>(U ^ 1);
  default: return static_cast<int64_t>(~U + 1);
  }
}

void tweakConstant(mir::Module &M, Rng &R) {
  std::vector<mir::Operand *> Consts;
  auto Collect = [&Consts](mir::Operand &O) {
    if (O.K == mir::Operand::Kind::Const &&
        O.C.K == mir::ConstValue::Kind::Int)
      Consts.push_back(&O);
  };
  for (auto &Fn : M.functions())
    for (mir::BasicBlock &B : Fn.Blocks) {
      for (mir::Statement &S : B.Statements)
        for (mir::Operand &O : S.RV.Ops)
          Collect(O);
      Collect(B.Term.Discr);
      for (mir::Operand &O : B.Term.Args)
        Collect(O);
    }
  if (Consts.empty())
    return;
  mir::Operand *O = Consts[R.below(Consts.size())];
  O->C.Int = tweakedConstant(O->C.Int, R);
}

void swapBinOp(mir::Module &M, Rng &R) {
  std::vector<mir::Rvalue *> Binaries;
  for (auto &Fn : M.functions())
    for (mir::BasicBlock &B : Fn.Blocks)
      for (mir::Statement &S : B.Statements)
        if (S.K == mir::Statement::Kind::Assign &&
            S.RV.K == mir::Rvalue::Kind::BinaryOp)
          Binaries.push_back(&S.RV);
  if (Binaries.empty())
    return;
  constexpr unsigned NumBinOps = 17;
  Binaries[R.below(Binaries.size())]->BOp =
      static_cast<mir::BinOp>(R.below(NumBinOps));
}

void deleteStatement(mir::Module &M, Rng &R) {
  std::vector<std::pair<mir::BasicBlock *, size_t>> Sites;
  for (auto &Fn : M.functions())
    for (mir::BasicBlock &B : Fn.Blocks)
      for (size_t I = 0; I != B.Statements.size(); ++I)
        Sites.push_back({&B, I});
  if (Sites.empty())
    return;
  auto [Block, Index] = Sites[R.below(Sites.size())];
  Block->Statements.erase(Block->Statements.begin() +
                          static_cast<ptrdiff_t>(Index));
}

class FuzzReplay {
public:
  FuzzReplay(Tracer &T, uint64_t Seed) : T(T), Seed(Seed) {}

  /// The fuzz loop of testgen::runFuzz at jobs 1.
  void run(uint64_t Iterations) {
    std::set<uint64_t> Covered;
    std::vector<std::string> CorpusTexts;
    Digest = Fnv1a64OffsetBasis;
    while (Candidates < Iterations) {
      size_t N = static_cast<size_t>(
          std::min<uint64_t>(FuzzBatch, Iterations - Candidates));
      std::vector<std::pair<std::string, Result>> Batch;
      for (size_t I = 0; I != N; ++I) {
        std::string Text = derive(CorpusTexts, Candidates + I);
        Result R = evaluate(Text, Candidates + I);
        Batch.emplace_back(std::move(Text), std::move(R));
      }
      for (size_t I = 0; I != N; ++I) {
        const auto &[Text, R] = Batch[I];
        uint64_t Op = Candidates + I;
        Digest = fnv1a64(Text, Digest);
        Digest = fnv1a64("\n--\n", Digest);
        Violations += R.ParityFailed;
        if (!R.Parsed)
          continue;
        std::vector<uint64_t> NewKeys;
        for (uint64_t K : R.Keys)
          if (!Covered.count(K))
            NewKeys.push_back(K);
        if (NewKeys.empty())
          continue;
        std::string Admitted;
        {
          ScopedSpan S(T, "testgen.minimize", Op);
          Admitted = testgen::minimizeModuleText(
              Text, [&](const std::string &Cand) {
                ++MinimizeEvals;
                Result Shrunk = evaluate(Cand, Op);
                return Shrunk.Parsed &&
                       std::includes(Shrunk.Keys.begin(), Shrunk.Keys.end(),
                                     NewKeys.begin(), NewKeys.end());
              });
        }
        Result Final = evaluate(Admitted, Op);
        Covered.insert(Final.Keys.begin(), Final.Keys.end());
        CorpusTexts.push_back(std::move(Admitted));
        ++Admissions;
      }
      Candidates += N;
    }
    Edges = Covered.size();
  }

  uint64_t Digest = 0;
  uint64_t Candidates = 0;
  uint64_t Admissions = 0;
  uint64_t MinimizeEvals = 0;
  uint64_t Violations = 0;
  uint64_t Edges = 0;

private:
  struct Result {
    bool Parsed = false;
    std::vector<uint64_t> Keys;
    bool ParityFailed = false;
  };

  Result evaluate(const std::string &Text, uint64_t Op) {
    Result R;
    std::optional<mir::Module> M;
    {
      ScopedSpan S(T, "testgen.parse", Op);
      auto P = mir::Parser::parse(Text, "<fuzz>");
      if (P)
        M = P.take();
    }
    if (!M)
      return R;
    R.Parsed = true;
    std::optional<vm::Program> Prog;
    {
      ScopedSpan S(T, "vm.compile", Op);
      Prog.emplace(vm::compile(*M));
    }
    bool MemTrap = false;
    {
      ScopedSpan S(T, "vm.run", Op);
      vm::Vm::Options VO;
      VO.StepLimit = testgen::FuzzConfig().StepLimit;
      vm::Vm V(*Prog, VO);
      for (const auto &Fn : M->functions()) {
        interp::ExecResult E = V.run(Fn.Name);
        if (!E.Ok && E.Error && isMemorySafetyTrap(E.Error->Kind))
          MemTrap = true;
      }
      R.Keys = V.coveredKeys();
    }
    if (MemTrap) {
      ScopedSpan S(T, "interp.parity", Op);
      R.ParityFailed = !testgen::checkVmParity(*M).Ok;
    }
    return R;
  }

  std::string derive(const std::vector<std::string> &Corpus,
                     uint64_t Ordinal) {
    ScopedSpan S(T, "testgen.candidate", Ordinal);
    Rng R(fnv1a64U64(Ordinal, Seed ^ 0xf022bade5eedull));
    auto Fresh = [&] {
      return testgen::sweepModuleText(testgen::SweepConfig(), R.next());
    };
    if (Corpus.empty())
      return Fresh();
    const std::string &Pick = Corpus[R.below(Corpus.size())];
    auto PickParsed = [&]() {
      auto P = mir::Parser::parse(Pick, "<fuzz-pick>");
      return P ? std::optional<mir::Module>(P.take()) : std::nullopt;
    };
    switch (R.below(8)) {
    case 0:
      return Fresh();
    case 1:
    case 2: {
      auto M = PickParsed();
      if (!M)
        return Pick;
      testgen::Mutation Mu =
          testgen::allMutations()[R.below(testgen::NumMutations)];
      testgen::applyMutation(*M, Mu, R.below(2) == 0,
                             static_cast<unsigned>(1000 + Ordinal), R);
      return M->toString();
    }
    case 3: {
      auto M = PickParsed();
      if (!M)
        return Pick;
      testgen::permuteBlocks(*M, R.next());
      return M->toString();
    }
    case 4: {
      auto M = PickParsed();
      if (!M)
        return Pick;
      tweakConstant(*M, R);
      return M->toString();
    }
    case 5: {
      auto M = PickParsed();
      if (!M)
        return Pick;
      swapBinOp(*M, R);
      return M->toString();
    }
    case 6: {
      auto M = PickParsed();
      if (!M)
        return Pick;
      deleteStatement(*M, R);
      return M->toString();
    }
    default: {
      const std::string &Donor = Corpus[R.below(Corpus.size())];
      auto D = mir::Parser::parse(Donor, "<fuzz-donor>");
      if (!D)
        return Pick;
      mir::Module DM = D.take();
      std::string Fns;
      for (const auto &Fn : DM.functions())
        Fns += Fn.toString() + "\n";
      return Pick + "\n" +
             testgen::renameFunctionsInText(Fns, DM,
                                            "__x" + std::to_string(Ordinal));
    }
    }
  }

  Tracer &T;
  uint64_t Seed;
};

int cmdTraceFuzz(const Args &A) {
  Tracer T("fuzz");
  FuzzReplay F(T, A.num("seed"));
  Clock::time_point T0 = Clock::now();
  F.run(A.num("iters"));
  double WallMs = msSince(T0);
  std::map<std::string, double> L = layerMs(T);
  Report Out;
  Out.attempt(F.Violations == 0,
              std::to_string(F.Violations) + " vm-parity violation(s)");
  Out.set("testgen.candidate_ms", get(L, "testgen.candidate"));
  Out.set("testgen.parse_ms", get(L, "testgen.parse"));
  Out.set("testgen.minimize_ms", get(L, "testgen.minimize"));
  Out.set("testgen.minimize_evals", double(F.MinimizeEvals));
  Out.set("testgen.candidates", double(F.Candidates));
  Out.set("testgen.admitted", double(F.Admissions));
  Out.set("testgen.admitted_ratio",
          double(F.Admissions) / double(std::max<uint64_t>(F.Candidates, 1)));
  Out.set("testgen.edges", double(F.Edges));
  Out.set("testgen.replay_ms", WallMs);
  Out.set("vm.compile_ms", get(L, "vm.compile"));
  Out.set("vm.run_ms", get(L, "vm.run"));
  Out.set("interp.parity_ms", get(L, "interp.parity"));
  if (A.has("spans"))
    writeChromeTrace(A.str("spans"), {&T});
  std::printf("%s\n", Out.render(hashToHex(F.Digest)).c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    std::fprintf(stderr, "usage: perfbench_tool gen|trace-check|trace-serve|"
                         "trace-fuzz --flag value...\n");
    return 2;
  }
  std::string Cmd = Argv[1];
  try {
    Args A(Argc, Argv);
    if (Cmd == "gen")
      return cmdGen(A);
    if (Cmd == "trace-check")
      return cmdTraceCheck(A);
    if (Cmd == "trace-serve")
      return cmdTraceServe(A);
    if (Cmd == "trace-fuzz")
      return cmdTraceFuzz(A);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench_tool %s: %s\n", Cmd.c_str(), E.what());
    return 2;
  }
  std::fprintf(stderr, "perfbench_tool: unknown command '%s'\n", Cmd.c_str());
  return 2;
}
