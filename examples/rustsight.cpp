//===----------------------------------------------------------------------===//
//
// rustsight: the unified command-line driver over the whole library.
//
//   rustsight check  <file.mir ...>   static detectors (add --json)
//   rustsight run    <file.mir ...>   dynamic interpretation with traps
//   rustsight lifetimes <file.mir..>  annotated lifetime/lock report
//   rustsight print  <file.mir ...>   parse and pretty-print (format check)
//   rustsight scan   <path ...>       unsafe-usage statistics for Rust code
//   rustsight eval   <corpus-dir>     detector precision/recall/F1 against
//                                     the corpus's manifest.json labels
//   rustsight gen    [--seed N | --sweep N | --emit-eval-corpus <dir>]
//                                     generate programs / run oracle sweeps
//   rustsight fuzz   [--fuzz-seed N --fuzz-iters N --corpus-dir <dir>]
//                                     coverage-guided fuzzing on the VM
//   rustsight serve  [roots...]       resident LSP daemon over stdio with
//                                     incremental re-analysis
//   rustsight --version               version / schema / rule-count banner
//
// check runs through the resilient AnalysisEngine: malformed or
// budget-busting files are quarantined with a per-file status instead of
// aborting the batch. Exit codes for check (docs/RESILIENCE.md): 0 analyzed
// clean, 1 findings reported, 2 nothing analyzable (or --strict violation).
//
//===----------------------------------------------------------------------===//

#include "analysis/LifetimeReport.h"
#include "detectors/Detectors.h"
#include "diag/Baseline.h"
#include "diag/SourceManager.h"
#include "engine/Engine.h"
#include "engine/Supervisor.h"
#include "interp/Interp.h"
#include "mir/Parser.h"
#include "mir/Verifier.h"
#include "scanner/UnsafeScanner.h"
#include "diag/Version.h"
#include "serve/Server.h"
#include "support/StringUtils.h"
#include "support/Subprocess.h"
#include "testgen/EvalCorpus.h"
#include "testgen/Fuzz.h"
#include "testgen/Harness.h"
#include "testgen/Scorecard.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>

using namespace rs;
using namespace rs::mir;

namespace {

std::optional<std::string> readFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return std::nullopt;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

std::optional<Module> parseFile(const std::string &Path) {
  auto Source = readFile(Path);
  if (!Source) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Path.c_str());
    return std::nullopt;
  }
  auto R = Parser::parse(*Source, Path);
  if (!R) {
    std::fprintf(stderr, "parse error: %s\n", R.error().toString().c_str());
    return std::nullopt;
  }
  std::vector<std::string> Errors;
  if (!verifyModule(*R, Errors)) {
    for (const std::string &E : Errors)
      std::fprintf(stderr, "verifier: %s\n", E.c_str());
    return std::nullopt;
  }
  return R.take();
}

/// Options for the resilient check pipeline, parsed from the command line.
struct CheckOptions {
  engine::EngineOptions Engine;
  std::string Format = "text"; ///< "text", "json", or "sarif".
  bool Strict = false;

  /// Process-level supervision (docs/RESILIENCE.md): any of --shards,
  /// --isolate=process, or --resume routes check through the Supervisor
  /// instead of the in-process corpus driver. Output is byte-identical
  /// either way.
  std::string Isolate = "none"; ///< "none" or "process".
  unsigned Shards = 0;          ///< Worker shard count (0 = worker slots).
  uint64_t TimeoutMs = 0;       ///< Per-shard watchdog (0 = none).
  unsigned MaxRetries = 2;      ///< Attempts before quarantine/bisect.
  std::string CheckpointPath;   ///< Journal ("" = <cache-dir> default).
  bool Resume = false;

  bool json() const { return Format == "json"; }
  bool supervised() const {
    return Shards != 0 || Isolate == "process" || Resume;
  }
};

/// Options for check/eval baselines, parsed from the command line. For
/// check these name finding-fingerprint baselines (docs/DIAGNOSTICS.md);
/// for eval they name F1 scorecard baselines.
struct EvalOptions {
  std::string Baseline;
  std::string WriteBaseline;
};

int cmdCheck(const std::vector<std::string> &Files, const CheckOptions &Opts,
             const EvalOptions &Eval, const char *Argv0) {
  engine::CorpusReport Report;
  if (Opts.supervised()) {
    engine::SupervisorOptions SO;
    SO.Engine = Opts.Engine;
    SO.Shards = Opts.Shards;
    SO.MaxWorkers = Opts.Engine.Jobs;
    SO.TimeoutMs = Opts.TimeoutMs;
    SO.MaxRetries = Opts.MaxRetries;
    SO.WorkerExe = proc::currentExecutablePath(Argv0);
    SO.CheckpointPath = Opts.CheckpointPath;
    if (SO.CheckpointPath.empty() && !Opts.Engine.CacheDir.empty())
      SO.CheckpointPath = Opts.Engine.CacheDir + "/rs-checkpoint.json";
    SO.Resume = Opts.Resume;
    engine::Supervisor S(std::move(SO));
    Report = S.run(Files);
  } else {
    engine::AnalysisEngine E(Opts.Engine);
    Report = E.analyzeCorpus(Files);
  }

  // The baseline flow: record the full current state first, then drop the
  // previously-accepted findings so only new ones render and gate the exit
  // code.
  if (!Eval.WriteBaseline.empty()) {
    std::string Err;
    if (!engine::collectBaseline(Report).writeFile(Eval.WriteBaseline, Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 2;
    }
  }
  if (!Eval.Baseline.empty()) {
    diag::Baseline B;
    std::string Err;
    if (!diag::Baseline::loadFile(Eval.Baseline, B, Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 2;
    }
    engine::applyBaseline(Report, B);
  }

  if (Opts.Format == "json") {
    std::printf("%s\n", Report.renderJson().c_str());
  } else if (Opts.Format == "sarif") {
    std::printf("%s\n", Report.renderSarif().c_str());
  } else {
    diag::SourceManager SM; // Lazily loads the analyzed files for snippets.
    std::printf("%s", Report.renderText(&SM).c_str());
  }
  // Stats go to stderr so stdout stays byte-identical across job counts
  // and cold/warm caches.
  std::fprintf(stderr, "%s\n", Report.Stats.renderLine().c_str());
  return Report.exitCode(Opts.Strict);
}

struct GenOptions {
  uint64_t Seed = 1;
  uint64_t Sweep = 0;          ///< Seed count; unset = print one module.
  bool SweepSet = false;       ///< --sweep given explicitly (0 is an error).
  uint64_t SeedStart = 1;
  bool Mutated = false;        ///< Print the sweep's (possibly mutated) text.
  std::string RegressDir;      ///< Where sweep violations write repros.
  std::string EmitEvalCorpus;  ///< Regenerate the labeled corpus here.
};

int cmdEval(const std::vector<std::string> &Inputs, const CheckOptions &Check,
            const EvalOptions &Opts) {
  if (Inputs.size() != 1) {
    std::fprintf(stderr, "error: eval takes exactly one corpus directory\n");
    return 2;
  }
  const std::string &Dir = Inputs.front();
  std::string Error;
  auto Man = testgen::loadManifest(Dir + "/manifest.json", &Error);
  if (!Man) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 2;
  }

  engine::AnalysisEngine E(Check.Engine);
  engine::CorpusReport Report = E.analyzeCorpus({Dir});
  testgen::Scorecard Card = testgen::scoreReport(Report, *Man);

  if (Check.json())
    std::printf("%s\n", Card.renderJson().c_str());
  else
    std::printf("%s", Card.renderText().c_str());
  // Like check: timings/cache stats go to stderr so stdout is byte-stable.
  std::fprintf(stderr, "%s\n", Report.Stats.renderLine().c_str());

  if (!Opts.WriteBaseline.empty()) {
    std::ofstream Out(Opts.WriteBaseline);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write baseline '%s'\n",
                   Opts.WriteBaseline.c_str());
      return 2;
    }
    Out << Card.renderBaselineJson() << "\n";
  }

  if (!Opts.Baseline.empty()) {
    auto Text = readFile(Opts.Baseline);
    if (!Text) {
      std::fprintf(stderr, "error: cannot read baseline '%s'\n",
                   Opts.Baseline.c_str());
      return 2;
    }
    std::vector<std::string> Regressions =
        testgen::compareToBaseline(Card, *Text);
    for (const std::string &R : Regressions)
      std::fprintf(stderr, "baseline regression: %s\n", R.c_str());
    if (!Regressions.empty())
      return 1;
  }
  return 0;
}

int cmdGen(const CheckOptions &Check, const GenOptions &Opts) {
  if (Opts.SweepSet && Opts.Sweep == 0) {
    std::fprintf(stderr,
                 "error: --sweep 0 runs no seeds and verifies nothing\n");
    return 2;
  }
  if (!Opts.EmitEvalCorpus.empty()) {
    size_t N = testgen::writeEvalCorpus(Opts.EmitEvalCorpus);
    std::fprintf(stderr, "wrote %zu labeled cases to %s\n", N,
                 Opts.EmitEvalCorpus.c_str());
    return 0;
  }
  if (Opts.Sweep != 0) {
    testgen::SweepConfig C;
    C.SeedStart = Opts.SeedStart;
    C.SeedCount = Opts.Sweep;
    C.Jobs = Check.Engine.Jobs;
    C.RegressDir = Opts.RegressDir;
    testgen::SweepReport Report = testgen::runSweep(C);
    std::printf("%s", Report.renderText().c_str());
    return Report.clean() ? 0 : 1;
  }
  if (Opts.Mutated) {
    testgen::SweepConfig C;
    std::printf("%s", testgen::sweepModuleText(C, Opts.Seed).c_str());
    return 0;
  }
  testgen::GenConfig G;
  G.Seed = Opts.Seed;
  std::printf("%s", testgen::ProgramGenerator(G).generate().toString().c_str());
  return 0;
}

/// `rustsight fuzz`: coverage-guided fuzzing of the interpreter pair on
/// the bytecode VM, with a persisted novelty corpus and drift oracles.
struct FuzzCliOptions {
  uint64_t FuzzSeed = 1;
  uint64_t FuzzIters = 1000;
  std::string CorpusDir;
  bool NoMinimize = false;
  bool Replay = false; ///< Re-run a persisted corpus instead of fuzzing.
};

int cmdFuzz(const CheckOptions &Check, const FuzzCliOptions &Opts) {
  if (Opts.FuzzIters == 0) {
    std::fprintf(stderr,
                 "error: --fuzz-iters 0 runs no candidates and verifies "
                 "nothing\n");
    return 2;
  }
  testgen::FuzzConfig C;
  C.Seed = Opts.FuzzSeed;
  C.Iterations = Opts.FuzzIters;
  // 0 = the CPUs this process may run on; the digest is the same for any N.
  C.Jobs = Check.Engine.Jobs;
  C.CorpusDir = Opts.CorpusDir;
  C.Minimize = !Opts.NoMinimize;

  if (Opts.Replay) {
    if (Opts.CorpusDir.empty()) {
      std::fprintf(stderr, "error: --replay requires --corpus-dir\n");
      return 2;
    }
    testgen::ReplayResult R;
    std::string Error;
    if (!testgen::replayCorpus(Opts.CorpusDir, C, R, Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 2;
    }
    std::printf("replayed %zu corpus entries, %zu stored / %zu replayed "
                "edge keys: %s\n",
                R.Entries, R.StoredKeys.size(), R.ReplayedKeys.size(),
                R.coverageReproduced() ? "coverage reproduced"
                                       : "COVERAGE DRIFT");
    return R.coverageReproduced() ? 0 : 1;
  }

  testgen::FuzzReport Report = testgen::runFuzz(C);
  std::printf("%s", Report.renderText().c_str());
  return Report.clean() ? 0 : 1;
}

/// `rustsight serve`: the resident analysis daemon. The check options that
/// shape analysis (budgets, jobs, cache) apply verbatim; the roots become
/// the resident corpus (or arrive from the client's rootUri when empty).
struct ServeCliOptions {
  uint64_t DebounceMs = 150;
  uint64_t IdleTimeoutMs = 0; ///< 0 = stay resident forever.
};

int cmdServe(const std::vector<std::string> &Roots, const CheckOptions &Check,
             const ServeCliOptions &Opts) {
  serve::ServerOptions O;
  O.Session.Engine = Check.Engine;
  O.Session.Roots = Roots;
  O.DebounceMs = Opts.DebounceMs;
  O.IdleTimeoutMs = Opts.IdleTimeoutMs;
  return serve::serveStdio(O);
}

int cmdRun(const std::vector<std::string> &Files) {
  int Status = 0;
  for (const std::string &File : Files) {
    auto M = parseFile(File);
    if (!M)
      return 2;
    std::printf("== %s ==\n", File.c_str());
    interp::Interpreter I(*M);
    for (const auto &F : M->functions()) {
      interp::ExecResult R = I.run(F.Name);
      if (R.Ok)
        std::printf("  %-24s ok (%llu steps)\n", F.Name.c_str(),
                    static_cast<unsigned long long>(R.Steps));
      else if (interp::isResourceLimitTrap(R.Error->Kind)) {
        // A budget ran out — the run is inconclusive, not a finding.
        std::printf("  %-24s LIMIT: %s\n", F.Name.c_str(),
                    R.Error->toString().c_str());
        Status = 1;
      } else {
        std::printf("  %-24s TRAP: %s\n", F.Name.c_str(),
                    R.Error->toString().c_str());
        Status = 1;
      }
    }
  }
  return Status;
}

int cmdLifetimes(const std::vector<std::string> &Files) {
  for (const std::string &File : Files) {
    auto M = parseFile(File);
    if (!M)
      return 2;
    for (const auto &F : M->functions()) {
      analysis::LifetimeReport Report(F, *M);
      std::printf("%s\n", Report.render().c_str());
    }
  }
  return 0;
}

int cmdPrint(const std::vector<std::string> &Files) {
  for (const std::string &File : Files) {
    auto M = parseFile(File);
    if (!M)
      return 2;
    std::printf("%s", M->toString().c_str());
  }
  return 0;
}

int cmdScan(const std::vector<std::string> &Paths) {
  scanner::UnsafeScanner Scanner;
  scanner::ScanStats Total;
  for (const std::string &Path : Paths) {
    scanner::ScanStats S = endsWith(Path, ".rs") ? Scanner.scanFile(Path)
                                                 : Scanner.scanDirectory(Path);
    Total.merge(S);
  }
  std::printf("files: %u  code lines: %u  unsafe lines: %u\n", Total.Files,
              Total.CodeLines, Total.UnsafeLines);
  std::printf("unsafe usages: %u (%u regions, %u fns, %u traits, %u "
              "impls)\n",
              Total.totalUnsafeUsages(), Total.UnsafeBlocks, Total.UnsafeFns,
              Total.UnsafeTraits, Total.UnsafeImpls);
  std::printf("interior-unsafe fns: %u of %u\n", Total.InteriorUnsafeFns,
              Total.TotalFns);
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: rustsight <command> [options] <inputs...>\n"
      "  check [options] <file.mir...>  run the static detectors\n"
      "    --format <text|json|sarif>  output format (default: text)\n"
      "    --json                 alias for --format=json\n"
      "    --baseline <file>      drop findings recorded in the baseline;\n"
      "                           only new findings render and gate exit\n"
      "    --write-baseline <file>  record the current findings' stable\n"
      "                           fingerprints as the baseline\n"
      "    --keep-going           continue past bad files (the default)\n"
      "    --strict               exit 2 on any skipped/degraded file\n"
      "    --budget-ms <N>        per-file wall-clock analysis budget\n"
      "    --max-dataflow-iters <N>  per-function fixpoint update cap\n"
      "    --jobs <N>             parallel analysis workers (default: the\n"
      "                           CPUs this process may run on; at most\n"
      "                           1024; output is identical for every N)\n"
      "    --cache-dir <dir>      persist the result cache on disk\n"
      "    --no-cache             disable the result cache entirely\n"
      "    --whole-program        force the cross-file link step (the\n"
      "                           default for multi-file corpora); extern\n"
      "                           callees resolve across corpus files\n"
      "    --no-whole-program     strictly per-file analysis\n"
      "    --shards <N>           analyze through N crash-isolated worker\n"
      "                           processes (at most 1024; output is\n"
      "                           identical for every N; --jobs caps\n"
      "                           concurrent workers)\n"
      "    --isolate <none|process>  process: supervised workers even with\n"
      "                           the default shard count\n"
      "    --timeout-ms <N>       hard per-shard watchdog; hung workers are\n"
      "                           killed and the culpable file quarantined\n"
      "    --max-retries <N>      worker attempts before quarantine/bisect\n"
      "                           (default: 2)\n"
      "    --checkpoint <file>    journal completed files for --resume\n"
      "                           (default: <cache-dir>/rs-checkpoint.json)\n"
      "    --resume               resume an interrupted supervised run from\n"
      "                           its checkpoint journal\n"
      "  run <file.mir...>             interpret dynamically\n"
      "  lifetimes <file.mir...>       lifetime/lock report\n"
      "  print <file.mir...>           parse and pretty-print\n"
      "  scan <dir-or-.rs...>          unsafe-usage statistics\n"
      "  eval [options] <corpus-dir>   score detectors against the corpus\n"
      "                                manifest.json (check options apply)\n"
      "    --baseline <file>        exit 1 if any F1 drops below baseline\n"
      "    --write-baseline <file>  record the scorecard as the baseline\n"
      "  gen [options]                 generative testing harness\n"
      "    --seed <N>               print the generated module for seed N\n"
      "    --mutated                print the sweep's mutated module instead\n"
      "    --sweep <N> [--seed-start <S>] [--jobs <J>]\n"
      "                             run N seeds through every oracle;\n"
      "                             exit 1 on any violation\n"
      "    --regress-dir <dir>      write minimized repros for violations\n"
      "    --emit-eval-corpus <dir> regenerate the labeled eval corpus\n"
      "  fuzz [options]                coverage-guided fuzzing on the\n"
      "                                bytecode VM (docs/FUZZING.md)\n"
      "    --fuzz-seed <N>          master seed (default: 1)\n"
      "    --fuzz-iters <N>         candidate budget (default: 1000;\n"
      "                             0 is a usage error)\n"
      "    --corpus-dir <dir>       persist the novelty corpus +\n"
      "                             coverage.json here\n"
      "    --no-minimize            keep novel candidates unshrunk\n"
      "    --replay                 re-run a persisted corpus and verify\n"
      "                             its recorded coverage map\n"
      "  serve [options] [roots...]    resident LSP daemon over stdio\n"
      "                                (JSON-RPC 2.0, Content-Length framed;\n"
      "                                check's analysis options apply)\n"
      "    --debounce-ms <N>        quiet time before re-analysis (150)\n"
      "    --idle-timeout-ms <N>    exit 0 after N ms without client\n"
      "                             traffic (0 = stay resident)\n"
      "  --version                     print version, report schema version\n"
      "                                and rule-catalog size\n");
  return 2;
}

/// Parses "--flag N" / "--flag=N" style numeric options; advances \p I past
/// a consumed separate value argument. N is plain decimal digits: a sign,
/// or a value \p Out cannot hold, is \p Bad (strtoull would wrap "-1" to
/// 2^64-1, and a cast would truncate 2^32 to 0).
template <typename T>
bool parseNumericFlag(int argc, char **argv, int &I, const char *Flag, T &Out,
                      bool &Bad) {
  size_t FlagLen = std::strlen(Flag);
  if (std::strncmp(argv[I], Flag, FlagLen) != 0)
    return false;
  const char *Val = nullptr;
  if (argv[I][FlagLen] == '=') {
    Val = argv[I] + FlagLen + 1;
  } else if (argv[I][FlagLen] == '\0') {
    if (I + 1 >= argc) {
      Bad = true;
      return true;
    }
    Val = argv[++I];
  } else {
    return false;
  }
  uint64_t V = 0;
  Bad = *Val == '\0';
  for (const char *P = Val; *P && !Bad; ++P) {
    const unsigned D = static_cast<unsigned>(*P - '0');
    Bad = D > 9 || V > (std::numeric_limits<T>::max() - D) / 10;
    V = V * 10 + D;
  }
  if (!Bad)
    Out = static_cast<T>(V);
  return true;
}

/// Parses "--flag VALUE" / "--flag=VALUE" string options.
bool parseStringFlag(int argc, char **argv, int &I, const char *Flag,
                     std::string &Out, bool &Bad) {
  size_t FlagLen = std::strlen(Flag);
  if (std::strncmp(argv[I], Flag, FlagLen) != 0)
    return false;
  if (argv[I][FlagLen] == '=') {
    Out = argv[I] + FlagLen + 1;
  } else if (argv[I][FlagLen] == '\0') {
    if (I + 1 >= argc) {
      Bad = true;
      return true;
    }
    Out = argv[++I];
  } else {
    return false;
  }
  Bad = Out.empty();
  return true;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    return usage();
  std::string Cmd = argv[1];
  if (Cmd == "--version" || Cmd == "version") {
    std::printf("%s\n", version::versionLine().c_str());
    return 0;
  }
  CheckOptions Check;
  EvalOptions Eval;
  GenOptions Gen;
  FuzzCliOptions Fuzz;
  ServeCliOptions Serve;
  std::vector<std::string> Inputs;
  for (int I = 2; I < argc; ++I) {
    bool Bad = false;
    if (std::strcmp(argv[I], "--json") == 0)
      Check.Format = "json";
    else if (std::strcmp(argv[I], "--strict") == 0)
      Check.Strict = true;
    else if (std::strcmp(argv[I], "--keep-going") == 0)
      ; // The engine always keeps going; --strict is the opt-out.
    else if (std::strcmp(argv[I], "--no-cache") == 0)
      Check.Engine.UseCache = false;
    else if (std::strcmp(argv[I], "--whole-program") == 0)
      Check.Engine.WholeProgram = engine::WholeProgramMode::On;
    else if (std::strcmp(argv[I], "--no-whole-program") == 0)
      Check.Engine.WholeProgram = engine::WholeProgramMode::Off;
    else if (std::strcmp(argv[I], "--mutated") == 0)
      Gen.Mutated = true;
    else if (std::strcmp(argv[I], "--resume") == 0)
      Check.Resume = true;
    else if (std::strcmp(argv[I], "--no-minimize") == 0)
      Fuzz.NoMinimize = true;
    else if (std::strcmp(argv[I], "--replay") == 0)
      Fuzz.Replay = true;
    else if (parseNumericFlag(argc, argv, I, "--sweep", Gen.Sweep, Bad)) {
      Gen.SweepSet = true;
      if (Bad)
        return usage();
    } else if (parseNumericFlag(argc, argv, I, "--budget-ms",
                              Check.Engine.BudgetMs, Bad) ||
             parseNumericFlag(argc, argv, I, "--max-file-steps",
                              Check.Engine.MaxFileSteps, Bad) ||
             parseNumericFlag(argc, argv, I, "--max-summary-rounds",
                              Check.Engine.MaxSummaryRounds, Bad) ||
             parseNumericFlag(argc, argv, I, "--max-dataflow-iters",
                              Check.Engine.MaxDataflowIters, Bad) ||
             parseNumericFlag(argc, argv, I, "--shards", Check.Shards, Bad) ||
             parseNumericFlag(argc, argv, I, "--timeout-ms", Check.TimeoutMs,
                              Bad) ||
             parseNumericFlag(argc, argv, I, "--max-retries",
                              Check.MaxRetries, Bad) ||
             parseStringFlag(argc, argv, I, "--isolate", Check.Isolate, Bad) ||
             parseStringFlag(argc, argv, I, "--checkpoint",
                             Check.CheckpointPath, Bad) ||
             parseNumericFlag(argc, argv, I, "--jobs", Check.Engine.Jobs,
                              Bad) ||
             parseNumericFlag(argc, argv, I, "--debounce-ms",
                              Serve.DebounceMs, Bad) ||
             parseNumericFlag(argc, argv, I, "--idle-timeout-ms",
                              Serve.IdleTimeoutMs, Bad) ||
             parseNumericFlag(argc, argv, I, "--seed-start", Gen.SeedStart,
                              Bad) ||
             parseNumericFlag(argc, argv, I, "--seed", Gen.Seed, Bad) ||
             parseNumericFlag(argc, argv, I, "--fuzz-seed", Fuzz.FuzzSeed,
                              Bad) ||
             parseNumericFlag(argc, argv, I, "--fuzz-iters", Fuzz.FuzzIters,
                              Bad) ||
             parseStringFlag(argc, argv, I, "--corpus-dir", Fuzz.CorpusDir,
                             Bad) ||
             parseStringFlag(argc, argv, I, "--format", Check.Format, Bad) ||
             parseStringFlag(argc, argv, I, "--cache-dir",
                             Check.Engine.CacheDir, Bad) ||
             parseStringFlag(argc, argv, I, "--regress-dir", Gen.RegressDir,
                             Bad) ||
             parseStringFlag(argc, argv, I, "--emit-eval-corpus",
                             Gen.EmitEvalCorpus, Bad) ||
             parseStringFlag(argc, argv, I, "--write-baseline",
                             Eval.WriteBaseline, Bad) ||
             parseStringFlag(argc, argv, I, "--baseline", Eval.Baseline,
                             Bad)) {
      if (Bad)
        return usage();
    } else if (std::strncmp(argv[I], "--", 2) == 0) {
      std::fprintf(stderr, "error: unknown option '%s'\n", argv[I]);
      return usage();
    } else
      Inputs.emplace_back(argv[I]);
  }
  if (Check.Format != "text" && Check.Format != "json" &&
      Check.Format != "sarif")
    return usage();
  if (Check.Isolate != "none" && Check.Isolate != "process")
    return usage();
  // One thread or process per unit of work is the most a run can use, and
  // the engine would start that many: a count past the bound is a typo.
  static_assert(engine::MaxJobs == 1024, "usage() states the bound");
  if (Check.Engine.Jobs > engine::MaxJobs || Check.Shards > engine::MaxJobs)
    return usage();
  // The hidden worker mode the supervisor respawns this binary in; its
  // inputs arrive over stdin, not argv.
  if (Cmd == "worker")
    return engine::runWorker(Check.Engine);
  // serve may start rootless: the client's initialize rootUri supplies the
  // corpus then.
  if (Inputs.empty() && Cmd != "gen" && Cmd != "fuzz" && Cmd != "serve")
    return usage();

  if (Cmd == "serve")
    return cmdServe(Inputs, Check, Serve);
  if (Cmd == "check")
    return cmdCheck(Inputs, Check, Eval, argv[0]);
  if (Cmd == "eval")
    return cmdEval(Inputs, Check, Eval);
  if (Cmd == "gen")
    return cmdGen(Check, Gen);
  if (Cmd == "fuzz")
    return cmdFuzz(Check, Fuzz);
  if (Cmd == "run")
    return cmdRun(Inputs);
  if (Cmd == "lifetimes")
    return cmdLifetimes(Inputs);
  if (Cmd == "print")
    return cmdPrint(Inputs);
  if (Cmd == "scan")
    return cmdScan(Inputs);
  return usage();
}
