//===----------------------------------------------------------------------===//
// Measures the analysis hot path reworked by the SCC/cursor/interning PR:
//  - summary scheduling work on the pinned eval corpus (the CI perf-smoke
//    gate reads these counters: a non-recursive corpus must summarize each
//    function exactly once),
//  - old round-robin (computeSummariesReference) vs SCC-scheduled summaries
//    on a large generated module with a deep call chain,
//  - whole-module analysis (summaries + per-function memory analyses, the
//    work AnalysisContext performs before detectors run) old vs new, where
//    the new path adopts the analyses the scheduler already built,
//  - per-statement state queries: O(block^2) stateBefore replay vs the
//    streaming ForwardCursor,
//  - the detector battery over one solved AnalysisContext: the cursor
//    reads every detector pays after the analyses are built.
// Alongside the printed table it emits BENCH_analysis_hotpath.json in the
// current directory so successive runs can be compared over time.
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "analysis/CallGraph.h"
#include "analysis/Memory.h"
#include "analysis/Summaries.h"
#include "detectors/Detector.h"
#include "engine/Engine.h"
#include "mir/Parser.h"
#include "support/Json.h"
#include "testgen/Mutators.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;
using namespace rs;
using namespace rs::analysis;
using namespace rs::bench;
using Clock = std::chrono::steady_clock;

namespace {

/// Best-of-N wall-clock of \p Fn, in milliseconds.
template <typename Fn> double bestMs(unsigned Reps, Fn F) {
  double Best = 1e100;
  for (unsigned R = 0; R != Reps; ++R) {
    auto T0 = Clock::now();
    F();
    double Ms = std::chrono::duration<double, std::milli>(Clock::now() - T0)
                    .count();
    if (Ms < Best)
      Best = Ms;
  }
  return Best;
}

mir::Module parseModule(const std::string &Src) {
  auto R = mir::Parser::parse(Src);
  if (!R) {
    std::fprintf(stderr, "bench module failed to parse: %s\n",
                 R.error().toString().c_str());
    std::abort();
  }
  return R.take();
}

/// A large module: a generated bug corpus (every pattern family) plus a
/// deep caller-first call chain, the worst case for the historical
/// round-robin schedule (one call level per global round => O(depth^2)
/// summarizations where the SCC schedule does O(depth)).
mir::Module largeModule(unsigned ChainDepth) {
  using testgen::Mutation;
  std::string Src =
      testgen::plantedModule(3, 40,
                             {{Mutation::UafPostDrop, true, 3},
                              {Mutation::UafPostDrop, false, 3},
                              {Mutation::DoubleLockInterproc, true, 1},
                              {Mutation::DoubleLock, true, 2},
                              {Mutation::DoubleLockInterproc, false, 1},
                              {Mutation::DoubleLock, false, 2},
                              {Mutation::LockOrderInversion, true, 2},
                              {Mutation::InvalidFree, true, 2},
                              {Mutation::DoubleFree, true, 2},
                              {Mutation::UninitRead, true, 2},
                              {Mutation::RefCellConflict, true, 2}})
          .toString();
  for (unsigned I = 0; I + 1 < ChainDepth; ++I)
    Src += "fn chain_" + std::to_string(I) +
           "(_1: *mut u8) {\n"
           "    let _2: ();\n"
           "    bb0: { _2 = chain_" +
           std::to_string(I + 1) +
           "(copy _1) -> bb1; }\n"
           "    bb1: { return; }\n"
           "}\n";
  Src += "fn chain_" + std::to_string(ChainDepth - 1) +
         "(_1: *mut u8) {\n"
         "    bb0: { dealloc(copy _1) -> bb1; }\n"
         "    bb1: { return; }\n"
         "}\n";
  return parseModule(Src);
}

/// The pinned eval corpus, parsed; empty when the bench is not run from the
/// repo root (or a tree without examples/).
std::vector<mir::Module> loadEvalCorpus() {
  std::vector<mir::Module> Out;
  fs::path Dir = "examples/mir/eval";
#ifdef RS_REPO_ROOT
  if (!fs::exists(Dir))
    Dir = fs::path(RS_REPO_ROOT) / "examples/mir/eval";
#endif
  if (!fs::exists(Dir))
    return Out;
  std::vector<fs::path> Files;
  for (const auto &E : fs::directory_iterator(Dir))
    if (E.path().extension() == ".mir")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  for (const fs::path &P : Files) {
    std::ifstream In(P, std::ios::binary);
    std::stringstream Buf;
    Buf << In.rdbuf();
    auto R = mir::Parser::parse(Buf.str());
    if (R)
      Out.push_back(R.take());
  }
  return Out;
}

/// The old whole-module preparation: reference summaries, then one fresh
/// memory analysis per function (what AnalysisContext::entry lazily built).
void wholeModuleOld(const mir::Module &M) {
  SummaryMap Summaries = computeSummariesReference(M, 64);
  for (const auto &F : M.functions()) {
    Cfg G(F, /*PruneConstantBranches=*/true);
    MemoryAnalysis MA(G, M, &Summaries);
    benchmark::DoNotOptimize(MA.dataflow().converged());
  }
}

/// The new whole-module preparation: SCC-scheduled summaries whose built
/// analyses are adopted instead of rebuilt.
void wholeModuleNew(const mir::Module &M) {
  ModuleAnalysisCache Cache;
  SummaryMap Summaries =
      computeSummaries(M, 8, nullptr, nullptr, nullptr, nullptr, &Cache);
  for (size_t I = 0; I != M.functions().size(); ++I) {
    if (!Cache.Memory[I]) { // Recursion invalidated it: rebuild.
      Cfg G(M.functions()[I], /*PruneConstantBranches=*/true);
      MemoryAnalysis MA(G, M, &Summaries);
      benchmark::DoNotOptimize(MA.dataflow().converged());
      continue;
    }
    benchmark::DoNotOptimize(Cache.Memory[I]->dataflow().converged());
  }
}

/// Visits the state before every statement of every block via per-query
/// replay (the historical detector loop: O(block^2) per block).
uint64_t replayAllPoints(const MemoryAnalysis &MA) {
  uint64_t Bits = 0;
  const mir::Function &F = MA.cfg().function();
  for (mir::BlockId B = 0; B != F.numBlocks(); ++B) {
    size_t N = F.Blocks[B].Statements.size();
    for (size_t I = 0; I <= N; ++I)
      Bits += MA.dataflow().stateBefore(B, I).count();
  }
  return Bits;
}

/// The same visit via a cursor read at every point: each statement transfer
/// applied once, the terminator point copied from the kept exit state.
uint64_t cursorAllPoints(const MemoryAnalysis &MA) {
  uint64_t Bits = 0;
  const mir::Function &F = MA.cfg().function();
  ForwardCursor C = MA.cursor();
  for (mir::BlockId B = 0; B != F.numBlocks(); ++B) {
    size_t N = F.Blocks[B].Statements.size();
    C.seek(B);
    for (size_t I = 0; I <= N; ++I) {
      Bits += C.state().count();
      if (I != N)
        C.advance();
    }
  }
  return Bits;
}

struct HotpathReport {
  // Eval corpus scheduling counters (the CI perf-smoke gate).
  uint64_t EvalFiles = 0;
  uint64_t EvalFunctions = 0;
  uint64_t EvalSummarizations = 0;
  uint64_t EvalRecursiveComponents = 0;
  // Old-vs-new timings on the large module.
  uint64_t LargeFunctions = 0;
  double SummariesRefMs = 0, SummariesSccMs = 0;
  double WholeOldMs = 0, WholeNewMs = 0;
  double ReplayMs = 0, CursorMs = 0;
  double DetectorsMs = 0;
  uint64_t DetectorFindings = 0;
  // Whole-program link over the eval corpus: cold vs SummaryDb-warm.
  uint64_t LinkedFiles = 0;
  uint64_t WarmModulesFromDb = 0;
  double LinkedColdMs = 0, LinkedWarmMs = 0;
};

/// One linked analyzeCorpus run over the eval corpus against \p CacheDir;
/// returns wall-clock ms and surfaces the run's link stats.
double linkedEvalRun(const fs::path &Dir, const fs::path &CacheDir,
                     engine::RunStats *StatsOut) {
  engine::EngineOptions Opts;
  Opts.Jobs = 1;
  Opts.CacheDir = CacheDir.string();
  Opts.WholeProgram = engine::WholeProgramMode::On;
  engine::AnalysisEngine E(Opts);
  auto T0 = Clock::now();
  engine::CorpusReport R = E.analyzeCorpus({Dir.string()});
  double Ms =
      std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
  if (StatsOut)
    *StatsOut = R.Stats;
  return Ms;
}

void printExperiment() {
  banner("Analysis hot path: SCC summaries, streaming cursors, interning",
         "Summary-scheduling work on the pinned eval corpus, old round-robin "
         "vs SCC-scheduled summaries and whole-module analysis on a large "
         "generated module, and per-statement replay vs cursor queries. "
         "Diagnostics are byte-identical on both sides of every comparison.");

  HotpathReport R;

  // 1. Eval corpus: the scheduler must summarize each function once.
  std::vector<mir::Module> Eval = loadEvalCorpus();
  R.EvalFiles = Eval.size();
  for (const mir::Module &M : Eval) {
    SummaryStats S;
    computeSummaries(M, 8, nullptr, nullptr, nullptr, &S);
    R.EvalFunctions += S.Functions;
    R.EvalSummarizations += S.Summarizations;
    R.EvalRecursiveComponents += S.RecursiveComponents;
  }
  std::printf("  eval corpus: %llu files, %llu functions, %llu "
              "summarizations, %llu recursive components  %s\n",
              (unsigned long long)R.EvalFiles,
              (unsigned long long)R.EvalFunctions,
              (unsigned long long)R.EvalSummarizations,
              (unsigned long long)R.EvalRecursiveComponents,
              R.EvalSummarizations == R.EvalFunctions ? "[one pass]"
                                                      : "[EXTRA WORK]");

  // 2. Old vs new summaries and whole-module analysis on the large module.
  mir::Module Large = largeModule(/*ChainDepth=*/48);
  R.LargeFunctions = Large.functions().size();
  R.SummariesRefMs =
      bestMs(5, [&] { computeSummariesReference(Large, 64); });
  R.SummariesSccMs = bestMs(5, [&] { computeSummaries(Large); });
  R.WholeOldMs = bestMs(5, [&] { wholeModuleOld(Large); });
  R.WholeNewMs = bestMs(5, [&] { wholeModuleNew(Large); });
  std::printf("\n  large module (%llu functions, 48-deep call chain):\n",
              (unsigned long long)R.LargeFunctions);
  std::printf("    %-34s %10.2f ms\n", "summaries, old round-robin",
              R.SummariesRefMs);
  std::printf("    %-34s %10.2f ms   (%.1fx)\n", "summaries, SCC-scheduled",
              R.SummariesSccMs, R.SummariesRefMs / R.SummariesSccMs);
  std::printf("    %-34s %10.2f ms\n", "whole-module analysis, old",
              R.WholeOldMs);
  std::printf("    %-34s %10.2f ms   (%.1fx)\n", "whole-module analysis, new",
              R.WholeNewMs, R.WholeOldMs / R.WholeNewMs);

  // 3. Replay vs cursor over every statement point of the large module.
  {
    SummaryMap Summaries = computeSummaries(Large);
    std::vector<std::unique_ptr<Cfg>> Cfgs;
    std::vector<std::unique_ptr<MemoryAnalysis>> MAs;
    for (const auto &F : Large.functions()) {
      Cfgs.push_back(std::make_unique<Cfg>(F, true));
      MAs.push_back(
          std::make_unique<MemoryAnalysis>(*Cfgs.back(), Large, &Summaries));
    }
    uint64_t A = 0, B = 0;
    R.ReplayMs = bestMs(5, [&] {
      A = 0;
      for (const auto &MA : MAs)
        A += replayAllPoints(*MA);
    });
    R.CursorMs = bestMs(5, [&] {
      B = 0;
      for (const auto &MA : MAs)
        B += cursorAllPoints(*MA);
    });
    if (A != B)
      std::printf("    [MISMATCH] replay and cursor visited different "
                  "states\n");
    std::printf("    %-34s %10.2f ms\n", "per-statement states, replay",
                R.ReplayMs);
    std::printf("    %-34s %10.2f ms   (%.1fx)\n",
                "per-statement states, cursor", R.CursorMs,
                R.ReplayMs / R.CursorMs);
  }

  // 4. Every detector over one context whose analyses are already solved:
  // the first pass builds and caches them, the timed passes only query.
  {
    detectors::AnalysisContext Ctx(Large);
    std::vector<std::unique_ptr<detectors::Detector>> All =
        detectors::makeAllDetectors();
    auto RunAll = [&] {
      detectors::DiagnosticEngine Diags;
      for (const auto &D : All)
        D->run(Ctx, Diags);
      R.DetectorFindings = Diags.count();
    };
    RunAll();
    R.DetectorsMs = bestMs(5, RunAll);
    std::printf("    %-34s %10.2f ms   (%llu findings)\n",
                "detector battery, solved context", R.DetectorsMs,
                (unsigned long long)R.DetectorFindings);
  }

  // 5. Whole-program link over the eval corpus: cold vs SummaryDb-warm.
  // The warm run is a fresh engine against the populated cache dir, so
  // every exporter's module key is served by the SummaryDb and no module
  // is summarized at all (docs/WHOLEPROGRAM.md).
  {
    fs::path Dir = "examples/mir/eval";
#ifdef RS_REPO_ROOT
    if (!fs::exists(Dir))
      Dir = fs::path(RS_REPO_ROOT) / "examples/mir/eval";
#endif
    if (fs::exists(Dir)) {
      fs::path CacheDir =
          fs::temp_directory_path() / "rs-bench-linked-corpus";
      fs::remove_all(CacheDir);
      engine::RunStats Cold, Warm;
      R.LinkedColdMs = linkedEvalRun(Dir, CacheDir, &Cold);
      R.LinkedWarmMs = linkedEvalRun(Dir, CacheDir, &Warm);
      R.LinkedFiles = Cold.LinkedFiles;
      R.WarmModulesFromDb = Warm.ModulesFromSummaryDb;
      fs::remove_all(CacheDir);
      std::printf("\n  linked eval corpus (%llu files):\n",
                  (unsigned long long)R.LinkedFiles);
      std::printf("    %-34s %10.2f ms\n", "whole-program, cold SummaryDb",
                  R.LinkedColdMs);
      std::printf("    %-34s %10.2f ms   (%.1fx, %llu exporter(s) from "
                  "summary-db)\n",
                  "whole-program, warm SummaryDb", R.LinkedWarmMs,
                  R.LinkedColdMs / R.LinkedWarmMs,
                  (unsigned long long)R.WarmModulesFromDb);
    }
  }

  JsonWriter W;
  W.beginObject();
  W.field("bench", "analysis_hotpath");
  W.key("eval_corpus");
  W.beginObject();
  W.field("files", int64_t(R.EvalFiles));
  W.field("functions", int64_t(R.EvalFunctions));
  W.field("summarizations", int64_t(R.EvalSummarizations));
  W.field("recursive_components", int64_t(R.EvalRecursiveComponents));
  W.endObject();
  W.key("large_module");
  W.beginObject();
  W.field("functions", int64_t(R.LargeFunctions));
  W.key("summaries_reference_ms");
  W.value(R.SummariesRefMs);
  W.key("summaries_scc_ms");
  W.value(R.SummariesSccMs);
  W.key("summaries_speedup");
  W.value(R.SummariesRefMs / R.SummariesSccMs);
  W.key("whole_module_old_ms");
  W.value(R.WholeOldMs);
  W.key("whole_module_new_ms");
  W.value(R.WholeNewMs);
  W.key("whole_module_speedup");
  W.value(R.WholeOldMs / R.WholeNewMs);
  W.key("replay_ms");
  W.value(R.ReplayMs);
  W.key("cursor_ms");
  W.value(R.CursorMs);
  W.key("cursor_speedup");
  W.value(R.ReplayMs / R.CursorMs);
  W.key("detectors_ms");
  W.value(R.DetectorsMs);
  W.field("detector_findings", int64_t(R.DetectorFindings));
  W.endObject();
  W.key("linked_corpus");
  W.beginObject();
  W.field("files", int64_t(R.LinkedFiles));
  W.field("warm_modules_from_db", int64_t(R.WarmModulesFromDb));
  W.key("cold_ms");
  W.value(R.LinkedColdMs);
  W.key("warm_ms");
  W.value(R.LinkedWarmMs);
  W.key("warm_speedup");
  W.value(R.LinkedWarmMs > 0 ? R.LinkedColdMs / R.LinkedWarmMs : 0.0);
  W.endObject();
  W.endObject();
  std::ofstream("BENCH_analysis_hotpath.json") << W.str() << "\n";
  std::printf("\n  trajectory point written to BENCH_analysis_hotpath.json\n\n");
}

} // namespace

static void BM_SummariesReference(benchmark::State &State) {
  mir::Module M = largeModule(static_cast<unsigned>(State.range(0)));
  for (auto _ : State)
    benchmark::DoNotOptimize(computeSummariesReference(M, 64).size());
}
BENCHMARK(BM_SummariesReference)->Arg(16)->Arg(48)
    ->Unit(benchmark::kMillisecond);

static void BM_SummariesScc(benchmark::State &State) {
  mir::Module M = largeModule(static_cast<unsigned>(State.range(0)));
  for (auto _ : State)
    benchmark::DoNotOptimize(computeSummaries(M).size());
}
BENCHMARK(BM_SummariesScc)->Arg(16)->Arg(48)->Unit(benchmark::kMillisecond);

static void BM_CallGraphBuild(benchmark::State &State) {
  mir::Module M = largeModule(48);
  for (auto _ : State) {
    CallGraph CG(M);
    benchmark::DoNotOptimize(CG.numFunctions());
  }
}
BENCHMARK(BM_CallGraphBuild)->Unit(benchmark::kMillisecond);

static void BM_Reachability(benchmark::State &State) {
  mir::Module M = largeModule(48);
  CallGraph CG(M);
  BitVec Seen(CG.numFunctions());
  for (auto _ : State) {
    Seen.clear();
    for (FuncId F = 0; F != CG.numFunctions(); ++F)
      CG.reachableFromInto(F, Seen);
    benchmark::DoNotOptimize(Seen.count());
  }
}
BENCHMARK(BM_Reachability);

RUSTSIGHT_BENCH_MAIN(printExperiment)
