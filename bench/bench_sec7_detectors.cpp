//===----------------------------------------------------------------------===//
// Regenerates the Section 7 detector evaluation. The paper ran its two
// detectors on the studied applications:
//
//   - use-after-free detector: 4 previously unknown bugs, 3 false positives
//   - double-lock detector: 6 previously unknown bugs, 0 false positives
//
// Here they run on a generated corpus with the same number of injected
// bugs plus benign twins (the published fixes) to measure detection and
// false-positive counts, and on growing corpora to measure throughput.
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "detectors/Detectors.h"
#include "mir/Parser.h"
#include "testgen/Mutators.h"

using namespace rs::bench;
using namespace rs::detectors;
using namespace rs::mir;
using namespace rs::testgen;

namespace {

// The paper's found-bug counts, plus benign twins for precision. One
// double lock in three goes through a helper (the interprocedural shape).
const std::vector<Plant> PaperEval = {
    {Mutation::UafPostDrop, true, 4},
    {Mutation::UafPostDrop, false, 12},
    {Mutation::DoubleLock, true, 4},
    {Mutation::DoubleLockInterproc, true, 2},
    {Mutation::DoubleLock, false, 8},
    {Mutation::DoubleLockInterproc, false, 4},
    // The extension detectors, exercised alongside.
    {Mutation::LockOrderInversion, true, 2},
    {Mutation::LockOrderInversion, false, 2},
    {Mutation::InvalidFree, true, 2},
    {Mutation::InvalidFree, false, 4},
    {Mutation::DoubleFree, true, 2},
    {Mutation::DoubleFree, false, 4},
    {Mutation::UninitRead, true, 2},
    {Mutation::UninitRead, false, 4},
    {Mutation::InteriorMutability, true, 2},
    {Mutation::InteriorMutability, false, 4},
    {Mutation::CondvarWait, true, 2},
    {Mutation::CondvarWait, false, 2},
    {Mutation::ChannelRecv, true, 2},
    {Mutation::ChannelRecv, false, 2},
    {Mutation::RefCellConflict, true, 2},
    {Mutation::RefCellConflict, false, 4},
};

/// Buggy instances of \p Ms planted by PaperEval.
unsigned injected(std::initializer_list<Mutation> Ms) {
  unsigned N = 0;
  for (const Plant &P : PaperEval)
    for (Mutation M : Ms)
      N += P.Positive && P.M == M ? P.Count : 0;
  return N;
}

Module scaledModule(unsigned Scale) {
  unsigned Interproc = (Scale + 2) / 3;
  return plantedModule(Scale, 20 * Scale,
                       {{Mutation::UafPostDrop, true, Scale},
                        {Mutation::UafPostDrop, false, Scale},
                        {Mutation::DoubleLock, true, Scale - Interproc},
                        {Mutation::DoubleLockInterproc, true, Interproc},
                        {Mutation::DoubleLock, false, Scale - Interproc},
                        {Mutation::DoubleLockInterproc, false, Interproc},
                        {Mutation::InvalidFree, true, Scale},
                        {Mutation::DoubleFree, true, Scale}});
}

} // namespace

static void printExperiment() {
  banner("Section 7. Static Bug Detection",
         "Detector findings on a corpus with the paper's bug counts "
         "injected, plus benign twins (the published fixes) for "
         "false-positive measurement.");

  Module M = plantedModule(2020, 40, PaperEval);
  DiagnosticEngine Diags;
  runAllDetectors(M, Diags);

  unsigned UafBugs = injected({Mutation::UafPostDrop});
  unsigned DoubleLockBugs =
      injected({Mutation::DoubleLock, Mutation::DoubleLockInterproc});
  std::printf("Use-after-free detector (paper: 4 bugs, 3 false "
              "positives):\n");
  compare("injected UAF bugs found", UafBugs,
          Diags.countOfKind(BugKind::UseAfterFree));
  compare("false positives on the fixed twins", 0,
          Diags.countOfKind(BugKind::UseAfterFree) - UafBugs);

  std::printf("\nDouble-lock detector (paper: 6 bugs, 0 false "
              "positives):\n");
  compare("injected double locks found", DoubleLockBugs,
          Diags.countOfKind(BugKind::DoubleLock));
  compare("false positives on the fixed twins", 0,
          Diags.countOfKind(BugKind::DoubleLock) - DoubleLockBugs);

  std::printf("\nExtension detectors (the paper's Section 5/6/7 detector "
              "suggestions):\n");
  compare("conflicting lock orders found",
          injected({Mutation::LockOrderInversion}),
          Diags.countOfKind(BugKind::ConflictingLockOrder));
  compare("invalid frees found", injected({Mutation::InvalidFree}),
          Diags.countOfKind(BugKind::InvalidFree));
  compare("double frees found", injected({Mutation::DoubleFree}),
          Diags.countOfKind(BugKind::DoubleFree));
  compare("uninitialized reads found", injected({Mutation::UninitRead}),
          Diags.countOfKind(BugKind::UninitRead));
  compare("interior-mutability races found",
          injected({Mutation::InteriorMutability}),
          Diags.countOfKind(BugKind::InteriorMutability));
  compare("condvar waits with no notifier", injected({Mutation::CondvarWait}),
          Diags.countOfKind(BugKind::WaitNoNotify));
  compare("channel receives with no sender", injected({Mutation::ChannelRecv}),
          Diags.countOfKind(BugKind::RecvNoSender));
  compare("RefCell borrow conflicts found",
          injected({Mutation::RefCellConflict}),
          Diags.countOfKind(BugKind::BorrowConflict));
  compare("total diagnostics", plantedBugCount(PaperEval), Diags.count());
  std::printf("\n");
}

static void BM_RunAllDetectors(benchmark::State &State) {
  Module M = scaledModule(static_cast<unsigned>(State.range(0)));
  size_t Fns = M.functions().size();
  for (auto _ : State) {
    DiagnosticEngine Diags;
    runAllDetectors(M, Diags);
    benchmark::DoNotOptimize(Diags.count());
  }
  State.SetItemsProcessed(State.iterations() * static_cast<int64_t>(Fns));
  State.SetLabel(std::to_string(Fns) + " functions");
}
BENCHMARK(BM_RunAllDetectors)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond);

static void BM_UafDetectorFull(benchmark::State &State) {
  Module M = scaledModule(8);
  AnalysisContext Ctx(M);
  for (auto _ : State) {
    DiagnosticEngine Diags;
    UseAfterFreeDetector(/*FocusOnUnsafe=*/false).run(Ctx, Diags);
    benchmark::DoNotOptimize(Diags.count());
  }
}
BENCHMARK(BM_UafDetectorFull)->Unit(benchmark::kMillisecond);

static void BM_UafDetectorFocused(benchmark::State &State) {
  // Suggestion 5: skip safe code unrelated to unsafe.
  Module M = scaledModule(8);
  AnalysisContext Ctx(M);
  for (auto _ : State) {
    DiagnosticEngine Diags;
    UseAfterFreeDetector(/*FocusOnUnsafe=*/true).run(Ctx, Diags);
    benchmark::DoNotOptimize(Diags.count());
  }
}
BENCHMARK(BM_UafDetectorFocused)->Unit(benchmark::kMillisecond);

static void BM_ParseCorpus(benchmark::State &State) {
  Module M = scaledModule(8);
  std::string Source = M.toString();
  for (auto _ : State) {
    auto R = Parser::parse(Source);
    benchmark::DoNotOptimize(R ? (*R).functions().size() : 0);
  }
  State.SetBytesProcessed(State.iterations() *
                          static_cast<int64_t>(Source.size()));
}
BENCHMARK(BM_ParseCorpus)->Unit(benchmark::kMillisecond);

static void BM_SummaryComputation(benchmark::State &State) {
  Module M = scaledModule(8);
  for (auto _ : State) {
    auto Summaries = rs::analysis::computeSummaries(M);
    benchmark::DoNotOptimize(Summaries.size());
  }
}
BENCHMARK(BM_SummaryComputation)->Unit(benchmark::kMillisecond);

RUSTSIGHT_BENCH_MAIN(printExperiment)
