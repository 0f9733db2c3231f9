//===----------------------------------------------------------------------===//
// Static-vs-dynamic integration tests on the injected corpus: the
// interpreter (dynamic, Miri-style) catches straight-line bugs, misses
// bugs on unexecuted paths and cross-thread interleavings, and stays
// silent on the benign twins.
//===----------------------------------------------------------------------===//

#include "detectors/Detector.h"
#include "interp/Interp.h"
#include "testgen/Mutators.h"

#include <gtest/gtest.h>

#include <map>

using namespace rs::interp;
using namespace rs::testgen;

namespace {

std::map<TrapKind, unsigned> trapCounts(const std::vector<Trap> &Traps) {
  std::map<TrapKind, unsigned> Out;
  for (const Trap &T : Traps)
    ++Out[T.Kind];
  return Out;
}

} // namespace

TEST(InterpCorpus, DynamicCatchesStraightLineBugs) {
  rs::mir::Module M = plantedModule(17, 6,
                                    {{Mutation::UafPostDrop, true, 3},
                                     {Mutation::DoubleLockInterproc, true, 1},
                                     {Mutation::DoubleLock, true, 2},
                                     {Mutation::InvalidFree, true, 2},
                                     {Mutation::DoubleFree, true, 2},
                                     {Mutation::UninitRead, true, 2}});

  Interpreter I(M);
  auto Counts = trapCounts(I.runAll());
  EXPECT_EQ(Counts[TrapKind::UseAfterFree], 3u);
  EXPECT_EQ(Counts[TrapKind::Deadlock], 3u);
  EXPECT_EQ(Counts[TrapKind::InvalidFree], 2u);
  EXPECT_EQ(Counts[TrapKind::DoubleFree], 2u);
  EXPECT_EQ(Counts[TrapKind::UninitRead], 2u);
}

TEST(InterpCorpus, BenignCorpusExecutesCleanly) {
  rs::mir::Module M = plantedModule(23, 8,
                                    {{Mutation::UafPostDrop, false, 3},
                                     {Mutation::DoubleLockInterproc, false, 1},
                                     {Mutation::DoubleLock, false, 2},
                                     {Mutation::LockOrderInversion, false, 1},
                                     {Mutation::InvalidFree, false, 3},
                                     {Mutation::DoubleFree, false, 3},
                                     {Mutation::UninitRead, false, 3},
                                     {Mutation::InteriorMutability, false, 2}});

  Interpreter I(M);
  std::vector<Trap> Traps = I.runAll();
  std::string All;
  for (const Trap &T : Traps)
    All += T.toString() + "\n";
  EXPECT_TRUE(Traps.empty()) << All;
}

TEST(InterpCorpus, DynamicMissesGuardedPaths) {
  // The use-after-free behind a false branch: static analysis reports it,
  // a dynamic run does not execute it.
  rs::mir::Module M =
      plantedModule(29, 10, {{Mutation::UafGuarded, true, 3}});

  Interpreter I(M);
  EXPECT_TRUE(I.runAll().empty());

  rs::detectors::DiagnosticEngine Diags;
  rs::detectors::runAllDetectors(M, Diags);
  EXPECT_EQ(Diags.countOfKind(rs::detectors::BugKind::UseAfterFree), 3u);
}

TEST(InterpCorpus, DynamicMissesAbbaAndRaces) {
  // Sequential scheduling executes ABBA pairs and interior-mutability
  // races without incident; the static detectors flag both.
  rs::mir::Module M =
      plantedModule(31, 10,
                    {{Mutation::LockOrderInversion, true, 2},
                     {Mutation::InteriorMutability, true, 2}});

  Interpreter I(M);
  EXPECT_TRUE(I.runAll().empty());

  rs::detectors::DiagnosticEngine Diags;
  rs::detectors::runAllDetectors(M, Diags);
  EXPECT_EQ(
      Diags.countOfKind(rs::detectors::BugKind::ConflictingLockOrder), 2u);
  EXPECT_EQ(Diags.countOfKind(rs::detectors::BugKind::InteriorMutability),
            2u);
}

// Property sweep: dynamic recall on executed bugs holds across seeds.
class InterpSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InterpSweep, ExecutedBugsAlwaysTrap) {
  unsigned UafBugs = 1 + GetParam() % 4;
  unsigned DoubleLockBugs = 1 + (GetParam() / 2) % 4;
  unsigned InterprocBugs = (DoubleLockBugs + 2) / 3;
  rs::mir::Module M = plantedModule(
      GetParam(), 4,
      {{Mutation::UafPostDrop, true, UafBugs},
       {Mutation::DoubleLockInterproc, true, InterprocBugs},
       {Mutation::DoubleLock, true, DoubleLockBugs - InterprocBugs}});
  Interpreter I(M);
  auto Counts = trapCounts(I.runAll());
  EXPECT_EQ(Counts[TrapKind::UseAfterFree], UafBugs);
  EXPECT_EQ(Counts[TrapKind::Deadlock], DoubleLockBugs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterpSweep,
                         ::testing::Values(2, 4, 6, 8, 10, 12));
