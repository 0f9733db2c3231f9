//===----------------------------------------------------------------------===//
// Cleanup passes must not change what the detectors find: per bug kind,
// the counts on the transformed corpus equal the counts on the original.
//===----------------------------------------------------------------------===//

#include "detectors/Detector.h"
#include "mir/Transforms.h"
#include "testgen/Mutators.h"

#include <gtest/gtest.h>

using namespace rs;
using namespace rs::detectors;
using namespace rs::mir;

namespace {

Module mixedModule(uint64_t Seed) {
  using testgen::Mutation;
  return testgen::plantedModule(Seed, 6,
                                {{Mutation::UafPostDrop, true, 2},
                                 {Mutation::UafPostDrop, false, 2},
                                 {Mutation::UafGuarded, true, 1},
                                 {Mutation::DoubleLockInterproc, true, 1},
                                 {Mutation::DoubleLock, true, 1},
                                 {Mutation::DoubleLockInterproc, false, 1},
                                 {Mutation::DoubleLock, false, 1},
                                 {Mutation::LockOrderInversion, true, 1},
                                 {Mutation::InvalidFree, true, 1},
                                 {Mutation::DoubleFree, true, 1},
                                 {Mutation::UninitRead, true, 1},
                                 {Mutation::InteriorMutability, true, 1},
                                 {Mutation::RefCellConflict, true, 1}});
}

} // namespace

class TransformDetector : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TransformDetector, FindingsSurviveCleanup) {
  Module Original = mixedModule(GetParam());
  Module Cleaned = mixedModule(GetParam());
  PassManager PM;
  addCleanupPasses(PM);
  PM.run(Cleaned);

  DiagnosticEngine Before, After;
  runAllDetectors(Original, Before);
  runAllDetectors(Cleaned, After);

  static const BugKind Kinds[] = {
      BugKind::UseAfterFree,       BugKind::DoubleLock,
      BugKind::ConflictingLockOrder, BugKind::InvalidFree,
      BugKind::DoubleFree,         BugKind::UninitRead,
      BugKind::InteriorMutability, BugKind::BorrowConflict,
  };
  for (BugKind K : Kinds)
    EXPECT_EQ(Before.countOfKind(K), After.countOfKind(K))
        << bugKindName(K) << " diverged after cleanup:\n"
        << After.renderText();
  EXPECT_EQ(Before.count(), After.count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransformDetector,
                         ::testing::Values(71, 72, 73));
