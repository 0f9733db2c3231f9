//===----------------------------------------------------------------------===//
// plantedModule(): a generated host plus a known number of every catalog
// pattern. The detector battery must find exactly the buggy instances and
// stay silent on the benign twins, for any seed.
//===----------------------------------------------------------------------===//

#include "testgen/Mutators.h"

#include "detectors/Detector.h"
#include "mir/Parser.h"
#include "mir/Verifier.h"

#include <gtest/gtest.h>

using namespace rs::detectors;
using namespace rs::mir;
using namespace rs::testgen;

namespace {

/// Every pattern, buggy and benign. One double lock in three goes through
/// a helper.
std::vector<Plant> fullPlants(unsigned UafBugs = 3,
                              unsigned DoubleLockBugs = 4) {
  unsigned InterprocBugs = (DoubleLockBugs + 2) / 3;
  return {{Mutation::UafPostDrop, true, UafBugs},
          {Mutation::UafPostDrop, false, 3},
          {Mutation::DoubleLock, true, DoubleLockBugs - InterprocBugs},
          {Mutation::DoubleLockInterproc, true, InterprocBugs},
          {Mutation::DoubleLock, false, 2},
          {Mutation::DoubleLockInterproc, false, 2},
          {Mutation::LockOrderInversion, true, 2},
          {Mutation::LockOrderInversion, false, 2},
          {Mutation::InvalidFree, true, 3},
          {Mutation::InvalidFree, false, 3},
          {Mutation::DoubleFree, true, 2},
          {Mutation::DoubleFree, false, 2},
          {Mutation::UninitRead, true, 2},
          {Mutation::UninitRead, false, 2},
          {Mutation::InteriorMutability, true, 2},
          {Mutation::InteriorMutability, false, 2},
          {Mutation::CondvarWait, true, 2},
          {Mutation::CondvarWait, false, 2},
          {Mutation::ChannelRecv, true, 1},
          {Mutation::ChannelRecv, false, 1},
          {Mutation::RefCellConflict, true, 2},
          {Mutation::RefCellConflict, false, 2}};
}

} // namespace

TEST(MirCorpus, GeneratedModuleIsWellFormed) {
  Module M = plantedModule(7, 8, fullPlants());
  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyModule(M, Errors))
      << (Errors.empty() ? "" : Errors.front());
  EXPECT_GT(M.functions().size(), 30u);
}

TEST(MirCorpus, DeterministicForSameSeed) {
  Module A = plantedModule(3, 8, fullPlants());
  Module B = plantedModule(3, 8, fullPlants());
  EXPECT_EQ(A.toString(), B.toString());
  Module C = plantedModule(4, 8, fullPlants());
  EXPECT_NE(A.toString(), C.toString());
}

TEST(MirCorpus, RoundTripsThroughParser) {
  Module M = plantedModule(7, 8, fullPlants());
  std::string Printed = M.toString();
  auto R = Parser::parse(Printed);
  ASSERT_TRUE(R) << R.error().toString();
  EXPECT_EQ(R->toString(), Printed);
}

TEST(MirCorpus, DetectorsFindExactlyTheInjectedBugs) {
  std::vector<Plant> Plants = fullPlants();
  Module M = plantedModule(7, 8, Plants);
  DiagnosticEngine Diags;
  runAllDetectors(M, Diags);

  EXPECT_EQ(Diags.countOfKind(BugKind::UseAfterFree), 3u);
  EXPECT_EQ(Diags.countOfKind(BugKind::DoubleLock), 4u);
  EXPECT_EQ(Diags.countOfKind(BugKind::ConflictingLockOrder), 2u);
  EXPECT_EQ(Diags.countOfKind(BugKind::InvalidFree), 3u);
  EXPECT_EQ(Diags.countOfKind(BugKind::DoubleFree), 2u);
  EXPECT_EQ(Diags.countOfKind(BugKind::UninitRead), 2u);
  EXPECT_EQ(Diags.countOfKind(BugKind::InteriorMutability), 2u);
  EXPECT_EQ(Diags.countOfKind(BugKind::WaitNoNotify), 2u);
  EXPECT_EQ(Diags.countOfKind(BugKind::RecvNoSender), 1u);
  EXPECT_EQ(Diags.countOfKind(BugKind::BorrowConflict), 2u);
  EXPECT_EQ(Diags.count(), plantedBugCount(Plants)) << Diags.renderText();
}

TEST(MirCorpus, BenignOnlyCorpusIsSilent) {
  Module M = plantedModule(11, 10,
                           {{Mutation::UafPostDrop, false, 4},
                            {Mutation::DoubleLock, false, 2},
                            {Mutation::DoubleLockInterproc, false, 2},
                            {Mutation::LockOrderInversion, false, 2},
                            {Mutation::InvalidFree, false, 4},
                            {Mutation::DoubleFree, false, 4},
                            {Mutation::UninitRead, false, 4},
                            {Mutation::InteriorMutability, false, 4},
                            {Mutation::CondvarWait, false, 2},
                            {Mutation::ChannelRecv, false, 2},
                            {Mutation::RefCellConflict, false, 2}});
  DiagnosticEngine Diags;
  runAllDetectors(M, Diags);
  EXPECT_EQ(Diags.count(), 0u) << Diags.renderText();
}

// Property sweep: recall and precision hold across seeds and sizes.
class MirCorpusSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MirCorpusSweep, RecallAndPrecisionAcrossSeeds) {
  unsigned UafBugs = 1 + GetParam() % 3;
  unsigned DoubleLockBugs = 1 + (GetParam() / 3) % 3;
  std::vector<Plant> Plants = fullPlants(UafBugs, DoubleLockBugs);
  Module M = plantedModule(GetParam(), 8, Plants);

  std::vector<std::string> Errors;
  ASSERT_TRUE(verifyModule(M, Errors));

  DiagnosticEngine Diags;
  runAllDetectors(M, Diags);
  EXPECT_EQ(Diags.countOfKind(BugKind::UseAfterFree), UafBugs);
  EXPECT_EQ(Diags.countOfKind(BugKind::DoubleLock), DoubleLockBugs);
  EXPECT_EQ(Diags.count(), plantedBugCount(Plants)) << Diags.renderText();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MirCorpusSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));
