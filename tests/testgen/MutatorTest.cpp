#include "testgen/Mutators.h"

#include "detectors/Detector.h"
#include "mir/Verifier.h"
#include "support/Rng.h"
#include "testgen/Generator.h"

#include <gtest/gtest.h>

#include <iterator>
#include <set>

using namespace rs;
using namespace rs::testgen;

namespace {

mir::Module hostModule(uint64_t Seed) {
  GenConfig C;
  C.Seed = Seed;
  C.MinFunctions = 1;
  C.MaxFunctions = 2;
  return ProgramGenerator(C).generate();
}

/// Findings \p DetectorName reports on \p M, over every rule it produces.
size_t detectorCount(const mir::Module &M, const std::string &DetectorName) {
  detectors::DiagnosticEngine Diags;
  detectors::runAllDetectors(M, Diags);
  return Diags.countOfDetector(DetectorName);
}

// Every mutation's buggy form must trip its detector and its benign twin
// must not — on top of an arbitrary generated host program. This is the
// exactness of the ground-truth labels.
TEST(MutatorTest, PositiveFormTripsTargetDetector) {
  uint64_t Seed = 100;
  for (Mutation Mu : allMutations()) {
    mir::Module M = hostModule(Seed);
    Rng R(Seed * 31);
    InjectedBug Bug = applyMutation(M, Mu, /*Positive=*/true, 0, R);
    EXPECT_TRUE(Bug.Positive);
    EXPECT_STREQ(Bug.Detector.c_str(), mutationDetector(Mu));

    std::vector<std::string> Errors;
    ASSERT_TRUE(mir::verifyModule(M, Errors))
        << mutationName(Mu) << ": " << (Errors.empty() ? "" : Errors[0]);
    EXPECT_GT(detectorCount(M, Bug.Detector), 0u)
        << mutationName(Mu) << " positive must trip " << Bug.Detector;
    ++Seed;
  }
}

TEST(MutatorTest, BenignTwinStaysSilent) {
  uint64_t Seed = 200;
  for (Mutation Mu : allMutations()) {
    mir::Module M = hostModule(Seed);
    Rng R(Seed * 31);
    InjectedBug Bug = applyMutation(M, Mu, /*Positive=*/false, 0, R);
    EXPECT_FALSE(Bug.Positive);

    std::vector<std::string> Errors;
    ASSERT_TRUE(mir::verifyModule(M, Errors))
        << mutationName(Mu) << ": " << (Errors.empty() ? "" : Errors[0]);
    EXPECT_EQ(detectorCount(M, Bug.Detector), 0u)
        << mutationName(Mu) << " benign twin must not trip " << Bug.Detector;
    ++Seed;
  }
}

TEST(MutatorTest, LabelNamesAnInjectedFunction) {
  mir::Module M = hostModule(7);
  Rng R(7);
  InjectedBug Bug =
      applyMutation(M, Mutation::UafPostDrop, /*Positive=*/true, 3, R);
  EXPECT_NE(M.findFunction(Bug.Function), nullptr);
  EXPECT_NE(Bug.Function.find("uaf_post_drop"), std::string::npos);
  EXPECT_NE(Bug.Function.find("3"), std::string::npos);
}

TEST(MutatorTest, CatalogNamesAreStableAndDistinct) {
  // The sampled prefix plus the four patterns planted only by name.
  EXPECT_EQ(allMutations().size(), NumMutations + 4);
  std::set<std::string> Names, Detectors;
  for (Mutation Mu : allMutations()) {
    Names.insert(mutationName(Mu));
    Detectors.insert(mutationDetector(Mu));
  }
  EXPECT_EQ(Names.size(), allMutations().size());
  // Several mutations share a detector (three UAF shapes; two double-lock
  // shapes and the RefCell conflict; Condvar and channel), so the detector
  // set is smaller: exactly the nine battery detectors.
  EXPECT_EQ(Detectors.size(), 9u);
  EXPECT_EQ(std::string(mutationName(Mutation::UafPostDrop)),
            "uaf-post-drop");
  EXPECT_EQ(std::string(mutationDetector(Mutation::DoubleLock)),
            "double-lock");
}

// The random samplers (sweep, fuzzer, perfbench inputs) index
// allMutations()[0, NumMutations). Those ten entries, in this order, are
// what keeps the sweep digest and the benchmark's generated corpus stable;
// new patterns go after them.
TEST(MutatorTest, SampledPrefixIsPinned) {
  const Mutation Pinned[] = {
      Mutation::UafPostDrop,        Mutation::UafGuarded,
      Mutation::UseAfterScope,      Mutation::DanglingReturn,
      Mutation::DoubleLock,         Mutation::DoubleLockInterproc,
      Mutation::LockOrderInversion, Mutation::DoubleFree,
      Mutation::InvalidFree,        Mutation::UninitRead,
  };
  ASSERT_EQ(NumMutations, std::size(Pinned));
  ASSERT_GE(allMutations().size(), NumMutations);
  for (unsigned I = 0; I != NumMutations; ++I)
    EXPECT_EQ(allMutations()[I], Pinned[I])
        << "entry " << I << " is " << mutationName(allMutations()[I]);
}

TEST(MutatorTest, InjectionIsDeterministic) {
  auto Build = [] {
    mir::Module M = hostModule(9);
    Rng R(9);
    applyMutation(M, Mutation::LockOrderInversion, true, 0, R);
    return M.toString();
  };
  EXPECT_EQ(Build(), Build());
}

} // namespace
