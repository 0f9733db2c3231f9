#include "testgen/Oracles.h"

#include "mir/Parser.h"
#include "support/Rng.h"
#include "testgen/Generator.h"

#include <gtest/gtest.h>

using namespace rs;
using namespace rs::testgen;

namespace {

mir::Module generate(uint64_t Seed) {
  GenConfig C;
  C.Seed = Seed;
  return ProgramGenerator(C).generate();
}

TEST(OracleTest, CleanModulesPassEveryOracle) {
  for (uint64_t Seed = 1; Seed <= 15; ++Seed) {
    mir::Module M = generate(Seed);
    for (const OracleResult &R : failedOracles(M, nullptr, Seed))
      ADD_FAILURE() << "seed " << Seed << " [" << R.Oracle
                    << "] " << R.Message;
  }
}

TEST(OracleTest, MutatedModulesPassEveryOracle) {
  uint64_t Seed = 300;
  for (Mutation Mu : allMutations()) {
    for (bool Positive : {true, false}) {
      mir::Module M = generate(Seed);
      Rng R(Seed);
      InjectedBug Bug = applyMutation(M, Mu, Positive, 0, R);
      for (const OracleResult &F : failedOracles(M, &Bug, Seed))
        ADD_FAILURE() << mutationName(Mu) << (Positive ? " bug" : " ok")
                      << " [" << F.Oracle << "] " << F.Message;
      ++Seed;
    }
  }
}

// A module carrying several patterns at once (what the Section 7 benches
// analyze): the metamorphic oracles must hold there too, not just on
// single-mutation sweep modules.
TEST(OracleTest, CorpusModulePassesMetamorphicOracles) {
  mir::Module M = plantedModule(3, 10,
                                {{Mutation::UafPostDrop, true, 2},
                                 {Mutation::DoubleLockInterproc, true, 1},
                                 {Mutation::DoubleLock, true, 1},
                                 {Mutation::LockOrderInversion, true, 1}});
  EXPECT_TRUE(checkRoundTrip(M).Ok);
  EXPECT_TRUE(checkRenameInvariance(M).Ok);
  EXPECT_TRUE(checkPermuteInvariance(M, 17).Ok);
}

TEST(OracleTest, ExpectationOracleCatchesWrongLabels) {
  mir::Module M = generate(1);
  Rng R(1);
  InjectedBug Bug = applyMutation(M, Mutation::UafPostDrop, true, 0, R);

  // Correct label passes.
  EXPECT_TRUE(checkDetectorExpectation(M, Bug).Ok);

  // Lying about the polarity fails.
  InjectedBug Lie = Bug;
  Lie.Positive = false;
  EXPECT_FALSE(checkDetectorExpectation(M, Lie).Ok);

  // A detector that cannot fire here fails the positive claim.
  InjectedBug Wrong = Bug;
  Wrong.Detector = "double-lock";
  EXPECT_FALSE(checkDetectorExpectation(M, Wrong).Ok);
}

TEST(OracleTest, RoundTripCatchesUnparseablePrint) {
  // A module whose print does not reparse is the canonical round-trip
  // violation; build one by hand with a function name the parser rejects.
  mir::Module M;
  mir::Function F;
  F.Name = rs::Symbol::intern("not a valid identifier");
  F.Locals.push_back({M.types().getUnit(), true, {}});
  mir::BasicBlock B;
  B.Term = mir::Terminator::ret();
  F.Blocks.push_back(B);
  M.addFunction(std::move(F));
  EXPECT_FALSE(checkRoundTrip(M).Ok);
}

} // namespace
