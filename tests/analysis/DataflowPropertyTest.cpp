//===----------------------------------------------------------------------===//
// Property tests of the dataflow framework and dominator tree, swept over
// generated corpora: the solved states must actually be fixpoints, and
// dominance must agree with a brute-force graph-reachability definition.
//===----------------------------------------------------------------------===//

#include "analysis/LiveVariables.h"
#include "analysis/Memory.h"
#include "mir/Parser.h"
#include "testgen/Mutators.h"

#include <gtest/gtest.h>

using namespace rs;
using namespace rs::analysis;
using namespace rs::mir;
using namespace rs::testgen;

namespace {

Module sweepModule(uint64_t Seed) {
  return plantedModule(Seed, 6,
                       {{Mutation::UafPostDrop, true, 2},
                        {Mutation::UafPostDrop, false, 2},
                        {Mutation::DoubleLockInterproc, true, 1},
                        {Mutation::DoubleLock, true, 1},
                        {Mutation::DoubleLockInterproc, false, 1},
                        {Mutation::DoubleLock, false, 1},
                        {Mutation::LockOrderInversion, true, 1},
                        {Mutation::InvalidFree, true, 1},
                        {Mutation::DoubleFree, true, 1},
                        {Mutation::UninitRead, true, 1},
                        {Mutation::InteriorMutability, true, 1}});
}

/// Union-meet subset check: A must contain B.
bool contains(const BitVec &A, const BitVec &B) {
  BitVec Tmp = A;
  Tmp.unionWith(B);
  return Tmp == A;
}

} // namespace

class DataflowSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DataflowSweep, ForwardSolutionIsAFixpoint) {
  Module M = sweepModule(GetParam());
  for (const auto &F : M.functions()) {
    Cfg G(F);
    MemoryAnalysis MA(G, M);
    const ForwardDataflow &DF = MA.dataflow();
    // Every edge's outgoing state must already be folded into the
    // successor's in-state (meet is union).
    for (BlockId B = 0; B != F.numBlocks(); ++B) {
      if (!G.isReachable(B))
        continue;
      for (BlockId S : G.successors(B)) {
        BitVec Edge = DF.stateOnEdge(B, S);
        EXPECT_TRUE(contains(DF.blockIn(S), Edge))
            << F.Name << ": edge bb" << B << " -> bb" << S
            << " not folded into successor in-state";
      }
    }
  }
}

TEST_P(DataflowSweep, BackwardSolutionIsAFixpoint) {
  Module M = sweepModule(GetParam());
  for (const auto &F : M.functions()) {
    Cfg G(F);
    LiveVariables LV(G);
    const BackwardDataflow &DF = LV.dataflow();
    for (BlockId B = 0; B != F.numBlocks(); ++B) {
      if (!G.isReachable(B))
        continue;
      // Out[B] must contain each successor's in-state (before stmt 0).
      for (BlockId S : G.successors(B)) {
        BitVec SuccIn = DF.stateBefore(S, 0);
        EXPECT_TRUE(contains(DF.blockOut(B), SuccIn))
            << F.Name << ": bb" << B << " out-state missing bb" << S
            << " liveness";
      }
    }
  }
}

TEST_P(DataflowSweep, DominatorsMatchBruteForce) {
  Module M = sweepModule(GetParam());
  for (const auto &F : M.functions()) {
    Cfg G(F);
    DominatorTree DT(G);
    unsigned N = F.numBlocks();

    // Brute force: A dominates B iff B is unreachable from entry when A
    // is removed (and both are reachable).
    auto ReachableAvoiding = [&](BlockId Avoid) {
      std::vector<bool> Seen(N, false);
      if (Avoid == 0)
        return Seen; // Removing the entry blocks everything.
      std::vector<BlockId> Work{0};
      Seen[0] = true;
      while (!Work.empty()) {
        BlockId Cur = Work.back();
        Work.pop_back();
        for (BlockId S : G.successors(Cur)) {
          if (S == Avoid || Seen[S])
            continue;
          Seen[S] = true;
          Work.push_back(S);
        }
      }
      return Seen;
    };

    for (BlockId A = 0; A != N; ++A) {
      if (!G.isReachable(A))
        continue;
      std::vector<bool> Reach = ReachableAvoiding(A);
      for (BlockId B = 0; B != N; ++B) {
        if (!G.isReachable(B))
          continue;
        bool Expected = A == B || !Reach[B];
        EXPECT_EQ(DT.dominates(A, B), Expected)
            << F.Name << ": dominates(bb" << A << ", bb" << B << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DataflowSweep,
                         ::testing::Values(101, 202, 303, 404));

class RoundTripSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RoundTripSweep, CorpusPrintParseFixpoint) {
  Module M = sweepModule(GetParam());
  std::string P1 = M.toString();
  auto R = Parser::parse(P1);
  ASSERT_TRUE(R) << R.error().toString();
  EXPECT_EQ(R->toString(), P1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripSweep,
                         ::testing::Values(11, 22, 33, 44, 55));
