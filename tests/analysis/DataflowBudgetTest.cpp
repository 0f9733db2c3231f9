//===----------------------------------------------------------------------===//
//
// Budget-exhaustion degradation in the dataflow framework: an exhausted
// budget must stop iteration (never hang), report non-convergence, and leave
// a partial solution that is still safe to query.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dataflow.h"
#include "analysis/Memory.h"
#include "analysis/Summaries.h"

#include "mir/Parser.h"

#include <gtest/gtest.h>

using namespace rs;
using namespace rs::analysis;
using namespace rs::mir;

namespace {

Module parseOk(std::string_view Src) {
  auto R = Parser::parse(Src);
  EXPECT_TRUE(R) << (R ? "" : R.error().toString());
  return R.take();
}

// A loop so the fixpoint needs several rounds of block updates.
const char *LoopSrc = "fn looping(_1: i32) -> i32 {\n"
                      "    let _2: i32;\n"
                      "    bb0: {\n"
                      "        _2 = const 0;\n"
                      "        goto -> bb1;\n"
                      "    }\n"
                      "    bb1: {\n"
                      "        switchInt(copy _1) -> [0: bb3, otherwise: bb2];\n"
                      "    }\n"
                      "    bb2: {\n"
                      "        _2 = Add(copy _2, const 1);\n"
                      "        goto -> bb1;\n"
                      "    }\n"
                      "    bb3: {\n"
                      "        _0 = copy _2;\n"
                      "        return;\n"
                      "    }\n"
                      "}\n";

/// Gen-only transfer: every assignment sets its destination local. Simple
/// enough that convergence behavior is the only variable under test.
class AssignedLocals : public ForwardTransfer {
public:
  explicit AssignedLocals(size_t NumLocals) : NumLocals(NumLocals) {}

  BitVec initialState() const override { return BitVec(NumLocals); }

  void transferStatement(const Statement &S, BitRef State) const override {
    if (S.K == Statement::Kind::Assign && S.Dest.Projs.empty())
      State.set(S.Dest.Base);
  }

  void transferEdge(const Terminator &, BlockId, BitRef) const override {}

private:
  size_t NumLocals;
};

} // namespace

TEST(DataflowBudget, UnlimitedConverges) {
  Module M = parseOk(LoopSrc);
  const Function &F = *M.findFunction("looping");
  Cfg G(F);
  AssignedLocals T(F.numLocals());
  ForwardDataflow DF(G, T);
  EXPECT_TRUE(DF.converged());
  // At bb3, _2 was definitely assigned.
  EXPECT_TRUE(DF.blockIn(3).test(2));
}

TEST(DataflowBudget, ExhaustionStopsWithoutConverging) {
  Module M = parseOk(LoopSrc);
  const Function &F = *M.findFunction("looping");
  Cfg G(F);
  AssignedLocals T(F.numLocals());
  Budget B = Budget::steps(1); // Enough for one block update only.
  ForwardDataflow DF(G, T, &B);
  EXPECT_FALSE(DF.converged());
  EXPECT_TRUE(B.exhausted());
  // Partial states stay queryable and under-approximate: nothing claims an
  // assignment the full fixpoint would not also claim.
  ForwardDataflow Full(G, T);
  for (BlockId BB = 0; BB != F.numBlocks(); ++BB)
    for (size_t L = 0; L != F.numLocals(); ++L)
      if (DF.blockIn(BB).test(L)) {
        EXPECT_TRUE(Full.blockIn(BB).test(L)) << "bb" << BB << " _" << L;
      }
}

TEST(DataflowBudget, StoppedSolveKeepsReplayedExitStates) {
  // Wherever the budget stops the solve (before, inside and after the
  // loop's rounds), every block's kept exit state is the replay of its
  // in-state, including blocks the solve never reached.
  Module M = parseOk(LoopSrc);
  const Function &F = *M.findFunction("looping");
  Cfg G(F);
  AssignedLocals T(F.numLocals());
  for (uint64_t Steps = 1; Steps != 12; ++Steps) {
    Budget B = Budget::steps(Steps);
    ForwardDataflow DF(G, T, &B);
    Budget MB = Budget::steps(Steps);
    MemoryAnalysis MA(G, M, /*Summaries=*/nullptr, &MB);
    for (BlockId BB = 0; BB != F.numBlocks(); ++BB) {
      size_t N = F.Blocks[BB].Statements.size();
      EXPECT_EQ(DF.blockExit(BB), DF.stateBefore(BB, N))
          << Steps << " steps, bb" << BB;
      EXPECT_EQ(MA.dataflow().blockExit(BB),
                MA.dataflow().stateBefore(BB, N))
          << Steps << " steps, bb" << BB;
    }
  }
}

TEST(DataflowBudget, GenerousBudgetStillConverges) {
  Module M = parseOk(LoopSrc);
  const Function &F = *M.findFunction("looping");
  Cfg G(F);
  AssignedLocals T(F.numLocals());
  Budget B = Budget::steps(10000);
  ForwardDataflow DF(G, T, &B);
  EXPECT_TRUE(DF.converged());
  EXPECT_FALSE(B.exhausted());
}

TEST(DataflowBudget, MemoryAnalysisReportsDegradation) {
  Module M = parseOk(LoopSrc);
  const Function &F = *M.findFunction("looping");
  Cfg G(F);

  MemoryAnalysis Unbounded(G, M);
  EXPECT_TRUE(Unbounded.dataflowConverged());

  Budget B = Budget::steps(1);
  MemoryAnalysis Bounded(G, M, /*Summaries=*/nullptr, &B);
  EXPECT_FALSE(Bounded.dataflowConverged());
}

TEST(DataflowBudget, SummaryComputationTruncates) {
  Module M = parseOk("fn leaf() -> i32 {\n"
                     "    bb0: { _0 = const 1; return; }\n"
                     "}\n"
                     "fn caller() -> i32 {\n"
                     "    bb0: {\n"
                     "        _0 = leaf() -> bb1;\n"
                     "    }\n"
                     "    bb1: { return; }\n"
                     "}\n");
  bool Complete = true;
  Budget B = Budget::steps(1); // One function's summary, then stop.
  SummaryMap Partial = computeSummaries(M, /*MaxRounds=*/8, &B, &Complete);
  EXPECT_FALSE(Complete);
  // The truncated map is still usable: every function keeps at least its
  // conservative seed summary.
  EXPECT_EQ(Partial.size(), M.functions().size());

  bool FullComplete = false;
  computeSummaries(M, 8, nullptr, &FullComplete);
  EXPECT_TRUE(FullComplete);
}
