// Streaming cursors must agree with the replay-based stateBefore queries at
// every block, statement index, and terminator point — on handcrafted CFGs
// with branches and loops, and across whole generated corpus modules.

#include "analysis/LiveVariables.h"
#include "analysis/Memory.h"
#include "analysis/Summaries.h"
#include "mir/Parser.h"
#include "testgen/Mutators.h"

#include <gtest/gtest.h>

#include <map>

using namespace rs;
using namespace rs::analysis;
using namespace rs::mir;

namespace {

Module parseOk(std::string_view Src) {
  auto R = Parser::parse(Src);
  EXPECT_TRUE(R) << (R ? "" : R.error().toString());
  return R.take();
}

/// Checks ForwardCursor against ForwardDataflow::stateBefore and
/// BackwardCursor against BackwardDataflow::stateBefore at every statement
/// index of every block of \p F, the solver's kept exit states against the
/// replayed state before each terminator, and a cursor that skips reads
/// against the replay at the point where it finally reads.
void expectCursorsMatchReplay(const Function &F, const Module &M,
                              const SummaryMap *Summaries = nullptr) {
  Cfg G(F);
  MemoryAnalysis MA(G, M, Summaries);
  LiveVariables LV(G);

  ForwardCursor Fwd = MA.cursor();
  BackwardCursor Bwd(LV.dataflow());
  BitVec Scratch;
  for (BlockId B = 0; B != F.numBlocks(); ++B) {
    size_t N = F.Blocks[B].Statements.size();
    Fwd.seek(B);
    Bwd.seek(B);
    for (size_t I = 0; I <= N; ++I) {
      EXPECT_EQ(Fwd.block(), B);
      EXPECT_EQ(Fwd.index(), I);
      EXPECT_EQ(Fwd.atTerminator(), I == N);
      // Forward: cursor state vs replay, via both query tiers.
      EXPECT_EQ(Fwd.state(), MA.dataflow().stateBefore(B, I))
          << F.Name << " bb" << B << " stmt " << I;
      MA.dataflow().stateBeforeInto(B, I, Scratch);
      EXPECT_EQ(Fwd.state(), Scratch);
      // Backward: materialized point vs replay.
      EXPECT_EQ(Bwd.stateBefore(I), LV.dataflow().stateBefore(B, I))
          << F.Name << " bb" << B << " stmt " << I;
      if (I != N)
        Fwd.advance();
    }
    // The kept exit state is the replay, reachable block or not.
    EXPECT_EQ(MA.dataflow().blockExit(B), MA.dataflow().stateBefore(B, N))
        << F.Name << " bb" << B;
    // A cursor that moves without reading applies the pending transfers
    // (or takes the kept exit state) only when state() is finally read.
    for (size_t K = 0; K <= N; ++K) {
      Fwd.seek(B);
      for (size_t I = 0; I != K; ++I)
        Fwd.advance();
      EXPECT_EQ(Fwd.state(), MA.dataflow().stateBefore(B, K))
          << F.Name << " bb" << B << " skipped to stmt " << K;
    }
  }
}

void expectCursorsMatchReplay(const Module &M) {
  SummaryMap Summaries = computeSummaries(M);
  for (const auto &F : M.functions())
    expectCursorsMatchReplay(F, M, &Summaries);
}

} // namespace

TEST(Cursor, StraightLineBlock) {
  Module M = parseOk("fn f() {\n"
                     "    let _1: i32;\n"
                     "    let _2: &i32;\n"
                     "    bb0: {\n"
                     "        StorageLive(_1);\n"
                     "        _1 = const 5;\n"
                     "        _2 = &_1;\n"
                     "        StorageDead(_1);\n"
                     "        return;\n"
                     "    }\n"
                     "}\n");
  expectCursorsMatchReplay(M);
}

TEST(Cursor, BranchesAndJoin) {
  Module M = parseOk("fn f(_1: i32) {\n"
                     "    let _2: i32;\n"
                     "    let _3: &i32;\n"
                     "    bb0: {\n"
                     "        switchInt(copy _1) -> [0: bb1, otherwise: bb2];\n"
                     "    }\n"
                     "    bb1: { _2 = const 1; goto -> bb3; }\n"
                     "    bb2: { _2 = const 2; _3 = &_2; goto -> bb3; }\n"
                     "    bb3: { _2 = const 3; return; }\n"
                     "}\n");
  expectCursorsMatchReplay(M);
}

TEST(Cursor, LoopWithHeapAndDrop) {
  Module M = parseOk("fn f(_1: i32) {\n"
                     "    let _2: Box<i32>;\n"
                     "    let _3: i32;\n"
                     "    bb0: {\n"
                     "        _2 = Box::new(const 1) -> bb1;\n"
                     "    }\n"
                     "    bb1: {\n"
                     "        _3 = copy (*_2);\n"
                     "        switchInt(copy _1) -> [0: bb2, otherwise: bb1];\n"
                     "    }\n"
                     "    bb2: { drop(_2) -> bb3; }\n"
                     "    bb3: { return; }\n"
                     "}\n");
  expectCursorsMatchReplay(M);
}

TEST(Cursor, SeekIsRepositionable) {
  // Re-seeking an earlier block after a later one recycles scratch state
  // without residue.
  Module M = parseOk("fn f() {\n"
                     "    let _1: i32;\n"
                     "    bb0: { _1 = const 1; goto -> bb1; }\n"
                     "    bb1: { _1 = const 2; return; }\n"
                     "}\n");
  const Function &F = *M.findFunction("f");
  Cfg G(F);
  MemoryAnalysis MA(G, M);
  ForwardCursor C = MA.cursor();
  C.seek(1);
  (void)C.stateAtTerminator();
  C.seek(0);
  EXPECT_EQ(C.state(), MA.dataflow().stateBefore(0, 0));
  EXPECT_EQ(C.stateAtTerminator(), MA.dataflow().stateBefore(0, 1));
}

TEST(Cursor, GeneratedCorpusModules) {
  // Whole generated modules: every bug pattern family, interprocedural
  // summaries applied, every statement point checked.
  using testgen::Mutation;
  Module M = testgen::plantedModule(7, 10,
                                    {{Mutation::UafPostDrop, true, 2},
                                     {Mutation::UafGuarded, true, 1},
                                     {Mutation::DoubleLockInterproc, true, 1},
                                     {Mutation::DoubleLock, true, 1},
                                     {Mutation::DoubleLockInterproc, false, 1},
                                     {Mutation::LockOrderInversion, true, 1},
                                     {Mutation::InvalidFree, true, 1},
                                     {Mutation::DoubleFree, true, 1},
                                     {Mutation::UninitRead, true, 1},
                                     {Mutation::CondvarWait, true, 1},
                                     {Mutation::RefCellConflict, true, 1}});
  ASSERT_FALSE(M.functions().empty());
  expectCursorsMatchReplay(M);
}

namespace {

/// Gen-only transfer that counts how often each statement's transfer runs:
/// every assignment to a plain local sets that local's bit.
class CountingTransfer : public ForwardTransfer {
public:
  explicit CountingTransfer(size_t NumLocals) : NumLocals(NumLocals) {}

  BitVec initialState() const override { return BitVec(NumLocals); }

  void transferStatement(const Statement &S, BitRef State) const override {
    ++Calls[&S];
    ++Total;
    if (S.K == Statement::Kind::Assign && S.Dest.Projs.empty())
      State.set(S.Dest.Base);
  }

  void transferEdge(const Terminator &, BlockId, BitRef) const override {}

  mutable std::map<const Statement *, unsigned> Calls;
  mutable unsigned Total = 0;

private:
  size_t NumLocals;
};

} // namespace

TEST(Cursor, SolveAndTerminatorQueriesApplyEachTransferOnce) {
  // A diamond (bb0-bb3), a self-loop (bb4), an exit (bb5) and a block no
  // edge reaches (bb6).
  Module M = parseOk("fn f(_1: i32) {\n"
                     "    let _2: i32;\n"
                     "    let _3: i32;\n"
                     "    let _4: i32;\n"
                     "    let _5: i32;\n"
                     "    let _6: i32;\n"
                     "    let _7: i32;\n"
                     "    bb0: {\n"
                     "        _2 = const 0;\n"
                     "        _3 = const 0;\n"
                     "        switchInt(copy _1) -> [0: bb1, otherwise: bb2];\n"
                     "    }\n"
                     "    bb1: { _4 = const 1; goto -> bb3; }\n"
                     "    bb2: { _5 = const 2; _4 = const 2; goto -> bb3; }\n"
                     "    bb3: { _2 = const 3; goto -> bb4; }\n"
                     "    bb4: {\n"
                     "        _6 = const 4;\n"
                     "        switchInt(copy _1) -> [0: bb5, otherwise: bb4];\n"
                     "    }\n"
                     "    bb5: { _3 = const 5; return; }\n"
                     "    bb6: { _7 = const 6; return; }\n"
                     "}\n");
  const Function &F = *M.findFunction("f");
  Cfg G(F);
  CountingTransfer T(F.numLocals());
  ForwardDataflow DF(G, T);
  ASSERT_TRUE(DF.converged());

  // The solve applies each statement of the acyclic part, and of the
  // unreachable block, exactly once; the loop may repeat while it changes.
  for (BlockId B : {0u, 1u, 2u, 3u, 6u})
    for (const Statement &S : F.Blocks[B].Statements)
      EXPECT_EQ(T.Calls[&S], 1u) << "bb" << B;

  // Reading only the terminator point costs no transfer, and neither does
  // moving without reading.
  T.Total = 0;
  ForwardCursor C(DF);
  for (BlockId B = 0; B != F.numBlocks(); ++B) {
    C.seek(B);
    EXPECT_EQ(C.stateAtTerminator(),
              DF.stateBefore(B, F.Blocks[B].Statements.size()));
    C.seek(B);
    while (!C.atTerminator())
      C.advance();
  }
  unsigned Replayed = 0;
  for (const BasicBlock &BB : F.Blocks)
    Replayed += BB.Statements.size();
  EXPECT_EQ(T.Total, Replayed) << "only the stateBefore replays may apply";
}
