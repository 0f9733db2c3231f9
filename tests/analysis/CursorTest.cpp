// Streaming cursors must agree with the replay-based stateBefore queries at
// every block, statement index, and terminator point — on handcrafted CFGs
// with branches and loops, and across whole generated corpus modules.

#include "analysis/LiveVariables.h"
#include "analysis/Memory.h"
#include "analysis/Summaries.h"
#include "mir/Parser.h"
#include "testgen/Mutators.h"

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

/// Checks ForwardCursor against ForwardDataflow::stateBefore and
/// BackwardCursor against BackwardDataflow::stateBefore at every statement
/// index of every block of \p F.
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
