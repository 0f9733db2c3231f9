#include "mir/Transforms.h"

#include "interp/Interp.h"
#include "mir/Parser.h"
#include "mir/Verifier.h"
#include "testgen/Mutators.h"

#include <gtest/gtest.h>

using namespace rs;
using namespace rs::mir;

namespace {

Module parseOk(std::string_view Src) {
  auto R = Parser::parse(Src);
  EXPECT_TRUE(R) << (R ? "" : R.error().toString());
  return R.take();
}

unsigned runCleanup(Module &M) {
  PassManager PM;
  addCleanupPasses(PM);
  return PM.run(M);
}

} // namespace

TEST(Transforms, FoldsConstantSwitch) {
  Module M = parseOk("fn f() -> i32 {\n"
                     "    bb0: {\n"
                     "        switchInt(const 1) -> [0: bb1, 1: bb2, "
                     "otherwise: bb3];\n"
                     "    }\n"
                     "    bb1: { _0 = const 10; return; }\n"
                     "    bb2: { _0 = const 20; return; }\n"
                     "    bb3: { _0 = const 30; return; }\n"
                     "}\n");
  EXPECT_GT(runCleanup(M), 0u);
  const Function &F = *M.findFunction("f");
  // Folded to a straight line: the taken arm merged into the entry, dead
  // arms removed.
  ASSERT_EQ(F.numBlocks(), 1u);
  EXPECT_EQ(F.Blocks[0].Term.K, Terminator::Kind::Return);
  ASSERT_EQ(F.Blocks[0].Statements.size(), 1u);
  EXPECT_EQ(F.Blocks[0].Statements[0].RV.Ops[0].C.Int, 20);

  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyModule(M, Errors)) << Errors.front();
}

TEST(Transforms, ThreadsGotoChains) {
  Module M = parseOk("fn f() {\n"
                     "    bb0: { goto -> bb1; }\n"
                     "    bb1: { goto -> bb2; }\n"
                     "    bb2: { goto -> bb3; }\n"
                     "    bb3: { return; }\n"
                     "}\n");
  runCleanup(M);
  const Function &F = *M.findFunction("f");
  EXPECT_EQ(F.numBlocks(), 1u);
  EXPECT_EQ(F.Blocks[0].Term.K, Terminator::Kind::Return);
}

TEST(Transforms, RemovesDeadBlocksAndRenumbers) {
  Module M = parseOk("fn f() -> i32 {\n"
                     "    bb0: { goto -> bb2; }\n"
                     "    bb1: { _0 = const 1; return; }\n" // Dead.
                     "    bb2: { _0 = const 2; return; }\n"
                     "}\n");
  PassManager PM;
  PM.add(createDeadBlockElimPass());
  EXPECT_EQ(PM.run(M), 1u);
  const Function &F = *M.findFunction("f");
  ASSERT_EQ(F.numBlocks(), 2u);
  EXPECT_EQ(F.Blocks[0].Term.Target, 1u); // Retargeted bb2 -> bb1.
  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyModule(M, Errors)) << Errors.front();
}

TEST(Transforms, RemovesNops) {
  Module M = parseOk("fn f() {\n"
                     "    bb0: {\n"
                     "        nop;\n"
                     "        nop;\n"
                     "        return;\n"
                     "    }\n"
                     "}\n");
  PassManager PM;
  PM.add(createNopElimPass());
  EXPECT_EQ(PM.run(M), 1u);
  EXPECT_TRUE(M.findFunction("f")->Blocks[0].Statements.empty());
}

TEST(Transforms, KeepsLoopsIntact) {
  Module M = parseOk("fn f(_1: bool) {\n"
                     "    bb0: { goto -> bb1; }\n"
                     "    bb1: {\n"
                     "        switchInt(copy _1) -> [1: bb1, otherwise: "
                     "bb2];\n"
                     "    }\n"
                     "    bb2: { return; }\n"
                     "}\n");
  runCleanup(M);
  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyModule(M, Errors)) << Errors.front();
  // The loop structure survives: some block still branches to itself.
  bool HasSelfLoop = false;
  const Function &F = *M.findFunction("f");
  for (BlockId B = 0; B != F.numBlocks(); ++B) {
    SuccList Succs;
    F.Blocks[B].Term.successors(Succs);
    for (BlockId S : Succs)
      HasSelfLoop |= S == B;
  }
  EXPECT_TRUE(HasSelfLoop);
}

TEST(Transforms, IdempotentAtFixpoint) {
  Module M = parseOk("fn f() -> i32 {\n"
                     "    bb0: {\n"
                     "        switchInt(const 0) -> [0: bb1, otherwise: "
                     "bb2];\n"
                     "    }\n"
                     "    bb1: { nop; _0 = const 1; goto -> bb3; }\n"
                     "    bb2: { _0 = const 2; goto -> bb3; }\n"
                     "    bb3: { return; }\n"
                     "}\n");
  runCleanup(M);
  std::string Once = M.toString();
  PassManager PM;
  addCleanupPasses(PM);
  EXPECT_EQ(PM.run(M), 0u); // Nothing left to do.
  EXPECT_EQ(M.toString(), Once);
}

// Property sweep: the cleanup pipeline preserves dynamic semantics on the
// whole injected corpus — same ok/trap outcome, same returned value.
class TransformSemantics : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TransformSemantics, InterpreterOutcomesUnchanged) {
  using testgen::Mutation;
  auto Generate = [this] {
    return testgen::plantedModule(GetParam(), 6,
                                  {{Mutation::UafPostDrop, true, 2},
                                   {Mutation::UafPostDrop, false, 2},
                                   {Mutation::DoubleLockInterproc, true, 1},
                                   {Mutation::DoubleLock, true, 1},
                                   {Mutation::DoubleLockInterproc, false, 1},
                                   {Mutation::DoubleLock, false, 1},
                                   {Mutation::InvalidFree, true, 1},
                                   {Mutation::DoubleFree, true, 1},
                                   {Mutation::UninitRead, true, 1},
                                   {Mutation::RefCellConflict, true, 1},
                                   {Mutation::RefCellConflict, false, 1}});
  };
  Module Before = Generate();
  Module After = Generate();
  unsigned Applications = runCleanup(After);
  std::vector<std::string> Errors;
  ASSERT_TRUE(verifyModule(After, Errors)) << Errors.front();
  (void)Applications;

  interp::Interpreter IBefore(Before);
  interp::Interpreter IAfter(After);
  for (const auto &F : Before.functions()) {
    interp::ExecResult A = IBefore.run(F.Name);
    interp::ExecResult B = IAfter.run(F.Name);
    EXPECT_EQ(A.Ok, B.Ok) << F.Name;
    if (A.Ok && B.Ok) {
      EXPECT_EQ(A.Return.toString(), B.Return.toString()) << F.Name;
    }
    if (!A.Ok && !B.Ok && A.Error && B.Error) {
      EXPECT_EQ(A.Error->Kind, B.Error->Kind) << F.Name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransformSemantics,
                         ::testing::Values(61, 62, 63, 64));
