#include "mir/Parser.h"

#include <gtest/gtest.h>

using namespace rs;
using namespace rs::mir;

namespace {

Module parseOk(std::string_view Src) {
  auto R = Parser::parse(Src);
  EXPECT_TRUE(R) << (R ? "" : R.error().toString());
  return R.take();
}

std::string parseErr(std::string_view Src) {
  auto R = Parser::parse(Src);
  EXPECT_FALSE(R) << "expected a parse error";
  return R ? std::string() : R.error().toString();
}

} // namespace

TEST(Parser, MinimalFunction) {
  Module M = parseOk("fn empty() {\n"
                     "    bb0: {\n"
                     "        return;\n"
                     "    }\n"
                     "}\n");
  const Function *F = M.findFunction("empty");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->NumArgs, 0u);
  EXPECT_EQ(F->numLocals(), 1u);
  EXPECT_TRUE(F->Locals[0].Ty->isUnit());
  ASSERT_EQ(F->numBlocks(), 1u);
  EXPECT_EQ(F->Blocks[0].Term.K, Terminator::Kind::Return);
}

TEST(Parser, BlocksHoldExactlyTheirStatements) {
  // A linked exporter's module stays resident after its parse, so its
  // blocks carry no vector growth slack, whatever the block sizes.
  Module M = parseOk("fn f() {\n"
                     "    let _1: i32;\n"
                     "    bb0: {\n"
                     "        StorageLive(_1);\n"
                     "        _1 = const 1_i32;\n"
                     "        _1 = const 2_i32;\n"
                     "        _1 = const 3_i32;\n"
                     "        _1 = const 4_i32;\n"
                     "        goto -> bb1;\n"
                     "    }\n"
                     "    bb1: {\n"
                     "        StorageDead(_1);\n"
                     "        goto -> bb2;\n"
                     "    }\n"
                     "    bb2: { return; }\n"
                     "}\n");
  const Function *F = M.findFunction("f");
  ASSERT_NE(F, nullptr);
  ASSERT_EQ(F->numBlocks(), 3u);
  const size_t Sizes[] = {5, 1, 0};
  for (BlockId B = 0; B != 3; ++B) {
    EXPECT_EQ(F->Blocks[B].Statements.size(), Sizes[B]);
    EXPECT_EQ(F->Blocks[B].Statements.capacity(), Sizes[B]);
  }
}

TEST(Parser, SignatureAndLocals) {
  Module M = parseOk("fn add(_1: i32, _2: i32) -> i32 {\n"
                     "    let mut _3: i32;\n"
                     "    bb0: {\n"
                     "        StorageLive(_3);\n"
                     "        _3 = Add(copy _1, copy _2);\n"
                     "        _0 = move _3;\n"
                     "        StorageDead(_3);\n"
                     "        return;\n"
                     "    }\n"
                     "}\n");
  const Function *F = M.findFunction("add");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->NumArgs, 2u);
  EXPECT_EQ(F->numLocals(), 4u);
  EXPECT_EQ(F->Locals[0].Ty->toString(), "i32");
  EXPECT_TRUE(F->Locals[3].Mutable);
  const BasicBlock &BB = F->Blocks[0];
  ASSERT_EQ(BB.Statements.size(), 4u);
  EXPECT_EQ(BB.Statements[0].K, Statement::Kind::StorageLive);
  EXPECT_EQ(BB.Statements[1].RV.K, Rvalue::Kind::BinaryOp);
  EXPECT_EQ(BB.Statements[1].RV.BOp, BinOp::Add);
  EXPECT_EQ(BB.Statements[2].RV.Ops[0].K, Operand::Kind::Move);
}

TEST(Parser, PlacesWithProjections) {
  Module M = parseOk("fn proj(_1: &mut (i32, i32)) {\n"
                     "    let _2: i32;\n"
                     "    bb0: {\n"
                     "        _2 = copy (*_1).1;\n"
                     "        (*_1).0 = move _2;\n"
                     "        return;\n"
                     "    }\n"
                     "}\n");
  const Function *F = M.findFunction("proj");
  const Statement &S0 = F->Blocks[0].Statements[0];
  const Place &P = S0.RV.Ops[0].P;
  EXPECT_EQ(P.Base, 1u);
  ASSERT_EQ(P.Projs.size(), 2u);
  EXPECT_EQ(P.Projs[0].K, ProjectionElem::Kind::Deref);
  EXPECT_EQ(P.Projs[1].K, ProjectionElem::Kind::Field);
  EXPECT_EQ(P.Projs[1].FieldIdx, 1u);
  EXPECT_TRUE(P.hasDeref());
}

TEST(Parser, IndexProjection) {
  Module M = parseOk("fn idx(_1: &[u8], _2: usize) -> u8 {\n"
                     "    bb0: {\n"
                     "        _0 = copy (*_1)[_2];\n"
                     "        return;\n"
                     "    }\n"
                     "}\n");
  const Place &P = M.findFunction("idx")->Blocks[0].Statements[0].RV.Ops[0].P;
  ASSERT_EQ(P.Projs.size(), 2u);
  EXPECT_EQ(P.Projs[1].K, ProjectionElem::Kind::Index);
  EXPECT_EQ(P.Projs[1].IndexLocal, 2u);
}

TEST(Parser, RefsAddressOfAndCasts) {
  Module M = parseOk("fn refs(_1: i32) {\n"
                     "    let _2: &i32;\n"
                     "    let _3: &mut i32;\n"
                     "    let _4: *const i32;\n"
                     "    let _5: *mut i32;\n"
                     "    bb0: {\n"
                     "        _2 = &_1;\n"
                     "        _3 = &mut _1;\n"
                     "        _4 = &raw const _1;\n"
                     "        _5 = copy _4 as *const i32 as *mut i32;\n"
                     "        return;\n"
                     "    }\n"
                     "}\n");
  const auto &Stmts = M.findFunction("refs")->Blocks[0].Statements;
  EXPECT_EQ(Stmts[0].RV.K, Rvalue::Kind::Ref);
  EXPECT_FALSE(Stmts[0].RV.Mut);
  EXPECT_TRUE(Stmts[1].RV.Mut);
  EXPECT_EQ(Stmts[2].RV.K, Rvalue::Kind::AddressOf);
  EXPECT_EQ(Stmts[3].RV.K, Rvalue::Kind::Cast);
  EXPECT_EQ(Stmts[3].RV.CastTy->toString(), "*mut i32");
}

TEST(Parser, Aggregates) {
  Module M = parseOk("struct Pair { a: i32, b: i32 }\n"
                     "fn agg() {\n"
                     "    let _1: Pair;\n"
                     "    let _2: (i32, bool);\n"
                     "    bb0: {\n"
                     "        _1 = Pair { 0: const 1, 1: const 2 };\n"
                     "        _2 = (const 3, const true);\n"
                     "        return;\n"
                     "    }\n"
                     "}\n");
  const auto &Stmts = M.findFunction("agg")->Blocks[0].Statements;
  EXPECT_EQ(Stmts[0].RV.K, Rvalue::Kind::Aggregate);
  EXPECT_EQ(Stmts[0].RV.AggName, "Pair");
  ASSERT_EQ(Stmts[0].RV.Ops.size(), 2u);
  EXPECT_EQ(Stmts[1].RV.AggName, "");
  EXPECT_EQ(Stmts[1].RV.Ops[1].C.K, ConstValue::Kind::Bool);
  ASSERT_NE(M.findStruct("Pair"), nullptr);
  EXPECT_EQ(M.findStruct("Pair")->Fields.size(), 2u);
}

TEST(Parser, CallsDropsAndControlFlow) {
  Module M = parseOk(
      "fn callee(_1: i32) -> i32 {\n"
      "    bb0: {\n"
      "        _0 = copy _1;\n"
      "        return;\n"
      "    }\n"
      "}\n"
      "fn caller() -> i32 {\n"
      "    let _1: i32;\n"
      "    let _2: bool;\n"
      "    bb0: {\n"
      "        _1 = callee(const 5) -> [return: bb1, unwind: bb4];\n"
      "    }\n"
      "    bb1: {\n"
      "        _2 = Eq(copy _1, const 5);\n"
      "        switchInt(copy _2) -> [0: bb2, otherwise: bb3];\n"
      "    }\n"
      "    bb2: {\n"
      "        drop(_1) -> bb3;\n"
      "    }\n"
      "    bb3: {\n"
      "        _0 = copy _1;\n"
      "        return;\n"
      "    }\n"
      "    bb4: {\n"
      "        resume;\n"
      "    }\n"
      "}\n");
  const Function *F = M.findFunction("caller");
  ASSERT_NE(F, nullptr);
  const Terminator &Call = F->Blocks[0].Term;
  EXPECT_EQ(Call.K, Terminator::Kind::Call);
  EXPECT_TRUE(Call.HasDest);
  EXPECT_EQ(Call.Callee, "callee");
  EXPECT_EQ(Call.Target, 1u);
  EXPECT_EQ(Call.Unwind, 4u);
  const Terminator &Switch = F->Blocks[1].Term;
  EXPECT_EQ(Switch.K, Terminator::Kind::SwitchInt);
  ASSERT_EQ(Switch.Cases.size(), 1u);
  EXPECT_EQ(Switch.Cases[0].first, 0);
  EXPECT_EQ(Switch.Cases[0].second, 2u);
  EXPECT_EQ(Switch.Target, 3u);
  EXPECT_EQ(F->Blocks[2].Term.K, Terminator::Kind::Drop);
  EXPECT_EQ(F->Blocks[4].Term.K, Terminator::Kind::Resume);
}

TEST(Parser, CallWithoutDestination) {
  Module M = parseOk("fn f(_1: i32) {\n"
                     "    bb0: {\n"
                     "        mem::drop(move _1) -> bb1;\n"
                     "    }\n"
                     "    bb1: {\n"
                     "        return;\n"
                     "    }\n"
                     "}\n");
  const Terminator &T = M.findFunction("f")->Blocks[0].Term;
  EXPECT_EQ(T.K, Terminator::Kind::Call);
  EXPECT_FALSE(T.HasDest);
  EXPECT_EQ(T.Callee, "mem::drop");
  ASSERT_EQ(T.Args.size(), 1u);
  EXPECT_TRUE(T.Args[0].isMove());
}

TEST(Parser, UnsafeFunctionAndSyncImpl) {
  Module M = parseOk("struct Cell { v: i32 }\n"
                     "unsafe impl Sync for Cell;\n"
                     "unsafe fn danger() {\n"
                     "    bb0: {\n"
                     "        return;\n"
                     "    }\n"
                     "}\n");
  EXPECT_TRUE(M.findFunction("danger")->IsUnsafe);
  EXPECT_TRUE(M.isSync("Cell"));
  EXPECT_FALSE(M.isSync("Other"));
}

TEST(Parser, StaticsAndNegativeLiterals) {
  Module M = parseOk("static mut COUNTER: i64;\n"
                     "fn f() -> i64 {\n"
                     "    bb0: {\n"
                     "        _0 = const -42_i64;\n"
                     "        return;\n"
                     "    }\n"
                     "}\n");
  ASSERT_EQ(M.statics().size(), 1u);
  EXPECT_TRUE(M.statics()[0].Mutable);
  const ConstValue &C =
      M.findFunction("f")->Blocks[0].Statements[0].RV.Ops[0].C;
  EXPECT_EQ(C.Int, -42);
  ASSERT_NE(C.Ty, nullptr);
  EXPECT_EQ(C.Ty->toString(), "i64");
}

TEST(Parser, GenericTypes) {
  Module M = parseOk("fn f(_1: &Arc<Mutex<Vec<i32>>>) {\n"
                     "    bb0: {\n"
                     "        return;\n"
                     "    }\n"
                     "}\n");
  EXPECT_EQ(M.findFunction("f")->Locals[1].Ty->toString(),
            "&Arc<Mutex<Vec<i32>>>");
}

TEST(Parser, AssertAndDiscriminant) {
  Module M = parseOk("fn f(_1: bool) {\n"
                     "    let _2: isize;\n"
                     "    bb0: {\n"
                     "        _2 = discriminant(_1);\n"
                     "        assert(copy _1) -> bb1;\n"
                     "    }\n"
                     "    bb1: {\n"
                     "        return;\n"
                     "    }\n"
                     "}\n");
  EXPECT_EQ(M.findFunction("f")->Blocks[0].Statements[0].RV.K,
            Rvalue::Kind::Discriminant);
  EXPECT_EQ(M.findFunction("f")->Blocks[0].Term.K, Terminator::Kind::Assert);
}

// --- Error cases ------------------------------------------------------------

TEST(ParserErrors, MissingTerminator) {
  std::string E = parseErr("fn f() {\n    bb0: {\n    }\n}\n");
  EXPECT_NE(E.find("no terminator"), std::string::npos) << E;
}

TEST(ParserErrors, NonDenseBlocks) {
  std::string E = parseErr("fn f() {\n"
                           "    bb0: { goto -> bb2; }\n"
                           "    bb2: { return; }\n"
                           "}\n");
  EXPECT_NE(E.find("missing block bb1"), std::string::npos) << E;
}

TEST(ParserErrors, MissingLocalDecl) {
  std::string E = parseErr("fn f() {\n"
                           "    let _3: i32;\n"
                           "    bb0: { return; }\n"
                           "}\n");
  EXPECT_NE(E.find("missing a declaration for _1"), std::string::npos) << E;
}

TEST(ParserErrors, DuplicateFunction) {
  std::string E = parseErr("fn f() { bb0: { return; } }\n"
                           "fn f() { bb0: { return; } }\n");
  EXPECT_NE(E.find("duplicate function"), std::string::npos) << E;
}

TEST(ParserErrors, CallAsRvalueNeedsTarget) {
  std::string E = parseErr("fn f() {\n"
                           "    let _1: i32;\n"
                           "    bb0: {\n"
                           "        _1 = getValue();\n"
                           "        return;\n"
                           "    }\n"
                           "}\n");
  EXPECT_NE(E.find("needs a target block"), std::string::npos) << E;
}

TEST(ParserErrors, OutOfOrderParams) {
  std::string E = parseErr("fn f(_2: i32) { bb0: { return; } }\n");
  EXPECT_NE(E.find("numbered _1, _2"), std::string::npos) << E;
}

TEST(ParserErrors, ErrorHasLocation) {
  auto R = Parser::parse("fn f() {\n  bb0: {\n    ???\n  }\n}", "x.mir");
  ASSERT_FALSE(R);
  EXPECT_EQ(R.error().location().line(), 3u);
  EXPECT_EQ(R.error().location().file(), "x.mir");
}

// --- Declaration order ------------------------------------------------------

TEST(Parser, BlocksOutOfOrderGiveTheInOrderModule) {
  const char *InOrder = "fn f(_1: bool) -> i32 {\n"
                        "    let _2: i32;\n"
                        "    bb0: {\n"
                        "        StorageLive(_2);\n"
                        "        switchInt(copy _1) -> "
                        "[0: bb2, otherwise: bb1];\n"
                        "    }\n"
                        "    bb1: {\n"
                        "        _0 = const 1_i32;\n"
                        "        goto -> bb2;\n"
                        "    }\n"
                        "    bb2: {\n"
                        "        return;\n"
                        "    }\n"
                        "}\n";
  const char *Shuffled = "fn f(_1: bool) -> i32 {\n"
                         "    let _2: i32;\n"
                         "    bb1: {\n"
                         "        _0 = const 1_i32;\n"
                         "        goto -> bb2;\n"
                         "    }\n"
                         "    bb2: {\n"
                         "        return;\n"
                         "    }\n"
                         "    bb0: {\n"
                         "        StorageLive(_2);\n"
                         "        switchInt(copy _1) -> "
                         "[0: bb2, otherwise: bb1];\n"
                         "    }\n"
                         "}\n";
  Module A = parseOk(InOrder);
  Module B = parseOk(Shuffled);
  EXPECT_EQ(B.toString(), A.toString());
  const Function *F = B.findFunction("f");
  ASSERT_NE(F, nullptr);
  ASSERT_EQ(F->numBlocks(), 3u);
  EXPECT_EQ(F->Blocks.capacity(), 3u);
  // Each block keeps its own source location and exact-size statements.
  EXPECT_EQ(F->Blocks[0].Term.K, Terminator::Kind::SwitchInt);
  EXPECT_EQ(F->Blocks[0].Term.Loc.line(), 12u);
  EXPECT_EQ(F->Blocks[1].Statements[0].Loc.line(), 4u);
  for (const BasicBlock &BB : F->Blocks)
    EXPECT_EQ(BB.Statements.capacity(), BB.Statements.size());
}

TEST(Parser, LocalsOutOfOrderGiveTheInOrderModule) {
  const char *InOrder = "fn f() -> u8 {\n"
                        "    let mut _0: u8;\n"
                        "    let _1: i32;\n"
                        "    let mut _2: Box<u8>;\n"
                        "    let _3: [i32; 4];\n"
                        "    bb0: { return; }\n"
                        "}\n";
  const char *Shuffled = "fn f() -> u8 {\n"
                         "    let _3: [i32; 4];\n"
                         "    let mut _2: Box<u8>;\n"
                         "    let mut _0: u8;\n"
                         "    let _1: i32;\n"
                         "    bb0: { return; }\n"
                         "}\n";
  Module A = parseOk(InOrder);
  Module B = parseOk(Shuffled);
  EXPECT_EQ(B.toString(), A.toString());
  const Function *F = B.findFunction("f");
  ASSERT_NE(F, nullptr);
  ASSERT_EQ(F->numLocals(), 4u);
  EXPECT_EQ(F->Locals.capacity(), 4u);
  EXPECT_TRUE(F->Locals[2].Mutable);
  EXPECT_EQ(F->Locals[3].Ty->toString(), "[i32; 4]");
}

TEST(ParserErrors, DuplicateBlockTextAndLocation) {
  // The duplicate is reported once its body has parsed, at the token that
  // follows it.
  EXPECT_EQ(parseErr("fn f() {\n"
                     "    bb0: { goto -> bb1; }\n"
                     "    bb1: { return; }\n"
                     "    bb1: { return; }\n"
                     "}\n"),
            "<mir>:5:1: duplicate block bb1");
  // Out of order, too.
  EXPECT_EQ(parseErr("fn f() {\n"
                     "    bb1: { return; }\n"
                     "    bb1: { return; }\n"
                     "    bb0: { goto -> bb1; }\n"
                     "}\n"),
            "<mir>:4:5: duplicate block bb1");
}

TEST(ParserErrors, OutOfOrderDeclarationsStillNeedEveryId) {
  EXPECT_EQ(parseErr("fn f() {\n"
                     "    let _3: i32;\n"
                     "    let _1: i32;\n"
                     "    bb0: { return; }\n"
                     "}\n"),
            "<mir>:4:5: function 'f' is missing a declaration for _2");
  EXPECT_EQ(parseErr("fn f() {\n"
                     "    bb2: { return; }\n"
                     "    bb0: { goto -> bb2; }\n"
                     "}\n"),
            "<mir>:5:1: function 'f' is missing block bb1");
  EXPECT_EQ(parseErr("fn f() {\n"
                     "    let _2: i32;\n"
                     "    let _1: i32;\n"
                     "    let _2: u8;\n"
                     "    bb0: { return; }\n"
                     "}\n"),
            "<mir>:5:5: duplicate declaration of _2");
}
