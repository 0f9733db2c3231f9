#include "analysis/ConstantBranches.h"

#include "analysis/Cfg.h"
#include "mir/Parser.h"

#include <gtest/gtest.h>

using namespace rs::analysis;
using namespace rs::mir;

namespace {

Module parseOk(std::string_view Src) {
  auto R = Parser::parse(Src);
  EXPECT_TRUE(R) << (R ? "" : R.error().toString());
  return R.take();
}

} // namespace

TEST(ConstantBranches, ResolvesConstLocalSwitch) {
  Module M = parseOk("fn f() -> i32 {\n"
                     "    let _1: bool;\n"
                     "    bb0: {\n"
                     "        _1 = const false;\n"
                     "        switchInt(copy _1) -> [1: bb1, otherwise: "
                     "bb2];\n"
                     "    }\n"
                     "    bb1: { _0 = const 1; return; }\n"
                     "    bb2: { _0 = const 2; return; }\n"
                     "}\n");
  ConstantBranches CB(*M.findFunction("f"));
  ASSERT_TRUE(CB.resolvedTarget(0).has_value());
  EXPECT_EQ(*CB.resolvedTarget(0), 2u); // false -> otherwise.
  EXPECT_EQ(CB.numResolved(), 1u);
}

TEST(ConstantBranches, ResolvesLiteralDiscriminant) {
  Module M = parseOk("fn f() -> i32 {\n"
                     "    bb0: {\n"
                     "        switchInt(const 1) -> [0: bb1, 1: bb2, "
                     "otherwise: bb3];\n"
                     "    }\n"
                     "    bb1: { _0 = const 1; return; }\n"
                     "    bb2: { _0 = const 2; return; }\n"
                     "    bb3: { _0 = const 3; return; }\n"
                     "}\n");
  ConstantBranches CB(*M.findFunction("f"));
  ASSERT_TRUE(CB.resolvedTarget(0).has_value());
  EXPECT_EQ(*CB.resolvedTarget(0), 2u);
}

TEST(ConstantBranches, ArgumentsAreNotConstant) {
  Module M = parseOk("fn f(_1: bool) {\n"
                     "    bb0: {\n"
                     "        switchInt(copy _1) -> [1: bb1, otherwise: "
                     "bb2];\n"
                     "    }\n"
                     "    bb1: { return; }\n"
                     "    bb2: { return; }\n"
                     "}\n");
  ConstantBranches CB(*M.findFunction("f"));
  EXPECT_FALSE(CB.resolvedTarget(0).has_value());
}

TEST(ConstantBranches, ReassignedLocalIsNotConstant) {
  Module M = parseOk("fn f() {\n"
                     "    let mut _1: bool;\n"
                     "    bb0: {\n"
                     "        _1 = const true;\n"
                     "        _1 = const false;\n"
                     "        switchInt(copy _1) -> [1: bb1, otherwise: "
                     "bb2];\n"
                     "    }\n"
                     "    bb1: { return; }\n"
                     "    bb2: { return; }\n"
                     "}\n");
  ConstantBranches CB(*M.findFunction("f"));
  EXPECT_FALSE(CB.resolvedTarget(0).has_value());
}

TEST(ConstantBranches, AddressTakenDisqualifies) {
  // An aliasing write through unsafe code could change the value.
  Module M = parseOk("fn f() {\n"
                     "    let _1: bool;\n"
                     "    let _2: &bool;\n"
                     "    bb0: {\n"
                     "        _1 = const true;\n"
                     "        _2 = &_1;\n"
                     "        switchInt(copy _1) -> [1: bb1, otherwise: "
                     "bb2];\n"
                     "    }\n"
                     "    bb1: { return; }\n"
                     "    bb2: { return; }\n"
                     "}\n");
  ConstantBranches CB(*M.findFunction("f"));
  EXPECT_FALSE(CB.resolvedTarget(0).has_value());
}

TEST(ConstantBranches, PrunedCfgMarksDeadArmUnreachable) {
  Module M = parseOk("fn f() -> i32 {\n"
                     "    let _1: bool;\n"
                     "    bb0: {\n"
                     "        _1 = const false;\n"
                     "        switchInt(copy _1) -> [1: bb1, otherwise: "
                     "bb2];\n"
                     "    }\n"
                     "    bb1: { _0 = const 1; return; }\n"
                     "    bb2: { _0 = const 2; return; }\n"
                     "}\n");
  const Function &F = *M.findFunction("f");
  Cfg Unpruned(F);
  EXPECT_TRUE(Unpruned.isReachable(1));
  Cfg Pruned(F, /*PruneConstantBranches=*/true);
  EXPECT_FALSE(Pruned.isReachable(1));
  EXPECT_TRUE(Pruned.isReachable(2));
  EXPECT_EQ(std::vector<BlockId>(Pruned.successors(0).begin(),
                                  Pruned.successors(0).end()),
            (std::vector<BlockId>{2}));
}
