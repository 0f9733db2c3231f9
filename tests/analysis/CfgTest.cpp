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

// Diamond: bb0 -> {bb1, bb2} -> bb3.
const char *DiamondSrc = "fn f(_1: bool) {\n"
                         "    bb0: {\n"
                         "        switchInt(copy _1) -> [0: bb1, otherwise: "
                         "bb2];\n"
                         "    }\n"
                         "    bb1: { goto -> bb3; }\n"
                         "    bb2: { goto -> bb3; }\n"
                         "    bb3: { return; }\n"
                         "}\n";

/// Edge lists are spans into the Cfg; copy one out to compare it.
std::vector<BlockId> ids(std::span<const BlockId> S) {
  return {S.begin(), S.end()};
}

} // namespace

TEST(Cfg, DiamondEdges) {
  Module M = parseOk(DiamondSrc);
  Cfg G(*M.findFunction("f"));
  EXPECT_EQ(ids(G.successors(0)), (std::vector<BlockId>{1, 2}));
  EXPECT_EQ(ids(G.successors(1)), (std::vector<BlockId>{3}));
  EXPECT_EQ(ids(G.predecessors(3)), (std::vector<BlockId>{1, 2}));
  EXPECT_TRUE(G.predecessors(0).empty());
}

TEST(Cfg, ReversePostOrderStartsAtEntry) {
  Module M = parseOk(DiamondSrc);
  Cfg G(*M.findFunction("f"));
  const auto &Rpo = G.reversePostOrder();
  ASSERT_EQ(Rpo.size(), 4u);
  EXPECT_EQ(Rpo.front(), 0u);
  EXPECT_EQ(Rpo.back(), 3u);
}

TEST(Cfg, UnreachableBlocksExcluded) {
  Module M = parseOk("fn f() {\n"
                     "    bb0: { goto -> bb2; }\n"
                     "    bb1: { return; }\n" // Unreachable.
                     "    bb2: { return; }\n"
                     "}\n");
  Cfg G(*M.findFunction("f"));
  EXPECT_TRUE(G.isReachable(0));
  EXPECT_FALSE(G.isReachable(1));
  EXPECT_TRUE(G.isReachable(2));
  EXPECT_EQ(G.reversePostOrder().size(), 2u);
}

TEST(Cfg, LoopHasBackEdge) {
  Module M = parseOk("fn f(_1: bool) {\n"
                     "    bb0: { goto -> bb1; }\n"
                     "    bb1: {\n"
                     "        switchInt(copy _1) -> [0: bb2, otherwise: "
                     "bb1];\n"
                     "    }\n"
                     "    bb2: { return; }\n"
                     "}\n");
  Cfg G(*M.findFunction("f"));
  // bb1 is its own predecessor through the loop edge.
  const auto &Preds = G.predecessors(1);
  EXPECT_NE(std::find(Preds.begin(), Preds.end(), 1u), Preds.end());
}

TEST(Dominators, Diamond) {
  Module M = parseOk(DiamondSrc);
  Cfg G(*M.findFunction("f"));
  DominatorTree DT(G);
  EXPECT_EQ(DT.idom(0), 0u);
  EXPECT_EQ(DT.idom(1), 0u);
  EXPECT_EQ(DT.idom(2), 0u);
  EXPECT_EQ(DT.idom(3), 0u); // Join dominated by the branch, not a side.
  EXPECT_TRUE(DT.dominates(0, 3));
  EXPECT_FALSE(DT.dominates(1, 3));
  EXPECT_TRUE(DT.dominates(2, 2));
}

TEST(Dominators, Chain) {
  Module M = parseOk("fn f() {\n"
                     "    bb0: { goto -> bb1; }\n"
                     "    bb1: { goto -> bb2; }\n"
                     "    bb2: { return; }\n"
                     "}\n");
  Cfg G(*M.findFunction("f"));
  DominatorTree DT(G);
  EXPECT_EQ(DT.idom(2), 1u);
  EXPECT_EQ(DT.idom(1), 0u);
  EXPECT_TRUE(DT.dominates(0, 2));
  EXPECT_TRUE(DT.dominates(1, 2));
  EXPECT_FALSE(DT.dominates(2, 1));
}

TEST(Dominators, UnreachableBlockNotDominated) {
  Module M = parseOk("fn f() {\n"
                     "    bb0: { return; }\n"
                     "    bb1: { return; }\n"
                     "}\n");
  Cfg G(*M.findFunction("f"));
  DominatorTree DT(G);
  EXPECT_EQ(DT.idom(1), InvalidBlock);
  EXPECT_FALSE(DT.dominates(0, 1));
}
