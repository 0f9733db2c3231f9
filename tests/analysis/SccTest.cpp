// Unit tests for the Tarjan condensation that schedules interprocedural
// summaries: component numbering must be reverse topological (callees
// first), membership deterministic, and recursion (self-loops and larger
// cycles) flagged exactly.

#include "analysis/Scc.h"

#include <gtest/gtest.h>

using namespace rs::analysis;

namespace {

using Adj = std::vector<std::vector<uint32_t>>;

/// Members are a span into the graph; copy them out to compare.
std::vector<uint32_t> ids(std::span<const uint32_t> S) {
  return {S.begin(), S.end()};
}

/// Every cross-component edge must point from a higher-numbered component
/// to a lower-numbered one (reverse topological order).
void expectReverseTopological(const SccGraph &S, const Adj &Succs) {
  for (uint32_t U = 0; U != Succs.size(); ++U)
    for (uint32_t V : Succs[U])
      if (S.componentOf(U) != S.componentOf(V))
        EXPECT_LT(S.componentOf(V), S.componentOf(U))
            << "edge " << U << " -> " << V;
}

} // namespace

TEST(Scc, EmptyGraph) {
  SccGraph S(0, {});
  EXPECT_EQ(S.numComponents(), 0u);
}

TEST(Scc, SingleNodeNoEdge) {
  SccGraph S(1, {{}});
  ASSERT_EQ(S.numComponents(), 1u);
  EXPECT_EQ(ids(S.members(0)), std::vector<uint32_t>{0});
  EXPECT_FALSE(S.isRecursive(0));
}

TEST(Scc, SelfLoopIsRecursive) {
  SccGraph S(1, {{0}});
  ASSERT_EQ(S.numComponents(), 1u);
  EXPECT_TRUE(S.isRecursive(0));
}

TEST(Scc, ChainIsReverseTopological) {
  // 0 -> 1 -> 2 -> 3: the leaf (3) must come first.
  Adj Succs = {{1}, {2}, {3}, {}};
  SccGraph S(4, Succs);
  ASSERT_EQ(S.numComponents(), 4u);
  for (uint32_t C = 0; C != 4; ++C)
    EXPECT_FALSE(S.isRecursive(C));
  EXPECT_EQ(S.componentOf(3), 0u);
  EXPECT_EQ(S.componentOf(2), 1u);
  EXPECT_EQ(S.componentOf(1), 2u);
  EXPECT_EQ(S.componentOf(0), 3u);
  expectReverseTopological(S, Succs);
}

TEST(Scc, MutualRecursionCollapses) {
  // 0 <-> 1, plus 1 -> 2. {0,1} is one recursive component; 2 precedes it.
  Adj Succs = {{1}, {0, 2}, {}};
  SccGraph S(3, Succs);
  ASSERT_EQ(S.numComponents(), 2u);
  EXPECT_EQ(S.componentOf(0), S.componentOf(1));
  EXPECT_NE(S.componentOf(0), S.componentOf(2));
  uint32_t Cycle = S.componentOf(0);
  EXPECT_TRUE(S.isRecursive(Cycle));
  EXPECT_FALSE(S.isRecursive(S.componentOf(2)));
  EXPECT_EQ(ids(S.members(Cycle)), (std::vector<uint32_t>{0, 1}));
  expectReverseTopological(S, Succs);
}

TEST(Scc, DiamondOrdersJoinFirst) {
  // 0 -> {1, 2} -> 3: the join (3) first, the root (0) last.
  Adj Succs = {{1, 2}, {3}, {3}, {}};
  SccGraph S(4, Succs);
  ASSERT_EQ(S.numComponents(), 4u);
  EXPECT_EQ(S.componentOf(3), 0u);
  EXPECT_EQ(S.componentOf(0), 3u);
  EXPECT_LT(S.componentOf(3), S.componentOf(1));
  EXPECT_LT(S.componentOf(3), S.componentOf(2));
  expectReverseTopological(S, Succs);
}

TEST(Scc, CycleWithTail) {
  // 0 -> 1 -> 2 -> 0 (cycle), 2 -> 3 -> 4 (tail). Tail leaf first, cycle
  // last; members listed in ascending node order.
  Adj Succs = {{1}, {2}, {0, 3}, {4}, {}};
  SccGraph S(5, Succs);
  ASSERT_EQ(S.numComponents(), 3u);
  uint32_t Cycle = S.componentOf(0);
  EXPECT_EQ(S.componentOf(1), Cycle);
  EXPECT_EQ(S.componentOf(2), Cycle);
  EXPECT_TRUE(S.isRecursive(Cycle));
  EXPECT_EQ(ids(S.members(Cycle)), (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(S.componentOf(4), 0u);
  EXPECT_EQ(S.componentOf(3), 1u);
  EXPECT_EQ(Cycle, 2u);
  expectReverseTopological(S, Succs);
}

TEST(Scc, ParallelAndDuplicateEdges) {
  // Duplicate edges and an isolated node don't disturb the condensation.
  Adj Succs = {{1, 1}, {}, {}};
  SccGraph S(3, Succs);
  ASSERT_EQ(S.numComponents(), 3u);
  EXPECT_FALSE(S.isRecursive(S.componentOf(0)));
  EXPECT_LT(S.componentOf(1), S.componentOf(0));
}

TEST(Scc, DeterministicAcrossRuns) {
  Adj Succs = {{1, 4}, {2}, {0, 3}, {}, {3}, {}};
  SccGraph A(6, Succs);
  SccGraph B(6, Succs);
  ASSERT_EQ(A.numComponents(), B.numComponents());
  for (uint32_t N = 0; N != 6; ++N)
    EXPECT_EQ(A.componentOf(N), B.componentOf(N));
  for (uint32_t C = 0; C != A.numComponents(); ++C) {
    EXPECT_EQ(ids(A.members(C)), ids(B.members(C)));
    EXPECT_EQ(A.isRecursive(C), B.isRecursive(C));
  }
}
