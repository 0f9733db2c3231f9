// Equivalence of the SCC-scheduled summary computation against the
// historical round-robin schedule (computeSummariesReference), which is kept
// as the specification oracle: converged results must be identical, only
// the amount of work may differ. Also pins the non-convergence reporting
// the old schedule lacked.

#include "analysis/Summaries.h"

#include "mir/Parser.h"
#include "testgen/Mutators.h"

#include <gtest/gtest.h>

#include <string>

using namespace rs;
using namespace rs::analysis;
using namespace rs::mir;

namespace {

Module parseOk(std::string_view Src) {
  auto R = Parser::parse(Src);
  EXPECT_TRUE(R) << (R ? "" : R.error().toString());
  return R.take();
}

/// Per-function equality of two summary tables over \p M's functions.
void expectTablesEqual(const Module &M, const SummaryMap &A,
                       const SummaryMap &B) {
  ASSERT_EQ(A.size(), M.functions().size());
  ASSERT_EQ(B.size(), M.functions().size());
  for (const auto &F : M.functions())
    EXPECT_TRUE(A.at(F.Name) == B.at(F.Name)) << F.Name.str();
}

/// A call chain f0 -> f1 -> ... -> f{Depth-1}, declared caller-first (the
/// worst module order for the old round-robin schedule: effects crossed one
/// level per global round). The leaf frees its pointer argument.
std::string chainModule(unsigned Depth) {
  std::string Src;
  for (unsigned I = 0; I + 1 < Depth; ++I)
    Src += "fn f" + std::to_string(I) +
           "(_1: *mut u8) {\n"
           "    let _2: ();\n"
           "    bb0: { _2 = f" +
           std::to_string(I + 1) +
           "(copy _1) -> bb1; }\n"
           "    bb1: { return; }\n"
           "}\n";
  Src += "fn f" + std::to_string(Depth - 1) +
         "(_1: *mut u8) {\n"
         "    bb0: { dealloc(copy _1) -> bb1; }\n"
         "    bb1: { return; }\n"
         "}\n";
  return Src;
}

} // namespace

TEST(SummariesEquivalence, NonRecursiveModuleMatchesReferenceInOnePass) {
  Module M = parseOk(chainModule(4));
  bool NewOk = false, RefOk = false;
  SummaryStats Stats;
  SummaryMap New = computeSummaries(M, 8, nullptr, &NewOk, nullptr, &Stats);
  SummaryMap Ref = computeSummariesReference(M, 8, nullptr, &RefOk);
  EXPECT_TRUE(NewOk);
  EXPECT_TRUE(RefOk);
  expectTablesEqual(M, New, Ref);
  // The scheduling contract: one summarization per function, no recursion.
  EXPECT_EQ(Stats.Functions, 4u);
  EXPECT_EQ(Stats.Components, 4u);
  EXPECT_EQ(Stats.RecursiveComponents, 0u);
  EXPECT_EQ(Stats.Summarizations, 4u);
  EXPECT_FALSE(Stats.Clamped);
  // The effect reached the chain head.
  EXPECT_TRUE(New.at("f0").DropsParamPointee[1]);
}

TEST(SummariesEquivalence, SelfRecursionMatchesReference) {
  Module M = parseOk("fn rec(_1: *mut u8) {\n"
                     "    let _2: ();\n"
                     "    bb0: { dealloc(copy _1) -> bb1; }\n"
                     "    bb1: { _2 = rec(copy _1) -> bb2; }\n"
                     "    bb2: { return; }\n"
                     "}\n");
  bool NewOk = false, RefOk = false;
  SummaryStats Stats;
  SummaryMap New = computeSummaries(M, 8, nullptr, &NewOk, nullptr, &Stats);
  SummaryMap Ref = computeSummariesReference(M, 8, nullptr, &RefOk);
  EXPECT_TRUE(NewOk);
  EXPECT_TRUE(RefOk);
  expectTablesEqual(M, New, Ref);
  EXPECT_EQ(Stats.RecursiveComponents, 1u);
  EXPECT_TRUE(New.at("rec").DropsParamPointee[1]);
}

TEST(SummariesEquivalence, MutualRecursionMatchesReference) {
  Module M = parseOk("fn f(_1: *mut u8) {\n"
                     "    let _2: ();\n"
                     "    bb0: { dealloc(copy _1) -> bb1; }\n"
                     "    bb1: { _2 = g(copy _1) -> bb2; }\n"
                     "    bb2: { return; }\n"
                     "}\n"
                     "fn g(_1: *mut u8) {\n"
                     "    let _2: ();\n"
                     "    bb0: { _2 = f(copy _1) -> bb1; }\n"
                     "    bb1: { return; }\n"
                     "}\n");
  bool NewOk = false, RefOk = false;
  SummaryMap New = computeSummaries(M, 8, nullptr, &NewOk);
  SummaryMap Ref = computeSummariesReference(M, 8, nullptr, &RefOk);
  EXPECT_TRUE(NewOk);
  EXPECT_TRUE(RefOk);
  expectTablesEqual(M, New, Ref);
  EXPECT_TRUE(New.at("g").DropsParamPointee[1]);
}

TEST(SummariesEquivalence, GeneratedCorpusMatchesReference) {
  using testgen::Mutation;
  Module M = testgen::plantedModule(11, 10,
                                    {{Mutation::UafPostDrop, true, 2},
                                     {Mutation::DoubleLockInterproc, true, 1},
                                     {Mutation::DoubleLock, true, 1},
                                     {Mutation::DoubleLockInterproc, false, 1},
                                     {Mutation::DoubleLock, false, 1},
                                     {Mutation::LockOrderInversion, true, 1},
                                     {Mutation::InvalidFree, true, 1},
                                     {Mutation::DoubleFree, true, 1},
                                     {Mutation::UninitRead, true, 1},
                                     {Mutation::RefCellConflict, true, 1}});
  bool NewOk = false, RefOk = false;
  SummaryStats Stats;
  SummaryMap New = computeSummaries(M, 8, nullptr, &NewOk, nullptr, &Stats);
  // A generous round bound so the oracle is guaranteed converged.
  SummaryMap Ref = computeSummariesReference(M, 64, nullptr, &RefOk);
  EXPECT_TRUE(NewOk);
  EXPECT_TRUE(RefOk);
  expectTablesEqual(M, New, Ref);
  // The generated host calls along a DAG and no pattern recurses: exactly
  // one pass each.
  EXPECT_EQ(Stats.Summarizations, Stats.Functions);
}

// The historical schedule propagated effects only one call level per global
// round when callers precede callees in module order, and presented the
// MaxRounds-clamped result as final without reporting it. The SCC schedule
// converges in one summarization per function regardless of depth.
TEST(SummariesEquivalence, DeepChainConvergesWhereReferenceClampsSilently) {
  Module M = parseOk(chainModule(12));
  bool NewOk = false, RefOk = true;
  SummaryStats Stats;
  SummaryMap New = computeSummaries(M, 8, nullptr, &NewOk, nullptr, &Stats);
  EXPECT_TRUE(NewOk);
  EXPECT_FALSE(Stats.Clamped);
  EXPECT_EQ(Stats.Summarizations, 12u);
  EXPECT_TRUE(New.at("f0").DropsParamPointee[1]);

  // The old schedule at the same bound: under-approximate *and* silently
  // reported complete — the defect the SCC scheduler removes.
  SummaryMap Ref8 = computeSummariesReference(M, 8, nullptr, &RefOk);
  EXPECT_TRUE(RefOk);
  EXPECT_FALSE(Ref8.at("f0").DropsParamPointee[1]);

  // Given enough rounds the oracle converges to the same fixpoint.
  SummaryMap Ref = computeSummariesReference(M, 64, nullptr, &RefOk);
  EXPECT_TRUE(RefOk);
  expectTablesEqual(M, New, Ref);
}

// Recursive components that hit the iteration bound now surface through the
// Complete flag (the degradation ladder) instead of silently clamping.
TEST(SummariesEquivalence, RecursiveNonConvergenceIsReported) {
  Module M = parseOk("fn f(_1: *mut u8) {\n"
                     "    let _2: ();\n"
                     "    bb0: { dealloc(copy _1) -> bb1; }\n"
                     "    bb1: { _2 = g(copy _1) -> bb2; }\n"
                     "    bb2: { return; }\n"
                     "}\n"
                     "fn g(_1: *mut u8) {\n"
                     "    let _2: ();\n"
                     "    bb0: { _2 = f(copy _1) -> bb1; }\n"
                     "    bb1: { return; }\n"
                     "}\n");
  bool Complete = true;
  SummaryStats Stats;
  computeSummaries(M, /*MaxRounds=*/1, nullptr, &Complete, nullptr, &Stats);
  EXPECT_FALSE(Complete);
  EXPECT_TRUE(Stats.Clamped);

  bool Relaxed = false;
  SummaryStats Full;
  computeSummaries(M, /*MaxRounds=*/8, nullptr, &Relaxed, nullptr, &Full);
  EXPECT_TRUE(Relaxed);
  EXPECT_FALSE(Full.Clamped);
}

TEST(SummariesEquivalence, MaxRoundsZeroKeepsSeedTable) {
  Module M = parseOk(chainModule(3));
  bool Complete = true;
  SummaryMap T = computeSummaries(M, /*MaxRounds=*/0, nullptr, &Complete);
  EXPECT_EQ(T.size(), 3u);
  EXPECT_FALSE(T.at("f0").DropsParamPointee[1]);
}
