#include "analysis/Summaries.h"

#include "analysis/CallGraph.h"
#include "analysis/Memory.h"
#include "analysis/Scc.h"
#include "mir/Intrinsics.h"

#include <optional>

using namespace rs;
using namespace rs::analysis;
using namespace rs::mir;

ModuleAnalysisCache::ModuleAnalysisCache() = default;
ModuleAnalysisCache::ModuleAnalysisCache(ModuleAnalysisCache &&) noexcept =
    default;
ModuleAnalysisCache &
ModuleAnalysisCache::operator=(ModuleAnalysisCache &&) noexcept = default;
ModuleAnalysisCache::~ModuleAnalysisCache() = default;

namespace {

/// Computes one function's summary into \p S from its (already solved)
/// memory analysis and the current summaries of its callees. \p S is
/// caller-owned scratch, reset here, so its vectors are reused across
/// calls. Reads only each block's state before the terminator, which the
/// solver keeps, so it applies no transfer; callee kinds and summaries come
/// pre-resolved per block from \p MA.
void summarizeFromAnalysis(const Function &F, const Cfg &G,
                           const MemoryAnalysis &MA, FunctionSummary &S) {
  const ObjectTable &Objects = MA.objects();
  S.DropsParamPointee.assign(F.NumArgs + 1, false);
  S.ReturnAliasesParamPointee.assign(F.NumArgs + 1, false);
  S.AcquiresLockOnParam.assign(F.NumArgs + 1, LM_None);
  BitVec Roots = MA.objectSet();
  auto AddLockRoots = [&](BitSpan AtTerm, const Operand &Arg, uint8_t Mode) {
    Roots.clear();
    MA.lockRoots(AtTerm, Arg, Roots);
    Roots.forEach([&](size_t R) {
      if (LocalId P = paramRootOfObject(F, Objects, static_cast<ObjId>(R)))
        S.AcquiresLockOnParam[P] |= Mode;
    });
  };

  for (BlockId B = 0; B != F.numBlocks(); ++B) {
    if (!G.isReachable(B))
      continue;
    const BasicBlock &BB = F.Blocks[B];
    BitSpan AtTerm = MA.dataflow().blockExit(B);

    // Effects visible at function exit.
    if (BB.Term.K == Terminator::Kind::Return) {
      for (LocalId P = 1; P <= F.NumArgs; ++P) {
        ObjId Pointee = Objects.paramPointee(P);
        if (Pointee == ~0u)
          continue;
        if (MA.mayBeDropped(AtTerm, Pointee))
          S.DropsParamPointee[P] = true;
        if (MA.pointsTo(AtTerm, F.returnLocal(), Pointee))
          S.ReturnAliasesParamPointee[P] = true;
      }
      continue;
    }

    // Lock acquisitions rooted at parameters (direct or via callees).
    if (BB.Term.K != Terminator::Kind::Call)
      continue;
    IntrinsicKind Kind = MA.calleeKind(B);
    if (isLockAcquire(Kind)) {
      if (BB.Term.Args.empty())
        continue;
      AddLockRoots(AtTerm, BB.Term.Args[0],
                   isExclusiveAcquire(Kind) ? LM_Exclusive : LM_Shared);
      continue;
    }
    if (Kind != IntrinsicKind::None)
      continue;
    const FunctionSummary *Callee = MA.calleeSummary(B);
    if (!Callee)
      continue;
    for (size_t I = 0; I != BB.Term.Args.size(); ++I) {
      unsigned Param = static_cast<unsigned>(I) + 1;
      if (Param >= Callee->AcquiresLockOnParam.size())
        break;
      uint8_t Mode = Callee->AcquiresLockOnParam[Param];
      if (Mode == LM_None || !BB.Term.Args[I].isPlace())
        continue;
      AddLockRoots(AtTerm, BB.Term.Args[I], Mode);
    }
  }
}

/// Unions \p New into \p Acc; returns true if \p Acc grew. Vector sizes are
/// fixed at NumArgs+1 on both sides, so merging never reallocates the
/// entry's buffers.
bool mergeSummary(FunctionSummary &Acc, const FunctionSummary &New) {
  bool Changed = false;
  for (size_t I = 0; I != Acc.DropsParamPointee.size(); ++I) {
    if (New.DropsParamPointee[I] && !Acc.DropsParamPointee[I]) {
      Acc.DropsParamPointee[I] = true;
      Changed = true;
    }
    if (New.ReturnAliasesParamPointee[I] &&
        !Acc.ReturnAliasesParamPointee[I]) {
      Acc.ReturnAliasesParamPointee[I] = true;
      Changed = true;
    }
    uint8_t Mode = Acc.AcquiresLockOnParam[I] | New.AcquiresLockOnParam[I];
    if (Mode != Acc.AcquiresLockOnParam[I]) {
      Acc.AcquiresLockOnParam[I] = Mode;
      Changed = true;
    }
  }
  return Changed;
}

} // namespace

SummaryMap rs::analysis::computeSummaries(const Module &M, unsigned MaxRounds,
                                          Budget *Bgt, bool *Complete,
                                          const CallGraph *CG,
                                          SummaryStats *Stats,
                                          ModuleAnalysisCache *CacheOut,
                                          const ExternalSummaries *Ext) {
  if (Complete)
    *Complete = true;
  SummaryTable Table(M);
  Table.setExternal(Ext);
  uint32_t N = static_cast<uint32_t>(Table.size());
  if (MaxRounds == 0 || N == 0) {
    if (Stats)
      *Stats = SummaryStats{/*Functions=*/N};
    return Table;
  }

  std::optional<CallGraph> Owned;
  if (!CG) {
    Owned.emplace(M);
    CG = &*Owned;
  }
  SccGraph Sccs(N, CG->calleeLists());

  SummaryStats S;
  S.Functions = N;
  S.Components = Sccs.numComponents();

  ModuleAnalysisCache Cache;
  Cache.Cfgs.resize(N);
  Cache.Memory.resize(N);
  // Epoch bookkeeping: a cached memory analysis is current iff it was built
  // after the last change of every callee's summary. Non-recursive
  // scheduling never invalidates (callees are final before callers run);
  // recursive components rebuild only the members whose callees changed.
  std::vector<uint64_t> BuiltAt(N, 0), LastChanged(N, 0);
  uint64_t Epoch = 0;

  auto ensureAnalysis = [&](FuncId F) -> const MemoryAnalysis & {
    const Function &Fn = M.functions()[F];
    if (!Cache.Cfgs[F])
      Cache.Cfgs[F] = std::make_unique<Cfg>(Fn, /*PruneConstantBranches=*/true);
    bool Stale = !Cache.Memory[F];
    if (!Stale)
      for (FuncId Callee : CG->callees(F))
        if (LastChanged[Callee] > BuiltAt[F]) {
          Stale = true;
          break;
        }
    if (Stale) {
      ++S.MemoryBuilds;
      BuiltAt[F] = ++Epoch;
      Cache.Memory[F] =
          std::make_unique<MemoryAnalysis>(*Cache.Cfgs[F], M, &Table, Bgt);
    }
    return *Cache.Memory[F];
  };

  // Returns true if F's summary grew. New is the scratch summary every
  // summarization reuses.
  FunctionSummary New;
  auto summarize = [&](FuncId F) -> bool {
    ++S.Summarizations;
    const Function &Fn = M.functions()[F];
    const MemoryAnalysis &MA = ensureAnalysis(F);
    summarizeFromAnalysis(Fn, *Cache.Cfgs[F], MA, New);
    if (!mergeSummary(Table.byId(F), New))
      return false;
    LastChanged[F] = ++Epoch;
    return true;
  };

  bool OutOfBudget = false;
  std::vector<uint8_t> InQueue(N, 0);
  std::vector<FuncId> Queue;

  for (uint32_t C = 0; C != Sccs.numComponents() && !OutOfBudget; ++C) {
    std::span<const uint32_t> Members = Sccs.members(C);
    if (!Sccs.isRecursive(C)) {
      // Every callee's summary is already final: one pass suffices.
      if (Bgt && !Bgt->consume()) {
        OutOfBudget = true;
        break;
      }
      summarize(Members.front());
      continue;
    }

    // Recursive component: change-driven worklist to the local fixpoint,
    // bounded at MaxRounds passes' worth of summarizations.
    ++S.RecursiveComponents;
    Queue.assign(Members.begin(), Members.end());
    for (FuncId F : Members)
      InQueue[F] = 1;
    size_t Head = 0;
    uint64_t Done = 0;
    const uint64_t Cap = uint64_t(MaxRounds) * Members.size();
    while (Head != Queue.size()) {
      if (Done == Cap) {
        // The recursion did not converge within the bound: report the
        // clamp instead of presenting the partial fixpoint as final.
        S.Clamped = true;
        if (Complete)
          *Complete = false;
        break;
      }
      FuncId F = Queue[Head++];
      InQueue[F] = 0;
      if (Bgt && !Bgt->consume()) {
        OutOfBudget = true;
        break;
      }
      ++Done;
      if (summarize(F))
        for (FuncId Caller : CG->callers(F))
          if (Sccs.componentOf(Caller) == C && !InQueue[Caller]) {
            InQueue[Caller] = 1;
            Queue.push_back(Caller);
          }
    }
    for (FuncId F : Members)
      InQueue[F] = 0;
    unsigned Passes =
        static_cast<unsigned>((Done + Members.size() - 1) / Members.size());
    if (Passes > S.MaxSccPasses)
      S.MaxSccPasses = Passes;
  }

  if (OutOfBudget && Complete)
    *Complete = false;
  if (Stats)
    *Stats = S;

  // Offer the per-function analyses for adoption: drop entries solved
  // against summaries that changed afterwards (recursive components only),
  // and everything when the budget truncated scheduling mid-way.
  if (CacheOut && !OutOfBudget) {
    for (FuncId F = 0; F != N; ++F) {
      if (!Cache.Memory[F])
        continue;
      for (FuncId Callee : CG->callees(F))
        if (LastChanged[Callee] > BuiltAt[F]) {
          Cache.Memory[F].reset();
          break;
        }
    }
    *CacheOut = std::move(Cache);
  }
  return Table;
}

//===----------------------------------------------------------------------===//
// Reference implementation (specification oracle)
//===----------------------------------------------------------------------===//

namespace {

/// The historical per-function summarization: rebuilds the Cfg and memory
/// analysis from scratch and replays block prefixes per query.
FunctionSummary referenceSummarize(const Function &F, const Module &M,
                                   const SummaryTable &Current, Budget *Bgt) {
  Cfg G(F, /*PruneConstantBranches=*/true);
  MemoryAnalysis MA(G, M, &Current, Bgt);
  const ObjectTable &Objects = MA.objects();
  FunctionSummary S(F.NumArgs);

  for (BlockId B = 0; B != F.numBlocks(); ++B) {
    if (!G.isReachable(B))
      continue;
    const BasicBlock &BB = F.Blocks[B];
    BitVec AtTerm = MA.dataflow().stateBefore(B, BB.Statements.size());

    if (BB.Term.K == Terminator::Kind::Return) {
      for (LocalId P = 1; P <= F.NumArgs; ++P) {
        ObjId Pointee = Objects.paramPointee(P);
        if (Pointee == ~0u)
          continue;
        if (MA.mayBeDropped(AtTerm, Pointee))
          S.DropsParamPointee[P] = true;
        if (MA.pointsTo(AtTerm, F.returnLocal(), Pointee))
          S.ReturnAliasesParamPointee[P] = true;
      }
      continue;
    }

    if (BB.Term.K != Terminator::Kind::Call)
      continue;
    IntrinsicKind Kind = classifyIntrinsic(BB.Term.Callee);
    if (isLockAcquire(Kind)) {
      if (BB.Term.Args.empty())
        continue;
      BitVec Roots = MA.objectSet();
      MA.lockRoots(AtTerm, BB.Term.Args[0], Roots);
      uint8_t Mode = isExclusiveAcquire(Kind) ? LM_Exclusive : LM_Shared;
      Roots.forEach([&](size_t R) {
        if (LocalId P = paramRootOfObject(F, Objects, static_cast<ObjId>(R)))
          S.AcquiresLockOnParam[P] |= Mode;
      });
      continue;
    }
    if (Kind != IntrinsicKind::None)
      continue;
    const FunctionSummary *Callee = Current.find(BB.Term.Callee);
    if (!Callee)
      continue;
    for (size_t I = 0; I != BB.Term.Args.size(); ++I) {
      unsigned Param = static_cast<unsigned>(I) + 1;
      if (Param >= Callee->AcquiresLockOnParam.size())
        break;
      uint8_t Mode = Callee->AcquiresLockOnParam[Param];
      if (Mode == LM_None || !BB.Term.Args[I].isPlace())
        continue;
      BitVec Roots = MA.objectSet();
      MA.lockRoots(AtTerm, BB.Term.Args[I], Roots);
      Roots.forEach([&](size_t R) {
        if (LocalId P = paramRootOfObject(F, Objects, static_cast<ObjId>(R)))
          S.AcquiresLockOnParam[P] |= Mode;
      });
    }
  }
  return S;
}

} // namespace

SummaryMap rs::analysis::computeSummariesReference(const Module &M,
                                                   unsigned MaxRounds,
                                                   Budget *Bgt,
                                                   bool *Complete) {
  if (Complete)
    *Complete = true;
  SummaryTable Table(M);

  for (unsigned Round = 0; Round != MaxRounds; ++Round) {
    bool Changed = false;
    for (uint32_t F = 0; F != M.functions().size(); ++F) {
      if (Bgt && !Bgt->consume()) {
        if (Complete)
          *Complete = false;
        return Table;
      }
      FunctionSummary New = referenceSummarize(M.functions()[F], M, Table, Bgt);
      Changed |= mergeSummary(Table.byId(F), New);
    }
    if (!Changed)
      break;
  }
  return Table;
}
