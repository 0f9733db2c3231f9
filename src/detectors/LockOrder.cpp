//===----------------------------------------------------------------------===//
//
// Conflicting-lock-order (ABBA) detection between thread entry points, the
// cause of seven blocking bugs in the paper's study (Section 6.1). Locks
// shared across threads are identified positionally: spawned thread
// functions receive them as parameters in a fixed order (the RustLite
// convention for Arc-cloned locks).
//
//===----------------------------------------------------------------------===//

#include "detectors/Detectors.h"

#include "mir/Intrinsics.h"

#include <functional>
#include <map>
#include <set>
#include <tuple>

using namespace rs;
using namespace rs::analysis;
using namespace rs::detectors;
using namespace rs::mir;

namespace {

/// A lock-order edge: while holding the lock rooted at parameter Held, the
/// function acquires the lock rooted at parameter Acquired.
struct OrderEdge {
  unsigned Held;
  unsigned Acquired;
  BlockId Block;
  size_t StmtIndex;
  SourceLocation Loc;
  /// When the acquisition happens inside a callee defined in another file,
  /// the callee's link info (for a counterpart span into that file) and the
  /// callee parameter the lock arrived through.
  const ExternalFunctionInfo *ExtCallee = nullptr;
  unsigned ExtParam = 0;
};

/// Appends the cross-file counterpart span of \p E, if its acquisition
/// happened inside an externally-defined callee.
void addExternalAcquireSpan(Diagnostic &D, const OrderEdge &E) {
  if (!E.ExtCallee || E.ExtParam >= E.ExtCallee->LockSites.size())
    return;
  const std::string *File = internFileName(E.ExtCallee->File);
  for (const LinkSite &S : E.ExtCallee->LockSites[E.ExtParam]) {
    diag::Span Span;
    Span.Loc = SourceLocation(File, S.Line, S.Col);
    Span.Label = "lock #" + std::to_string(E.Acquired) +
                 " acquired inside callee '" + E.ExtCallee->Name + "' here";
    Span.Function = E.ExtCallee->Name;
    D.Secondary.push_back(std::move(Span));
  }
}

/// Collects the param-rooted lock-order edges of one function, including
/// acquisitions that happen inside module-defined callees (via summaries).
std::vector<OrderEdge> collectEdges(AnalysisContext &Ctx, const Function &F) {
  std::vector<OrderEdge> Edges;
  const Cfg &G = Ctx.cfg(F);
  const MemoryAnalysis &MA = Ctx.memory(F);
  const ObjectTable &Objects = MA.objects();

  auto HeldParams = [&](const BitVec &State) {
    std::vector<unsigned> Out;
    for (LocalId P = 1; P <= F.NumArgs; ++P) {
      ObjId Pointee = Objects.paramPointee(P);
      ObjId Own = Objects.localObject(P);
      bool Held = false;
      if (Pointee != ~0u)
        Held |= MA.mayBeHeld(State, Pointee, true) ||
                MA.mayBeHeld(State, Pointee, false);
      Held |= MA.mayBeHeld(State, Own, true) || MA.mayBeHeld(State, Own, false);
      if (Held)
        Out.push_back(P);
    }
    return Out;
  };

  MemoryAnalysis::Cursor C = MA.cursor();
  for (BlockId B = 0; B != F.numBlocks(); ++B) {
    if (!G.isReachable(B))
      continue;
    const Terminator &T = F.Blocks[B].Term;
    if (T.K != Terminator::Kind::Call)
      continue;
    size_t AtTerm = F.Blocks[B].Statements.size();
    IntrinsicKind Kind = MA.calleeKind(B);

    // The parameters whose locks this call acquires, each tagged with the
    // external callee it was acquired inside (null for direct/local).
    struct Acq {
      unsigned P;
      const ExternalFunctionInfo *Ext;
      unsigned ExtParam;
    };
    std::vector<Acq> Acquired;
    C.seek(B);
    const BitVec &State = C.stateAtTerminator();
    if (isLockAcquire(Kind) && !T.Args.empty()) {
      std::vector<ObjId> Roots;
      MA.lockRoots(State, T.Args[0], Roots);
      for (ObjId O : Roots)
        if (LocalId P = paramRootOfObject(F, Objects, O))
          Acquired.push_back({P, nullptr, 0});
    } else if (Kind == IntrinsicKind::None) {
      if (const FunctionSummary *S = Ctx.summaries().find(T.Callee)) {
        const ExternalFunctionInfo *Ext = Ctx.externalInfo(T.Callee);
        for (size_t I = 0; I != T.Args.size(); ++I) {
          unsigned Param = static_cast<unsigned>(I) + 1;
          if (Param >= S->AcquiresLockOnParam.size())
            break;
          if (S->AcquiresLockOnParam[Param] == LM_None ||
              !T.Args[I].isPlace())
            continue;
          std::vector<ObjId> Roots;
          MA.lockRoots(State, T.Args[I], Roots);
          for (ObjId O : Roots)
            if (LocalId P = paramRootOfObject(F, Objects, O))
              Acquired.push_back({P, Ext, Param});
        }
      }
    }
    if (Acquired.empty())
      continue;

    for (unsigned H : HeldParams(State))
      for (const Acq &A : Acquired)
        if (H != A.P)
          Edges.push_back({H, A.P, B, AtTerm, T.Loc, A.Ext, A.ExtParam});
  }
  return Edges;
}

} // namespace

void LockOrderDetector::run(AnalysisContext &Ctx, DiagnosticEngine &Diags) {
  // Thread groups: locks are identified positionally by parameter index,
  // which is only meaningful among threads spawned by the same parent
  // (they receive the same locks in the same order). Without any explicit
  // spawns, fall back to comparing every pair of functions (single-file
  // analyses and tests).
  std::vector<std::vector<const Function *>> Groups;
  const auto &SpawnGroups = Ctx.callGraph().spawnGroups();
  if (SpawnGroups.empty()) {
    Groups.emplace_back();
    for (const Function &F : Ctx.module().functions())
      Groups.back().push_back(&F);
  } else {
    for (const auto &[Spawner, Threads] : SpawnGroups) {
      Groups.emplace_back();
      for (FuncId T : Threads)
        Groups.back().push_back(&Ctx.callGraph().function(T));
    }
  }

  std::map<const Function *, std::vector<OrderEdge>> EdgesByFn;
  auto EdgesOf = [&](const Function *F) -> const std::vector<OrderEdge> & {
    auto It = EdgesByFn.find(F);
    if (It == EdgesByFn.end())
      It = EdgesByFn.emplace(F, collectEdges(Ctx, *F)).first;
    return It->second;
  };

  // A cycle in the union lock-order graph whose edges come from at least
  // two distinct threads is a circular wait: the classic ABBA two-cycle,
  // or longer rings (t1: A->B, t2: B->C, t3: C->A). Cycles contributed by
  // a single function alone are already double-lock territory.
  for (const auto &Threads : Groups) {
    struct GEdge {
      unsigned Held;
      unsigned Acquired;
      const Function *Fn;
      const OrderEdge *Site;
    };
    std::vector<GEdge> Edges;
    for (const Function *F : Threads)
      for (const OrderEdge &E : EdgesOf(F))
        Edges.push_back({E.Held, E.Acquired, F, &E});
    if (Edges.empty())
      continue;

    // Enumerate simple cycles up to length 4, canonicalized by starting
    // at the cycle's smallest lock id so each ring reports once.
    constexpr unsigned MaxLen = 4;
    std::vector<const GEdge *> Path;
    std::set<unsigned> OnPath;

    auto Report = [&](const std::vector<const GEdge *> &Cycle) {
      std::set<const Function *> Fns;
      for (const GEdge *E : Cycle)
        Fns.insert(E->Fn);
      if (Fns.size() < 2)
        return;
      const GEdge *First = Cycle.front();
      Diagnostic D(BugKind::ConflictingLockOrder);
      D.Function = First->Fn->Name;
      D.Block = First->Site->Block;
      D.StmtIndex = First->Site->StmtIndex;
      D.Loc = First->Site->Loc;
      if (Cycle.size() == 2) {
        D.Message = "acquires lock #" + std::to_string(First->Acquired) +
                    " while holding lock #" + std::to_string(First->Held) +
                    ", but '" + Cycle[1]->Fn->Name.str() +
                    "' acquires them in the opposite order (ABBA deadlock)";
      } else {
        std::string Ring;
        for (const GEdge *E : Cycle)
          Ring += "#" + std::to_string(E->Held) + " -> ";
        Ring += "#" + std::to_string(First->Held);
        D.Message = "completes a circular lock-order across " +
                    std::to_string(Fns.size()) + " threads (" + Ring +
                    "); some interleaving deadlocks";
      }
      // The counterpart acquisitions that close the circular wait, one
      // span per remaining cycle edge (cross-function spans carry the
      // acquiring thread's function name).
      addExternalAcquireSpan(D, *First->Site);
      for (size_t I = 1; I != Cycle.size(); ++I) {
        const GEdge *E = Cycle[I];
        D.Secondary.push_back(spanAt(
            {E->Site->Block, E->Site->StmtIndex, E->Site->Loc},
            "'" + E->Fn->Name.str() + "' acquires lock #" +
                std::to_string(E->Acquired) + " while holding lock #" +
                std::to_string(E->Held) + " here",
            E->Fn->Name));
        addExternalAcquireSpan(D, *E->Site);
      }
      Diags.report(std::move(D));
    };

    std::function<void(unsigned, unsigned)> Dfs = [&](unsigned Start,
                                                      unsigned Cur) {
      for (const GEdge &E : Edges) {
        if (E.Held != Cur)
          continue;
        if (E.Acquired == Start) {
          Path.push_back(&E);
          if (Path.size() >= 2)
            Report(Path);
          Path.pop_back();
          continue;
        }
        // Only canonical cycles (every node > Start) and simple paths.
        if (E.Acquired < Start || OnPath.count(E.Acquired) ||
            Path.size() + 1 >= MaxLen)
          continue;
        Path.push_back(&E);
        OnPath.insert(E.Acquired);
        Dfs(Start, E.Acquired);
        OnPath.erase(E.Acquired);
        Path.pop_back();
      }
    };
    std::set<unsigned> Starts;
    for (const GEdge &E : Edges)
      Starts.insert(E.Held);
    for (unsigned Start : Starts) {
      OnPath = {Start};
      Dfs(Start, Start);
    }
  }
}
