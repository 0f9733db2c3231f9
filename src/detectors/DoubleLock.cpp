//===----------------------------------------------------------------------===//
//
// The paper's double-lock detector (Section 7.2), reimplemented over
// RustLite MIR. It models Rust's implicit unlock: a lock is held until the
// guard returned by lock()/read()/write() dies (StorageDead, drop, or
// mem::drop), which is exactly the lifetime subtlety behind the paper's 30
// double-lock bugs (e.g. a guard born in a match discriminant living to the
// end of the whole match, Figure 8). On the paper's applications this design
// found six previously unknown deadlocks with no false positives.
//
//===----------------------------------------------------------------------===//

#include "detectors/Detectors.h"

#include "mir/Intrinsics.h"

using namespace rs;
using namespace rs::analysis;
using namespace rs::detectors;
using namespace rs::mir;

namespace {

/// Marks everywhere the still-held guard may have been acquired — the
/// second program point of the paper's Figure 8 pattern.
void addFirstAcquisitionSpans(Diagnostic &D, const MemoryAnalysis &MA,
                              BitSpan State, ObjId O,
                              const std::string &LockName) {
  if (MA.mayBeHeld(State, O, /*Exclusive=*/true))
    addSpans(D, MA.transitionSites(ObjEvent::HeldExclusive, O),
             "first lock on " + LockName + " acquired here; its guard is "
             "still alive");
  if (MA.mayBeHeld(State, O, /*Exclusive=*/false))
    addSpans(D, MA.transitionSites(ObjEvent::HeldShared, O),
             "shared lock on " + LockName + " acquired here; its guard is "
             "still alive");
  if (D.Secondary.empty())
    D.Notes.push_back("the first acquisition reaches this point on every "
                      "path (e.g. around a loop), so no single acquisition "
                      "site dominates it");
}

void reportDoubleLock(const Function &F, BlockId B, size_t StmtIndex,
                      SourceLocation Loc, const std::string &LockName,
                      bool ViaCallee, const std::string &Callee,
                      const MemoryAnalysis &MA, BitSpan State, ObjId O,
                      DiagnosticEngine &Diags,
                      const ExternalFunctionInfo *ExtCallee = nullptr,
                      unsigned ExtParam = 0) {
  Diagnostic D(BugKind::DoubleLock);
  D.Function = F.Name;
  D.Block = B;
  D.StmtIndex = StmtIndex;
  D.Loc = Loc;
  D.Message = "lock on " + LockName + " acquired while already held";
  if (ViaCallee)
    D.Message += " (acquired inside callee '" + Callee + "')";
  D.Message += "; the first guard is still alive here, so this deadlocks";
  addFirstAcquisitionSpans(D, MA, State, O, LockName);
  // Cross-file half: when the re-acquiring callee lives in another file,
  // point at the lock statements inside it.
  if (ExtCallee && ExtParam < ExtCallee->LockSites.size()) {
    const std::string *File = internFileName(ExtCallee->File);
    for (const LinkSite &S : ExtCallee->LockSites[ExtParam]) {
      diag::Span Span;
      Span.Loc = SourceLocation(File, S.Line, S.Col);
      Span.Label =
          "acquired inside callee '" + ExtCallee->Name + "' here";
      Span.Function = ExtCallee->Name;
      D.Secondary.push_back(std::move(Span));
    }
  }
  Diags.report(std::move(D));
}

/// True if acquiring with \p Mode while the lock is in the given held state
/// deadlocks. Shared/shared (read/read) is the only compatible pairing.
bool conflicts(uint8_t Mode, bool HeldShared, bool HeldExclusive) {
  if (HeldExclusive)
    return true;
  return HeldShared && (Mode & LM_Exclusive) != 0;
}

} // namespace

void DoubleLockDetector::run(AnalysisContext &Ctx, DiagnosticEngine &Diags) {
  const SummaryMap &Summaries = Ctx.summaries();

  const Module &M = Ctx.module();
  for (FuncId Id = 0; Id != M.numFunctions(); ++Id) {
    const Function &F = M.func(Id);
    const Cfg &G = Ctx.cfg(Id);
    const MemoryAnalysis &MA = Ctx.memory(Id);
    const ObjectTable &Objects = MA.objects();
    BitVec Roots = MA.objectSet();

    for (BlockId B = 0; B != F.numBlocks(); ++B) {
      if (!G.isReachable(B))
        continue;
      const Terminator &T = F.Blocks[B].Term;
      if (T.K != Terminator::Kind::Call)
        continue;
      size_t AtTerm = F.Blocks[B].Statements.size();
      IntrinsicKind Kind = MA.calleeKind(B);

      // Direct acquisition: locks deadlock on conflict, RefCell borrows
      // panic (same discipline, different failure mode and bug kind).
      if (isLockAcquire(Kind) || isBorrowAcquire(Kind)) {
        if (T.Args.empty())
          continue;
        BitSpan State = MA.dataflow().blockExit(B);
        Roots.clear();
        MA.lockRoots(State, T.Args[0], Roots);
        bool Exclusive = isExclusiveAcquire(Kind) ||
                         Kind == IntrinsicKind::RefCellBorrowMut;
        uint8_t Mode = Exclusive ? LM_Exclusive : LM_Shared;
        Roots.forEach([&](size_t Obj) {
          ObjId O = static_cast<ObjId>(Obj);
          if (O == Objects.unknown())
            return;
          if (!conflicts(Mode, MA.mayBeHeld(State, O, false),
                         MA.mayBeHeld(State, O, true)))
            return;
          if (isBorrowAcquire(Kind)) {
            Diagnostic D(BugKind::BorrowConflict);
            D.Function = F.Name;
            D.Block = B;
            D.StmtIndex = AtTerm;
            D.Loc = T.Loc;
            D.Message = "RefCell " + std::string(T.Callee) + " on " +
                        Objects.name(O) +
                        " while an earlier borrow is still alive; this "
                        "panics at runtime (BorrowMutError)";
            addFirstAcquisitionSpans(D, MA, State, O, Objects.name(O));
            Diags.report(std::move(D));
          } else {
            reportDoubleLock(F, B, AtTerm, T.Loc, Objects.name(O),
                             /*ViaCallee=*/false, T.Callee, MA, State, O,
                             Diags);
          }
        });
        continue;
      }

      // Acquisition inside a module-defined callee (via summaries).
      if (Kind != IntrinsicKind::None)
        continue;
      const FunctionSummary *Found = Summaries.find(T.Callee);
      if (!Found)
        continue;
      const FunctionSummary &S = *Found;
      BitSpan State = MA.dataflow().blockExit(B);
      for (size_t I = 0; I != T.Args.size(); ++I) {
        unsigned Param = static_cast<unsigned>(I) + 1;
        if (Param >= S.AcquiresLockOnParam.size())
          break;
        uint8_t Mode = S.AcquiresLockOnParam[Param];
        if (Mode == LM_None || !T.Args[I].isPlace())
          continue;
        Roots.clear();
        MA.lockRoots(State, T.Args[I], Roots);
        Roots.forEach([&](size_t Obj) {
          ObjId O = static_cast<ObjId>(Obj);
          if (O == Objects.unknown())
            return;
          if (conflicts(Mode, MA.mayBeHeld(State, O, false),
                        MA.mayBeHeld(State, O, true)))
            reportDoubleLock(F, B, AtTerm, T.Loc, Objects.name(O),
                             /*ViaCallee=*/true, T.Callee, MA, State, O,
                             Diags, Ctx.externalInfo(T.Callee), Param);
        });
      }
    }
  }
}
