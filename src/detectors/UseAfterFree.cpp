//===----------------------------------------------------------------------===//
//
// The paper's use-after-free detector (Section 7.1), reimplemented over
// RustLite MIR. On the paper's studied applications this design found four
// previously unknown bugs with three false positives.
//
//===----------------------------------------------------------------------===//

#include "detectors/Detectors.h"
#include "detectors/PlaceUses.h"
#include "detectors/UnsafeScope.h"

using namespace rs;
using namespace rs::analysis;
using namespace rs::detectors;
using namespace rs::mir;

namespace {

/// Appends counterpart spans into other files: for every drop site that is
/// a call to an externally-defined function with a drop effect, point at
/// the statements inside the callee (in its own file) where the pointee may
/// actually die. This is the cross-file half of the paper's two-point UAF
/// pattern — the free lives in a different file than the use.
void addExternalDropSpans(AnalysisContext &Ctx, Diagnostic &D,
                          const Function &F,
                          const std::vector<StatePoint> &DropPoints) {
  for (const StatePoint &P : DropPoints) {
    const BasicBlock &BB = F.Blocks[P.Block];
    if (P.StmtIndex != BB.Statements.size() ||
        BB.Term.K != Terminator::Kind::Call)
      continue;
    const ExternalFunctionInfo *Info = Ctx.externalInfo(BB.Term.Callee);
    if (!Info)
      continue;
    const std::string *File = internFileName(Info->File);
    for (unsigned Param = 1; Param < Info->DropSites.size(); ++Param) {
      if (!Info->Summary.DropsParamPointee[Param])
        continue;
      for (const LinkSite &S : Info->DropSites[Param]) {
        diag::Span Span;
        Span.Loc = SourceLocation(File, S.Line, S.Col);
        Span.Label = "may be dropped inside callee '" + Info->Name + "' here";
        Span.Function = Info->Name;
        D.Secondary.push_back(std::move(Span));
      }
    }
  }
}

/// Checks every dereferencing access in \p Uses against the memory state in
/// \p State.
void checkUses(AnalysisContext &Ctx, const MemoryAnalysis &MA,
               BitSpan State, const PlaceUses &Uses, const Function &F,
               BlockId B, size_t StmtIndex, SourceLocation Loc,
               DiagnosticEngine &Diags) {
  const ObjectTable &Objects = MA.objects();
  for (const PlaceUse &U : Uses) {
    if (!U.P->hasDeref())
      continue;
    MA.forEachPointee(State, U.P->Base, [&](ObjId O) {
      if (O == Objects.unknown())
        return;
      const char *Why = nullptr;
      ObjEvent DeathEvent = ObjEvent::Dropped;
      if (MA.mayBeDropped(State, O)) {
        Why = "may already be dropped";
      } else if (MA.mayBeStorageDead(State, O)) {
        Why = "is out of scope (storage dead)";
        DeathEvent = ObjEvent::StorageDead;
      }
      if (!Why)
        return;
      Diagnostic D(BugKind::UseAfterFree);
      D.Function = F.Name;
      D.Block = B;
      D.StmtIndex = StmtIndex;
      D.Loc = Loc;
      D.Message = std::string(U.IsWrite ? "write through" : "read through") +
                  " pointer " + U.P->toString() + ", but its target " +
                  Objects.name(O) + " " + Why;
      // The paper's pattern has two program points: the use (primary) and
      // the free. Mark everywhere the target may have died.
      std::vector<StatePoint> DeathSites = MA.transitionSites(DeathEvent, O);
      addSpans(D, DeathSites,
               DeathEvent == ObjEvent::Dropped
                   ? "target " + Objects.name(O) + " may be dropped here"
                   : "storage of " + Objects.name(O) + " ends here");
      if (DeathEvent == ObjEvent::Dropped)
        addExternalDropSpans(Ctx, D, F, DeathSites);
      if (D.Secondary.empty())
        D.Notes.push_back("the target is already dead on entry to this "
                          "function along every flagged path");
      Diags.report(std::move(D));
    });
  }
}

} // namespace

void UseAfterFreeDetector::run(AnalysisContext &Ctx, DiagnosticEngine &Diags) {
  const Module &M = Ctx.module();
  for (FuncId Id = 0; Id != M.numFunctions(); ++Id) {
    const Function &F = M.func(Id);
    if (FocusOnUnsafe && !functionTouchesUnsafeMemory(F))
      continue; // Suggestion 5: safe code unrelated to unsafe is skipped.
    const Cfg &G = Ctx.cfg(Id);
    const MemoryAnalysis &MA = Ctx.memory(Id);
    MemoryAnalysis::Cursor C = MA.cursor();
    PlaceUses Uses;
    for (BlockId B = 0; B != F.numBlocks(); ++B) {
      if (!G.isReachable(B))
        continue;
      C.seek(B);
      while (!C.atTerminator()) {
        Uses.clear();
        collectUses(C.statement(), Uses);
        if (anyDerefUse(Uses))
          checkUses(Ctx, MA, C.state(), Uses, F, B, C.index(),
                    C.statement().Loc, Diags);
        C.advance();
      }
      Uses.clear();
      const Terminator &T = F.Blocks[B].Term;
      collectUses(T, Uses);
      if (anyDerefUse(Uses))
        checkUses(Ctx, MA, C.state(), Uses, F, B, C.index(), T.Loc, Diags);
    }
  }
}
