//===----------------------------------------------------------------------===//
//
// Interior-mutability misuse detection (Figure 9, Insight 10, Suggestion 8):
// "When a struct is sharable (e.g. implementing the Sync trait) and has a
// method immutably borrowing self, we can analyze whether self is modified
// in the method and whether the modification is unsynchronized. If so, we
// can report a potential bug."
//
//===----------------------------------------------------------------------===//

#include "detectors/Detectors.h"

#include "mir/Intrinsics.h"

using namespace rs;
using namespace rs::analysis;
using namespace rs::detectors;
using namespace rs::mir;

namespace {

/// True if the first parameter of \p F is an immutable reference (&T, not
/// &mut T) to a type the module declares Sync. Sets \p AdtName.
bool isSyncSelfMethod(const Function &F, const Module &M,
                      std::string &AdtName) {
  if (F.NumArgs < 1)
    return false;
  const Type *SelfTy = F.localType(1);
  if (!SelfTy->isRef() || SelfTy->isMutPtr())
    return false;
  const Type *Pointee = SelfTy->pointee();
  if (!Pointee->isAdt() || !M.isSync(Pointee->adtName()))
    return false;
  AdtName = Pointee->adtName();
  return true;
}

} // namespace

void InteriorMutabilityDetector::run(AnalysisContext &Ctx,
                                     DiagnosticEngine &Diags) {
  const Module &M = Ctx.module();
  for (FuncId Id = 0; Id != M.numFunctions(); ++Id) {
    const Function &F = M.func(Id);
    std::string AdtName;
    if (!isSyncSelfMethod(F, M, AdtName))
      continue;
    const Cfg &G = Ctx.cfg(Id);
    const MemoryAnalysis &MA = Ctx.memory(Id);
    const ObjectTable &Objects = MA.objects();
    ObjId SelfObj = Objects.paramPointee(1);
    if (SelfObj == ~0u)
      continue;

    auto Report = [&](BlockId B, size_t StmtIndex, SourceLocation Loc,
                      const std::string &Via) {
      Diagnostic D(BugKind::InteriorMutability);
      D.Function = F.Name;
      D.Block = B;
      D.StmtIndex = StmtIndex;
      D.Loc = Loc;
      D.Message = "unsynchronized write to *self (" + AdtName +
                  " is Sync, self is an immutable borrow) " + Via +
                  "; concurrent callers race on this field";
      if (F.Loc.isValid()) {
        diag::Span S;
        S.Loc = F.Loc;
        S.Label = "self is borrowed immutably by this method of Sync type " +
                  AdtName + ", so it may run on many threads at once";
        D.Secondary.push_back(std::move(S));
      }
      D.Notes.push_back("Suggestion 8: protect the field with a Mutex/"
                        "RwLock or use an atomic for the update");
      Diags.report(std::move(D));
    };

    MemoryAnalysis::Cursor C = MA.cursor();
    BitVec Targets = MA.objectSet();
    for (BlockId B = 0; B != F.numBlocks(); ++B) {
      if (!G.isReachable(B))
        continue;
      C.seek(B);
      while (!C.atTerminator()) {
        const Statement &S = C.statement();
        if (S.K == Statement::Kind::Assign && S.Dest.hasDeref()) {
          Targets.clear();
          MA.placeTargetObjects(C.state(), S.Dest, Targets);
          // Any exclusive lock held is a coarse "the writer synchronized
          // somehow" test that keeps lock-protected methods quiet.
          if (Targets.test(SelfObj) && !MA.anyHeldExclusive(C.state()))
            Report(B, C.index(), S.Loc,
                   "through " + S.Dest.toString());
        }
        C.advance();
      }
      // ptr::write into self-derived memory counts as a store too.
      const Terminator &T = F.Blocks[B].Term;
      if (MA.calleeKind(B) == IntrinsicKind::PtrWrite && !T.Args.empty() &&
          T.Args[0].isPlace()) {
        Targets.clear();
        MA.placeValuePointees(C.state(), T.Args[0].P, Targets);
        if (Targets.test(SelfObj) && !MA.anyHeldExclusive(C.state()))
          Report(B, C.index(), T.Loc, "via ptr::write");
      }
    }
  }
}
