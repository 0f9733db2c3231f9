//===----------------------------------------------------------------------===//
//
// Dangling-return detection: at every return site, if the return value may
// point at one of the function's own locals, the caller receives a pointer
// into a dead frame (Section 4.3's lifetime-to-static casting pattern).
//
//===----------------------------------------------------------------------===//

#include "detectors/Detectors.h"

using namespace rs;
using namespace rs::analysis;
using namespace rs::detectors;
using namespace rs::mir;

void DanglingReturnDetector::run(AnalysisContext &Ctx,
                                 DiagnosticEngine &Diags) {
  const Module &M = Ctx.module();
  for (FuncId Id = 0; Id != M.numFunctions(); ++Id) {
    const Function &F = M.func(Id);
    const Cfg &G = Ctx.cfg(Id);
    const MemoryAnalysis &MA = Ctx.memory(Id);
    const ObjectTable &Objects = MA.objects();

    for (BlockId B = 0; B != F.numBlocks(); ++B) {
      if (!G.isReachable(B) ||
          F.Blocks[B].Term.K != Terminator::Kind::Return)
        continue;
      size_t AtTerm = F.Blocks[B].Statements.size();
      BitSpan State = MA.dataflow().blockExit(B);
      MA.forEachPointee(State, F.returnLocal(), [&](ObjId O) {
        LocalId L = 0;
        if (!Objects.isLocalObject(O, L))
          return; // Heap and parameter pointees outlive the call.
        Diagnostic D(BugKind::DanglingReturn);
        D.Function = F.Name;
        D.Block = B;
        D.StmtIndex = AtTerm;
        D.Loc = F.Blocks[B].Term.Loc;
        D.Message = "the returned value may point at local _" +
                    std::to_string(L) +
                    ", whose storage dies when this function returns";
        // Second program point: where the pointed-at frame slot dies — its
        // StorageDead when one runs before the return, otherwise the
        // allocation that pins it to this frame.
        addSpans(D, MA.transitionSites(ObjEvent::StorageDead, O),
                 "storage of local _" + std::to_string(L) + " ends here");
        if (D.Secondary.empty()) {
          for (BlockId LB = 0; LB != F.numBlocks(); ++LB) {
            const auto &Stmts = F.Blocks[LB].Statements;
            for (size_t I = 0; I != Stmts.size(); ++I)
              if (Stmts[I].K == Statement::Kind::StorageLive &&
                  Stmts[I].Local == L)
                D.Secondary.push_back(
                    spanAt({LB, I, Stmts[I].Loc},
                           "local _" + std::to_string(L) +
                               " lives only in this function's frame, "
                               "allocated here"));
          }
        }
        if (D.Secondary.empty())
          D.Notes.push_back("local _" + std::to_string(L) +
                            "'s frame storage is gone once this return "
                            "executes");
        Diags.report(std::move(D));
      });
    }
  }
}
