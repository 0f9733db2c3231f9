//===----------------------------------------------------------------------===//
//
// The invalid-free, double-free, and uninitialized-read detectors — the
// concrete memory-bug detector suggestions from the paper's Sections 5.1
// and 7.1: "it is feasible to build static checkers to detect invalid-free,
// use-after-free, double-free memory bugs by analyzing object lifetime and
// ownership relationships."
//
//===----------------------------------------------------------------------===//

#include "detectors/Detectors.h"
#include "detectors/PlaceUses.h"

#include "mir/Intrinsics.h"

using namespace rs;
using namespace rs::analysis;
using namespace rs::detectors;
using namespace rs::mir;

namespace {

/// The pointee type reached by dereferencing the base local of \p P, or
/// null when the base is not a pointer.
const Type *pointeeType(const Function &F, const Place &P) {
  const Type *Ty = F.localType(P.Base);
  return Ty->isAnyPtr() ? Ty->pointee() : nullptr;
}

Diagnostic makeDiag(BugKind Kind, const Function &F, BlockId B,
                    size_t StmtIndex, SourceLocation Loc,
                    std::string Message) {
  Diagnostic D(Kind);
  D.Function = F.Name;
  D.Block = B;
  D.StmtIndex = StmtIndex;
  D.Loc = Loc;
  D.Message = std::move(Message);
  return D;
}

/// Marks where \p O may have become uninitialized (moves, frees, raw
/// allocs). Locals are *born* uninitialized — when no statement flipped the
/// bit, say so in a note instead.
void addUninitOriginSpans(Diagnostic &D, const MemoryAnalysis &MA, ObjId O,
                          const std::string &Name) {
  addSpans(D, MA.transitionSites(ObjEvent::Uninit, O),
           Name + " may be left uninitialized here");
  if (D.Secondary.empty())
    D.Notes.push_back(Name + " has never been initialized on some path "
                             "from function entry");
}

} // namespace

//===----------------------------------------------------------------------===//
// Invalid free (Figure 6: *f = FILE{...} drops an uninitialized FILE)
//===----------------------------------------------------------------------===//

void InvalidFreeDetector::run(AnalysisContext &Ctx, DiagnosticEngine &Diags) {
  const Module &M = Ctx.module();
  for (const auto &F : M.functions()) {
    const Cfg &G = Ctx.cfg(F);
    const MemoryAnalysis &MA = Ctx.memory(F);
    const ObjectTable &Objects = MA.objects();
    MemoryAnalysis::Cursor C = MA.cursor();

    for (BlockId B = 0; B != F.numBlocks(); ++B) {
      if (!G.isReachable(B))
        continue;
      C.seek(B);
      while (!C.atTerminator()) {
        const Statement &S = C.statement();
        // Assigning through a pointer drops the old pointee value first; if
        // that value is uninitialized garbage and the type runs Drop, the
        // "free" is of a garbage pointer.
        if (S.K == Statement::Kind::Assign && S.Dest.hasDeref()) {
          const Type *Pointee = pointeeType(F, S.Dest);
          if (Pointee && typeNeedsDrop(Pointee, M)) {
            BitVec Targets(Objects.numObjects());
            MA.placeTargetObjects(C.state(), S.Dest, Targets);
            Targets.forEach([&](size_t O) {
              if (O == Objects.unknown())
                return;
              if (!MA.mayBeUninit(C.state(), static_cast<ObjId>(O)))
                return;
              Diagnostic D = makeDiag(
                  BugKind::InvalidFree, F, B, C.index(), S.Loc,
                  "assignment through " + S.Dest.toString() +
                      " drops the old value of " + Objects.name(O) +
                      ", which may be uninitialized; dropping it runs " +
                      Pointee->toString() +
                      "'s destructor on garbage (use ptr::write instead)");
              addUninitOriginSpans(D, MA, static_cast<ObjId>(O),
                                   Objects.name(O));
              Diags.report(std::move(D));
            });
          }
        }
        C.advance();
      }

      // drop(x) / mem::drop(x) of a possibly-uninitialized value.
      const Terminator &T = F.Blocks[B].Term;
      size_t AtTerm = F.Blocks[B].Statements.size();
      const Place *Dropped = nullptr;
      if (T.K == Terminator::Kind::Drop)
        Dropped = &T.DropPlace;
      else if (MA.calleeKind(B) == IntrinsicKind::MemDrop &&
               !T.Args.empty() && T.Args[0].isPlace())
        Dropped = &T.Args[0].P;
      if (!Dropped || !Dropped->isLocal())
        continue;
      const Type *Ty = F.localType(Dropped->Base);
      if (!typeNeedsDrop(Ty, M))
        continue;
      ObjId O = Objects.localObject(Dropped->Base);
      if (MA.mayBeUninit(C.state(), O) && !MA.mayBeDropped(C.state(), O)) {
        Diagnostic D = makeDiag(BugKind::InvalidFree, F, B, AtTerm, T.Loc,
                                "drop of " + Dropped->toString() +
                                    " runs " + Ty->toString() +
                                    "'s destructor, but the value may be "
                                    "uninitialized");
        addUninitOriginSpans(D, MA, O, Objects.name(O));
        Diags.report(std::move(D));
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Double free (Section 5.1: t2 = ptr::read(&t1) makes two owners)
//===----------------------------------------------------------------------===//

void DoubleFreeDetector::run(AnalysisContext &Ctx, DiagnosticEngine &Diags) {
  const Module &M = Ctx.module();
  for (const auto &F : M.functions()) {
    const Cfg &G = Ctx.cfg(F);
    const MemoryAnalysis &MA = Ctx.memory(F);
    const ObjectTable &Objects = MA.objects();

    // Ownership duplications created by ptr::read: (duplicate local,
    // original object, site).
    struct Duplication {
      LocalId Dest;
      ObjId Source;
      BlockId Block;
      size_t StmtIndex;
      SourceLocation Loc;
    };
    std::vector<Duplication> Dups;
    MemoryAnalysis::Cursor C = MA.cursor();

    for (BlockId B = 0; B != F.numBlocks(); ++B) {
      if (!G.isReachable(B))
        continue;
      const Terminator &T = F.Blocks[B].Term;
      size_t AtTerm = F.Blocks[B].Statements.size();
      C.seek(B);
      const BitVec &State = C.stateAtTerminator();

      // Direct double drop.
      const Place *Dropped = nullptr;
      if (T.K == Terminator::Kind::Drop)
        Dropped = &T.DropPlace;
      else if (MA.calleeKind(B) == IntrinsicKind::MemDrop &&
               !T.Args.empty() && T.Args[0].isPlace())
        Dropped = &T.Args[0].P;
      if (Dropped && Dropped->isLocal()) {
        ObjId O = Objects.localObject(Dropped->Base);
        if (MA.mayBeDropped(State, O)) {
          Diagnostic D = makeDiag(BugKind::DoubleFree, F, B, AtTerm, T.Loc,
                                  "value in " + Dropped->toString() +
                                      " may already have been dropped; "
                                      "dropping it again frees twice");
          // The paper's pattern: the second drop (primary) and the first.
          addSpans(D, MA.transitionSites(ObjEvent::Dropped, O),
                   "first dropped here");
          if (D.Secondary.empty())
            D.Notes.push_back("the value may already be dropped on entry "
                              "to this block along every flagged path");
          Diags.report(std::move(D));
        }
      }

      // Record ptr::read duplications.
      if (MA.calleeKind(B) == IntrinsicKind::PtrRead && T.HasDest &&
          T.Dest.isLocal() && !T.Args.empty() && T.Args[0].isPlace()) {
        BitVec Sources(Objects.numObjects());
        MA.placeValuePointees(State, T.Args[0].P, Sources);
        Sources.forEach([&](size_t O) {
          if (O != Objects.unknown())
            Dups.push_back({T.Dest.Base, static_cast<ObjId>(O), B, AtTerm,
                            T.Loc});
        });
      }
    }

    // A duplication is a double free if both owners' values are dropped on
    // some path to a return.
    for (BlockId B = 0; B != F.numBlocks(); ++B) {
      if (!G.isReachable(B) ||
          F.Blocks[B].Term.K != Terminator::Kind::Return)
        continue;
      C.seek(B);
      const BitVec &State = C.stateAtTerminator();
      for (const Duplication &Dup : Dups) {
        if (MA.mayBeDropped(State, Objects.localObject(Dup.Dest)) &&
            MA.mayBeDropped(State, Dup.Source)) {
          Diagnostic D = makeDiag(
              BugKind::DoubleFree, F, Dup.Block, Dup.StmtIndex, Dup.Loc,
              "ptr::read duplicates the value of " + Objects.name(Dup.Source) +
                  " into _" + std::to_string(Dup.Dest) +
                  "; both owners are later dropped, freeing the contents "
                  "twice (move the ownership with `t2 = t1` instead)");
          // Both owners' drops are the pattern's other program points.
          addSpans(D, MA.transitionSites(ObjEvent::Dropped,
                                         Objects.localObject(Dup.Dest)),
                   "duplicate owner _" + std::to_string(Dup.Dest) +
                       " dropped here");
          addSpans(D, MA.transitionSites(ObjEvent::Dropped, Dup.Source),
                   "original " + Objects.name(Dup.Source) + " dropped here");
          Diags.report(std::move(D));
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Uninitialized read
//===----------------------------------------------------------------------===//

void UninitReadDetector::run(AnalysisContext &Ctx, DiagnosticEngine &Diags) {
  for (const auto &F : Ctx.module().functions()) {
    const Cfg &G = Ctx.cfg(F);
    const MemoryAnalysis &MA = Ctx.memory(F);
    const ObjectTable &Objects = MA.objects();

    auto Check = [&](const BitVec &State, const std::vector<PlaceUse> &Uses,
                     BlockId B, size_t StmtIndex, SourceLocation Loc) {
      for (const PlaceUse &U : Uses) {
        if (U.IsWrite || !U.P->hasDeref())
          continue;
        BitVec Targets(Objects.numObjects());
        MA.placeTargetObjects(State, *U.P, Targets);
        // Report only when every known target is possibly-uninitialized:
        // a deliberately conservative rule to keep false positives low.
        // Dropped or out-of-scope targets are use-after-free territory and
        // left to that detector.
        bool AnyKnown = false, AllUninit = true;
        Targets.forEach([&](size_t O) {
          if (O == Objects.unknown())
            return;
          AnyKnown = true;
          ObjId Obj = static_cast<ObjId>(O);
          AllUninit &= MA.mayBeUninit(State, Obj) &&
                       !MA.mayBeDropped(State, Obj) &&
                       !MA.mayBeStorageDead(State, Obj);
        });
        if (!AnyKnown || !AllUninit)
          continue;
        Diagnostic D = makeDiag(BugKind::UninitRead, F, B, StmtIndex, Loc,
                                "read through " + U.P->toString() +
                                    " reaches memory that may be "
                                    "uninitialized");
        Targets.forEach([&](size_t O) {
          if (O != Objects.unknown())
            addSpans(D, MA.transitionSites(ObjEvent::Uninit,
                                           static_cast<ObjId>(O)),
                     Objects.name(O) + " may be left uninitialized here");
        });
        if (D.Secondary.empty())
          D.Notes.push_back("the target memory has never been initialized "
                            "on some path from function entry");
        Diags.report(std::move(D));
      }
    };

    MemoryAnalysis::Cursor C = MA.cursor();
    std::vector<PlaceUse> Uses;
    for (BlockId B = 0; B != F.numBlocks(); ++B) {
      if (!G.isReachable(B))
        continue;
      C.seek(B);
      while (!C.atTerminator()) {
        Uses.clear();
        collectUses(C.statement(), Uses);
        if (anyDerefUse(Uses))
          Check(C.state(), Uses, B, C.index(), C.statement().Loc);
        C.advance();
      }
      Uses.clear();
      const Terminator &T = F.Blocks[B].Term;
      collectUses(T, Uses);
      if (anyDerefUse(Uses))
        Check(C.state(), Uses, B, C.index(), T.Loc);
    }
  }
}
