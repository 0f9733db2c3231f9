#include "analysis/ConstantBranches.h"

using namespace rs::analysis;
using namespace rs::mir;

namespace {

/// Per-local facts gathered in one pass.
struct LocalFacts {
  unsigned Assignments = 0;
  bool AddressTaken = false;
  bool IsConst = false;
  int64_t Value = 0;
};

} // namespace

ConstantBranches::ConstantBranches(const Function &F)
    : Resolved(F.numBlocks(), InvalidBlock) {
  std::vector<LocalFacts> Facts(F.numLocals());

  auto NoteAssign = [&Facts](LocalId L, const Rvalue *RV) {
    LocalFacts &LF = Facts[L];
    ++LF.Assignments;
    LF.IsConst = false;
    if (RV && RV->K == Rvalue::Kind::Use && !RV->Ops[0].isPlace()) {
      const ConstValue &C = RV->Ops[0].C;
      if (C.K == ConstValue::Kind::Int) {
        LF.IsConst = true;
        LF.Value = C.Int;
      } else if (C.K == ConstValue::Kind::Bool) {
        LF.IsConst = true;
        LF.Value = C.Bool ? 1 : 0;
      }
    }
  };

  for (const BasicBlock &BB : F.Blocks) {
    for (const Statement &S : BB.Statements) {
      if (S.K != Statement::Kind::Assign)
        continue;
      if (S.Dest.isLocal())
        NoteAssign(S.Dest.Base, &S.RV);
      else
        Facts[S.Dest.Base].AddressTaken = true; // Projected writes count
                                                // as unknown mutation.
      if (S.RV.K == Rvalue::Kind::Ref || S.RV.K == Rvalue::Kind::AddressOf)
        Facts[S.RV.P.Base].AddressTaken = true;
    }
    const Terminator &T = BB.Term;
    if (T.K == Terminator::Kind::Call && T.HasDest) {
      if (T.Dest.isLocal())
        NoteAssign(T.Dest.Base, nullptr);
      else
        Facts[T.Dest.Base].AddressTaken = true;
    }
    // Drop terminators read their place but never write a local.
  }
  // Parameters are externally assigned.
  for (LocalId P = 1; P <= F.NumArgs; ++P)
    ++Facts[P].Assignments;

  for (BlockId B = 0; B != F.numBlocks(); ++B) {
    const Terminator &T = F.Blocks[B].Term;
    if (T.K != Terminator::Kind::SwitchInt)
      continue;

    std::optional<int64_t> Discr;
    if (!T.Discr.isPlace()) {
      const ConstValue &C = T.Discr.C;
      if (C.K == ConstValue::Kind::Int)
        Discr = C.Int;
      else if (C.K == ConstValue::Kind::Bool)
        Discr = C.Bool ? 1 : 0;
    } else if (T.Discr.P.isLocal()) {
      const LocalFacts &LF = Facts[T.Discr.P.Base];
      if (LF.Assignments == 1 && !LF.AddressTaken && LF.IsConst)
        Discr = LF.Value;
    }
    if (!Discr)
      continue;

    BlockId Target = T.Target; // Otherwise arm.
    for (const auto &[Case, Block] : T.Cases) {
      if (Case == *Discr) {
        Target = Block;
        break;
      }
    }
    Resolved[B] = Target;
    ++NumResolved;
  }
}
