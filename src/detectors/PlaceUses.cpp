#include "detectors/PlaceUses.h"

using namespace rs::detectors;
using namespace rs::mir;

static void addOperand(const Operand &O, std::vector<PlaceUse> &Out) {
  if (O.isPlace())
    Out.push_back({&O.P, /*IsWrite=*/false});
}

static void addRvalue(const Rvalue &RV, std::vector<PlaceUse> &Out) {
  for (const Operand &O : RV.Ops)
    addOperand(O, Out);
  switch (RV.K) {
  case Rvalue::Kind::Ref:
  case Rvalue::Kind::AddressOf:
  case Rvalue::Kind::Discriminant:
  case Rvalue::Kind::Len:
    Out.push_back({&RV.P, /*IsWrite=*/false});
    break;
  default:
    break;
  }
}

void rs::detectors::collectUses(const Statement &S,
                                std::vector<PlaceUse> &Out) {
  if (S.K != Statement::Kind::Assign)
    return;
  addRvalue(S.RV, Out);
  Out.push_back({&S.Dest, /*IsWrite=*/true});
}

void rs::detectors::collectUses(const Terminator &T,
                                std::vector<PlaceUse> &Out) {
  switch (T.K) {
  case Terminator::Kind::SwitchInt:
  case Terminator::Kind::Assert:
    addOperand(T.Discr, Out);
    return;
  case Terminator::Kind::Call:
    for (const Operand &O : T.Args)
      addOperand(O, Out);
    if (T.HasDest)
      Out.push_back({&T.Dest, /*IsWrite=*/true});
    return;
  default:
    return;
  }
}

bool rs::detectors::anyDerefUse(const std::vector<PlaceUse> &Uses) {
  for (const PlaceUse &U : Uses)
    if (U.P->hasDeref())
      return true;
  return false;
}
