#include "analysis/Objects.h"

using namespace rs::analysis;
using namespace rs::mir;

bool rs::analysis::callMayAllocate(const Terminator &T) {
  if (T.K != Terminator::Kind::Call || !T.HasDest)
    return false;
  switch (classifyIntrinsic(T.Callee)) {
  case IntrinsicKind::BoxNew:
  case IntrinsicKind::Alloc:
  case IntrinsicKind::ArcNew:
  case IntrinsicKind::None:
    return true;
  default:
    return false;
  }
}

ObjectTable::ObjectTable(const Function &F) : Fn(F) {
  unsigned NumArgs = F.NumArgs;
  Count = 1 + F.numLocals(); // Unknown + one object per local.
  FirstPointee = Count;

  // Sized for the most objects there can be, so the table never grows.
  size_t HeapAt = size_t(NumArgs) + 1;
  OwnersAt = HeapAt + F.numBlocks();
  Table.assign(OwnersAt + NumArgs + F.numBlocks(), None);
  for (LocalId P = 1; P <= NumArgs; ++P) {
    if (!F.localType(P)->isAnyPtr())
      continue;
    Table[P] = Count;
    Table[OwnersAt + (Count - FirstPointee)] = P;
    ++Count;
  }

  FirstHeap = Count;
  for (BlockId B = 0; B != F.numBlocks(); ++B) {
    if (!callMayAllocate(F.Blocks[B].Term))
      continue;
    Table[HeapAt + B] = Count;
    Table[OwnersAt + (Count - FirstPointee)] = B;
    ++Count;
  }
}

bool ObjectTable::isLocalObject(ObjId O, LocalId &L) const {
  if (O < 1 || O >= FirstPointee)
    return false;
  L = O - 1;
  return true;
}

ObjId ObjectTable::paramPointee(LocalId Param) const {
  return Param <= Fn.NumArgs ? Table[Param] : None;
}

bool ObjectTable::isParamPointee(ObjId O, LocalId &Param) const {
  if (O < FirstPointee || O >= FirstHeap)
    return false;
  Param = Table[OwnersAt + (O - FirstPointee)];
  return true;
}

ObjId ObjectTable::heapObject(BlockId B) const {
  return B < Fn.numBlocks() ? Table[Fn.NumArgs + 1 + B] : None;
}

bool ObjectTable::isHeapObject(ObjId O, BlockId &AllocBlock) const {
  if (O < FirstHeap || O >= Count)
    return false;
  AllocBlock = Table[OwnersAt + (O - FirstPointee)];
  return true;
}

LocalId rs::analysis::paramRootOfObject(const Function &F,
                                        const ObjectTable &Objects, ObjId O) {
  LocalId P = 0;
  if (Objects.isParamPointee(O, P))
    return P;
  LocalId L = 0;
  if (Objects.isLocalObject(O, L) && F.isArg(L))
    return L;
  return 0;
}

bool rs::analysis::typeOwnsPointees(const Type *Ty, const Module &M) {
  if (!Ty || !Ty->isAdt())
    return false;
  const std::string &Name = Ty->adtName();
  if (Name == "Box" || Name == "Vec" || Name == "String")
    return true;
  const StructDecl *S = M.findStruct(Name);
  return S && S->HasDrop;
}

static bool typeNeedsDropImpl(const Type *Ty, const Module &M,
                              unsigned Depth) {
  if (!Ty || Depth > 8)
    return false;
  if (typeOwnsPointees(Ty, M))
    return true;
  if (Ty->isAdt()) {
    const StructDecl *S = M.findStruct(Ty->adtName());
    if (!S)
      return false;
    for (const auto &[FieldName, FieldTy] : S->Fields)
      if (typeNeedsDropImpl(FieldTy, M, Depth + 1))
        return true;
    return false;
  }
  if (Ty->isTuple()) {
    for (const Type *Elem : Ty->args())
      if (typeNeedsDropImpl(Elem, M, Depth + 1))
        return true;
  }
  return false;
}

bool rs::analysis::typeNeedsDrop(const Type *Ty, const Module &M) {
  return typeNeedsDropImpl(Ty, M, 0);
}

std::string ObjectTable::name(ObjId O) const {
  if (O == unknown())
    return "<unknown>";
  LocalId L;
  if (isLocalObject(O, L)) {
    const std::string &Debug = Fn.Locals[L].DebugName;
    if (!Debug.empty())
      return Debug;
    return "_" + std::to_string(L);
  }
  if (isParamPointee(O, L))
    return "*_" + std::to_string(L);
  BlockId B;
  if (isHeapObject(O, B))
    return "heap@bb" + std::to_string(B);
  return "<invalid>";
}
