#include "mir/Type.h"

#include "support/Hash.h"

#include <algorithm>
#include <cassert>

using namespace rs;
using namespace rs::mir;

const char *rs::mir::primKindName(PrimKind K) {
  switch (K) {
  case PrimKind::Unit:
    return "()";
  case PrimKind::Bool:
    return "bool";
  case PrimKind::Char:
    return "char";
  case PrimKind::Str:
    return "str";
  case PrimKind::I8:
    return "i8";
  case PrimKind::I16:
    return "i16";
  case PrimKind::I32:
    return "i32";
  case PrimKind::I64:
    return "i64";
  case PrimKind::ISize:
    return "isize";
  case PrimKind::U8:
    return "u8";
  case PrimKind::U16:
    return "u16";
  case PrimKind::U32:
    return "u32";
  case PrimKind::U64:
    return "u64";
  case PrimKind::USize:
    return "usize";
  case PrimKind::F32:
    return "f32";
  case PrimKind::F64:
    return "f64";
  }
  assert(false && "unknown PrimKind");
  return "?";
}

std::string Type::toString() const {
  switch (K) {
  case Kind::Prim:
    return primKindName(Prim);
  case Kind::Ref:
    return std::string("&") + (Mut ? "mut " : "") + Pointee->toString();
  case Kind::RawPtr:
    return std::string("*") + (Mut ? "mut " : "const ") + Pointee->toString();
  case Kind::Tuple: {
    std::string Out = "(";
    for (size_t I = 0; I != Args.size(); ++I) {
      if (I != 0)
        Out += ", ";
      Out += Args[I]->toString();
    }
    // A 1-tuple renders with a trailing comma, as in Rust.
    if (Args.size() == 1)
      Out += ",";
    Out += ")";
    return Out;
  }
  case Kind::Array:
    return "[" + Pointee->toString() + "; " + std::to_string(ArrayLen) + "]";
  case Kind::Slice:
    return "[" + Pointee->toString() + "]";
  case Kind::Adt: {
    std::string Out = Name.str();
    if (!Args.empty()) {
      Out += "<";
      for (size_t I = 0; I != Args.size(); ++I) {
        if (I != 0)
          Out += ", ";
        Out += Args[I]->toString();
      }
      Out += ">";
    }
    return Out;
  }
  }
  assert(false && "unknown Type::Kind");
  return "?";
}

const Type *TypeContext::intern(const Key &C) {
  // One multiply per field: the hash only places types in Index, within
  // one process, so it need not be stable across hosts or runs.
  uint64_t H = wordFold(wordFoldSeed(C.NumArgs),
                        static_cast<uint64_t>(C.K) |
                            static_cast<uint64_t>(C.Prim) << 8 |
                            static_cast<uint64_t>(C.Mut) << 16 |
                            static_cast<uint64_t>(C.Name.id()) << 32);
  H = wordFold(H, reinterpret_cast<uintptr_t>(C.Pointee));
  H = wordFold(H, C.ArrayLen);
  for (size_t I = 0; I != C.NumArgs; ++I)
    H = wordFold(H, reinterpret_cast<uintptr_t>(C.Args[I]));
  H = wordFoldFinish(H);
  if (2 * (Storage.size() + 1) > Index.size()) {
    std::vector<std::pair<uint64_t, const Type *>> Old(
        std::max<size_t>(32, 2 * Index.size()));
    Old.swap(Index);
    for (const auto &[OldH, OldT] : Old)
      if (OldT)
        for (size_t I = OldH;; ++I)
          if (auto &Slot = Index[I & (Index.size() - 1)]; !Slot.second) {
            Slot = {OldH, OldT};
            break;
          }
  }
  for (size_t I = H;; ++I) {
    auto &[SlotH, Existing] = Index[I & (Index.size() - 1)];
    if (!Existing)
      break;
    if (SlotH == H && Existing->K == C.K && Existing->Prim == C.Prim &&
        Existing->Mut == C.Mut && Existing->Pointee == C.Pointee &&
        Existing->ArrayLen == C.ArrayLen && Existing->Name == C.Name &&
        std::equal(Existing->Args.begin(), Existing->Args.end(), C.Args,
                   C.Args + C.NumArgs))
      return Existing;
  }
  Type &T = Storage.emplace_back(Type::Passkey());
  T.K = C.K;
  T.Prim = C.Prim;
  T.Mut = C.Mut;
  T.Pointee = C.Pointee;
  T.ArrayLen = C.ArrayLen;
  T.Args.assign(C.Args, C.Args + C.NumArgs);
  T.Name = C.Name;
  for (size_t I = H;; ++I)
    if (auto &Slot = Index[I & (Index.size() - 1)]; !Slot.second) {
      Slot = {H, &T};
      return &T;
    }
}

const Type *TypeContext::getPrim(PrimKind K) {
  unsigned Idx = static_cast<unsigned>(K);
  assert(Idx < NumPrimKinds && "unknown PrimKind");
  if (const Type *Cached = Prims[Idx])
    return Cached;
  Key C;
  C.Prim = K;
  Prims[Idx] = intern(C);
  return Prims[Idx];
}

const Type *TypeContext::getRef(const Type *Pointee, bool Mut) {
  assert(Pointee && "null pointee");
  Key C;
  C.K = Type::Kind::Ref;
  C.Mut = Mut;
  C.Pointee = Pointee;
  return intern(C);
}

const Type *TypeContext::getRawPtr(const Type *Pointee, bool Mut) {
  assert(Pointee && "null pointee");
  Key C;
  C.K = Type::Kind::RawPtr;
  C.Mut = Mut;
  C.Pointee = Pointee;
  return intern(C);
}

const Type *TypeContext::getTuple(std::vector<const Type *> Elems) {
  return getTuple(Elems.data(), Elems.size());
}

const Type *TypeContext::getTuple(const Type *const *Elems, size_t NumElems) {
  if (NumElems == 0)
    return getPrim(PrimKind::Unit);
  Key C;
  C.K = Type::Kind::Tuple;
  C.Args = Elems;
  C.NumArgs = NumElems;
  return intern(C);
}

const Type *TypeContext::getArray(const Type *Elem, uint64_t Len) {
  assert(Elem && "null element type");
  Key C;
  C.K = Type::Kind::Array;
  C.Pointee = Elem;
  C.ArrayLen = Len;
  return intern(C);
}

const Type *TypeContext::getSlice(const Type *Elem) {
  assert(Elem && "null element type");
  Key C;
  C.K = Type::Kind::Slice;
  C.Pointee = Elem;
  return intern(C);
}

const Type *TypeContext::getAdt(std::string_view Name,
                                std::vector<const Type *> Args) {
  return getAdt(Symbol::intern(Name), std::move(Args));
}

const Type *TypeContext::getAdt(Symbol Name, std::vector<const Type *> Args) {
  return getAdt(Name, Args.data(), Args.size());
}

const Type *TypeContext::getAdt(Symbol Name, const Type *const *Args,
                                size_t NumArgs) {
  assert(!Name.empty() && "ADT needs a name");
  Key C;
  C.K = Type::Kind::Adt;
  C.Name = Name;
  C.Args = Args;
  C.NumArgs = NumArgs;
  return intern(C);
}
