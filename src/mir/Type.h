//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The RustLite MIR type system. Types are immutable and interned in a
/// TypeContext, so `const Type *` pointers can be compared for equality.
///
/// The dialect models the parts of Rust's type system the paper's analyses
/// need: primitives, shared/mutable references, raw pointers, tuples, arrays,
/// slices, and nominal ADTs with type arguments (e.g. Mutex<i32>). ADTs are
/// structurally opaque except for struct declarations registered in a Module.
///
/// Interning is structural: a candidate type hashes over its kind, scalar
/// fields, interned child pointers, and name symbol — never over a rendered
/// string — so getRef/getAdt on the hot parse path performs no allocation
/// when the type already exists (the parser passes type arguments as a
/// pointer and a count). Primitives come from a flat array.
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_MIR_TYPE_H
#define RUSTSIGHT_MIR_TYPE_H

#include "support/Symbol.h"

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace rs::mir {

/// Built-in scalar types.
enum class PrimKind {
  Unit,
  Bool,
  Char,
  Str,
  I8,
  I16,
  I32,
  I64,
  ISize,
  U8,
  U16,
  U32,
  U64,
  USize,
  F32,
  F64,
};

inline constexpr unsigned NumPrimKinds = 16;

/// Renders a primitive kind with Rust surface syntax ("i32", "()", ...).
const char *primKindName(PrimKind K);

/// An interned RustLite type. Construct through TypeContext only.
class Type {
public:
  /// Only TypeContext can make one, so only it can construct a Type.
  class Passkey {
    friend class TypeContext;
    Passkey() = default;
  };
  explicit Type(Passkey) {}

  enum class Kind {
    Prim,    ///< A scalar; see prim().
    Ref,     ///< &T or &mut T.
    RawPtr,  ///< *const T or *mut T.
    Tuple,   ///< (T0, T1, ...).
    Array,   ///< [T; N].
    Slice,   ///< [T].
    Adt,     ///< A nominal type, possibly generic: Foo, Mutex<i32>.
  };

  Kind kind() const { return K; }
  bool isPrim() const { return K == Kind::Prim; }
  bool isRef() const { return K == Kind::Ref; }
  bool isRawPtr() const { return K == Kind::RawPtr; }
  bool isAnyPtr() const { return isRef() || isRawPtr(); }
  bool isTuple() const { return K == Kind::Tuple; }
  bool isAdt() const { return K == Kind::Adt; }
  bool isUnit() const { return K == Kind::Prim && Prim == PrimKind::Unit; }

  /// The scalar kind; only valid for Prim types.
  PrimKind prim() const { return Prim; }

  /// For Ref/RawPtr: whether the pointer permits mutation (&mut, *mut).
  bool isMutPtr() const { return Mut; }

  /// For Ref/RawPtr/Array/Slice: the pointee or element type.
  const Type *pointee() const { return Pointee; }

  /// For Array: the constant length.
  uint64_t arrayLen() const { return ArrayLen; }

  /// For Tuple: element types. For Adt: type arguments.
  const std::vector<const Type *> &args() const { return Args; }

  /// For Adt: the (possibly ::-qualified) nominal name, without arguments.
  const std::string &adtName() const { return Name.str(); }
  Symbol adtNameSym() const { return Name; }

  /// Renders the type with Rust surface syntax.
  std::string toString() const;

private:
  friend class TypeContext;

  Kind K = Kind::Prim;
  PrimKind Prim = PrimKind::Unit;
  bool Mut = false;
  const Type *Pointee = nullptr;
  uint64_t ArrayLen = 0;
  std::vector<const Type *> Args;
  Symbol Name;
};

/// Owns and interns Type nodes. Each Module has one; types from different
/// contexts must not be mixed.
class TypeContext {
public:
  TypeContext() = default;
  TypeContext(TypeContext &&) = default;
  TypeContext &operator=(TypeContext &&) = default;
  TypeContext(const TypeContext &) = delete;
  TypeContext &operator=(const TypeContext &) = delete;

  const Type *getPrim(PrimKind K);
  const Type *getUnit() { return getPrim(PrimKind::Unit); }
  const Type *getBool() { return getPrim(PrimKind::Bool); }
  const Type *getI32() { return getPrim(PrimKind::I32); }
  const Type *getUSize() { return getPrim(PrimKind::USize); }

  const Type *getRef(const Type *Pointee, bool Mut);
  const Type *getRawPtr(const Type *Pointee, bool Mut);
  const Type *getTuple(std::vector<const Type *> Elems);
  const Type *getTuple(const Type *const *Elems, size_t NumElems);
  const Type *getArray(const Type *Elem, uint64_t Len);
  const Type *getSlice(const Type *Elem);
  const Type *getAdt(std::string_view Name,
                     std::vector<const Type *> Args = {});
  const Type *getAdt(Symbol Name, std::vector<const Type *> Args = {});
  const Type *getAdt(Symbol Name, const Type *const *Args, size_t NumArgs);

private:
  /// The fields of a candidate type; a Type is built only when no interned
  /// one matches.
  struct Key {
    Type::Kind K = Type::Kind::Prim;
    PrimKind Prim = PrimKind::Unit;
    bool Mut = false;
    const Type *Pointee = nullptr;
    uint64_t ArrayLen = 0;
    const Type *const *Args = nullptr;
    size_t NumArgs = 0;
    Symbol Name;
  };
  const Type *intern(const Key &K);

  /// Primitives are a direct lookup — no hashing on the hottest path.
  const Type *Prims[NumPrimKinds] = {};

  /// Every interned type; a deque keeps their addresses stable.
  std::deque<Type> Storage;
  /// Open-addressing index over Storage by structural hash, a power of two
  /// in size and at most half full. Equal hashes are told apart by full
  /// structural comparison. Child pointers are already interned, so
  /// pointer identity stands in for structural identity of subterms.
  std::vector<std::pair<uint64_t, const Type *>> Index;
};

} // namespace rs::mir

#endif // RUSTSIGHT_MIR_TYPE_H
