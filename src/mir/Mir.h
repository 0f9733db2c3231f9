//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Core data structures of RustLite MIR, a dialect of the Rust compiler's
/// mid-level intermediate representation. The paper's detectors (Section 7)
/// operate on MIR because it exposes explicit storage events (StorageLive /
/// StorageDead), explicit drops, ownership moves, and a CFG of basic blocks;
/// this dialect models exactly those constructs.
///
/// A Module owns a TypeContext, struct declarations, and Functions. Each
/// Function owns locals (local 0 is the return place, locals 1..NumArgs are
/// the arguments) and BasicBlocks. Each block holds Statements and exactly
/// one Terminator.
///
/// Storage layout: every recurring name (function paths, call targets,
/// aggregate/struct/static names, debug names, string constants) is an
/// interned Symbol — a 4-byte handle — and per-node sequences (projections,
/// operands, call arguments, switch cases) live in inline-capacity
/// SmallVectors sized for the common case. Building or copying a typical
/// statement therefore performs no heap allocation, and the Module's
/// function table is a dense deque indexed by FuncId with Symbol-keyed name
/// maps on the side. Types are structurally interned by TypeContext and
/// referenced by pointer.
///
/// Two hand-written walks cover every field of a function body, in the
/// same order: the printer (Function::toString, Mir.cpp) and the link
/// fingerprint (functionFingerprint, analysis/Link.cpp). A new field goes
/// into both. The snapshot codec (Snapshot.cpp), perfbench's alone, walks
/// them too until it is deleted with perfbench's pipeline replay.
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_MIR_MIR_H
#define RUSTSIGHT_MIR_MIR_H

#include "mir/Type.h"
#include "support/SmallVector.h"
#include "support/SourceLocation.h"
#include "support/Symbol.h"

#include <cassert>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

namespace rs::mir {

/// Index of a local variable within a Function (printed "_N").
using LocalId = unsigned;

/// Index of a basic block within a Function (printed "bbN").
using BlockId = unsigned;

/// Index of a function within a Module's dense function table.
using FuncId = unsigned;

/// Sentinel for "no block" (e.g. a call without an unwind edge).
inline constexpr BlockId InvalidBlock = ~0u;

//===----------------------------------------------------------------------===//
// Places
//===----------------------------------------------------------------------===//

/// One step of a place projection: (*p), p.field, or p[index].
struct ProjectionElem {
  enum class Kind : uint8_t { Deref, Field, Index };

  Kind K;
  /// Field number for Kind::Field (RustLite fields are numbered).
  unsigned FieldIdx = 0;
  /// Local holding the index for Kind::Index.
  LocalId IndexLocal = 0;

  static ProjectionElem deref() { return {Kind::Deref, 0, 0}; }
  static ProjectionElem field(unsigned Idx) { return {Kind::Field, Idx, 0}; }
  static ProjectionElem index(LocalId L) { return {Kind::Index, 0, L}; }

  friend bool operator==(const ProjectionElem &A, const ProjectionElem &B) {
    return A.K == B.K && A.FieldIdx == B.FieldIdx &&
           A.IndexLocal == B.IndexLocal;
  }
};

/// Projection lists are nearly always short: a deref, or a deref + field.
using ProjList = SmallVector<ProjectionElem, 2>;

/// A memory location expression: a base local plus zero or more projections,
/// e.g. (*_2).0 is base _2 with [Deref, Field 0].
struct Place {
  LocalId Base = 0;
  ProjList Projs;

  Place() = default;
  /*implicit*/ Place(LocalId Base) : Base(Base) {}
  Place(LocalId Base, ProjList Projs) : Base(Base), Projs(std::move(Projs)) {}

  /// True if the place is a bare local with no projections.
  bool isLocal() const { return Projs.empty(); }

  /// True if any projection dereferences a pointer, i.e. the place reaches
  /// through indirection and may touch memory not owned by Base.
  bool hasDeref() const {
    for (const ProjectionElem &P : Projs)
      if (P.K == ProjectionElem::Kind::Deref)
        return true;
    return false;
  }

  /// Returns a copy of this place with \p Elem appended.
  Place project(ProjectionElem Elem) const {
    Place Out = *this;
    Out.Projs.push_back(Elem);
    return Out;
  }

  std::string toString() const;

  friend bool operator==(const Place &A, const Place &B) {
    return A.Base == B.Base && A.Projs == B.Projs;
  }
};

//===----------------------------------------------------------------------===//
// Operands and rvalues
//===----------------------------------------------------------------------===//

/// A compile-time constant operand.
struct ConstValue {
  enum class Kind : uint8_t { Int, Bool, Str, Unit };

  Kind K = Kind::Unit;
  bool Bool = false;
  Symbol Str;
  int64_t Int = 0;
  /// Optional type ascription from a literal suffix ("const 0_i32").
  const Type *Ty = nullptr;

  static ConstValue makeInt(int64_t V, const Type *Ty = nullptr) {
    ConstValue C;
    C.K = Kind::Int;
    C.Int = V;
    C.Ty = Ty;
    return C;
  }
  static ConstValue makeBool(bool V) {
    ConstValue C;
    C.K = Kind::Bool;
    C.Bool = V;
    return C;
  }
  static ConstValue makeStr(std::string_view S) {
    ConstValue C;
    C.K = Kind::Str;
    C.Str = Symbol::intern(S);
    return C;
  }
  static ConstValue makeStrSym(Symbol S) {
    ConstValue C;
    C.K = Kind::Str;
    C.Str = S;
    return C;
  }
  static ConstValue makeUnit() { return ConstValue(); }

  std::string toString() const;
};

/// A use of a value: by copy, by move (transferring ownership), or a const.
struct Operand {
  enum class Kind : uint8_t { Copy, Move, Const };

  Kind K = Kind::Const;
  Place P;
  ConstValue C;

  static Operand copy(Place P) {
    Operand O;
    O.K = Kind::Copy;
    O.P = std::move(P);
    return O;
  }
  static Operand move(Place P) {
    Operand O;
    O.K = Kind::Move;
    O.P = std::move(P);
    return O;
  }
  static Operand constant(ConstValue C) {
    Operand O;
    O.K = Kind::Const;
    O.C = std::move(C);
    return O;
  }

  bool isPlace() const { return K != Kind::Const; }
  bool isMove() const { return K == Kind::Move; }

  std::string toString() const;
};

/// Operand lists: one operand for Use/UnaryOp/Cast, two for BinaryOp.
using OperandList = SmallVector<Operand, 2>;

/// Binary operations (a subset of MIR's BinOp; Offset is pointer arithmetic,
/// the MIR form of ptr::offset used by the paper's performance experiments).
enum class BinOp : uint8_t {
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  BitAnd,
  BitOr,
  BitXor,
  Shl,
  Shr,
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  Offset,
};

/// Unary operations.
enum class UnOp : uint8_t { Not, Neg };

const char *binOpName(BinOp Op);
const char *unOpName(UnOp Op);

/// The right-hand side of an assignment.
struct Rvalue {
  enum class Kind : uint8_t {
    Use,          ///< operand
    Ref,          ///< &place or &mut place
    AddressOf,    ///< &raw const place or &raw mut place
    BinaryOp,     ///< Op(a, b)
    UnaryOp,      ///< Op(a)
    Cast,         ///< operand as type
    Aggregate,    ///< Name { 0: a, 1: b } or (a, b)
    Discriminant, ///< discriminant(place)
    Len,          ///< Len(place)
  };

  Kind K = Kind::Use;
  bool Mut = false;            ///< Ref/AddressOf mutability.
  BinOp BOp = BinOp::Add;      ///< BinaryOp.
  UnOp UOp = UnOp::Not;        ///< UnaryOp.
  Symbol AggName;              ///< Aggregate ADT name; empty for tuples.
  const Type *CastTy = nullptr;///< Cast target type.
  OperandList Ops;             ///< Use: 1; BinaryOp: 2; UnaryOp/Cast: 1;
                               ///< Aggregate: N.
  Place P;                     ///< Ref/AddressOf/Discriminant/Len.

  static Rvalue use(Operand O);
  static Rvalue ref(Place P, bool Mut);
  static Rvalue addressOf(Place P, bool Mut);
  static Rvalue binary(BinOp Op, Operand A, Operand B);
  static Rvalue unary(UnOp Op, Operand A);
  static Rvalue cast(Operand A, const Type *Ty);
  static Rvalue tuple(OperandList Elems);
  static Rvalue aggregate(std::string_view Name, OperandList Fields);
  static Rvalue aggregate(Symbol Name, OperandList Fields);
  static Rvalue discriminant(Place P);
  static Rvalue len(Place P);

  std::string toString() const;
};

//===----------------------------------------------------------------------===//
// Statements and terminators
//===----------------------------------------------------------------------===//

/// A non-control-flow instruction.
struct Statement {
  enum class Kind : uint8_t {
    Assign,      ///< place = rvalue
    StorageLive, ///< StorageLive(_n): the local's storage begins
    StorageDead, ///< StorageDead(_n): the local's storage ends
    Nop,
  };

  Kind K = Kind::Nop;
  LocalId Local = 0; ///< StorageLive/StorageDead subject.
  Place Dest;
  Rvalue RV;
  SourceLocation Loc;

  static Statement assign(Place Dest, Rvalue RV,
                          SourceLocation Loc = SourceLocation()) {
    Statement S;
    S.K = Kind::Assign;
    S.Dest = std::move(Dest);
    S.RV = std::move(RV);
    S.Loc = Loc;
    return S;
  }
  static Statement storageLive(LocalId L,
                               SourceLocation Loc = SourceLocation()) {
    Statement S;
    S.K = Kind::StorageLive;
    S.Local = L;
    S.Loc = Loc;
    return S;
  }
  static Statement storageDead(LocalId L,
                               SourceLocation Loc = SourceLocation()) {
    Statement S;
    S.K = Kind::StorageDead;
    S.Local = L;
    S.Loc = Loc;
    return S;
  }
  static Statement nop() { return Statement(); }

  std::string toString() const;
};

/// Switch arms: two-way branches dominate real MIR.
using CaseList = SmallVector<std::pair<int64_t, BlockId>, 2>;

/// Fixed-capacity successor buffer: every terminator kind except SwitchInt
/// has at most two successors, so four inline slots cover hot CFG walks
/// without touching the heap.
using SuccList = SmallVector<BlockId, 4>;

/// The single control-flow instruction ending a basic block.
struct Terminator {
  enum class Kind : uint8_t {
    Goto,        ///< goto -> bb
    SwitchInt,   ///< switchInt(op) -> [v: bb, ..., otherwise: bb]
    Return,
    Resume,      ///< resume unwinding
    Unreachable,
    Drop,        ///< drop(place) -> [return: bb, unwind: bb]
    Call,        ///< place = callee(args) -> [return: bb, unwind: bb]
    Assert,      ///< assert(op) -> bb
  };

  Kind K = Kind::Return;
  bool HasDest = false;           ///< Whether the call writes a destination.
  BlockId Target = InvalidBlock;  ///< Goto target; SwitchInt otherwise;
                                  ///< Drop/Call return; Assert success.
  BlockId Unwind = InvalidBlock;  ///< Drop/Call unwind edge, if any.
  Symbol Callee;                  ///< Call target: a function path.
  Operand Discr;                  ///< SwitchInt/Assert operand.
  CaseList Cases;                 ///< SwitchInt arms.
  Place DropPlace;                ///< Drop subject.
  Place Dest;                     ///< Call destination (unit type if unused).
  OperandList Args;               ///< Call arguments.
  SourceLocation Loc;

  static Terminator gotoBlock(BlockId B);
  static Terminator switchInt(Operand Discr, CaseList Cases,
                              BlockId Otherwise);
  static Terminator ret();
  static Terminator resume();
  static Terminator unreachable();
  static Terminator drop(Place P, BlockId Target,
                         BlockId Unwind = InvalidBlock);
  static Terminator call(Place Dest, std::string_view Callee,
                         OperandList Args, BlockId Target,
                         BlockId Unwind = InvalidBlock);
  static Terminator call(Place Dest, Symbol Callee, OperandList Args,
                         BlockId Target, BlockId Unwind = InvalidBlock);
  static Terminator callNoDest(std::string_view Callee, OperandList Args,
                               BlockId Target, BlockId Unwind = InvalidBlock);
  static Terminator callNoDest(Symbol Callee, OperandList Args, BlockId Target,
                               BlockId Unwind = InvalidBlock);
  static Terminator assertCond(Operand Cond, BlockId Target);

  /// Appends every successor block id to \p Out (deduplicated by callers if
  /// needed; order is deterministic). The inline buffer keeps per-block CFG
  /// walks allocation-free; callers reuse one buffer across blocks.
  void successors(SuccList &Out) const;

  std::string toString() const;
};

//===----------------------------------------------------------------------===//
// Blocks, locals, functions, modules
//===----------------------------------------------------------------------===//

/// A straight-line sequence of statements ending in one terminator.
struct BasicBlock {
  std::vector<Statement> Statements;
  Terminator Term;
};

/// Declaration of one function-local slot.
struct LocalDecl {
  const Type *Ty = nullptr;
  bool Mutable = false;
  /// Optional human-readable name from the source ("buf"), for diagnostics.
  Symbol DebugName;
};

/// A RustLite MIR function.
///
/// Locals: index 0 is the return place; 1..=NumArgs are parameters; the rest
/// are temporaries and user variables.
class Function {
public:
  Symbol Name;
  bool IsUnsafe = false;
  unsigned NumArgs = 0;
  std::vector<LocalDecl> Locals;
  std::vector<BasicBlock> Blocks;
  SourceLocation Loc;

  LocalId returnLocal() const { return 0; }
  bool isArg(LocalId L) const { return L >= 1 && L <= NumArgs; }
  unsigned numLocals() const { return static_cast<unsigned>(Locals.size()); }
  unsigned numBlocks() const { return static_cast<unsigned>(Blocks.size()); }

  const Type *localType(LocalId L) const {
    assert(L < Locals.size() && "local out of range");
    return Locals[L].Ty;
  }

  /// Renders the function in RustLite MIR textual syntax.
  std::string toString() const;
};

/// A struct declaration: numbered fields plus whether the type has a Drop
/// impl (which matters for invalid-free/double-free reasoning, Section 5.1).
struct StructDecl {
  Symbol Name;
  std::vector<std::pair<std::string, const Type *>> Fields;
  bool HasDrop = false;
};

/// A static item declaration. Mutable statics can only be touched from
/// unsafe code in Rust, one of the data-sharing patterns in Table 4.
struct StaticDecl {
  Symbol Name;
  const Type *Ty = nullptr;
  bool Mutable = false;
};

/// A compilation unit: types, structs, statics, and functions.
///
/// Functions live in a dense table indexed by FuncId (a deque, so references
/// stay stable as functions are added and no per-function heap indirection
/// exists); name lookup goes through a Symbol-keyed index.
class Module {
public:
  Module() = default;
  Module(Module &&) = default;
  Module &operator=(Module &&) = default;
  Module(const Module &) = delete;
  Module &operator=(const Module &) = delete;

  TypeContext &types() { return Types; }
  const TypeContext &types() const { return Types; }

  /// Adds a function and returns a reference to the stored copy.
  Function &addFunction(Function F);
  /// Finds a function by exact name, or nullptr.
  const Function *findFunction(std::string_view Name) const;
  Function *findFunction(std::string_view Name);
  const Function *findFunction(Symbol Name) const;
  Function *findFunction(Symbol Name);

  const std::deque<Function> &functions() const { return Funcs; }
  std::deque<Function> &functions() { return Funcs; }
  unsigned numFunctions() const { return static_cast<unsigned>(Funcs.size()); }
  const Function &func(FuncId Id) const { return Funcs[Id]; }
  Function &func(FuncId Id) { return Funcs[Id]; }

  void addStruct(StructDecl S);
  const StructDecl *findStruct(std::string_view Name) const;
  const std::vector<StructDecl> &structs() const { return Structs; }

  void addStatic(StaticDecl S) { Statics.push_back(std::move(S)); }
  const std::vector<StaticDecl> &statics() const { return Statics; }

  /// Marks "unsafe impl Sync for Name;".
  void addSyncImpl(std::string_view Name) {
    SyncAdts[Symbol::intern(Name)] = true;
  }
  bool isSync(std::string_view Name) const {
    auto It = SyncAdts.find(Symbol::intern(Name));
    return It != SyncAdts.end() && It->second;
  }
  const std::unordered_map<Symbol, bool> &syncAdts() const { return SyncAdts; }

  /// Renders the whole module in RustLite MIR textual syntax.
  std::string toString() const;

private:
  TypeContext Types;
  std::deque<Function> Funcs;
  std::unordered_map<Symbol, FuncId> FuncByName;
  std::vector<StructDecl> Structs;
  std::unordered_map<Symbol, size_t> StructByName;
  std::vector<StaticDecl> Statics;
  /// Unordered for speed; printing sorts by name so output stays stable.
  std::unordered_map<Symbol, bool> SyncAdts;
};

} // namespace rs::mir

#endif // RUSTSIGHT_MIR_MIR_H
