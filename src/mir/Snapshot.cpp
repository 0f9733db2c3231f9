// The MIR snapshot codec. Its only user is perfbench's pipeline replay; it
// is deleted with that replay (ROADMAP, "Tracing inside the engine").

#include "mir/Snapshot.h"

#include "support/Hash.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <unordered_map>

using namespace rs;
using namespace rs::mir;

namespace {

//===----------------------------------------------------------------------===//
// Primitive encoders
//===----------------------------------------------------------------------===//
//
// The payload is written almost entirely in LEB128 varints: local ids,
// string/type indices, counts, line numbers — the values the format is
// made of — are tiny, so the common case is one byte where a fixed-width
// field would spend four. Signed 64-bit values (const ints, switch case
// values) go through zigzag so small negatives stay short too.

void putU8(std::string &Out, uint8_t V) { Out.push_back(static_cast<char>(V)); }

void putU32(std::string &Out, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void putU64(std::string &Out, uint64_t V) {
  for (int I = 0; I != 8; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void putVar64(std::string &Out, uint64_t V) {
  while (V >= 0x80) {
    Out.push_back(static_cast<char>(V | 0x80));
    V >>= 7;
  }
  Out.push_back(static_cast<char>(V));
}

void putVar32(std::string &Out, uint32_t V) { putVar64(Out, V); }

void putZig64(std::string &Out, int64_t V) {
  putVar64(Out, (static_cast<uint64_t>(V) << 1) ^
                    static_cast<uint64_t>(V >> 63));
}

/// Bounds-checked reader over the payload. Every get* reports failure
/// through ok(); callers check once per record, not once per field —
/// reads after a failure return zeros and never touch out-of-range bytes.
class Cursor {
public:
  explicit Cursor(std::string_view Bytes) : Data(Bytes) {}

  bool ok() const { return Ok; }
  bool atEnd() const { return Pos == Data.size(); }

  uint8_t getU8() {
    if (!require(1))
      return 0;
    return static_cast<uint8_t>(Data[Pos++]);
  }

  uint32_t getU32() {
    if (!require(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I != 4; ++I)
      V |= static_cast<uint32_t>(static_cast<uint8_t>(Data[Pos + I]))
           << (8 * I);
    Pos += 4;
    return V;
  }

  uint64_t getU64() {
    if (!require(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I != 8; ++I)
      V |= static_cast<uint64_t>(static_cast<uint8_t>(Data[Pos + I]))
           << (8 * I);
    Pos += 8;
    return V;
  }

  /// Kept to the single-byte case so it inlines at every call site —
  /// one-byte varints cover nearly the entire payload (ids, counts,
  /// indices, column numbers). Longer encodings take the out-of-line
  /// slow path.
  uint64_t getVar64() {
    if (Ok && Pos < Data.size()) {
      uint8_t B0 = static_cast<uint8_t>(Data[Pos]);
      if (!(B0 & 0x80)) {
        ++Pos;
        return B0;
      }
    }
    return getVar64Slow();
  }

  uint32_t getVar32() {
    uint64_t V = getVar64();
    if (V > ~0u) {
      Ok = false;
      return 0;
    }
    return static_cast<uint32_t>(V);
  }

  int64_t getZig64() {
    uint64_t U = getVar64();
    return static_cast<int64_t>((U >> 1) ^ (~(U & 1) + 1));
  }

  std::string_view getBytes(size_t N) {
    if (!require(N))
      return {};
    std::string_view V = Data.substr(Pos, N);
    Pos += N;
    return V;
  }

  void fail() { Ok = false; }

private:
  __attribute__((noinline)) uint64_t getVar64Slow() {
    // Two-byte values (line numbers, larger indices) still matter; decode
    // them without the general loop.
    if (Ok && Data.size() - Pos >= 2) {
      uint8_t B0 = static_cast<uint8_t>(Data[Pos]);
      uint8_t B1 = static_cast<uint8_t>(Data[Pos + 1]);
      if ((B0 & 0x80) && !(B1 & 0x80)) {
        Pos += 2;
        return static_cast<uint64_t>(B0 & 0x7f) |
               (static_cast<uint64_t>(B1) << 7);
      }
    }
    uint64_t V = 0;
    for (int Shift = 0; Shift < 64; Shift += 7) {
      uint8_t B = getU8();
      if (!Ok)
        return 0;
      V |= static_cast<uint64_t>(B & 0x7f) << Shift;
      if (!(B & 0x80))
        return V;
    }
    Ok = false; // Over-long encoding.
    return 0;
  }

  bool require(size_t N) {
    if (!Ok || Data.size() - Pos < N) {
      Ok = false;
      return false;
    }
    return true;
  }

  std::string_view Data;
  size_t Pos = 0;
  bool Ok = true;
};

//===----------------------------------------------------------------------===//
// Header and checksum
//===----------------------------------------------------------------------===//

constexpr char Magic[4] = {'R', 'S', 'M', 'S'};
constexpr size_t HeaderSize = 4 + 4 + 4 + 8 + 8 + 8;

/// Payload integrity checksum: the word fold (support/Hash.h), eight
/// bytes per multiply, so any single corrupted bit changes every later
/// state and survives the final mix. Chunks are read in host byte order —
/// snapshots are a same-host cache (the key already pins schema and
/// interner epoch), not an interchange format, so checksum portability is
/// not required. A partial tail word is folded only when there is one.
uint64_t bodyChecksum(std::string_view B) {
  return wordFoldFinish(wordFoldBytes(wordFoldSeed(B.size()), B));
}

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//
//
// Fields are gated by kind: an operand is a place OR a const, a statement
// carries a destination and rvalue only when it assigns, a terminator
// writes only the edges its kind has. The decoder leaves gated-out fields
// default-constructed, which is exactly what the writer ignores — so
// encode(decode(bytes)) stays byte-identical.

class Writer {
public:
  std::string run(const Module &M, uint64_t Fingerprint) {
    // Index 0 is always the empty string so Symbol() round-trips for free.
    internString("");
    std::string Payload = encodeModule(M);

    std::string Out;
    Out.reserve(HeaderSize + StringBytes.size() + Payload.size());
    Out.append(Magic, 4);
    putU32(Out, snapshot::SnapshotSchemaVersion);
    putU32(Out, Symbol::EpochVersion);
    putU64(Out, Fingerprint);

    std::string Body;
    putVar32(Body, static_cast<uint32_t>(Strings.size()));
    Body += StringBytes;
    Body += Payload;

    putU64(Out, Body.size());
    putU64(Out, bodyChecksum(Body));
    Out += Body;
    return Out;
  }

private:
  uint32_t internString(std::string_view S) {
    auto It = StringIndex.find(std::string(S));
    if (It != StringIndex.end())
      return It->second;
    uint32_t Idx = static_cast<uint32_t>(Strings.size());
    Strings.emplace_back(S);
    StringIndex.emplace(Strings.back(), Idx);
    putVar32(StringBytes, static_cast<uint32_t>(S.size()));
    StringBytes.append(S.data(), S.size());
    return Idx;
  }

  uint32_t internSymbol(Symbol S) { return internString(S.view()); }

  /// Registers \p T (children first) and returns its table index. Plain
  /// type slots are always populated in a verifier-clean module; nullable
  /// slots (cast targets, literal suffixes) go through encodeOptType.
  uint32_t typeIndex(const Type *T) {
    assert(T && "snapshot writer requires a typed module");
    auto It = TypeIndexMap.find(T);
    if (It != TypeIndexMap.end())
      return It->second;
    // Children first so the reader can resolve references linearly.
    uint32_t Pointee =
        T->kind() == Type::Kind::Ref || T->kind() == Type::Kind::RawPtr ||
                T->kind() == Type::Kind::Array ||
                T->kind() == Type::Kind::Slice
            ? typeIndex(T->pointee())
            : 0;
    std::vector<uint32_t> Args;
    if (T->kind() == Type::Kind::Tuple || T->kind() == Type::Kind::Adt)
      for (const Type *A : T->args())
        Args.push_back(typeIndex(A));

    uint32_t Idx = static_cast<uint32_t>(NumTypes++);
    TypeIndexMap.emplace(T, Idx);
    putU8(TypeBytes, static_cast<uint8_t>(T->kind()));
    switch (T->kind()) {
    case Type::Kind::Prim:
      putU8(TypeBytes, static_cast<uint8_t>(T->prim()));
      break;
    case Type::Kind::Ref:
    case Type::Kind::RawPtr:
      putU8(TypeBytes, T->isMutPtr() ? 1 : 0);
      putVar32(TypeBytes, Pointee);
      break;
    case Type::Kind::Array:
      putVar32(TypeBytes, Pointee);
      putVar64(TypeBytes, T->arrayLen());
      break;
    case Type::Kind::Slice:
      putVar32(TypeBytes, Pointee);
      break;
    case Type::Kind::Tuple:
    case Type::Kind::Adt:
      if (T->kind() == Type::Kind::Adt)
        putVar32(TypeBytes, internSymbol(T->adtNameSym()));
      putVar32(TypeBytes, static_cast<uint32_t>(Args.size()));
      for (uint32_t A : Args)
        putVar32(TypeBytes, A);
      break;
    }
    return Idx;
  }

  /// Nullable type slot: 0 is "no type", a real index is stored as idx+1.
  void encodeOptType(std::string &Out, const Type *T) {
    putVar32(Out, T ? typeIndex(T) + 1 : 0);
  }

  /// Nullable block edge: 0 is InvalidBlock, a real id is stored as id+1.
  void encodeBlock(std::string &Out, BlockId B) {
    putVar32(Out, B == InvalidBlock ? 0 : B + 1);
  }

  void encodeLoc(std::string &Out, const SourceLocation &Loc) {
    // The interned file-name pointer goes through the string table; a null
    // file is distinct from an empty-named one.
    bool HasFile = !(Loc.file().empty() && !Loc.isValid());
    uint32_t Slot = HasFile ? internString(Loc.file()) + 1 : 0;
    // Lines are a zigzag delta from the previously encoded location:
    // consecutive statements sit on consecutive source lines, so the
    // delta fits a single-byte varint where the absolute line does not.
    // The file slot is sticky: bit 0 of the line word says "file changed",
    // and only then does the slot follow — a function's locations all
    // share one file.
    int64_t Delta = int64_t(Loc.line()) - int64_t(LastLine);
    uint64_t Zig = (static_cast<uint64_t>(Delta) << 1) ^
                   static_cast<uint64_t>(Delta >> 63);
    // Columns are sticky like the file slot: the printer indents
    // uniformly, so consecutive locations usually share a column and
    // bit 1 says when a new one follows.
    bool FileCh = Slot != LastFileSlot;
    bool ColCh = Loc.column() != LastCol;
    putVar64(Out, (Zig << 2) | (ColCh ? 2 : 0) | (FileCh ? 1 : 0));
    if (FileCh) {
      putVar32(Out, Slot);
      LastFileSlot = Slot;
    }
    if (ColCh) {
      putVar32(Out, Loc.column());
      LastCol = Loc.column();
    }
    LastLine = Loc.line();
  }

  void encodePlace(std::string &Out, const Place &P) {
    putVar32(Out, P.Base);
    encodeProjs(Out, P);
  }

  void encodeProjs(std::string &Out, const Place &P) {
    putVar32(Out, static_cast<uint32_t>(P.Projs.size()));
    for (const ProjectionElem &E : P.Projs) {
      putU8(Out, static_cast<uint8_t>(E.K));
      switch (E.K) {
      case ProjectionElem::Kind::Deref:
        break;
      case ProjectionElem::Kind::Field:
        putVar32(Out, E.FieldIdx);
        break;
      case ProjectionElem::Kind::Index:
        putVar32(Out, E.IndexLocal);
        break;
      }
    }
  }

  void encodeConst(std::string &Out, const ConstValue &C) {
    putU8(Out, static_cast<uint8_t>(C.K));
    switch (C.K) {
    case ConstValue::Kind::Int:
      putZig64(Out, C.Int);
      encodeOptType(Out, C.Ty); // Literal suffix ("0_i32"), if any.
      break;
    case ConstValue::Kind::Bool:
      putU8(Out, C.Bool ? 1 : 0);
      break;
    case ConstValue::Kind::Str:
      putVar32(Out, internSymbol(C.Str));
      break;
    case ConstValue::Kind::Unit:
      break;
    }
  }

  void encodeOperand(std::string &Out, const Operand &O) {
    // The kind rides in the low two bits of the place base (a const has
    // no base): one varint where a tag byte plus a base varint used to go.
    if (O.K == Operand::Kind::Const) {
      putVar32(Out, static_cast<uint32_t>(Operand::Kind::Const));
      encodeConst(Out, O.C);
    } else {
      bool HasProjs = !O.P.Projs.empty();
      putVar64(Out, (static_cast<uint64_t>(O.P.Base) << 3) |
                        (HasProjs ? 4u : 0u) | static_cast<uint64_t>(O.K));
      if (HasProjs)
        encodeProjs(Out, O.P);
    }
  }

  void encodeOps(std::string &Out, const OperandList &Ops) {
    putVar32(Out, static_cast<uint32_t>(Ops.size()));
    for (const Operand &O : Ops)
      encodeOperand(Out, O);
  }

  /// Body only — the kind byte rides in the statement's fused tag, and
  /// arity is structural (Use/UnaryOp/Cast carry exactly one operand,
  /// BinaryOp two; the verifier enforces this), so only Aggregate spends
  /// a count.
  void encodeRvalue(std::string &Out, const Rvalue &RV) {
    switch (RV.K) {
    case Rvalue::Kind::Use:
      assert(RV.Ops.size() == 1 && "Use rvalue carries one operand");
      encodeOperand(Out, RV.Ops[0]);
      break;
    case Rvalue::Kind::Ref:
    case Rvalue::Kind::AddressOf:
      putU8(Out, RV.Mut ? 1 : 0);
      encodePlace(Out, RV.P);
      break;
    case Rvalue::Kind::BinaryOp:
      assert(RV.Ops.size() == 2 && "binary rvalue carries two operands");
      putU8(Out, static_cast<uint8_t>(RV.BOp));
      encodeOperand(Out, RV.Ops[0]);
      encodeOperand(Out, RV.Ops[1]);
      break;
    case Rvalue::Kind::UnaryOp:
      assert(RV.Ops.size() == 1 && "unary rvalue carries one operand");
      putU8(Out, static_cast<uint8_t>(RV.UOp));
      encodeOperand(Out, RV.Ops[0]);
      break;
    case Rvalue::Kind::Cast:
      assert(RV.Ops.size() == 1 && "cast rvalue carries one operand");
      encodeOptType(Out, RV.CastTy);
      encodeOperand(Out, RV.Ops[0]);
      break;
    case Rvalue::Kind::Aggregate:
      putVar32(Out, internSymbol(RV.AggName)); // Empty for tuples.
      encodeOps(Out, RV.Ops);
      break;
    case Rvalue::Kind::Discriminant:
    case Rvalue::Kind::Len:
      encodePlace(Out, RV.P);
      break;
    }
  }

  void encodeStatement(std::string &Out, const Statement &S) {
    // One tag byte: two-bit statement kind, then for assigns the rvalue
    // kind (bits 2-5) and a "destination has projections" flag (bit 6) —
    // a plain `_n = ...` destination is just its base varint.
    uint8_t Tag = static_cast<uint8_t>(S.K);
    if (S.K == Statement::Kind::Assign) {
      Tag |= static_cast<uint8_t>(S.RV.K) << 2;
      if (!S.Dest.Projs.empty())
        Tag |= 0x40;
    } else if (S.K == Statement::Kind::StorageLive ||
               S.K == Statement::Kind::StorageDead) {
      // Small locals (the overwhelming case) ride in the tag's free bits
      // as id+1; 0 means a full varint follows.
      if (S.Local < 63)
        Tag |= static_cast<uint8_t>(S.Local + 1) << 2;
    }
    putU8(Out, Tag);
    switch (S.K) {
    case Statement::Kind::Assign:
      putVar32(Out, S.Dest.Base);
      if (!S.Dest.Projs.empty())
        encodeProjs(Out, S.Dest);
      encodeRvalue(Out, S.RV);
      break;
    case Statement::Kind::StorageLive:
    case Statement::Kind::StorageDead:
      if (S.Local >= 63)
        putVar32(Out, S.Local);
      break;
    case Statement::Kind::Nop:
      break;
    }
    encodeLoc(Out, S.Loc);
  }

  void encodeTerminator(std::string &Out, const Terminator &T) {
    // Kind in bits 0-2. Bits 3-7 carry the record's hottest small field so
    // the common cases are tag-only: a goto's target block (wire value
    // target+1, 0 = doesn't fit, full block varint follows), a switchInt's
    // case count (count+1, 0 = varint follows), a call's has-dest flag
    // (bit 3). Return/resume/unreachable/drop/assert leave them zero.
    uint8_t Tag = static_cast<uint8_t>(T.K);
    switch (T.K) {
    case Terminator::Kind::Goto:
      if (T.Target != InvalidBlock && T.Target < 31)
        Tag |= static_cast<uint8_t>(T.Target + 1) << 3;
      break;
    case Terminator::Kind::SwitchInt:
      if (T.Cases.size() < 31)
        Tag |= static_cast<uint8_t>(T.Cases.size() + 1) << 3;
      break;
    case Terminator::Kind::Call:
      if (T.HasDest)
        Tag |= 0x08;
      break;
    default:
      break;
    }
    putU8(Out, Tag);
    switch (T.K) {
    case Terminator::Kind::Goto:
      if (!(Tag >> 3))
        encodeBlock(Out, T.Target);
      break;
    case Terminator::Kind::SwitchInt:
      encodeOperand(Out, T.Discr);
      if (!(Tag >> 3))
        putVar32(Out, static_cast<uint32_t>(T.Cases.size()));
      for (const auto &[Value, Block] : T.Cases) {
        putZig64(Out, Value);
        encodeBlock(Out, Block);
      }
      encodeBlock(Out, T.Target); // The otherwise edge.
      break;
    case Terminator::Kind::Return:
    case Terminator::Kind::Resume:
    case Terminator::Kind::Unreachable:
      break;
    case Terminator::Kind::Drop:
      encodePlace(Out, T.DropPlace);
      encodeBlock(Out, T.Target);
      encodeBlock(Out, T.Unwind);
      break;
    case Terminator::Kind::Call:
      if (T.HasDest)
        encodePlace(Out, T.Dest);
      putVar32(Out, internSymbol(T.Callee));
      encodeOps(Out, T.Args);
      encodeBlock(Out, T.Target);
      encodeBlock(Out, T.Unwind);
      break;
    case Terminator::Kind::Assert:
      encodeOperand(Out, T.Discr);
      encodeBlock(Out, T.Target);
      break;
    }
    encodeLoc(Out, T.Loc);
  }

  std::string encodeModule(const Module &M) {
    std::string Items;

    putVar32(Items, static_cast<uint32_t>(M.structs().size()));
    for (const StructDecl &S : M.structs()) {
      putVar32(Items, internSymbol(S.Name));
      putU8(Items, S.HasDrop ? 1 : 0);
      putVar32(Items, static_cast<uint32_t>(S.Fields.size()));
      for (const auto &[FieldName, FieldTy] : S.Fields) {
        putVar32(Items, internString(FieldName));
        putVar32(Items, typeIndex(FieldTy));
      }
    }

    putVar32(Items, static_cast<uint32_t>(M.statics().size()));
    for (const StaticDecl &S : M.statics()) {
      putVar32(Items, internSymbol(S.Name));
      putVar32(Items, typeIndex(S.Ty));
      putU8(Items, S.Mutable ? 1 : 0);
    }

    // Sync impls are stored unordered in the module; sort by name so equal
    // modules produce byte-identical snapshots.
    std::vector<std::string_view> SyncNames;
    for (const auto &[Name, IsSync] : M.syncAdts())
      if (IsSync)
        SyncNames.push_back(Name.view());
    std::sort(SyncNames.begin(), SyncNames.end());
    putVar32(Items, static_cast<uint32_t>(SyncNames.size()));
    for (std::string_view Name : SyncNames)
      putVar32(Items, internString(Name));

    putVar32(Items, M.numFunctions());
    for (const Function &F : M.functions()) {
      putVar32(Items, internSymbol(F.Name));
      putU8(Items, F.IsUnsafe ? 1 : 0);
      putVar32(Items, F.NumArgs);
      encodeLoc(Items, F.Loc);
      putVar32(Items, F.numLocals());
      for (const LocalDecl &D : F.Locals) {
        // One word per local: type index, a "has debug name" bit (most
        // locals are compiler temporaries with none) and the mut flag.
        bool Named = !(D.DebugName == Symbol());
        putVar64(Items, (static_cast<uint64_t>(typeIndex(D.Ty)) << 2) |
                            (Named ? 2u : 0u) | (D.Mutable ? 1u : 0u));
        if (Named)
          putVar32(Items, internSymbol(D.DebugName));
      }
      putVar32(Items, F.numBlocks());
      for (const BasicBlock &BB : F.Blocks) {
        putVar32(Items, static_cast<uint32_t>(BB.Statements.size()));
        for (const Statement &S : BB.Statements)
          encodeStatement(Items, S);
        encodeTerminator(Items, BB.Term);
      }
    }

    // Types referenced from items were registered into TypeBytes along the
    // way; the table precedes the items so readers decode it first.
    std::string Out;
    putVar32(Out, static_cast<uint32_t>(NumTypes));
    Out += TypeBytes;
    Out += Items;
    return Out;
  }

  std::vector<std::string> Strings;
  std::unordered_map<std::string, uint32_t> StringIndex;
  std::string StringBytes;

  std::unordered_map<const Type *, uint32_t> TypeIndexMap;
  std::string TypeBytes;
  size_t NumTypes = 0;
  /// Line of the last location encoded, the base for the next delta.
  uint32_t LastLine = 0;
  /// File slot of the last location encoded (sticky; 0 = no file).
  uint32_t LastFileSlot = 0;
  /// Column of the last location encoded (sticky).
  uint32_t LastCol = 0;
};

//===----------------------------------------------------------------------===//
// Reader
//===----------------------------------------------------------------------===//

class Reader {
public:
  /// \p Anchor, when non-null, replaces every recorded file name.
  explicit Reader(const std::string *Anchor) : Anchor(Anchor) {}

  std::optional<Module> run(std::string_view Bytes,
                            const uint64_t *ExpectFingerprint) {
    std::string_view Body = validateHeader(Bytes, ExpectFingerprint);
    if (Body.data() == nullptr)
      return std::nullopt;

    Cursor C(Body);
    if (!decodeStrings(C))
      return std::nullopt;

    // Symbols resolve lazily, on first reference (sym()): the string
    // table also carries type spellings and file names, which never
    // become Symbols, so eager interning would pay interner probes for
    // strings the module names nothing with.
    Syms.assign(Strings.size(), Symbol());
    Files.assign(Strings.size(), nullptr);

    Module M;
    if (!decodeTypes(C, M))
      return std::nullopt;
    if (!decodeItems(C, M))
      return std::nullopt;
    if (!C.ok() || !C.atEnd())
      return std::nullopt;
    return M;
  }

  /// Checks magic/versions/size/checksum and returns the payload view, or
  /// a null view on any defect.
  static std::string_view validateHeader(std::string_view Bytes,
                                         const uint64_t *ExpectFingerprint) {
    if (Bytes.size() < HeaderSize ||
        std::memcmp(Bytes.data(), Magic, 4) != 0)
      return {};
    Cursor H(Bytes.substr(4, HeaderSize - 4));
    uint32_t Schema = H.getU32();
    uint32_t Epoch = H.getU32();
    uint64_t Fingerprint = H.getU64();
    uint64_t Size = H.getU64();
    uint64_t Checksum = H.getU64();
    if (!H.ok() || Schema != snapshot::SnapshotSchemaVersion ||
        Epoch != Symbol::EpochVersion)
      return {};
    if (ExpectFingerprint && Fingerprint != *ExpectFingerprint)
      return {};
    std::string_view Body = Bytes.substr(HeaderSize);
    if (Body.size() != Size || bodyChecksum(Body) != Checksum)
      return {};
    return Body;
  }

private:
  bool decodeStrings(Cursor &C) {
    uint32_t N = C.getVar32();
    if (!C.ok() || N == 0)
      return false; // Index 0 ("") is always present.
    Strings.reserve(N);
    for (uint32_t I = 0; I != N; ++I) {
      uint32_t Len = C.getVar32();
      std::string_view S = C.getBytes(Len);
      if (!C.ok())
        return false;
      Strings.push_back(S);
    }
    return !Strings.empty() && Strings[0].empty();
  }

  bool str(uint32_t Idx, std::string_view &Out) const {
    if (Idx >= Strings.size())
      return false;
    Out = Strings[Idx];
    return true;
  }

  bool sym(uint32_t Idx, Symbol &Out) {
    if (Idx >= Syms.size())
      return false;
    Symbol &S = Syms[Idx];
    // Index 0 is always "", whose Symbol is the default; any other slot
    // still holding the default has not been interned yet.
    if (Idx != 0 && S == Symbol())
      S = Symbol::intern(Strings[Idx]);
    Out = S;
    return true;
  }

  const Type *type(uint32_t Idx) const {
    return Idx < Types.size() ? Types[Idx] : nullptr;
  }

  /// Nullable type slot: 0 decodes as null, idx+1 as table entry idx.
  bool optType(Cursor &C, const Type *&Out) const {
    uint32_t Idx = C.getVar32();
    if (Idx == 0) {
      Out = nullptr;
      return true;
    }
    Out = type(Idx - 1);
    return Out != nullptr;
  }

  /// Nullable block edge: 0 decodes as InvalidBlock, id+1 as block id.
  bool decodeBlock(Cursor &C, BlockId &Out) const {
    uint32_t V = C.getVar32();
    if (!C.ok())
      return false;
    Out = V == 0 ? InvalidBlock : V - 1;
    return true;
  }

  bool decodeTypes(Cursor &C, Module &M) {
    TypeContext &TC = M.types();
    uint32_t N = C.getVar32();
    if (!C.ok())
      return false;
    Types.reserve(N);
    for (uint32_t I = 0; I != N; ++I) {
      uint8_t RawKind = C.getU8();
      if (!C.ok() || RawKind > static_cast<uint8_t>(Type::Kind::Adt))
        return false;
      const Type *T = nullptr;
      switch (static_cast<Type::Kind>(RawKind)) {
      case Type::Kind::Prim: {
        uint8_t P = C.getU8();
        if (!C.ok() || P >= NumPrimKinds)
          return false;
        T = TC.getPrim(static_cast<PrimKind>(P));
        break;
      }
      case Type::Kind::Ref:
      case Type::Kind::RawPtr: {
        bool Mut = C.getU8() != 0;
        const Type *Pointee = type(C.getVar32());
        if (!C.ok() || !Pointee)
          return false;
        T = RawKind == static_cast<uint8_t>(Type::Kind::Ref)
                ? TC.getRef(Pointee, Mut)
                : TC.getRawPtr(Pointee, Mut);
        break;
      }
      case Type::Kind::Array: {
        const Type *Elem = type(C.getVar32());
        uint64_t Len = C.getVar64();
        if (!C.ok() || !Elem)
          return false;
        T = TC.getArray(Elem, Len);
        break;
      }
      case Type::Kind::Slice: {
        const Type *Elem = type(C.getVar32());
        if (!C.ok() || !Elem)
          return false;
        T = TC.getSlice(Elem);
        break;
      }
      case Type::Kind::Tuple:
      case Type::Kind::Adt: {
        Symbol Name;
        if (RawKind == static_cast<uint8_t>(Type::Kind::Adt) &&
            !sym(C.getVar32(), Name))
          return false;
        uint32_t NArgs = C.getVar32();
        if (!C.ok() || NArgs > 1u << 20)
          return false;
        std::vector<const Type *> Args;
        Args.reserve(NArgs);
        for (uint32_t A = 0; A != NArgs; ++A) {
          const Type *Arg = type(C.getVar32());
          if (!C.ok() || !Arg)
            return false;
          Args.push_back(Arg);
        }
        T = RawKind == static_cast<uint8_t>(Type::Kind::Tuple)
                ? TC.getTuple(std::move(Args))
                : TC.getAdt(Name, std::move(Args));
        break;
      }
      }
      if (!T)
        return false;
      Types.push_back(T);
    }
    return true;
  }

  __attribute__((always_inline)) inline bool decodeLoc(Cursor &C,
                                                       SourceLocation &Out) {
    uint64_t V = C.getVar64();
    if (V & 1) { // File changed: the new slot follows (0 = no file).
      uint32_t Slot = C.getVar32();
      if (!C.ok())
        return false;
      if (Slot == 0) {
        LastFile = nullptr;
      } else {
        uint32_t FileIdx = Slot - 1;
        if (FileIdx >= Files.size())
          return false;
        // One internFileName per distinct file, not per location.
        if (!Files[FileIdx])
          Files[FileIdx] =
              Anchor ? Anchor : internFileName(Strings[FileIdx]);
        LastFile = Files[FileIdx];
      }
    }
    if (V & 2) { // Column changed: the new (sticky) column follows.
      LastCol = C.getVar32();
    }
    uint64_t Zig = V >> 2;
    int64_t Line = int64_t(LastLine) +
                   static_cast<int64_t>((Zig >> 1) ^ (~(Zig & 1) + 1));
    if (!C.ok() || Line < 0 || Line > int64_t(~0u))
      return false;
    LastLine = static_cast<uint32_t>(Line);
    Out = SourceLocation(LastFile, LastLine, LastCol);
    return true;
  }

  __attribute__((always_inline)) inline bool decodePlace(Cursor &C, Place &Out) {
    Out.Base = C.getVar32();
    return decodeProjs(C, Out);
  }

  bool decodeProjs(Cursor &C, Place &Out) {
    uint32_t N = C.getVar32();
    if (!C.ok() || N > 1u << 20)
      return false;
    Out.Projs.clear();
    for (uint32_t I = 0; I != N; ++I) {
      uint8_t K = C.getU8();
      if (!C.ok() || K > static_cast<uint8_t>(ProjectionElem::Kind::Index))
        return false;
      ProjectionElem &E = Out.Projs.emplace_back();
      E.K = static_cast<ProjectionElem::Kind>(K);
      switch (E.K) {
      case ProjectionElem::Kind::Deref:
        break;
      case ProjectionElem::Kind::Field:
        E.FieldIdx = C.getVar32();
        break;
      case ProjectionElem::Kind::Index:
        E.IndexLocal = C.getVar32();
        break;
      }
    }
    return C.ok();
  }

  bool decodeConst(Cursor &C, ConstValue &Out) {
    uint8_t K = C.getU8();
    if (!C.ok() || K > static_cast<uint8_t>(ConstValue::Kind::Unit))
      return false;
    Out.K = static_cast<ConstValue::Kind>(K);
    switch (Out.K) {
    case ConstValue::Kind::Int:
      Out.Int = C.getZig64();
      return optType(C, Out.Ty) && C.ok();
    case ConstValue::Kind::Bool:
      Out.Bool = C.getU8() != 0;
      return C.ok();
    case ConstValue::Kind::Str:
      return sym(C.getVar32(), Out.Str) && C.ok();
    case ConstValue::Kind::Unit:
      return true;
    }
    return false;
  }

  __attribute__((always_inline)) inline bool decodeOperand(Cursor &C,
                                                            Operand &Out) {
    uint64_t V = C.getVar64();
    uint8_t K = V & 3;
    if (!C.ok() || K > static_cast<uint8_t>(Operand::Kind::Const))
      return false;
    Out.K = static_cast<Operand::Kind>(K);
    if (Out.K == Operand::Kind::Const)
      return V >> 2 == 0 && decodeConst(C, Out.C);
    uint64_t Base = V >> 3;
    if (Base > ~0u)
      return false;
    Out.P.Base = static_cast<uint32_t>(Base);
    return (V & 4) == 0 || decodeProjs(C, Out.P);
  }

  bool decodeOps(Cursor &C, OperandList &Out) {
    uint32_t N = C.getVar32();
    if (!C.ok() || N > 1u << 20)
      return false;
    Out.clear();
    for (uint32_t I = 0; I != N; ++I)
      if (!decodeOperand(C, Out.emplace_back()))
        return false;
    return true;
  }

  /// Body only — \p K comes from the statement's fused tag, and the
  /// fixed-arity kinds decode their exact operand count with no count on
  /// the wire.
  bool decodeRvalue(Cursor &C, Rvalue &Out, uint8_t K) {
    Out.K = static_cast<Rvalue::Kind>(K);
    switch (Out.K) {
    case Rvalue::Kind::Use:
      return decodeOperand(C, Out.Ops.emplace_back());
    case Rvalue::Kind::Ref:
    case Rvalue::Kind::AddressOf:
      Out.Mut = C.getU8() != 0;
      return decodePlace(C, Out.P);
    case Rvalue::Kind::BinaryOp: {
      uint8_t BOp = C.getU8();
      if (!C.ok() || BOp > static_cast<uint8_t>(BinOp::Offset))
        return false;
      Out.BOp = static_cast<BinOp>(BOp);
      return decodeOperand(C, Out.Ops.emplace_back()) &&
             decodeOperand(C, Out.Ops.emplace_back());
    }
    case Rvalue::Kind::UnaryOp: {
      uint8_t UOp = C.getU8();
      if (!C.ok() || UOp > static_cast<uint8_t>(UnOp::Neg))
        return false;
      Out.UOp = static_cast<UnOp>(UOp);
      return decodeOperand(C, Out.Ops.emplace_back());
    }
    case Rvalue::Kind::Cast:
      return optType(C, Out.CastTy) &&
             decodeOperand(C, Out.Ops.emplace_back());
    case Rvalue::Kind::Aggregate:
      return sym(C.getVar32(), Out.AggName) && decodeOps(C, Out.Ops);
    case Rvalue::Kind::Discriminant:
    case Rvalue::Kind::Len:
      return decodePlace(C, Out.P);
    }
    return false;
  }

  bool decodeStatement(Cursor &C, Statement &Out) {
    uint8_t Tag = C.getU8();
    if (!C.ok())
      return false;
    Out.K = static_cast<Statement::Kind>(Tag & 3); // All four values valid.
    uint8_t RvK = (Tag >> 2) & 0xf;
    switch (Out.K) {
    case Statement::Kind::Assign:
      if ((Tag & 0x80) != 0 || RvK > static_cast<uint8_t>(Rvalue::Kind::Len))
        return false;
      Out.Dest.Base = C.getVar32();
      if ((Tag & 0x40) && !decodeProjs(C, Out.Dest))
        return false;
      if (!decodeRvalue(C, Out.RV, RvK))
        return false;
      break;
    case Statement::Kind::StorageLive:
    case Statement::Kind::StorageDead:
      Out.Local = (Tag >> 2) != 0 ? (Tag >> 2) - 1 : C.getVar32();
      break;
    case Statement::Kind::Nop:
      if ((Tag >> 2) != 0)
        return false;
      break;
    }
    return decodeLoc(C, Out.Loc);
  }

  bool decodeTerminator(Cursor &C, Terminator &Out) {
    // Tag layout mirrors encodeTerminator: kind in bits 0-2, bits 3-7
    // carry the goto target / switch case count (value+1, 0 = follows as
    // a varint) or the call's has-dest flag.
    uint8_t Tag = C.getU8();
    uint8_t K = Tag & 7;
    uint8_t Hi = Tag >> 3;
    if (!C.ok() || K > static_cast<uint8_t>(Terminator::Kind::Assert))
      return false;
    Out.K = static_cast<Terminator::Kind>(K);
    switch (Out.K) {
    case Terminator::Kind::Goto:
      if (Hi)
        Out.Target = Hi - 1;
      else if (!decodeBlock(C, Out.Target))
        return false;
      break;
    case Terminator::Kind::SwitchInt: {
      if (!decodeOperand(C, Out.Discr))
        return false;
      uint32_t NCases = Hi ? Hi - 1 : C.getVar32();
      if (!C.ok() || NCases > 1u << 20)
        return false;
      Out.Cases.clear();
      for (uint32_t I = 0; I != NCases; ++I) {
        int64_t Value = C.getZig64();
        BlockId Block = InvalidBlock;
        if (!decodeBlock(C, Block))
          return false;
        Out.Cases.push_back({Value, Block});
      }
      if (!decodeBlock(C, Out.Target))
        return false;
      break;
    }
    case Terminator::Kind::Return:
    case Terminator::Kind::Resume:
    case Terminator::Kind::Unreachable:
      if (Hi)
        return false;
      break;
    case Terminator::Kind::Drop:
      if (Hi || !decodePlace(C, Out.DropPlace) ||
          !decodeBlock(C, Out.Target) || !decodeBlock(C, Out.Unwind))
        return false;
      break;
    case Terminator::Kind::Call:
      if (Hi > 1)
        return false;
      Out.HasDest = Hi != 0;
      if (Out.HasDest && !decodePlace(C, Out.Dest))
        return false;
      if (!sym(C.getVar32(), Out.Callee) || !decodeOps(C, Out.Args) ||
          !decodeBlock(C, Out.Target) || !decodeBlock(C, Out.Unwind))
        return false;
      break;
    case Terminator::Kind::Assert:
      if (Hi || !decodeOperand(C, Out.Discr) ||
          !decodeBlock(C, Out.Target))
        return false;
      break;
    }
    return decodeLoc(C, Out.Loc);
  }

  bool decodeItems(Cursor &C, Module &M) {
    uint32_t NStructs = C.getVar32();
    if (!C.ok() || NStructs > 1u << 20)
      return false;
    for (uint32_t I = 0; I != NStructs; ++I) {
      StructDecl S;
      if (!sym(C.getVar32(), S.Name))
        return false;
      S.HasDrop = C.getU8() != 0;
      uint32_t NFields = C.getVar32();
      if (!C.ok() || NFields > 1u << 20)
        return false;
      for (uint32_t F = 0; F != NFields; ++F) {
        std::string_view Name;
        if (!str(C.getVar32(), Name))
          return false;
        const Type *Ty = type(C.getVar32());
        if (!C.ok() || !Ty)
          return false;
        S.Fields.emplace_back(std::string(Name), Ty);
      }
      M.addStruct(std::move(S));
    }

    uint32_t NStatics = C.getVar32();
    if (!C.ok() || NStatics > 1u << 20)
      return false;
    for (uint32_t I = 0; I != NStatics; ++I) {
      StaticDecl S;
      if (!sym(C.getVar32(), S.Name))
        return false;
      S.Ty = type(C.getVar32());
      S.Mutable = C.getU8() != 0;
      if (!C.ok() || !S.Ty)
        return false;
      M.addStatic(std::move(S));
    }

    uint32_t NSync = C.getVar32();
    if (!C.ok() || NSync > 1u << 20)
      return false;
    for (uint32_t I = 0; I != NSync; ++I) {
      std::string_view Name;
      if (!str(C.getVar32(), Name))
        return false;
      M.addSyncImpl(Name);
    }

    uint32_t NFuncs = C.getVar32();
    if (!C.ok() || NFuncs > 1u << 20)
      return false;
    for (uint32_t I = 0; I != NFuncs; ++I) {
      Function F;
      if (!sym(C.getVar32(), F.Name))
        return false;
      F.IsUnsafe = C.getU8() != 0;
      F.NumArgs = C.getVar32();
      if (!decodeLoc(C, F.Loc))
        return false;
      uint32_t NLocals = C.getVar32();
      if (!C.ok() || NLocals > 1u << 24)
        return false;
      F.Locals.reserve(NLocals);
      for (uint32_t L = 0; L != NLocals; ++L) {
        LocalDecl &D = F.Locals.emplace_back();
        uint64_t W = C.getVar64();
        if (W >> 2 > ~0u)
          return false;
        D.Ty = type(static_cast<uint32_t>(W >> 2));
        D.Mutable = (W & 1) != 0;
        if (!C.ok() || !D.Ty)
          return false;
        if ((W & 2) && !sym(C.getVar32(), D.DebugName))
          return false;
      }
      uint32_t NBlocks = C.getVar32();
      if (!C.ok() || NBlocks > 1u << 24)
        return false;
      F.Blocks.reserve(NBlocks);
      for (uint32_t B = 0; B != NBlocks; ++B) {
        // Decode straight into the vector slot: statements and terminators
        // are wide (inline SmallVector buffers), so building them in a
        // local and moving would copy every inline byte twice.
        BasicBlock &BB = F.Blocks.emplace_back();
        uint32_t NStmts = C.getVar32();
        if (!C.ok() || NStmts > 1u << 24)
          return false;
        BB.Statements.reserve(NStmts);
        for (uint32_t S = 0; S != NStmts; ++S)
          if (!decodeStatement(C, BB.Statements.emplace_back()))
            return false;
        if (!decodeTerminator(C, BB.Term))
          return false;
      }
      // Duplicate function names cannot come from the writer; reject them
      // rather than let the name index silently point at the last one.
      if (M.findFunction(F.Name))
        return false;
      M.addFunction(std::move(F));
    }
    return true;
  }

  std::vector<std::string_view> Strings;
  std::vector<const Type *> Types;
  /// String-table index -> interned Symbol, resolved lazily by sym()
  /// (type spellings and file names never become Symbols).
  std::vector<Symbol> Syms;
  /// String-table index -> interned file name, resolved lazily (only a
  /// handful of table entries are file names).
  std::vector<const std::string *> Files;
  /// Line of the last location decoded, the base for the next delta.
  uint32_t LastLine = 0;
  /// File of the last location decoded (sticky until a change bit).
  const std::string *LastFile = nullptr;
  /// Column of the last location decoded (sticky until a change bit).
  uint32_t LastCol = 0;
  const std::string *Anchor;
};

} // namespace

std::string rs::mir::snapshot::write(const Module &M, uint64_t Fingerprint) {
  return Writer().run(M, Fingerprint);
}

std::optional<Module>
rs::mir::snapshot::read(std::string_view Bytes,
                        const uint64_t *ExpectFingerprint,
                        std::string_view AnchorPath) {
  return Reader(AnchorPath.empty() ? nullptr : internFileName(AnchorPath))
      .run(Bytes, ExpectFingerprint);
}

std::optional<uint64_t>
rs::mir::snapshot::peekFingerprint(std::string_view Bytes) {
  if (Bytes.size() < HeaderSize || std::memcmp(Bytes.data(), Magic, 4) != 0)
    return std::nullopt;
  Cursor H(Bytes.substr(4, HeaderSize - 4));
  uint32_t Schema = H.getU32();
  uint32_t Epoch = H.getU32();
  uint64_t Fingerprint = H.getU64();
  if (!H.ok() || Schema != SnapshotSchemaVersion ||
      Epoch != Symbol::EpochVersion)
    return std::nullopt;
  return Fingerprint;
}
