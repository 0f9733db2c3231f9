#include "mir/Parser.h"

#include <algorithm>

using namespace rs;
using namespace rs::mir;

Parser::Parser(std::string_view Buffer, std::string_view FileName, Module &M)
    : Lex(Buffer, FileName), M(M) {
  Toks.reserve(std::min(Buffer.size() / 3 + 16, 2 * BatchTokens));
  Lex.tokenizeItems(Toks, BatchTokens);
  Tok = Toks.data();
}

bool Parser::fail(const std::string &Message) {
  if (!Err)
    Err = Error(Message, Tok->Loc); // Every lexed token, Eof too, has one.
  return false;
}

static const char *tokKindName(TokKind K) {
  switch (K) {
  case TokKind::Eof:
    return "end of input";
  case TokKind::Error:
    return "invalid character";
  case TokKind::Ident:
    return "identifier";
  case TokKind::Local:
    return "local";
  case TokKind::Int:
    return "integer";
  case TokKind::String:
    return "string";
  case TokKind::LBrace:
    return "'{'";
  case TokKind::RBrace:
    return "'}'";
  case TokKind::LParen:
    return "'('";
  case TokKind::RParen:
    return "')'";
  case TokKind::LBracket:
    return "'['";
  case TokKind::RBracket:
    return "']'";
  case TokKind::Comma:
    return "','";
  case TokKind::Semi:
    return "';'";
  case TokKind::Colon:
    return "':'";
  case TokKind::ColonColon:
    return "'::'";
  case TokKind::Arrow:
    return "'->'";
  case TokKind::Eq:
    return "'='";
  case TokKind::Amp:
    return "'&'";
  case TokKind::Star:
    return "'*'";
  case TokKind::Dot:
    return "'.'";
  case TokKind::Lt:
    return "'<'";
  case TokKind::Gt:
    return "'>'";
  case TokKind::Minus:
    return "'-'";
  }
  return "?";
}

bool Parser::expected(const char *What) {
  return fail(std::string("expected ") + What + ", found " +
              tokKindName(Tok->K) +
              (Tok->K == TokKind::Ident ? " '" + std::string(Tok->Text) + "'"
                                        : std::string()));
}

bool Parser::expectKw(Kw Id, const char *Spelling) {
  if (!Tok->is(Id))
    return fail(std::string("expected '") + Spelling + "'");
  bump();
  return true;
}

bool Parser::consume(Kw Id) {
  if (!Tok->is(Id))
    return false;
  bump();
  return true;
}

//===----------------------------------------------------------------------===//
// Keyword ids to MIR enums
//===----------------------------------------------------------------------===//

static_assert(static_cast<int>(Kw::Offset) - static_cast<int>(Kw::Add) ==
                  static_cast<int>(BinOp::Offset),
              "Kw's binary operators run in BinOp order");
static_assert(static_cast<int>(Kw::Neg) - static_cast<int>(Kw::Not) ==
                  static_cast<int>(UnOp::Neg),
              "Kw's unary operators run in UnOp order");
static_assert(static_cast<int>(Kw::F64) - static_cast<int>(Kw::Bool) ==
                  static_cast<int>(PrimKind::F64) -
                      static_cast<int>(PrimKind::Bool),
              "Kw's primitive types run in PrimKind order");

static bool isBinOp(Kw K) { return K >= Kw::Add && K <= Kw::Offset; }
static bool isUnOp(Kw K) { return K >= Kw::Not && K <= Kw::Neg; }

static BinOp binOpOf(Kw K) {
  return static_cast<BinOp>(static_cast<int>(K) - static_cast<int>(Kw::Add));
}
static UnOp unOpOf(Kw K) {
  return static_cast<UnOp>(static_cast<int>(K) - static_cast<int>(Kw::Not));
}

/// The primitive type a keyword names ("i32" -> I32), if any.
static std::optional<PrimKind> primOf(Kw K) {
  if (K < Kw::Bool || K > Kw::F64)
    return std::nullopt;
  return static_cast<PrimKind>(static_cast<int>(PrimKind::Bool) +
                               static_cast<int>(K) -
                               static_cast<int>(Kw::Bool));
}

//===----------------------------------------------------------------------===//
// Items
//===----------------------------------------------------------------------===//

Result<Module> Parser::parse(std::string_view Buffer,
                             std::string_view FileName) {
  Module M;
  Parser P(Buffer, FileName, M);
  while (!P.Tok->is(TokKind::Eof)) {
    if (!P.parseItem())
      return *P.Err;
  }
  return M;
}

ModuleParse Parser::parseRecover(std::string_view Buffer,
                                 std::string_view FileName) {
  ModuleParse Out;
  parseRecoverInto(Buffer, FileName, Out);
  return Out;
}

void Parser::parseRecoverInto(std::string_view Buffer,
                              std::string_view FileName, ModuleParse &Out) {
  Parser P(Buffer, FileName, Out.M);
  while (!P.Tok->is(TokKind::Eof)) {
    if (P.parseItem())
      continue;
    Out.Errors.push_back(*P.Err);
    ++Out.ItemsDropped;
    P.Err.reset();
    P.recoverToItemBoundary();
  }
}

void Parser::recoverToItemBoundary() {
  // Depth is relative to the error point; an item keyword only counts as a
  // boundary once we have closed at least as many braces as we opened, i.e.
  // we are no deeper than where the malformed item began.
  int Depth = 0;
  while (!Tok->is(TokKind::Eof)) {
    if (Tok->is(TokKind::LBrace)) {
      ++Depth;
    } else if (Tok->is(TokKind::RBrace)) {
      --Depth;
    } else if (Depth <= 0) {
      Kw K = kw();
      if (K == Kw::Fn || K == Kw::Struct || K == Kw::Static ||
          K == Kw::Unsafe)
        return;
    }
    bump();
  }
}

bool Parser::parseItem() {
  switch (kw()) {
  case Kw::Struct:
    return parseStruct();
  case Kw::Static:
    return parseStatic();
  case Kw::Fn:
    return parseFunction(/*IsUnsafe=*/false);
  case Kw::Unsafe:
    bump();
    if (Tok->is(Kw::Fn))
      return parseFunction(/*IsUnsafe=*/true);
    if (Tok->is(Kw::Impl))
      return parseSyncImpl();
    return fail("expected 'fn' or 'impl' after 'unsafe'");
  default:
    return fail("expected 'struct', 'static', 'fn', or 'unsafe' item");
  }
}

bool Parser::parseStruct() {
  bump(); // struct
  if (!Tok->is(TokKind::Ident))
    return fail("expected struct name");
  StructDecl S;
  S.Name = Names.intern(Tok->Text);
  bump();
  if (Tok->is(TokKind::Colon)) {
    bump();
    if (!expectKw(Kw::DropTrait, "Drop"))
      return false;
    S.HasDrop = true;
  }
  if (!expect(TokKind::LBrace, "'{'"))
    return false;
  while (!Tok->is(TokKind::RBrace)) {
    if (!Tok->is(TokKind::Ident))
      return fail("expected field name");
    std::string FieldName(Tok->Text);
    bump();
    if (!expect(TokKind::Colon, "':'"))
      return false;
    const Type *Ty = nullptr;
    if (!parseType(Ty))
      return false;
    S.Fields.emplace_back(std::move(FieldName), Ty);
    if (Tok->is(TokKind::Comma)) {
      bump();
      continue;
    }
    break;
  }
  if (!expect(TokKind::RBrace, "'}'"))
    return false;
  if (M.findStruct(S.Name))
    return fail("duplicate struct '" + S.Name.str() + "'");
  M.addStruct(std::move(S));
  return true;
}

bool Parser::parseSyncImpl() {
  bump(); // impl
  if (!expectKw(Kw::Sync, "Sync"))
    return false;
  if (!expectKw(Kw::For, "for"))
    return false;
  if (!Tok->is(TokKind::Ident))
    return fail("expected type name in Sync impl");
  std::string_view Name = Tok->Text;
  bump();
  if (!expect(TokKind::Semi, "';'"))
    return false;
  M.addSyncImpl(Name);
  return true;
}

bool Parser::parseStatic() {
  bump(); // static
  StaticDecl S;
  if (consume(Kw::Mut))
    S.Mutable = true;
  if (!Tok->is(TokKind::Ident))
    return fail("expected static name");
  S.Name = Names.intern(Tok->Text);
  bump();
  if (!expect(TokKind::Colon, "':'"))
    return false;
  if (!parseType(S.Ty))
    return false;
  if (!expect(TokKind::Semi, "';'"))
    return false;
  M.addStatic(std::move(S));
  return true;
}

bool Parser::parseFunction(bool IsUnsafe) {
  SourceLocation FnLoc = Tok->Loc;
  bump(); // fn
  Function F;
  F.IsUnsafe = IsUnsafe;
  F.Loc = FnLoc;
  if (!parsePath(F.Name))
    return false;
  if (!expect(TokKind::LParen, "'('"))
    return false;

  // Parameters must be _1, _2, ... in order.
  ParamTypes.clear();
  while (!Tok->is(TokKind::RParen)) {
    if (!Tok->is(TokKind::Local))
      return fail("expected parameter local '_N'");
    if (static_cast<LocalId>(Tok->IntVal) != ParamTypes.size() + 1)
      return fail("parameters must be numbered _1, _2, ... in order");
    bump();
    if (!expect(TokKind::Colon, "':'"))
      return false;
    const Type *Ty = nullptr;
    if (!parseType(Ty))
      return false;
    ParamTypes.push_back(Ty);
    if (Tok->is(TokKind::Comma)) {
      bump();
      continue;
    }
    break;
  }
  if (!expect(TokKind::RParen, "')'"))
    return false;

  const Type *RetTy = M.types().getUnit();
  if (Tok->is(TokKind::Arrow)) {
    bump();
    if (!parseType(RetTy))
      return false;
  }
  // The body's braces count its 'let's and its blocks, so the locals and
  // blocks vectors are sized once.
  unsigned NumLets = Tok->innerSemis(), NumBlocks = Tok->innerGroups();
  if (!expect(TokKind::LBrace, "'{'"))
    return false;

  F.NumArgs = static_cast<unsigned>(ParamTypes.size());
  // A leading "let mut _0: T;" (as the printer emits) fills the return
  // place rather than adding a local.
  const Token &Decl = peek(peek(1).is(Kw::Mut) ? 2 : 1);
  bool LetsReturnPlace = Tok->is(Kw::Let) && Decl.is(TokKind::Local) &&
                         Decl.IntVal == 0;
  F.Locals.reserve(1 + F.NumArgs + NumLets - (LetsReturnPlace ? 1 : 0));
  F.Locals.push_back(LocalDecl{RetTy, true, {}});
  for (const Type *Ty : ParamTypes)
    F.Locals.push_back(LocalDecl{Ty, false, {}});

  // Body: local declarations, then basic blocks.
  DenseTable<LocalDecl> UnorderedLocals;
  while (Tok->is(Kw::Let)) {
    if (!parseLocalDecl(F.Locals, UnorderedLocals))
      return false;
  }
  if (UnorderedLocals.Count != 0) {
    if (unsigned Gap = UnorderedLocals.firstGap();
        Gap != UnorderedLocals.Count)
      return fail("function '" + F.Name.str() +
                  "' is missing a declaration for _" + std::to_string(Gap));
    UnorderedLocals.moveDenseTo(F.Locals);
  }
  if (F.Locals.capacity() != F.Locals.size())
    F.Locals.shrink_to_fit();

  F.Blocks.reserve(NumBlocks);
  DenseTable<BasicBlock> UnorderedBlocks;
  while (!Tok->is(TokKind::RBrace)) {
    if (!parseBlock(F.Blocks, UnorderedBlocks))
      return false;
  }
  bump(); // '}'

  if (UnorderedBlocks.Count != 0) {
    if (unsigned Gap = UnorderedBlocks.firstGap();
        Gap != UnorderedBlocks.Count)
      return fail("function '" + F.Name.str() + "' is missing block bb" +
                  std::to_string(Gap));
    UnorderedBlocks.moveDenseTo(F.Blocks);
  }
  if (F.Blocks.empty())
    return fail("function '" + F.Name.str() + "' has no basic blocks");
  if (F.Blocks.capacity() != F.Blocks.size())
    F.Blocks.shrink_to_fit();

  if (M.findFunction(F.Name))
    return fail("duplicate function '" + F.Name.str() + "'");
  M.addFunction(std::move(F));
  return true;
}

bool Parser::parseLocalDecl(std::vector<LocalDecl> &Locals,
                            DenseTable<LocalDecl> &Unordered) {
  bump(); // let
  LocalDecl D;
  if (consume(Kw::Mut))
    D.Mutable = true;
  if (!Tok->is(TokKind::Local))
    return fail("expected local '_N' in let declaration");
  LocalId Id = static_cast<LocalId>(Tok->IntVal);
  bump();
  if (!expect(TokKind::Colon, "':'"))
    return false;
  if (!parseType(D.Ty))
    return false;
  if (!expect(TokKind::Semi, "';'"))
    return false;
  // The return place _0 is pre-declared from the signature; an explicit
  // "let mut _0: T;" (as the printer emits) is accepted if the type agrees.
  if (Id == 0) {
    LocalDecl &Ret = Unordered.Count ? Unordered.Slots[0] : Locals[0];
    if (Ret.Ty != D.Ty)
      return fail("declared type of _0 does not match the return type");
    Ret = D;
    return true;
  }
  if (Unordered.Count == 0) {
    if (Id == Locals.size()) {
      Locals.push_back(D);
      return true;
    }
    if (Id < Locals.size())
      return fail("duplicate declaration of _" + std::to_string(Id));
    Unordered.takeDense(Locals);
  }
  if (!Unordered.insert(Id, D))
    return fail("duplicate declaration of _" + std::to_string(Id));
  return true;
}

//===----------------------------------------------------------------------===//
// Blocks, statements, terminators
//===----------------------------------------------------------------------===//

bool Parser::parseBlockRef(BlockId &Out) {
  if (!Tok->is(Kw::BlockLabel))
    return fail("expected block reference 'bbN'");
  Out = static_cast<BlockId>(Tok->IntVal);
  bump();
  return true;
}

bool Parser::parseBlock(std::vector<BasicBlock> &Blocks,
                        DenseTable<BasicBlock> &Unordered) {
  if (!Tok->is(Kw::BlockLabel))
    return fail("expected basic block label 'bbN'");
  BlockId Id = static_cast<BlockId>(Tok->IntVal);
  bump();
  if (!expect(TokKind::Colon, "':'"))
    return false;
  // One ';' per statement plus the terminator's.
  unsigned NumSemis = Tok->innerSemis();
  if (!expect(TokKind::LBrace, "'{'"))
    return false;

  // The block is built where it will live: appended to the function's
  // blocks when its id is the next one, else aside for the id table. Its
  // statements vector is sized once, so a module that outlives its parse
  // (a linked exporter stays resident) carries no growth slack.
  bool InOrder = Unordered.Count == 0 && Id == Blocks.size();
  std::optional<BasicBlock> Aside;
  BasicBlock &BB = InOrder ? Blocks.emplace_back() : Aside.emplace();
  BB.Statements.reserve(NumSemis ? NumSemis - 1 : 0);
  bool SawTerminator = false;
  while (!SawTerminator) {
    if (Tok->is(TokKind::RBrace))
      return fail("block bb" + std::to_string(Id) + " has no terminator");
    if (!parseBlockItem(BB, SawTerminator))
      return false;
  }
  if (!expect(TokKind::RBrace, "'}' after terminator"))
    return false;
  if (BB.Statements.capacity() != BB.Statements.size())
    BB.Statements.shrink_to_fit();
  if (InOrder)
    return true;
  if (Unordered.Count == 0)
    Unordered.takeDense(Blocks);
  if (!Unordered.insert(Id, std::move(*Aside)))
    return fail("duplicate block bb" + std::to_string(Id));
  return true;
}

bool Parser::parseCallTargets(BlockId &Target, BlockId &Unwind) {
  Unwind = InvalidBlock;
  if (Tok->is(TokKind::LBracket)) {
    bump();
    if (!expectKw(Kw::Return, "return"))
      return false;
    if (!expect(TokKind::Colon, "':'"))
      return false;
    if (!parseBlockRef(Target))
      return false;
    if (Tok->is(TokKind::Comma)) {
      bump();
      if (!expectKw(Kw::Unwind, "unwind"))
        return false;
      if (!expect(TokKind::Colon, "':'"))
        return false;
      if (!parseBlockRef(Unwind))
        return false;
    }
    return expect(TokKind::RBracket, "']'");
  }
  return parseBlockRef(Target);
}

bool Parser::parseBlockItem(BasicBlock &BB, bool &SawTerminator) {
  SourceLocation Loc = Tok->Loc;
  Terminator &T = BB.Term;

  switch (kw()) {
  // Keyword-led statements.
  case Kw::StorageLive:
  case Kw::StorageDead: {
    bool IsLive = kw() == Kw::StorageLive;
    bump();
    if (!expect(TokKind::LParen, "'('"))
      return false;
    if (!Tok->is(TokKind::Local))
      return fail("expected local in storage statement");
    LocalId L = static_cast<LocalId>(Tok->IntVal);
    bump();
    if (!expect(TokKind::RParen, "')'"))
      return false;
    if (!expect(TokKind::Semi, "';'"))
      return false;
    Statement &S = BB.Statements.emplace_back();
    S.K = IsLive ? Statement::Kind::StorageLive : Statement::Kind::StorageDead;
    S.Local = L;
    S.Loc = Loc;
    return true;
  }
  case Kw::Nop:
    bump();
    if (!expect(TokKind::Semi, "';'"))
      return false;
    BB.Statements.emplace_back();
    return true;

  // Keyword-led terminators.
  case Kw::Goto:
    bump();
    if (!expect(TokKind::Arrow, "'->'"))
      return false;
    if (!parseBlockRef(T.Target))
      return false;
    if (!expect(TokKind::Semi, "';'"))
      return false;
    T.K = Terminator::Kind::Goto;
    T.Loc = Loc;
    SawTerminator = true;
    return true;
  case Kw::Return:
  case Kw::Resume:
  case Kw::Unreachable:
    T.K = kw() == Kw::Return   ? Terminator::Kind::Return
          : kw() == Kw::Resume ? Terminator::Kind::Resume
                               : Terminator::Kind::Unreachable;
    bump();
    if (!expect(TokKind::Semi, "';'"))
      return false;
    T.Loc = Loc;
    SawTerminator = true;
    return true;
  case Kw::Drop:
    bump();
    if (!expect(TokKind::LParen, "'('"))
      return false;
    if (!parsePlace(T.DropPlace))
      return false;
    if (!expect(TokKind::RParen, "')'"))
      return false;
    if (!expect(TokKind::Arrow, "'->'"))
      return false;
    if (!parseCallTargets(T.Target, T.Unwind))
      return false;
    if (!expect(TokKind::Semi, "';'"))
      return false;
    T.K = Terminator::Kind::Drop;
    T.Loc = Loc;
    SawTerminator = true;
    return true;
  case Kw::SwitchInt: {
    bump();
    if (!expect(TokKind::LParen, "'('"))
      return false;
    if (!parseOperand(T.Discr))
      return false;
    if (!expect(TokKind::RParen, "')'"))
      return false;
    if (!expect(TokKind::Arrow, "'->'"))
      return false;
    if (!expect(TokKind::LBracket, "'['"))
      return false;
    while (true) {
      if (Tok->is(Kw::Otherwise)) {
        bump();
        if (!expect(TokKind::Colon, "':'"))
          return false;
        if (!parseBlockRef(T.Target))
          return false;
        break;
      }
      bool Negate = false;
      if (Tok->is(TokKind::Minus)) {
        Negate = true;
        bump();
      }
      if (!Tok->is(TokKind::Int))
        return fail("expected case value or 'otherwise' in switchInt");
      uint64_t Raw = static_cast<uint64_t>(Tok->IntVal);
      int64_t Value = static_cast<int64_t>(Negate ? 0 - Raw : Raw);
      bump();
      if (!expect(TokKind::Colon, "':'"))
        return false;
      BlockId B = 0;
      if (!parseBlockRef(B))
        return false;
      T.Cases.emplace_back(Value, B);
      if (!expect(TokKind::Comma, "','"))
        return false;
    }
    if (!expect(TokKind::RBracket, "']'"))
      return false;
    if (!expect(TokKind::Semi, "';'"))
      return false;
    T.K = Terminator::Kind::SwitchInt;
    T.Loc = Loc;
    SawTerminator = true;
    return true;
  }
  case Kw::Assert:
    bump();
    if (!expect(TokKind::LParen, "'('"))
      return false;
    if (!parseOperand(T.Discr))
      return false;
    if (!expect(TokKind::RParen, "')'"))
      return false;
    if (!expect(TokKind::Arrow, "'->'"))
      return false;
    if (!parseBlockRef(T.Target))
      return false;
    if (!expect(TokKind::Semi, "';'"))
      return false;
    T.K = Terminator::Kind::Assert;
    T.Loc = Loc;
    SawTerminator = true;
    return true;
  default:
    break;
  }

  // "place = ..." : assignment statement or call-with-destination.
  if (Tok->is(TokKind::Local) || Tok->is(TokKind::LParen)) {
    // The statements vector has room for every ';' but the terminator's. With
    // no room left this item is the block's call terminator (or the block
    // is malformed), so it is built aside instead of past the reservation.
    bool Room = BB.Statements.size() < BB.Statements.capacity();
    std::optional<Statement> Aside;
    Statement &S = Room ? BB.Statements.emplace_back() : Aside.emplace();
    S.K = Statement::Kind::Assign;
    S.Loc = Loc;
    if (!parsePlace(S.Dest))
      return false;
    if (!expect(TokKind::Eq, "'='"))
      return false;
    bool IsCall = false;
    if (!parseAssignRhs(S.RV, T, IsCall))
      return false;
    if (!expect(TokKind::Semi, "';'"))
      return false;
    if (IsCall) {
      T.Dest = std::move(S.Dest);
      T.HasDest = true;
      T.Loc = Loc;
      if (Room)
        BB.Statements.pop_back();
      SawTerminator = true;
      return true;
    }
    if (!Room)
      BB.Statements.push_back(std::move(*Aside));
    return true;
  }

  // Bare call terminator: "callee(args) -> target;".
  if (Tok->is(TokKind::Ident)) {
    if (!parsePath(T.Callee))
      return false;
    if (!expect(TokKind::LParen, "'(' after callee"))
      return false;
    if (!parseOperandList(T.Args, TokKind::RParen))
      return false;
    if (!expect(TokKind::Arrow, "'->' after call"))
      return false;
    if (!parseCallTargets(T.Target, T.Unwind))
      return false;
    if (!expect(TokKind::Semi, "';'"))
      return false;
    T.K = Terminator::Kind::Call;
    T.Loc = Loc;
    SawTerminator = true;
    return true;
  }

  return fail("expected statement or terminator");
}

//===----------------------------------------------------------------------===//
// Rvalues, operands, places, paths, types
//===----------------------------------------------------------------------===//

bool Parser::parseAssignRhs(Rvalue &RV, Terminator &Call, bool &IsCall) {
  IsCall = false;

  switch (kw()) {
  // Operand-led rvalue, possibly a cast.
  case Kw::Copy:
  case Kw::Move:
  case Kw::Const:
    if (!parseOperand(RV.Ops.emplace_back()))
      return false;
    if (consume(Kw::As)) {
      // Chained casts: "x as *const i32 as *mut i32".
      do {
        if (!parseType(RV.CastTy))
          return false;
      } while (consume(Kw::As));
      RV.K = Rvalue::Kind::Cast;
    }
    return true;
  case Kw::Discriminant:
  case Kw::Len: {
    bool IsDiscr = kw() == Kw::Discriminant;
    bump();
    if (!expect(TokKind::LParen, "'('"))
      return false;
    if (!parsePlace(RV.P))
      return false;
    if (!expect(TokKind::RParen, "')'"))
      return false;
    RV.K = IsDiscr ? Rvalue::Kind::Discriminant : Rvalue::Kind::Len;
    return true;
  }
  default:
    break;
  }

  // References and raw address-of.
  if (Tok->is(TokKind::Amp)) {
    bump();
    if (consume(Kw::Raw)) {
      if (consume(Kw::Mut))
        RV.Mut = true;
      else if (!consume(Kw::Const))
        return fail("expected 'const' or 'mut' after '&raw'");
      RV.K = Rvalue::Kind::AddressOf;
      return parsePlace(RV.P);
    }
    RV.Mut = consume(Kw::Mut);
    RV.K = Rvalue::Kind::Ref;
    return parsePlace(RV.P);
  }

  // Tuple aggregate.
  if (Tok->is(TokKind::LParen)) {
    bump();
    RV.K = Rvalue::Kind::Aggregate;
    return parseOperandList(RV.Ops, TokKind::RParen);
  }

  // Path-led: struct aggregate, binop/unop, or call terminator.
  if (Tok->is(TokKind::Ident)) {
    // An operator name is a one-segment path spelled like the operator; it
    // is interned only if it turns out to name a call or an aggregate.
    Kw Op = peek(1).is(TokKind::ColonColon) ? Kw::None : kw();
    bool IsOp = isBinOp(Op) || isUnOp(Op);
    std::string_view OpName = Tok->Text;
    Symbol PathName;
    if (IsOp)
      bump();
    else if (!parsePath(PathName))
      return false;
    auto Name = [&] { return IsOp ? Names.intern(OpName) : PathName; };

    if (Tok->is(TokKind::LBrace)) {
      bump();
      // Printed MIR lists fields in index order; they go straight into the
      // rvalue. Any other order is collected and sorted once at the end.
      std::vector<std::pair<unsigned, Operand>> Unordered;
      while (!Tok->is(TokKind::RBrace)) {
        if (!Tok->is(TokKind::Int))
          return fail("expected field index in aggregate");
        unsigned Idx = static_cast<unsigned>(Tok->IntVal);
        bump();
        if (!expect(TokKind::Colon, "':'"))
          return false;
        if (Unordered.empty() && Idx == RV.Ops.size()) {
          if (!parseOperand(RV.Ops.emplace_back()))
            return false;
        } else {
          if (Unordered.empty()) {
            for (unsigned I = 0; I != RV.Ops.size(); ++I)
              Unordered.emplace_back(I, std::move(RV.Ops[I]));
            RV.Ops.clear();
          }
          if (!parseOperand(Unordered.emplace_back(Idx, Operand()).second))
            return false;
        }
        if (Tok->is(TokKind::Comma)) {
          bump();
          continue;
        }
        break;
      }
      if (!expect(TokKind::RBrace, "'}'"))
        return false;
      std::sort(Unordered.begin(), Unordered.end(),
                [](const auto &A, const auto &B) { return A.first < B.first; });
      for (auto &[Idx, O] : Unordered) {
        if (Idx != RV.Ops.size())
          return fail("aggregate fields must cover 0..N once each");
        RV.Ops.push_back(std::move(O));
      }
      RV.K = Rvalue::Kind::Aggregate;
      RV.AggName = Name();
      return true;
    }

    if (!expect(TokKind::LParen, "'(' after name in rvalue"))
      return false;
    // Operands go where they most likely stay: an operator's into the
    // rvalue, anything else's into the call.
    OperandList &Args = IsOp ? RV.Ops : Call.Args;
    if (!parseOperandList(Args, TokKind::RParen))
      return false;

    if (Tok->is(TokKind::Arrow)) {
      bump();
      if (!parseCallTargets(Call.Target, Call.Unwind))
        return false;
      if (IsOp)
        Call.Args = std::move(RV.Ops);
      Call.K = Terminator::Kind::Call;
      Call.Callee = Name();
      IsCall = true;
      return true;
    }

    if (isBinOp(Op)) {
      if (RV.Ops.size() != 2)
        return fail(std::string(OpName) + " expects exactly two operands");
      RV.K = Rvalue::Kind::BinaryOp;
      RV.BOp = binOpOf(Op);
      return true;
    }
    if (isUnOp(Op)) {
      if (RV.Ops.size() != 1)
        return fail(std::string(OpName) + " expects exactly one operand");
      RV.K = Rvalue::Kind::UnaryOp;
      RV.UOp = unOpOf(Op);
      return true;
    }
    return fail("call to '" + PathName.str() +
                "' needs a target block ('-> bbN'); calls are terminators");
  }

  return fail("expected rvalue");
}

bool Parser::parsePath(Symbol &Out) {
  if (!Tok->is(TokKind::Ident))
    return fail("expected path");
  std::string_view First = Tok->Text;
  bump();
  if (!Tok->is(TokKind::ColonColon)) {
    // Single-segment path: intern straight from the buffer, no copy.
    Out = Names.intern(First);
    return true;
  }
  PathScratch.assign(First);
  while (Tok->is(TokKind::ColonColon)) {
    bump();
    if (!Tok->is(TokKind::Ident))
      return fail("expected identifier after '::'");
    PathScratch += "::";
    PathScratch += Tok->Text;
    bump();
  }
  Out = Names.intern(PathScratch);
  return true;
}

bool Parser::parsePlace(Place &Out) {
  if (Tok->is(TokKind::Local)) {
    Out.Base = static_cast<LocalId>(Tok->IntVal);
    bump();
  } else if (Tok->is(TokKind::LParen)) {
    bump();
    if (!expect(TokKind::Star, "'*' in deref place"))
      return false;
    if (!parsePlace(Out))
      return false;
    if (!expect(TokKind::RParen, "')'"))
      return false;
    Out.Projs.push_back(ProjectionElem::deref());
  } else {
    return fail("expected place");
  }

  while (true) {
    if (Tok->is(TokKind::Dot)) {
      bump();
      if (!Tok->is(TokKind::Int))
        return fail("expected field index after '.'");
      Out.Projs.push_back(
          ProjectionElem::field(static_cast<unsigned>(Tok->IntVal)));
      bump();
      continue;
    }
    if (Tok->is(TokKind::LBracket)) {
      bump();
      if (!Tok->is(TokKind::Local))
        return fail("expected index local in '[...]'");
      Out.Projs.push_back(
          ProjectionElem::index(static_cast<LocalId>(Tok->IntVal)));
      bump();
      if (!expect(TokKind::RBracket, "']'"))
        return false;
      continue;
    }
    return true;
  }
}

bool Parser::parseOperand(Operand &Out) {
  switch (kw()) {
  case Kw::Copy:
    bump();
    Out.K = Operand::Kind::Copy;
    return parsePlace(Out.P);
  case Kw::Move:
    bump();
    Out.K = Operand::Kind::Move;
    return parsePlace(Out.P);
  case Kw::Const:
    bump();
    Out.K = Operand::Kind::Const;
    return parseConstant(Out.C);
  default:
    return fail("expected operand ('copy', 'move', or 'const')");
  }
}

bool Parser::parseConstant(ConstValue &Out) {
  bool Negate = Tok->is(TokKind::Minus);
  if (Negate) {
    bump();
    if (!Tok->is(TokKind::Int))
      return fail("expected integer after '-'");
  }
  if (Tok->is(TokKind::Int)) {
    const Type *Ty = nullptr;
    if (!Tok->Suffix.empty()) {
      auto K = primOf(Tok->Keyword);
      if (!K)
        return fail("unknown literal suffix '" + std::string(Tok->Suffix) +
                    "'");
      Ty = M.types().getPrim(*K);
    }
    uint64_t Raw = static_cast<uint64_t>(Tok->IntVal);
    Out = ConstValue::makeInt(static_cast<int64_t>(Negate ? 0 - Raw : Raw),
                              Ty);
    bump();
    return true;
  }
  if (Tok->is(TokKind::String)) {
    Out = ConstValue::makeStrSym(
        Names.intern(decodeStringLiteral(Tok->Text, StrScratch)));
    bump();
    return true;
  }
  if (Tok->is(Kw::True) || Tok->is(Kw::False)) {
    Out = ConstValue::makeBool(Tok->is(Kw::True));
    bump();
    return true;
  }
  if (Tok->is(TokKind::LParen)) {
    bump();
    if (!expect(TokKind::RParen, "')' in unit constant"))
      return false;
    Out = ConstValue::makeUnit();
    return true;
  }
  return fail("expected literal after 'const'");
}

bool Parser::parseOperandList(OperandList &Out, TokKind Close) {
  while (!Tok->is(Close)) {
    if (!parseOperand(Out.emplace_back()))
      return false;
    if (Tok->is(TokKind::Comma)) {
      bump();
      continue;
    }
    break;
  }
  return expect(Close, "closing delimiter of operand list");
}

bool Parser::parseType(const Type *&Out) {
  TypeContext &TC = M.types();

  if (Tok->is(TokKind::Amp)) {
    bump();
    bool Mut = consume(Kw::Mut);
    const Type *Pointee = nullptr;
    if (!parseType(Pointee))
      return false;
    Out = TC.getRef(Pointee, Mut);
    return true;
  }
  if (Tok->is(TokKind::Star)) {
    bump();
    bool Mut;
    if (consume(Kw::Mut))
      Mut = true;
    else if (consume(Kw::Const))
      Mut = false;
    else
      return fail("expected 'const' or 'mut' after '*' in type");
    const Type *Pointee = nullptr;
    if (!parseType(Pointee))
      return false;
    Out = TC.getRawPtr(Pointee, Mut);
    return true;
  }
  if (Tok->is(TokKind::LParen)) {
    bump();
    SmallVector<const Type *, 4> Elems;
    while (!Tok->is(TokKind::RParen)) {
      if (!parseType(Elems.emplace_back()))
        return false;
      if (Tok->is(TokKind::Comma)) {
        bump();
        continue;
      }
      break;
    }
    if (!expect(TokKind::RParen, "')'"))
      return false;
    Out = TC.getTuple(Elems.data(), Elems.size());
    return true;
  }
  if (Tok->is(TokKind::LBracket)) {
    bump();
    const Type *Elem = nullptr;
    if (!parseType(Elem))
      return false;
    if (Tok->is(TokKind::Semi)) {
      bump();
      if (!Tok->is(TokKind::Int))
        return fail("expected array length");
      uint64_t Len = static_cast<uint64_t>(Tok->IntVal);
      bump();
      if (!expect(TokKind::RBracket, "']'"))
        return false;
      Out = TC.getArray(Elem, Len);
      return true;
    }
    if (!expect(TokKind::RBracket, "']'"))
      return false;
    Out = TC.getSlice(Elem);
    return true;
  }
  if (Tok->is(TokKind::Ident)) {
    if (auto K = primOf(kw())) {
      Out = TC.getPrim(*K);
      bump();
      return true;
    }
    Symbol Name;
    if (!parsePath(Name))
      return false;
    SmallVector<const Type *, 4> Args;
    if (Tok->is(TokKind::Lt)) {
      bump();
      while (!Tok->is(TokKind::Gt)) {
        if (!parseType(Args.emplace_back()))
          return false;
        if (Tok->is(TokKind::Comma)) {
          bump();
          continue;
        }
        break;
      }
      if (!expect(TokKind::Gt, "'>'"))
        return false;
    }
    Out = TC.getAdt(Name, Args.data(), Args.size());
    return true;
  }
  return fail("expected type");
}
