#include "mir/Parser.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <iterator>

using namespace rs;
using namespace rs::mir;

Parser::Parser(std::string_view Buffer, std::string_view FileName)
    : Lex(Buffer, FileName) {
  Tok = Lex.next();
}

void Parser::bump() { Tok = Lex.next(); }

bool Parser::fail(const std::string &Message) {
  if (!Err)
    Err = Error(Message, Tok.Loc.isValid() ? Tok.Loc : Lex.currentLocation());
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

bool Parser::expect(TokKind K, const char *What) {
  if (Tok.K != K)
    return fail(std::string("expected ") + What + ", found " +
                tokKindName(Tok.K) +
                (Tok.K == TokKind::Ident ? " '" + std::string(Tok.Text) + "'"
                                         : std::string()));
  bump();
  return true;
}

bool Parser::expectIdent(std::string_view S) {
  if (!Tok.isIdent(S))
    return fail("expected '" + std::string(S) + "'");
  bump();
  return true;
}

bool Parser::consumeIdent(std::string_view S) {
  if (!Tok.isIdent(S))
    return false;
  bump();
  return true;
}

//===----------------------------------------------------------------------===//
// Items
//===----------------------------------------------------------------------===//

Result<Module> Parser::parseModule() {
  while (!Tok.is(TokKind::Eof)) {
    if (!parseItem())
      return *Err;
  }
  return std::move(M);
}

ModuleParse Parser::parseModuleRecover() {
  ModuleParse Out;
  while (!Tok.is(TokKind::Eof)) {
    if (parseItem())
      continue;
    Out.Errors.push_back(*Err);
    ++Out.ItemsDropped;
    Err.reset();
    CurFn = nullptr;
    recoverToItemBoundary();
  }
  Out.M = std::move(M);
  return Out;
}

void Parser::recoverToItemBoundary() {
  // Depth is relative to the error point; an item keyword only counts as a
  // boundary once we have closed at least as many braces as we opened, i.e.
  // we are no deeper than where the malformed item began.
  int Depth = 0;
  while (!Tok.is(TokKind::Eof)) {
    if (Tok.is(TokKind::LBrace)) {
      ++Depth;
    } else if (Tok.is(TokKind::RBrace)) {
      --Depth;
    } else if (Depth <= 0 &&
               (atIdent("fn") || atIdent("struct") || atIdent("static") ||
                atIdent("unsafe"))) {
      return;
    }
    bump();
  }
}

bool Parser::parseItem() {
  if (atIdent("struct"))
    return parseStruct();
  if (atIdent("static"))
    return parseStatic();
  if (atIdent("fn"))
    return parseFunction(/*IsUnsafe=*/false);
  if (atIdent("unsafe")) {
    bump();
    if (atIdent("fn"))
      return parseFunction(/*IsUnsafe=*/true);
    if (atIdent("impl"))
      return parseSyncImpl();
    return fail("expected 'fn' or 'impl' after 'unsafe'");
  }
  return fail("expected 'struct', 'static', 'fn', or 'unsafe' item");
}

bool Parser::parseStruct() {
  bump(); // struct
  if (!Tok.is(TokKind::Ident))
    return fail("expected struct name");
  StructDecl S;
  S.Name = Symbol::intern(Tok.Text);
  bump();
  if (Tok.is(TokKind::Colon)) {
    bump();
    if (!expectIdent("Drop"))
      return false;
    S.HasDrop = true;
  }
  if (!expect(TokKind::LBrace, "'{'"))
    return false;
  while (!Tok.is(TokKind::RBrace)) {
    if (!Tok.is(TokKind::Ident))
      return fail("expected field name");
    std::string FieldName(Tok.Text);
    bump();
    if (!expect(TokKind::Colon, "':'"))
      return false;
    const Type *Ty = nullptr;
    if (!parseType(Ty))
      return false;
    S.Fields.emplace_back(std::move(FieldName), Ty);
    if (Tok.is(TokKind::Comma)) {
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
  if (!expectIdent("Sync"))
    return false;
  if (!expectIdent("for"))
    return false;
  if (!Tok.is(TokKind::Ident))
    return fail("expected type name in Sync impl");
  std::string_view Name = Tok.Text;
  bump();
  if (!expect(TokKind::Semi, "';'"))
    return false;
  M.addSyncImpl(Name);
  return true;
}

bool Parser::parseStatic() {
  bump(); // static
  StaticDecl S;
  if (consumeIdent("mut"))
    S.Mutable = true;
  if (!Tok.is(TokKind::Ident))
    return fail("expected static name");
  S.Name = Symbol::intern(Tok.Text);
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
  SourceLocation FnLoc = Tok.Loc;
  bump(); // fn
  Function F;
  F.IsUnsafe = IsUnsafe;
  F.Loc = FnLoc;
  if (!parsePath(F.Name))
    return false;
  if (!expect(TokKind::LParen, "'('"))
    return false;

  // Parameters must be _1, _2, ... in order.
  std::vector<const Type *> ParamTypes;
  while (!Tok.is(TokKind::RParen)) {
    if (!Tok.is(TokKind::Local))
      return fail("expected parameter local '_N'");
    if (static_cast<LocalId>(Tok.IntVal) != ParamTypes.size() + 1)
      return fail("parameters must be numbered _1, _2, ... in order");
    bump();
    if (!expect(TokKind::Colon, "':'"))
      return false;
    const Type *Ty = nullptr;
    if (!parseType(Ty))
      return false;
    ParamTypes.push_back(Ty);
    if (Tok.is(TokKind::Comma)) {
      bump();
      continue;
    }
    break;
  }
  if (!expect(TokKind::RParen, "')'"))
    return false;

  const Type *RetTy = M.types().getUnit();
  if (Tok.is(TokKind::Arrow)) {
    bump();
    if (!parseType(RetTy))
      return false;
  }
  if (!expect(TokKind::LBrace, "'{'"))
    return false;

  F.NumArgs = static_cast<unsigned>(ParamTypes.size());
  DenseTable<LocalDecl> Decls;
  Decls.insert(0, LocalDecl{RetTy, true, {}});
  for (unsigned I = 0; I != ParamTypes.size(); ++I)
    Decls.insert(I + 1, LocalDecl{ParamTypes[I], false, {}});

  // Body: local declarations, then basic blocks.
  while (atIdent("let")) {
    if (!parseLocalDecl(Decls))
      return false;
  }

  // Validate local density and build the locals table.
  if (unsigned Gap = Decls.firstGap(); Gap != Decls.Count)
    return fail("function '" + F.Name.str() +
                "' is missing a declaration for _" + std::to_string(Gap));
  F.Locals.resize(Decls.Count);
  for (LocalId I = 0; I != Decls.Count; ++I)
    F.Locals[I] = std::move(Decls.Slots[I]);

  DenseTable<BasicBlock> Blocks;
  while (!Tok.is(TokKind::RBrace)) {
    CurFn = &F;
    bool Ok = parseBlock(Blocks);
    CurFn = nullptr;
    if (!Ok)
      return false;
  }
  bump(); // '}'

  if (Blocks.Count == 0)
    return fail("function '" + F.Name.str() + "' has no basic blocks");
  if (unsigned Gap = Blocks.firstGap(); Gap != Blocks.Count)
    return fail("function '" + F.Name.str() + "' is missing block bb" +
                std::to_string(Gap));
  F.Blocks.resize(Blocks.Count);
  for (BlockId I = 0; I != Blocks.Count; ++I)
    F.Blocks[I] = std::move(Blocks.Slots[I]);

  if (M.findFunction(F.Name))
    return fail("duplicate function '" + F.Name.str() + "'");
  M.addFunction(std::move(F));
  return true;
}

bool Parser::parseLocalDecl(DenseTable<LocalDecl> &Decls) {
  bump(); // let
  LocalDecl D;
  if (consumeIdent("mut"))
    D.Mutable = true;
  if (!Tok.is(TokKind::Local))
    return fail("expected local '_N' in let declaration");
  LocalId Id = static_cast<LocalId>(Tok.IntVal);
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
    if (Decls.Slots[0].Ty != D.Ty)
      return fail("declared type of _0 does not match the return type");
    Decls.overwrite(0, D);
    return true;
  }
  if (!Decls.insert(Id, D))
    return fail("duplicate declaration of _" + std::to_string(Id));
  return true;
}

//===----------------------------------------------------------------------===//
// Blocks, statements, terminators
//===----------------------------------------------------------------------===//

/// Parses "bbN" out of an identifier token, or returns false.
static bool blockIdFromIdent(const Token &T, BlockId &Out) {
  if (T.K != TokKind::Ident || T.Text.size() < 3 ||
      T.Text.substr(0, 2) != "bb")
    return false;
  BlockId Id = 0;
  for (char C : T.Text.substr(2)) {
    if (!isDigit(C))
      return false;
    Id = Id * 10 + static_cast<BlockId>(C - '0');
  }
  Out = Id;
  return true;
}

bool Parser::parseBlockRef(BlockId &Out) {
  if (!blockIdFromIdent(Tok, Out))
    return fail("expected block reference 'bbN'");
  bump();
  return true;
}

bool Parser::parseBlock(DenseTable<BasicBlock> &Blocks) {
  BlockId Id = 0;
  if (!blockIdFromIdent(Tok, Id))
    return fail("expected basic block label 'bbN'");
  bump();
  if (!expect(TokKind::Colon, "':'"))
    return false;
  if (!expect(TokKind::LBrace, "'{'"))
    return false;

  // Statements grow in the parser's reused buffer and the block keeps an
  // exact-size copy: one allocation per block, and a module that outlives
  // its parse (a linked exporter stays resident) carries no growth slack.
  BasicBlock BB;
  BB.Statements = std::move(StmtScratch);
  BB.Statements.clear();
  bool SawTerminator = false;
  while (!SawTerminator) {
    if (Tok.is(TokKind::RBrace))
      return fail("block bb" + std::to_string(Id) + " has no terminator");
    if (!parseBlockItem(BB, SawTerminator))
      return false;
  }
  if (!expect(TokKind::RBrace, "'}' after terminator"))
    return false;
  StmtScratch = std::move(BB.Statements);
  BB.Statements.assign(std::make_move_iterator(StmtScratch.begin()),
                       std::make_move_iterator(StmtScratch.end()));
  if (!Blocks.insert(Id, std::move(BB)))
    return fail("duplicate block bb" + std::to_string(Id));
  return true;
}

bool Parser::parseCallTargets(BlockId &Target, BlockId &Unwind) {
  Unwind = InvalidBlock;
  if (Tok.is(TokKind::LBracket)) {
    bump();
    if (!expectIdent("return"))
      return false;
    if (!expect(TokKind::Colon, "':'"))
      return false;
    if (!parseBlockRef(Target))
      return false;
    if (Tok.is(TokKind::Comma)) {
      bump();
      if (!expectIdent("unwind"))
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
  SourceLocation Loc = Tok.Loc;

  // Keyword-led statements.
  if (atIdent("StorageLive") || atIdent("StorageDead")) {
    bool IsLive = Tok.Text == "StorageLive";
    bump();
    if (!expect(TokKind::LParen, "'('"))
      return false;
    if (!Tok.is(TokKind::Local))
      return fail("expected local in storage statement");
    LocalId L = static_cast<LocalId>(Tok.IntVal);
    bump();
    if (!expect(TokKind::RParen, "')'"))
      return false;
    if (!expect(TokKind::Semi, "';'"))
      return false;
    BB.Statements.push_back(IsLive ? Statement::storageLive(L, Loc)
                                   : Statement::storageDead(L, Loc));
    return true;
  }
  if (atIdent("nop")) {
    bump();
    if (!expect(TokKind::Semi, "';'"))
      return false;
    BB.Statements.push_back(Statement::nop());
    return true;
  }

  // Keyword-led terminators.
  if (atIdent("goto")) {
    bump();
    if (!expect(TokKind::Arrow, "'->'"))
      return false;
    BlockId B = 0;
    if (!parseBlockRef(B))
      return false;
    if (!expect(TokKind::Semi, "';'"))
      return false;
    BB.Term = Terminator::gotoBlock(B);
    BB.Term.Loc = Loc;
    SawTerminator = true;
    return true;
  }
  if (atIdent("return") || atIdent("resume") || atIdent("unreachable")) {
    Terminator T = atIdent("return")   ? Terminator::ret()
                   : atIdent("resume") ? Terminator::resume()
                                       : Terminator::unreachable();
    bump();
    if (!expect(TokKind::Semi, "';'"))
      return false;
    T.Loc = Loc;
    BB.Term = std::move(T);
    SawTerminator = true;
    return true;
  }
  if (atIdent("drop")) {
    bump();
    if (!expect(TokKind::LParen, "'('"))
      return false;
    Place P;
    if (!parsePlace(P))
      return false;
    if (!expect(TokKind::RParen, "')'"))
      return false;
    if (!expect(TokKind::Arrow, "'->'"))
      return false;
    BlockId Target = 0, Unwind = InvalidBlock;
    if (!parseCallTargets(Target, Unwind))
      return false;
    if (!expect(TokKind::Semi, "';'"))
      return false;
    BB.Term = Terminator::drop(std::move(P), Target, Unwind);
    BB.Term.Loc = Loc;
    SawTerminator = true;
    return true;
  }
  if (atIdent("switchInt")) {
    bump();
    if (!expect(TokKind::LParen, "'('"))
      return false;
    Operand Discr;
    if (!parseOperand(Discr))
      return false;
    if (!expect(TokKind::RParen, "')'"))
      return false;
    if (!expect(TokKind::Arrow, "'->'"))
      return false;
    if (!expect(TokKind::LBracket, "'['"))
      return false;
    CaseList Cases;
    BlockId Otherwise = InvalidBlock;
    while (true) {
      if (atIdent("otherwise")) {
        bump();
        if (!expect(TokKind::Colon, "':'"))
          return false;
        if (!parseBlockRef(Otherwise))
          return false;
        break;
      }
      bool Negate = false;
      if (Tok.is(TokKind::Minus)) {
        Negate = true;
        bump();
      }
      if (!Tok.is(TokKind::Int))
        return fail("expected case value or 'otherwise' in switchInt");
      int64_t Value = Negate ? -Tok.IntVal : Tok.IntVal;
      bump();
      if (!expect(TokKind::Colon, "':'"))
        return false;
      BlockId B = 0;
      if (!parseBlockRef(B))
        return false;
      Cases.emplace_back(Value, B);
      if (!expect(TokKind::Comma, "','"))
        return false;
    }
    if (!expect(TokKind::RBracket, "']'"))
      return false;
    if (!expect(TokKind::Semi, "';'"))
      return false;
    BB.Term = Terminator::switchInt(std::move(Discr), std::move(Cases),
                                    Otherwise);
    BB.Term.Loc = Loc;
    SawTerminator = true;
    return true;
  }
  if (atIdent("assert")) {
    bump();
    if (!expect(TokKind::LParen, "'('"))
      return false;
    Operand Cond;
    if (!parseOperand(Cond))
      return false;
    if (!expect(TokKind::RParen, "')'"))
      return false;
    if (!expect(TokKind::Arrow, "'->'"))
      return false;
    BlockId Target = 0;
    if (!parseBlockRef(Target))
      return false;
    if (!expect(TokKind::Semi, "';'"))
      return false;
    BB.Term = Terminator::assertCond(std::move(Cond), Target);
    BB.Term.Loc = Loc;
    SawTerminator = true;
    return true;
  }

  // "place = ..." : assignment statement or call-with-destination.
  if (Tok.is(TokKind::Local) || Tok.is(TokKind::LParen)) {
    Place Dest;
    if (!parsePlace(Dest))
      return false;
    if (!expect(TokKind::Eq, "'='"))
      return false;
    Rvalue RV;
    Terminator Call;
    bool IsCall = false;
    if (!parseAssignRhs(RV, Call, IsCall))
      return false;
    if (!expect(TokKind::Semi, "';'"))
      return false;
    if (IsCall) {
      Call.Dest = std::move(Dest);
      Call.HasDest = true;
      Call.Loc = Loc;
      BB.Term = std::move(Call);
      SawTerminator = true;
      return true;
    }
    BB.Statements.push_back(
        Statement::assign(std::move(Dest), std::move(RV), Loc));
    return true;
  }

  // Bare call terminator: "callee(args) -> target;".
  if (Tok.is(TokKind::Ident)) {
    Symbol Callee;
    if (!parsePath(Callee))
      return false;
    if (!expect(TokKind::LParen, "'(' after callee"))
      return false;
    OperandList Args;
    if (!parseOperandList(Args, TokKind::RParen))
      return false;
    if (!expect(TokKind::Arrow, "'->' after call"))
      return false;
    BlockId Target = 0, Unwind = InvalidBlock;
    if (!parseCallTargets(Target, Unwind))
      return false;
    if (!expect(TokKind::Semi, "';'"))
      return false;
    BB.Term =
        Terminator::callNoDest(std::move(Callee), std::move(Args), Target,
                               Unwind);
    BB.Term.Loc = Loc;
    SawTerminator = true;
    return true;
  }

  return fail("expected statement or terminator");
}

//===----------------------------------------------------------------------===//
// Rvalues, operands, places, paths, types
//===----------------------------------------------------------------------===//

std::optional<BinOp> Parser::binOpFromName(std::string_view Name) const {
  static const std::pair<std::string_view, BinOp> Names[] = {
      {"Add", BinOp::Add},       {"Sub", BinOp::Sub},
      {"Mul", BinOp::Mul},       {"Div", BinOp::Div},
      {"Rem", BinOp::Rem},       {"BitAnd", BinOp::BitAnd},
      {"BitOr", BinOp::BitOr},   {"BitXor", BinOp::BitXor},
      {"Shl", BinOp::Shl},       {"Shr", BinOp::Shr},
      {"Eq", BinOp::Eq},         {"Ne", BinOp::Ne},
      {"Lt", BinOp::Lt},         {"Le", BinOp::Le},
      {"Gt", BinOp::Gt},         {"Ge", BinOp::Ge},
      {"Offset", BinOp::Offset},
  };
  for (const auto &[N, Op] : Names)
    if (N == Name)
      return Op;
  return std::nullopt;
}

std::optional<UnOp> Parser::unOpFromName(std::string_view Name) const {
  if (Name == "Not")
    return UnOp::Not;
  if (Name == "Neg")
    return UnOp::Neg;
  return std::nullopt;
}

bool Parser::parseAssignRhs(Rvalue &RV, Terminator &Call, bool &IsCall) {
  IsCall = false;

  // Operand-led rvalue, possibly a cast.
  if (atIdent("copy") || atIdent("move") || atIdent("const")) {
    Operand O;
    if (!parseOperand(O))
      return false;
    if (consumeIdent("as")) {
      const Type *Ty = nullptr;
      if (!parseType(Ty))
        return false;
      // Chained casts: "x as *const i32 as *mut i32".
      while (consumeIdent("as"))
        if (!parseType(Ty))
          return false;
      RV = Rvalue::cast(std::move(O), Ty);
      return true;
    }
    RV = Rvalue::use(std::move(O));
    return true;
  }

  // References and raw address-of.
  if (Tok.is(TokKind::Amp)) {
    bump();
    if (consumeIdent("raw")) {
      bool Mut;
      if (consumeIdent("mut"))
        Mut = true;
      else if (consumeIdent("const"))
        Mut = false;
      else
        return fail("expected 'const' or 'mut' after '&raw'");
      Place P;
      if (!parsePlace(P))
        return false;
      RV = Rvalue::addressOf(std::move(P), Mut);
      return true;
    }
    bool Mut = consumeIdent("mut");
    Place P;
    if (!parsePlace(P))
      return false;
    RV = Rvalue::ref(std::move(P), Mut);
    return true;
  }

  // Tuple aggregate.
  if (Tok.is(TokKind::LParen)) {
    bump();
    OperandList Elems;
    if (!parseOperandList(Elems, TokKind::RParen))
      return false;
    RV = Rvalue::tuple(std::move(Elems));
    return true;
  }

  if (atIdent("discriminant") || atIdent("Len")) {
    bool IsDiscr = Tok.Text == "discriminant";
    bump();
    if (!expect(TokKind::LParen, "'('"))
      return false;
    Place P;
    if (!parsePlace(P))
      return false;
    if (!expect(TokKind::RParen, "')'"))
      return false;
    RV = IsDiscr ? Rvalue::discriminant(std::move(P))
                 : Rvalue::len(std::move(P));
    return true;
  }

  // Path-led: struct aggregate, binop/unop, or call terminator.
  if (Tok.is(TokKind::Ident)) {
    Symbol PathName;
    if (!parsePath(PathName))
      return false;

    if (Tok.is(TokKind::LBrace)) {
      bump();
      std::vector<std::pair<unsigned, Operand>> Fields;
      while (!Tok.is(TokKind::RBrace)) {
        if (!Tok.is(TokKind::Int))
          return fail("expected field index in aggregate");
        unsigned Idx = static_cast<unsigned>(Tok.IntVal);
        bump();
        if (!expect(TokKind::Colon, "':'"))
          return false;
        Operand O;
        if (!parseOperand(O))
          return false;
        Fields.emplace_back(Idx, std::move(O));
        if (Tok.is(TokKind::Comma)) {
          bump();
          continue;
        }
        break;
      }
      if (!expect(TokKind::RBrace, "'}'"))
        return false;
      std::sort(Fields.begin(), Fields.end(),
                [](const auto &A, const auto &B) { return A.first < B.first; });
      OperandList Ops;
      for (auto &[Idx, O] : Fields) {
        if (Idx != Ops.size())
          return fail("aggregate fields must cover 0..N once each");
        Ops.push_back(std::move(O));
      }
      RV = Rvalue::aggregate(PathName, std::move(Ops));
      return true;
    }

    if (!expect(TokKind::LParen, "'(' after name in rvalue"))
      return false;
    OperandList Args;
    if (!parseOperandList(Args, TokKind::RParen))
      return false;

    if (Tok.is(TokKind::Arrow)) {
      bump();
      BlockId Target = 0, Unwind = InvalidBlock;
      if (!parseCallTargets(Target, Unwind))
        return false;
      Call = Terminator::callNoDest(PathName, std::move(Args), Target, Unwind);
      IsCall = true;
      return true;
    }

    if (auto BOp = binOpFromName(PathName.view())) {
      if (Args.size() != 2)
        return fail(PathName.str() + " expects exactly two operands");
      RV = Rvalue::binary(*BOp, std::move(Args[0]), std::move(Args[1]));
      return true;
    }
    if (auto UOp = unOpFromName(PathName.view())) {
      if (Args.size() != 1)
        return fail(PathName.str() + " expects exactly one operand");
      RV = Rvalue::unary(*UOp, std::move(Args[0]));
      return true;
    }
    return fail("call to '" + PathName.str() +
                "' needs a target block ('-> bbN'); calls are terminators");
  }

  return fail("expected rvalue");
}

bool Parser::parsePath(Symbol &Out) {
  if (!Tok.is(TokKind::Ident))
    return fail("expected path");
  std::string_view First = Tok.Text;
  bump();
  if (!Tok.is(TokKind::ColonColon)) {
    // Single-segment path: intern straight from the buffer, no copy.
    Out = Symbol::intern(First);
    return true;
  }
  PathScratch.assign(First);
  while (Tok.is(TokKind::ColonColon)) {
    bump();
    if (!Tok.is(TokKind::Ident))
      return fail("expected identifier after '::'");
    PathScratch += "::";
    PathScratch += Tok.Text;
    bump();
  }
  Out = Symbol::intern(PathScratch);
  return true;
}

bool Parser::parsePlace(Place &Out) {
  if (Tok.is(TokKind::Local)) {
    Out = Place(static_cast<LocalId>(Tok.IntVal));
    bump();
  } else if (Tok.is(TokKind::LParen)) {
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
    if (Tok.is(TokKind::Dot)) {
      bump();
      if (!Tok.is(TokKind::Int))
        return fail("expected field index after '.'");
      Out.Projs.push_back(
          ProjectionElem::field(static_cast<unsigned>(Tok.IntVal)));
      bump();
      continue;
    }
    if (Tok.is(TokKind::LBracket)) {
      bump();
      if (!Tok.is(TokKind::Local))
        return fail("expected index local in '[...]'");
      Out.Projs.push_back(
          ProjectionElem::index(static_cast<LocalId>(Tok.IntVal)));
      bump();
      if (!expect(TokKind::RBracket, "']'"))
        return false;
      continue;
    }
    return true;
  }
}

/// Maps a primitive type name to its kind ("i32" -> I32).
static std::optional<PrimKind> primFromName(std::string_view Name) {
  static const std::pair<std::string_view, PrimKind> Names[] = {
      {"bool", PrimKind::Bool},   {"char", PrimKind::Char},
      {"str", PrimKind::Str},     {"i8", PrimKind::I8},
      {"i16", PrimKind::I16},     {"i32", PrimKind::I32},
      {"i64", PrimKind::I64},     {"isize", PrimKind::ISize},
      {"u8", PrimKind::U8},       {"u16", PrimKind::U16},
      {"u32", PrimKind::U32},     {"u64", PrimKind::U64},
      {"usize", PrimKind::USize}, {"f32", PrimKind::F32},
      {"f64", PrimKind::F64},
  };
  for (const auto &[N, K] : Names)
    if (N == Name)
      return K;
  return std::nullopt;
}

bool Parser::parseOperand(Operand &Out) {
  if (consumeIdent("copy")) {
    Place P;
    if (!parsePlace(P))
      return false;
    Out = Operand::copy(std::move(P));
    return true;
  }
  if (consumeIdent("move")) {
    Place P;
    if (!parsePlace(P))
      return false;
    Out = Operand::move(std::move(P));
    return true;
  }
  if (consumeIdent("const")) {
    if (Tok.is(TokKind::Minus)) {
      bump();
      if (!Tok.is(TokKind::Int))
        return fail("expected integer after '-'");
      const Type *Ty = nullptr;
      if (!Tok.Suffix.empty()) {
        auto K = primFromName(Tok.Suffix);
        if (!K)
          return fail("unknown literal suffix '" + std::string(Tok.Suffix) +
                      "'");
        Ty = M.types().getPrim(*K);
      }
      Out = Operand::constant(ConstValue::makeInt(-Tok.IntVal, Ty));
      bump();
      return true;
    }
    if (Tok.is(TokKind::Int)) {
      const Type *Ty = nullptr;
      if (!Tok.Suffix.empty()) {
        auto K = primFromName(Tok.Suffix);
        if (!K)
          return fail("unknown literal suffix '" + std::string(Tok.Suffix) +
                      "'");
        Ty = M.types().getPrim(*K);
      }
      Out = Operand::constant(ConstValue::makeInt(Tok.IntVal, Ty));
      bump();
      return true;
    }
    if (Tok.is(TokKind::String)) {
      Out = Operand::constant(ConstValue::makeStr(decodeStringLiteral(Tok.Text)));
      bump();
      return true;
    }
    if (atIdent("true") || atIdent("false")) {
      Out = Operand::constant(ConstValue::makeBool(Tok.Text == "true"));
      bump();
      return true;
    }
    if (Tok.is(TokKind::LParen)) {
      bump();
      if (!expect(TokKind::RParen, "')' in unit constant"))
        return false;
      Out = Operand::constant(ConstValue::makeUnit());
      return true;
    }
    return fail("expected literal after 'const'");
  }
  return fail("expected operand ('copy', 'move', or 'const')");
}

bool Parser::parseOperandList(OperandList &Out, TokKind Close) {
  while (!Tok.is(Close)) {
    Operand O;
    if (!parseOperand(O))
      return false;
    Out.push_back(std::move(O));
    if (Tok.is(TokKind::Comma)) {
      bump();
      continue;
    }
    break;
  }
  return expect(Close, "closing delimiter of operand list");
}

bool Parser::parseType(const Type *&Out) {
  TypeContext &TC = M.types();

  if (Tok.is(TokKind::Amp)) {
    bump();
    bool Mut = consumeIdent("mut");
    const Type *Pointee = nullptr;
    if (!parseType(Pointee))
      return false;
    Out = TC.getRef(Pointee, Mut);
    return true;
  }
  if (Tok.is(TokKind::Star)) {
    bump();
    bool Mut;
    if (consumeIdent("mut"))
      Mut = true;
    else if (consumeIdent("const"))
      Mut = false;
    else
      return fail("expected 'const' or 'mut' after '*' in type");
    const Type *Pointee = nullptr;
    if (!parseType(Pointee))
      return false;
    Out = TC.getRawPtr(Pointee, Mut);
    return true;
  }
  if (Tok.is(TokKind::LParen)) {
    bump();
    std::vector<const Type *> Elems;
    while (!Tok.is(TokKind::RParen)) {
      const Type *Elem = nullptr;
      if (!parseType(Elem))
        return false;
      Elems.push_back(Elem);
      if (Tok.is(TokKind::Comma)) {
        bump();
        continue;
      }
      break;
    }
    if (!expect(TokKind::RParen, "')'"))
      return false;
    Out = TC.getTuple(std::move(Elems));
    return true;
  }
  if (Tok.is(TokKind::LBracket)) {
    bump();
    const Type *Elem = nullptr;
    if (!parseType(Elem))
      return false;
    if (Tok.is(TokKind::Semi)) {
      bump();
      if (!Tok.is(TokKind::Int))
        return fail("expected array length");
      uint64_t Len = static_cast<uint64_t>(Tok.IntVal);
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
  if (Tok.is(TokKind::Ident)) {
    if (auto K = primFromName(Tok.Text)) {
      Out = TC.getPrim(*K);
      bump();
      return true;
    }
    Symbol Name;
    if (!parsePath(Name))
      return false;
    std::vector<const Type *> Args;
    if (Tok.is(TokKind::Lt)) {
      bump();
      while (!Tok.is(TokKind::Gt)) {
        const Type *Arg = nullptr;
        if (!parseType(Arg))
          return false;
        Args.push_back(Arg);
        if (Tok.is(TokKind::Comma)) {
          bump();
          continue;
        }
        break;
      }
      if (!expect(TokKind::Gt, "'>'"))
        return false;
    }
    Out = TC.getAdt(Name, std::move(Args));
    return true;
  }
  return fail("expected type");
}
