//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tokenizer for the RustLite MIR textual syntax. Keywords stay Ident
/// tokens, but each identifier's spelling is classified into a keyword id
/// once, at lex time, so the parser dispatches on a byte instead of
/// comparing strings.
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_MIR_LEXER_H
#define RUSTSIGHT_MIR_LEXER_H

#include "support/SourceLocation.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rs::mir {

/// Token kinds produced by the MIR lexer.
enum class TokKind : uint8_t {
  Eof,
  Error,    ///< An unrecognized character; Text holds it.
  Ident,    ///< Identifier or keyword ("fn", "bb0", "StorageLive", ...).
  Local,    ///< A local name "_N"; IntVal holds N.
  Int,      ///< Integer literal; IntVal holds the value, Suffix the
            ///< optional "_i32"-style type suffix (without the underscore).
  String,   ///< String literal; Text holds the raw source range including
            ///< quotes. Decode with decodeStringLiteral at parse time.
  LBrace,
  RBrace,
  LParen,
  RParen,
  LBracket,
  RBracket,
  Comma,
  Semi,
  Colon,
  ColonColon,
  Arrow,    ///< "->"
  Eq,
  Amp,
  Star,
  Dot,
  Lt,
  Gt,
  Minus,
};

/// Keyword ids. An Ident token carries the id of its spelling (None for
/// any other name); an Int token carries the id of its suffix, so "7_i32"
/// has I32. The binary operators, unary operators and primitive types run
/// in BinOp, UnOp and PrimKind order, so the parser maps them by offset.
enum class Kw : uint8_t {
  None,
  BlockLabel, ///< "bbN"; IntVal holds N.
  // Items and declarations.
  Fn,
  Struct,
  Static,
  Unsafe,
  Impl,
  Sync,
  For,
  Let,
  Mut,
  DropTrait, ///< "Drop", as in "struct S: Drop".
  // Statements and terminators.
  StorageLive,
  StorageDead,
  Nop,
  Goto,
  Return,
  Resume,
  Unreachable,
  Drop, ///< "drop", the terminator.
  SwitchInt,
  Otherwise,
  Assert,
  Unwind,
  // Operands and rvalues.
  Copy,
  Move,
  Const,
  As,
  Raw,
  Discriminant,
  Len,
  True,
  False,
  // Binary operators.
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
  // Unary operators.
  Not,
  Neg,
  // Primitive types.
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

/// One lexed token. Text/Suffix view into the lexer's input buffer, so a
/// token is trivially copyable and lexing never allocates; string literals
/// stay raw until the parser asks for them.
struct Token {
  TokKind K = TokKind::Eof;
  Kw Keyword = Kw::None;
  std::string_view Text;
  /// Local: N of "_N". Int: the value. Ident with Keyword BlockLabel: N of
  /// "bbN". LBrace from Lexer::tokenizeItems: see innerSemis/innerGroups.
  int64_t IntVal = 0;
  std::string_view Suffix;
  SourceLocation Loc;

  bool is(TokKind Kind) const { return K == Kind; }
  bool is(Kw Id) const { return Keyword == Id && K == TokKind::Ident; }

  /// For an LBrace from Lexer::tokenizeItems whose '}' was lexed: the ';'
  /// and the '{' directly inside the braces (not nested in another
  /// bracket). A basic block's braces hold one ';' per statement plus the
  /// terminator's; a function body's hold one per 'let' and one '{' per
  /// block. Zero for an unclosed brace.
  unsigned innerSemis() const { return static_cast<uint32_t>(IntVal); }
  unsigned innerGroups() const {
    return static_cast<uint32_t>(static_cast<uint64_t>(IntVal) >> 32);
  }
};

static_assert(sizeof(Token) == 64, "the keyword id lives in padding");

/// Decodes the contents of a String token's raw range (strips the quotes,
/// resolves \n, \t, and pass-through escapes) into \p Out, cleared first,
/// so a caller that decodes many literals reuses one buffer. Returns the
/// decoded text: a view of the raw range itself when it holds no escape,
/// else of \p Out.
std::string_view decodeStringLiteral(std::string_view RawWithQuotes,
                                     std::string &Out);

/// A single-pass lexer over an in-memory buffer. The buffer must outlive the
/// lexer and all tokens it produces.
class Lexer {
public:
  Lexer(std::string_view Buffer, std::string_view FileName);

  /// Lexes the next token, advancing the cursor. At the end of input it
  /// yields Eof again and again.
  Token next();

  /// Replaces \p Out with the next whole top-level items: tokens up to a
  /// ';' or '}' that leaves no bracket open, continuing past such
  /// boundaries until at least \p MinTokens tokens are in. Every LBrace
  /// closed within the batch gets its inner counts (Token::innerSemis).
  /// The batch ends with the Eof token once the input is exhausted.
  void tokenizeItems(std::vector<Token> &Out, size_t MinTokens);

private:
  /// The cursor. The batch loop works on a local copy, which the compiler
  /// can keep in registers across the token stores.
  struct State {
    const char *Cur;
    const char *End;
    /// The first byte of the cursor's line.
    const char *LineStart;
    const std::string *File;
    unsigned Line;
  };

  /// Lexes one token at \p S into \p T.
  static void lex(State &S, Token &T);

  State St;
};

} // namespace rs::mir

#endif // RUSTSIGHT_MIR_LEXER_H
