//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for the RustLite MIR textual syntax.
///
/// Grammar sketch (see README.md for the full description):
///
/// \code
///   module     := item*
///   item       := struct | syncImpl | static | function
///   struct     := "struct" NAME (":" "Drop")? "{" (field ("," field)*)? "}"
///   syncImpl   := "unsafe" "impl" "Sync" "for" NAME ";"
///   static     := "static" "mut"? NAME ":" type ";"
///   function   := "unsafe"? "fn" path "(" params? ")" ("->" type)?
///                 "{" local* block+ "}"
///   local      := "let" "mut"? LOCAL ":" type ";"
///   block      := IDENT(bbN) ":" "{" stmt* terminator "}"
///   stmt       := "StorageLive" "(" LOCAL ")" ";"
///               | "StorageDead" "(" LOCAL ")" ";"
///               | "nop" ";"
///               | place "=" rvalue ";"
///   terminator := "goto" "->" BB ";" | "return" ";" | "resume" ";"
///               | "unreachable" ";"
///               | "drop" "(" place ")" "->" targets ";"
///               | "switchInt" "(" operand ")" "->"
///                 "[" (INT ":" BB ",")* "otherwise" ":" BB "]" ";"
///               | "assert" "(" operand ")" "->" BB ";"
///               | (place "=")? path "(" operands? ")" "->" targets ";"
///   targets    := BB | "[" "return" ":" BB ("," "unwind" ":" BB)? "]"
///   rvalue     := operand ("as" type)?
///               | "&" "mut"? place | "&" "raw" ("const"|"mut") place
///               | BINOP "(" operand "," operand ")" | UNOP "(" operand ")"
///               | "(" operands? ")"                       // tuple
///               | path "{" (INT ":" operand ",")* "}"     // struct agg
///               | "discriminant" "(" place ")" | "Len" "(" place ")"
///   operand    := "copy" place | "move" place | "const" literal
///   place      := LOCAL | "(" "*" place ")" ; then (".", INT | "[" LOCAL "]")*
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_MIR_PARSER_H
#define RUSTSIGHT_MIR_PARSER_H

#include "mir/Lexer.h"
#include "mir/Mir.h"
#include "support/Error.h"

#include <algorithm>
#include <optional>

namespace rs::mir {

/// The result of a recovering parse: whatever items parsed cleanly, plus one
/// diagnostic per malformed region that was skipped.
struct ModuleParse {
  Module M;
  /// One error per recovery (the first problem in each malformed item).
  std::vector<Error> Errors;
  /// Items abandoned by resynchronization.
  unsigned ItemsDropped = 0;

  bool ok() const { return Errors.empty(); }
};

/// Parses one RustLite MIR buffer into a Module.
class Parser {
public:
  /// Parses the whole buffer. On failure returns the first error.
  static Result<Module> parse(std::string_view Buffer,
                              std::string_view FileName = "<mir>");

  /// Parses the whole buffer with error recovery: a malformed item records
  /// one diagnostic, the parser resynchronizes at the next top-level item
  /// boundary ('fn' / 'struct' / 'static' / 'unsafe' once braces balance),
  /// and parsing continues. One malformed function costs one diagnostic,
  /// not the module.
  static ModuleParse parseRecover(std::string_view Buffer,
                                  std::string_view FileName = "<mir>");

  /// parseRecover into a caller-owned, freshly constructed \p Out, so the
  /// module is built where it will stay (moving a Module allocates).
  static void parseRecoverInto(std::string_view Buffer,
                               std::string_view FileName, ModuleParse &Out);

private:
  /// A parser that adds the buffer's items to \p M.
  Parser(std::string_view Buffer, std::string_view FileName, Module &M);

  /// Tokens are lexed a batch of whole top-level items at a time (at
  /// least this many tokens), so every brace of the item being parsed
  /// already carries its inner counts and the token buffer stays bounded
  /// by the largest item, not the file.
  static constexpr size_t BatchTokens = 4096;

  // Token plumbing. Tok is the current token, in the batch Toks.
  void bump() {
    if (Tok->K == TokKind::Eof)
      return;
    if (++Tok == Toks.data() + Toks.size()) {
      Lex.tokenizeItems(Toks, BatchTokens);
      Tok = Toks.data();
    }
  }
  /// The token \p Ahead places past Tok, or the batch's last token.
  const Token &peek(size_t Ahead) const {
    size_t At = static_cast<size_t>(Tok - Toks.data()) + Ahead;
    return Toks[std::min(At, Toks.size() - 1)];
  }
  /// Tok's keyword id; None for anything but an identifier.
  Kw kw() const { return Tok->K == TokKind::Ident ? Tok->Keyword : Kw::None; }
  bool expect(TokKind K, const char *What) {
    if (Tok->K != K)
      return expected(What);
    bump();
    return true;
  }
  /// Fails with "expected <What>, found <Tok>".
  bool expected(const char *What);
  bool expectKw(Kw Id, const char *Spelling);
  bool consume(Kw Id);

  // Failure handling: fail() records the first error and returns false.
  bool fail(const std::string &Message);
  bool failed() const { return Err.has_value(); }

  /// Skips tokens until the next plausible top-level item start: an item
  /// keyword once at least as many braces have closed as opened since the
  /// error point (so keywords inside a body being skipped don't fool it).
  void recoverToItemBoundary();

  // Item parsers (operate on the member module M).
  bool parseItem();
  bool parseStruct();
  bool parseStatic();
  bool parseFunction(bool IsUnsafe);
  bool parseSyncImpl();

  /// Id-indexed build table for locals and blocks whose ids arrive out of
  /// order. In-order ids (the printer's form) go straight into the
  /// function's vectors instead.
  template <typename T> struct DenseTable {
    std::vector<T> Slots;
    std::vector<char> Present;
    unsigned Count = 0;

    bool contains(unsigned Id) const {
      return Id < Present.size() && Present[Id];
    }
    /// Inserts at \p Id; returns false if already present.
    bool insert(unsigned Id, T V) {
      if (contains(Id))
        return false;
      if (Id >= Slots.size()) {
        Slots.resize(Id + 1);
        Present.resize(Id + 1, 0);
      }
      Slots[Id] = std::move(V);
      Present[Id] = 1;
      ++Count;
      return true;
    }
    /// Moves the dense prefix \p Items into the table, leaving it empty.
    void takeDense(std::vector<T> &Items) {
      for (unsigned I = 0; I != Items.size(); ++I)
        insert(I, std::move(Items[I]));
      Items.clear();
    }
    /// First id in [0, Count) with no entry, or Count if dense.
    unsigned firstGap() const {
      for (unsigned I = 0; I != Count; ++I)
        if (!contains(I))
          return I;
      return Count;
    }
    /// Moves the entries, known dense, into \p Out at exact size.
    void moveDenseTo(std::vector<T> &Out) {
      std::vector<T> Dense;
      Dense.reserve(Count);
      for (unsigned I = 0; I != Count; ++I)
        Dense.push_back(std::move(Slots[I]));
      Out = std::move(Dense);
    }
  };

  // Function-body parsers.
  bool parseLocalDecl(std::vector<LocalDecl> &Locals,
                      DenseTable<LocalDecl> &Unordered);
  bool parseBlock(std::vector<BasicBlock> &Blocks,
                  DenseTable<BasicBlock> &Unordered);
  /// Parses one statement or terminator within a block, building it in
  /// place: a statement in \p BB's Statements, a terminator in its Term,
  /// then setting \p SawTerminator.
  bool parseBlockItem(BasicBlock &BB, bool &SawTerminator);

  // Grammar nonterminals. Each fills a default-constructed node in place.
  bool parsePath(Symbol &Out);
  bool parseType(const Type *&Out);
  bool parsePlace(Place &Out);
  bool parseOperand(Operand &Out);
  bool parseConstant(ConstValue &Out);
  bool parseOperandList(OperandList &Out, TokKind Close);
  bool parseBlockRef(BlockId &Out);
  bool parseCallTargets(BlockId &Target, BlockId &Unwind);
  /// Parses the right-hand side of "place =" into \p RV, or, when it turns
  /// out to be a call, into \p Call (a block's still-default terminator)
  /// with \p IsCall set.
  bool parseAssignRhs(Rvalue &RV, Terminator &Call, bool &IsCall);

  Lexer Lex;
  std::vector<Token> Toks;
  const Token *Tok = nullptr;
  std::optional<Error> Err;
  Module &M;
  /// Names seen in this module, so a repeated one takes no interner lock.
  SymbolCache Names;
  /// Reused buffer for multi-segment paths ("std::sync::Mutex").
  std::string PathScratch;
  /// Reused buffer for string literals with escapes.
  std::string StrScratch;
  /// Reused buffer for a signature's parameter types.
  std::vector<const Type *> ParamTypes;
};

} // namespace rs::mir

#endif // RUSTSIGHT_MIR_PARSER_H
