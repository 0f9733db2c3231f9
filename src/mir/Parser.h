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
  Parser(std::string_view Buffer, std::string_view FileName = "<mir>");

  /// Parses the whole buffer. On failure returns the first error.
  Result<Module> parseModule();

  /// Parses the whole buffer with error recovery: a malformed item records
  /// one diagnostic, the parser resynchronizes at the next top-level item
  /// boundary ('fn' / 'struct' / 'static' / 'unsafe' once braces balance),
  /// and parsing continues. One malformed function costs one diagnostic,
  /// not the module.
  ModuleParse parseModuleRecover();

  /// Convenience entry point.
  static Result<Module> parse(std::string_view Buffer,
                              std::string_view FileName = "<mir>") {
    return Parser(Buffer, FileName).parseModule();
  }

  /// Convenience recovering entry point.
  static ModuleParse parseRecover(std::string_view Buffer,
                                  std::string_view FileName = "<mir>") {
    return Parser(Buffer, FileName).parseModuleRecover();
  }

private:
  // Token plumbing. Tok is the current token.
  void bump();
  bool expect(TokKind K, const char *What);
  bool expectIdent(std::string_view S);
  bool atIdent(std::string_view S) const { return Tok.isIdent(S); }
  bool consumeIdent(std::string_view S);

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

  /// Dense id-indexed build table for locals and blocks: the common case is
  /// ids arriving in order, so this replaces the std::map (one allocation
  /// per entry) the parser used to build per function.
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
    void overwrite(unsigned Id, T V) {
      if (!contains(Id)) {
        insert(Id, std::move(V));
        return;
      }
      Slots[Id] = std::move(V);
    }
    /// First id in [0, Count) with no entry, or Count if dense.
    unsigned firstGap() const {
      for (unsigned I = 0; I != Count; ++I)
        if (!contains(I))
          return I;
      return Count;
    }
  };

  // Function-body parsers.
  bool parseLocalDecl(DenseTable<LocalDecl> &Decls);
  bool parseBlock(DenseTable<BasicBlock> &Blocks);
  /// Parses one statement or terminator within a block. Statements are
  /// appended to \p BB; when the terminator is parsed, it is stored and
  /// \p SawTerminator set.
  bool parseBlockItem(BasicBlock &BB, bool &SawTerminator);

  // Grammar nonterminals.
  bool parsePath(Symbol &Out);
  bool parseType(const Type *&Out);
  bool parsePlace(Place &Out);
  bool parseOperand(Operand &Out);
  bool parseOperandList(OperandList &Out, TokKind Close);
  bool parseBlockRef(BlockId &Out);
  bool parseCallTargets(BlockId &Target, BlockId &Unwind);
  /// Parses the right-hand side of "place =". Either an rvalue statement
  /// (IsCall=false) or a call terminator (IsCall=true, Call filled in).
  bool parseAssignRhs(Rvalue &RV, Terminator &Call, bool &IsCall);

  std::optional<BinOp> binOpFromName(std::string_view Name) const;
  std::optional<UnOp> unOpFromName(std::string_view Name) const;

  Lexer Lex;
  Token Tok;
  std::optional<Error> Err;
  Module M;
  Function *CurFn = nullptr;
  /// Reused buffer for multi-segment paths ("std::sync::Mutex").
  std::string PathScratch;
  /// Reused buffer a block's statements grow in; the block itself gets an
  /// exact-size copy (see parseBlock).
  std::vector<Statement> StmtScratch;
};

} // namespace rs::mir

#endif // RUSTSIGHT_MIR_PARSER_H
