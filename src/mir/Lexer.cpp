#include "mir/Lexer.h"

#include "support/SmallVector.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

using namespace rs;
using namespace rs::mir;

namespace {

// Character classes, one table lookup per byte. Bytes outside ASCII are
// in no class, as in support/StringUtils.h.
enum : uint8_t {
  IdentStart = 1, ///< [A-Za-z_]
  Digit = 2,      ///< [0-9]
  Space = 4,      ///< ' ', '\t', '\r', '\n'
  IdentCont = IdentStart | Digit,
};

constexpr std::array<uint8_t, 256> makeClasses() {
  std::array<uint8_t, 256> T{};
  for (int C = 'a'; C <= 'z'; ++C)
    T[C] = IdentStart;
  for (int C = 'A'; C <= 'Z'; ++C)
    T[C] = IdentStart;
  T['_'] = IdentStart;
  for (int C = '0'; C <= '9'; ++C)
    T[C] = Digit;
  T[' '] = T['\t'] = T['\r'] = T['\n'] = Space;
  return T;
}

constexpr std::array<uint8_t, 256> Classes = makeClasses();

inline bool in(char C, uint8_t Class) {
  return Classes[static_cast<unsigned char>(C)] & Class;
}

struct KeywordSpelling {
  std::string_view Text;
  Kw Id;
};

constexpr KeywordSpelling Keywords[] = {
    {"fn", Kw::Fn},
    {"struct", Kw::Struct},
    {"static", Kw::Static},
    {"unsafe", Kw::Unsafe},
    {"impl", Kw::Impl},
    {"Sync", Kw::Sync},
    {"for", Kw::For},
    {"let", Kw::Let},
    {"mut", Kw::Mut},
    {"Drop", Kw::DropTrait},
    {"StorageLive", Kw::StorageLive},
    {"StorageDead", Kw::StorageDead},
    {"nop", Kw::Nop},
    {"goto", Kw::Goto},
    {"return", Kw::Return},
    {"resume", Kw::Resume},
    {"unreachable", Kw::Unreachable},
    {"drop", Kw::Drop},
    {"switchInt", Kw::SwitchInt},
    {"otherwise", Kw::Otherwise},
    {"assert", Kw::Assert},
    {"unwind", Kw::Unwind},
    {"copy", Kw::Copy},
    {"move", Kw::Move},
    {"const", Kw::Const},
    {"as", Kw::As},
    {"raw", Kw::Raw},
    {"discriminant", Kw::Discriminant},
    {"Len", Kw::Len},
    {"true", Kw::True},
    {"false", Kw::False},
    {"Add", Kw::Add},
    {"Sub", Kw::Sub},
    {"Mul", Kw::Mul},
    {"Div", Kw::Div},
    {"Rem", Kw::Rem},
    {"BitAnd", Kw::BitAnd},
    {"BitOr", Kw::BitOr},
    {"BitXor", Kw::BitXor},
    {"Shl", Kw::Shl},
    {"Shr", Kw::Shr},
    {"Eq", Kw::Eq},
    {"Ne", Kw::Ne},
    {"Lt", Kw::Lt},
    {"Le", Kw::Le},
    {"Gt", Kw::Gt},
    {"Ge", Kw::Ge},
    {"Offset", Kw::Offset},
    {"Not", Kw::Not},
    {"Neg", Kw::Neg},
    {"bool", Kw::Bool},
    {"char", Kw::Char},
    {"str", Kw::Str},
    {"i8", Kw::I8},
    {"i16", Kw::I16},
    {"i32", Kw::I32},
    {"i64", Kw::I64},
    {"isize", Kw::ISize},
    {"u8", Kw::U8},
    {"u16", Kw::U16},
    {"u32", Kw::U32},
    {"u64", Kw::U64},
    {"usize", Kw::USize},
    {"f32", Kw::F32},
    {"f64", Kw::F64},
};

/// A perfect hash of the keyword spellings (all at least two bytes long):
/// its first, second and last bytes and its length pick one slot, so an
/// identifier costs one table read and at most one compare.
constexpr unsigned keywordSlot(std::string_view S) {
  return (static_cast<unsigned char>(S[0]) +
          static_cast<unsigned char>(S[1]) +
          63u * static_cast<unsigned char>(S.back()) + 27u * S.size()) &
         255u;
}

/// A keyword table slot: the spelling as two little-endian words, zero
/// padded, so a candidate compares with two loads and no per-byte loop.
struct KeywordSlot {
  uint64_t Lo = 0;
  uint64_t Hi = 0;
  uint8_t Len = 0;
  Kw Id = Kw::None;
};

constexpr size_t LongestKeyword = 12;

constexpr std::array<KeywordSlot, 256> makeKeywordTable() {
  std::array<KeywordSlot, 256> T{};
  for (const KeywordSpelling &K : Keywords) {
    KeywordSlot &Slot = T[keywordSlot(K.Text)];
    if (Slot.Id != Kw::None || K.Text.size() > LongestKeyword)
      throw "bad keyword table"; // Fails the constant evaluation.
    for (size_t I = 0; I != K.Text.size(); ++I)
      (I < 8 ? Slot.Lo : Slot.Hi) |=
          uint64_t(static_cast<unsigned char>(K.Text[I])) << (8 * (I % 8));
    Slot.Len = static_cast<uint8_t>(K.Text.size());
    Slot.Id = K.Id;
  }
  return T;
}

constexpr std::array<KeywordSlot, 256> KeywordTable = makeKeywordTable();

/// Reads the \p N < 8 bytes at \p P as a little-endian word.
inline uint64_t loadPartial(const char *P, size_t N) {
  uint64_t W = 0;
  for (size_t I = 0; I != N; ++I)
    W |= uint64_t(static_cast<unsigned char>(P[I])) << (8 * I);
  return W;
}

/// The keyword id of the identifier [B, B + Len). \p End bounds the
/// buffer: with 16 bytes left the spelling is read as two words.
inline Kw classify(const char *B, size_t Len, const char *End) {
  if (Len < 2 || Len > LongestKeyword)
    return Kw::None;
  const KeywordSlot &K = KeywordTable[keywordSlot(std::string_view(B, Len))];
  if (K.Len != Len)
    return Kw::None;
  uint64_t Lo, Hi;
  if (std::endian::native == std::endian::little && End - B >= 16) {
    std::memcpy(&Lo, B, 8);
    std::memcpy(&Hi, B + 8, 8);
    Lo &= Len >= 8 ? ~uint64_t(0) : (uint64_t(1) << (8 * Len)) - 1;
    Hi &= Len <= 8 ? 0 : (uint64_t(1) << (8 * (Len - 8))) - 1;
  } else {
    Lo = loadPartial(B, std::min<size_t>(Len, 8));
    Hi = Len > 8 ? loadPartial(B + 8, Len - 8) : 0;
  }
  return Lo == K.Lo && Hi == K.Hi ? K.Id : Kw::None;
}

} // namespace

Lexer::Lexer(std::string_view Buffer, std::string_view FileName)
    : St{Buffer.data(), Buffer.data() + Buffer.size(), Buffer.data(),
         internFileName(FileName), 1} {}

std::string_view rs::mir::decodeStringLiteral(std::string_view RawWithQuotes,
                                              std::string &Out) {
  std::string_view Raw = RawWithQuotes;
  if (!Raw.empty() && Raw.front() == '"')
    Raw.remove_prefix(1);
  if (!Raw.empty() && Raw.back() == '"')
    Raw.remove_suffix(1);
  Out.clear();
  if (Raw.find('\\') == std::string_view::npos)
    return Raw;
  for (size_t I = 0; I != Raw.size(); ++I) {
    char C = Raw[I];
    if (C == '\\' && I + 1 < Raw.size()) {
      char E = Raw[++I];
      if (E == 'n')
        Out += '\n';
      else if (E == 't')
        Out += '\t';
      else
        Out += E; // \" \\ and any other escape map to the raw char.
      continue;
    }
    Out += C;
  }
  return Out;
}

// Lines are counted only where a newline can occur: in trivia and inside
// string literals. Every other token is a run of bytes on one line.
[[gnu::always_inline]] inline void Lexer::lex(State &S, Token &T) {
  const char *P = S.Cur;
  const char *E = S.End;
  // Trivia: whitespace and "//" comments.
  while (P != E) {
    unsigned char C = static_cast<unsigned char>(*P);
    if (C == ' ') {
      ++P;
      continue;
    }
    if (C > ' ') {
      // Most tokens start right here; only "//" continues the trivia.
      if (C != '/' || P + 1 == E || P[1] != '/')
        break;
      const void *NL = std::memchr(P, '\n', static_cast<size_t>(E - P));
      P = NL ? static_cast<const char *>(NL) : E;
      continue;
    }
    if (C == '\n') {
      ++S.Line;
      S.LineStart = ++P;
      // Indentation: a run of spaces.
      while (P != E && *P == ' ')
        ++P;
      continue;
    }
    if (!in(static_cast<char>(C), Space))
      break;
    ++P;
  }

  const char *Begin = P;
  T.Loc = SourceLocation(S.File, S.Line,
                         static_cast<unsigned>(P - S.LineStart + 1));
  T.Keyword = Kw::None;
  T.IntVal = 0;
  T.Suffix = std::string_view();

  if (P == E) {
    S.Cur = P;
    T.K = TokKind::Eof;
    T.Text = std::string_view(P, 0);
    return;
  }

  char C = *P;

  if (in(C, IdentStart)) {
    // Local names: '_' followed by digits (and nothing identifier-like
    // after). "_1abc" is an identifier.
    if (C == '_' && P + 1 != E && in(P[1], Digit)) {
      const char *Q = P + 1;
      uint64_t Value = 0;
      while (Q != E && in(*Q, Digit))
        Value = Value * 10 + static_cast<uint64_t>(*Q++ - '0');
      if (Q == E || !in(*Q, IdentCont)) {
        S.Cur = Q;
        T.K = TokKind::Local;
        T.Text = std::string_view(Begin, static_cast<size_t>(Q - Begin));
        T.IntVal = static_cast<int64_t>(Value);
        return;
      }
    }
    ++P;
    while (P != E && in(*P, IdentCont))
      ++P;
    S.Cur = P;
    T.K = TokKind::Ident;
    T.Text = std::string_view(Begin, static_cast<size_t>(P - Begin));
    // "bbN": the label's number, in BlockId's unsigned arithmetic.
    if (C == 'b' && T.Text.size() >= 3 && Begin[1] == 'b') {
      uint32_t Id = 0;
      const char *Q = Begin + 2;
      while (Q != P && in(*Q, Digit))
        Id = Id * 10 + static_cast<uint32_t>(*Q++ - '0');
      if (Q == P) {
        T.Keyword = Kw::BlockLabel;
        T.IntVal = Id;
      }
      return;
    }
    T.Keyword = classify(Begin, T.Text.size(), E);
    return;
  }

  if (in(C, Digit)) {
    uint64_t Value = 0;
    while (P != E && in(*P, Digit))
      Value = Value * 10 + static_cast<uint64_t>(*P++ - '0');
    T.K = TokKind::Int;
    T.IntVal = static_cast<int64_t>(Value);
    // Optional type suffix: "42_i32".
    if (P + 1 < E && *P == '_' && in(P[1], IdentStart)) {
      const char *SuffixBegin = ++P;
      while (P != E && in(*P, IdentCont))
        ++P;
      T.Suffix =
          std::string_view(SuffixBegin, static_cast<size_t>(P - SuffixBegin));
      T.Keyword = classify(SuffixBegin, T.Suffix.size(), E);
    }
    S.Cur = P;
    T.Text = std::string_view(Begin, static_cast<size_t>(P - Begin));
    return;
  }

  if (C == '"') {
    ++P;
    while (P != E && *P != '"') {
      if (*P == '\\' && P + 1 != E)
        ++P; // Skip the escaped character too.
      if (*P == '\n') {
        ++S.Line;
        S.LineStart = P + 1;
      }
      ++P;
    }
    if (P != E)
      ++P; // Closing quote.
    S.Cur = P;
    // Text keeps the raw source range (with quotes); the parser decodes it
    // on demand, so lexing a string allocates nothing.
    T.K = TokKind::String;
    T.Text = std::string_view(Begin, static_cast<size_t>(P - Begin));
    return;
  }

  ++P;
  switch (C) {
  case '{':
    T.K = TokKind::LBrace;
    break;
  case '}':
    T.K = TokKind::RBrace;
    break;
  case '(':
    T.K = TokKind::LParen;
    break;
  case ')':
    T.K = TokKind::RParen;
    break;
  case '[':
    T.K = TokKind::LBracket;
    break;
  case ']':
    T.K = TokKind::RBracket;
    break;
  case ',':
    T.K = TokKind::Comma;
    break;
  case ';':
    T.K = TokKind::Semi;
    break;
  case ':':
    T.K = TokKind::Colon;
    if (P != E && *P == ':') {
      ++P;
      T.K = TokKind::ColonColon;
    }
    break;
  case '-':
    T.K = TokKind::Minus;
    if (P != E && *P == '>') {
      ++P;
      T.K = TokKind::Arrow;
    }
    break;
  case '=':
    T.K = TokKind::Eq;
    break;
  case '&':
    T.K = TokKind::Amp;
    break;
  case '*':
    T.K = TokKind::Star;
    break;
  case '.':
    T.K = TokKind::Dot;
    break;
  case '<':
    T.K = TokKind::Lt;
    break;
  case '>':
    T.K = TokKind::Gt;
    break;
  default:
    T.K = TokKind::Error;
    break;
  }
  S.Cur = P;
  T.Text = std::string_view(Begin, static_cast<size_t>(P - Begin));
}

Token Lexer::next() {
  Token T;
  lex(St, T);
  return T;
}

void Lexer::tokenizeItems(std::vector<Token> &Out, size_t MinTokens) {
  // Open brackets of the batch: the token index of each, and for a brace
  // the ';' and '{' found directly inside it so far.
  struct Open {
    uint32_t Index;
    TokKind K;
    uint32_t Semis = 0;
    uint32_t Groups = 0;
  };
  SmallVector<Open, 16> Stack;
  State S = St;
  Out.clear();
  while (true) {
    Token &T = Out.emplace_back();
    lex(S, T);
    switch (T.K) {
    case TokKind::Eof:
      St = S;
      return;
    case TokKind::LBrace:
      if (!Stack.empty() && Stack.back().K == TokKind::LBrace)
        ++Stack.back().Groups;
      [[fallthrough]];
    case TokKind::LParen:
    case TokKind::LBracket:
      Stack.push_back({static_cast<uint32_t>(Out.size() - 1), T.K});
      continue;
    case TokKind::RParen:
    case TokKind::RBracket:
      if (!Stack.empty() &&
          Stack.back().K == (T.K == TokKind::RParen ? TokKind::LParen
                                                    : TokKind::LBracket))
        Stack.pop_back();
      break;
    case TokKind::RBrace:
      // A '}' also closes whatever was left open inside its braces.
      while (!Stack.empty()) {
        Open O = Stack.back();
        Stack.pop_back();
        if (O.K == TokKind::LBrace) {
          Out[O.Index].IntVal = static_cast<int64_t>(
              (static_cast<uint64_t>(O.Groups) << 32) | O.Semis);
          break;
        }
      }
      break;
    case TokKind::Semi:
      if (!Stack.empty() && Stack.back().K == TokKind::LBrace)
        ++Stack.back().Semis;
      break;
    default:
      continue;
    }
    if (Stack.empty() && Out.size() >= MinTokens) {
      St = S;
      return;
    }
  }
}
