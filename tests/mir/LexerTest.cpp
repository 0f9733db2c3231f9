#include "mir/Lexer.h"

#include <gtest/gtest.h>

#include <vector>

using namespace rs::mir;

namespace {

std::string decode(std::string_view RawWithQuotes) {
  std::string Buffer;
  return std::string(decodeStringLiteral(RawWithQuotes, Buffer));
}

std::vector<Token> lexAll(std::string_view Src) {
  Lexer L(Src, "test.mir");
  std::vector<Token> Toks;
  while (true) {
    Token T = L.next();
    bool Done = T.is(TokKind::Eof);
    Toks.push_back(std::move(T));
    if (Done)
      return Toks;
  }
}

} // namespace

TEST(Lexer, Punctuation) {
  auto Toks = lexAll("{ } ( ) [ ] , ; : :: -> = & * . < > -");
  std::vector<TokKind> Kinds;
  for (const Token &T : Toks)
    Kinds.push_back(T.K);
  std::vector<TokKind> Expected = {
      TokKind::LBrace, TokKind::RBrace,   TokKind::LParen,
      TokKind::RParen, TokKind::LBracket, TokKind::RBracket,
      TokKind::Comma,  TokKind::Semi,     TokKind::Colon,
      TokKind::ColonColon, TokKind::Arrow, TokKind::Eq,
      TokKind::Amp,    TokKind::Star,     TokKind::Dot,
      TokKind::Lt,     TokKind::Gt,       TokKind::Minus,
      TokKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, LocalsVsIdents) {
  auto Toks = lexAll("_12 _1abc _ bb3 StorageLive");
  ASSERT_EQ(Toks.size(), 6u);
  EXPECT_EQ(Toks[0].K, TokKind::Local);
  EXPECT_EQ(Toks[0].IntVal, 12);
  // "_1abc" is an identifier, not local 1.
  EXPECT_EQ(Toks[1].K, TokKind::Ident);
  EXPECT_EQ(Toks[1].Text, "_1abc");
  EXPECT_EQ(Toks[2].K, TokKind::Ident);
  EXPECT_EQ(Toks[3].K, TokKind::Ident);
  EXPECT_EQ(Toks[3].Text, "bb3");
  EXPECT_EQ(Toks[4].Text, "StorageLive");
}

TEST(Lexer, IntsAndSuffixes) {
  auto Toks = lexAll("42 0 7_i32 100_usize");
  EXPECT_EQ(Toks[0].IntVal, 42);
  EXPECT_TRUE(Toks[0].Suffix.empty());
  EXPECT_EQ(Toks[2].IntVal, 7);
  EXPECT_EQ(Toks[2].Suffix, "i32");
  EXPECT_EQ(Toks[3].Suffix, "usize");
}

TEST(Lexer, Strings) {
  auto Toks = lexAll("\"hello\" \"a\\\"b\" \"line\\n\"");
  EXPECT_EQ(Toks[0].K, TokKind::String);
  EXPECT_EQ(decode(Toks[0].Text), "hello");
  EXPECT_EQ(decode(Toks[1].Text), "a\"b");
  EXPECT_EQ(decode(Toks[2].Text), "line\n");
  // Text keeps the raw source range.
  EXPECT_EQ(Toks[0].Text, "\"hello\"");
}

TEST(Lexer, CommentsAndLocations) {
  Lexer L("// header\n  fn // trailing\nx", "f.mir");
  Token T1 = L.next();
  EXPECT_EQ(T1.Text, "fn");
  EXPECT_EQ(T1.Loc.line(), 2u);
  EXPECT_EQ(T1.Loc.column(), 3u);
  Token T2 = L.next();
  EXPECT_EQ(T2.Text, "x");
  EXPECT_EQ(T2.Loc.line(), 3u);
  EXPECT_EQ(T2.Loc.file(), "f.mir");
}

TEST(Lexer, ErrorToken) {
  auto Toks = lexAll("@");
  EXPECT_EQ(Toks[0].K, TokKind::Error);
}

TEST(Lexer, EmptyInput) {
  auto Toks = lexAll("   // only trivia\n");
  ASSERT_EQ(Toks.size(), 1u);
  EXPECT_EQ(Toks[0].K, TokKind::Eof);
}

TEST(Lexer, CrlfTabsAndCommentAtEofKeepLocations) {
  Lexer L("fn\r\n\tx // no newline", "crlf.mir");
  Token Fn = L.next();
  EXPECT_TRUE(Fn.is(Kw::Fn));
  EXPECT_EQ(Fn.Loc.line(), 1u);
  EXPECT_EQ(Fn.Loc.column(), 1u);
  // A '\r' is trivia, a tab is one column.
  Token X = L.next();
  EXPECT_EQ(X.Text, "x");
  EXPECT_EQ(X.Loc.line(), 2u);
  EXPECT_EQ(X.Loc.column(), 2u);
  // The comment runs to the end of the buffer; Eof sits just past it.
  Token End = L.next();
  EXPECT_TRUE(End.is(TokKind::Eof));
  EXPECT_EQ(End.Loc.line(), 2u);
  EXPECT_EQ(End.Loc.column(), 17u);
  EXPECT_TRUE(L.next().is(TokKind::Eof));
}

TEST(Lexer, StringWithEscapedQuoteAndNewlineKeepsLocations) {
  auto Toks = lexAll("\"a\\\"b\nc\" x\n  y");
  ASSERT_EQ(Toks.size(), 4u);
  EXPECT_EQ(Toks[0].K, TokKind::String);
  EXPECT_EQ(Toks[0].Text, "\"a\\\"b\nc\"");
  EXPECT_EQ(Toks[0].Loc.line(), 1u);
  EXPECT_EQ(Toks[0].Loc.column(), 1u);
  EXPECT_EQ(decode(Toks[0].Text), "a\"b\nc");
  // The newline inside the literal starts line 2.
  EXPECT_EQ(Toks[1].Text, "x");
  EXPECT_EQ(Toks[1].Loc.line(), 2u);
  EXPECT_EQ(Toks[1].Loc.column(), 4u);
  EXPECT_EQ(Toks[2].Text, "y");
  EXPECT_EQ(Toks[2].Loc.line(), 3u);
  EXPECT_EQ(Toks[2].Loc.column(), 3u);
}

TEST(Lexer, IdentifiersThatStartLikeKeywordsAreNames) {
  auto Toks = lexAll("fnord returned bb bb1x _1abc fn return bb12 7_i32 7_q");
  ASSERT_EQ(Toks.size(), 11u);
  for (size_t I = 0; I != 5; ++I) {
    EXPECT_EQ(Toks[I].K, TokKind::Ident) << Toks[I].Text;
    EXPECT_EQ(Toks[I].Keyword, Kw::None) << Toks[I].Text;
  }
  EXPECT_EQ(Toks[4].Text, "_1abc");
  EXPECT_TRUE(Toks[5].is(Kw::Fn));
  EXPECT_TRUE(Toks[6].is(Kw::Return));
  EXPECT_TRUE(Toks[7].is(Kw::BlockLabel));
  EXPECT_EQ(Toks[7].IntVal, 12);
  // An integer carries its suffix's id; an unknown suffix has none.
  EXPECT_EQ(Toks[8].K, TokKind::Int);
  EXPECT_EQ(Toks[8].Keyword, Kw::I32);
  EXPECT_EQ(Toks[9].Suffix, "q");
  EXPECT_EQ(Toks[9].Keyword, Kw::None);
}

TEST(Lexer, EveryKeywordSpellingHasItsId) {
  const std::pair<const char *, Kw> Spellings[] = {
      {"fn", Kw::Fn},           {"struct", Kw::Struct},
      {"static", Kw::Static},   {"unsafe", Kw::Unsafe},
      {"impl", Kw::Impl},       {"Sync", Kw::Sync},
      {"for", Kw::For},         {"let", Kw::Let},
      {"mut", Kw::Mut},         {"Drop", Kw::DropTrait},
      {"StorageLive", Kw::StorageLive},
      {"StorageDead", Kw::StorageDead},
      {"nop", Kw::Nop},         {"goto", Kw::Goto},
      {"return", Kw::Return},   {"resume", Kw::Resume},
      {"unreachable", Kw::Unreachable},
      {"drop", Kw::Drop},       {"switchInt", Kw::SwitchInt},
      {"otherwise", Kw::Otherwise},
      {"assert", Kw::Assert},   {"unwind", Kw::Unwind},
      {"copy", Kw::Copy},       {"move", Kw::Move},
      {"const", Kw::Const},     {"as", Kw::As},
      {"raw", Kw::Raw},         {"discriminant", Kw::Discriminant},
      {"Len", Kw::Len},         {"true", Kw::True},
      {"false", Kw::False},     {"Add", Kw::Add},
      {"Offset", Kw::Offset},   {"Not", Kw::Not},
      {"Neg", Kw::Neg},         {"bool", Kw::Bool},
      {"usize", Kw::USize},     {"f64", Kw::F64},
  };
  for (const auto &[Text, Id] : Spellings) {
    auto Toks = lexAll(Text);
    ASSERT_EQ(Toks.size(), 2u) << Text;
    EXPECT_TRUE(Toks[0].is(Id)) << Text;
  }
  // Same length and hash neighbourhood, different spelling.
  for (const char *Text : {"fm", "Fn", "lett", "Copy", "StorageLivf", "i33"})
    EXPECT_EQ(lexAll(Text)[0].Keyword, Kw::None) << Text;
}
