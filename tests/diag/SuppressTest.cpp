//===----------------------------------------------------------------------===//
// The inline-suppression scanner: trailing and standalone rustsight-allow
// comments, both rule spellings, the one-line reach rule, and the
// RS-META-001 unknown-token path with its machine-applicable fixed line.
//===----------------------------------------------------------------------===//

#include "diag/Suppress.h"

#include <gtest/gtest.h>

using namespace rs::diag;

TEST(Suppress, EmptySourceHasNoSuppressions) {
  EXPECT_TRUE(scanSuppressions("").empty());
  EXPECT_TRUE(scanSuppressions("fn f() {\n    bb0: { return; }\n}\n").empty());
}

TEST(Suppress, TrailingCommentAllowsOwnLine) {
  SuppressionSet S = scanSuppressions(
      "fn f() {\n"
      "    _0 = copy (*_2); // rustsight-allow(use-after-free)\n"
      "}\n");
  ASSERT_EQ(S.ByLine.size(), 1u);
  EXPECT_TRUE(S.allows(RuleId::UseAfterFree, 2));
  EXPECT_FALSE(S.allows(RuleId::UseAfterFree, 1));
  EXPECT_FALSE(S.allows(RuleId::DoubleFree, 2));
  EXPECT_TRUE(S.Unknown.empty());
}

TEST(Suppress, StandaloneCommentReachesTheLineBelow) {
  SuppressionSet S = scanSuppressions(
      "// rustsight-allow(double-lock)\n"
      "lock(_1);\n"
      "lock(_1);\n");
  EXPECT_TRUE(S.allows(RuleId::DoubleLock, 1));
  EXPECT_TRUE(S.allows(RuleId::DoubleLock, 2));
  // One line of reach only — not the whole file.
  EXPECT_FALSE(S.allows(RuleId::DoubleLock, 3));
}

TEST(Suppress, StableIdAndShortNameBothResolve) {
  SuppressionSet S = scanSuppressions(
      "x; // rustsight-allow(RS-UAF-001, double-free)\n");
  EXPECT_TRUE(S.allows(RuleId::UseAfterFree, 1));
  EXPECT_TRUE(S.allows(RuleId::DoubleFree, 1));
}

TEST(Suppress, InfraRulesCanBeSuppressedToo) {
  SuppressionSet S = scanSuppressions("x; // rustsight-allow(RS-ENGINE-001)\n");
  EXPECT_TRUE(S.allows(RuleId::FileDegraded, 1));
}

TEST(Suppress, UnknownTokenIsSurfacedWithAFixedLine) {
  SuppressionSet S = scanSuppressions(
      "    drop(_1); // rustsight-allow(use-after-free, totally-bogus)\n");
  // The known rule still suppresses.
  EXPECT_TRUE(S.allows(RuleId::UseAfterFree, 1));
  ASSERT_EQ(S.Unknown.size(), 1u);
  EXPECT_EQ(S.Unknown[0].Line, 1u);
  EXPECT_EQ(S.Unknown[0].Token, "totally-bogus");
  // The fix keeps the known rule and drops the bogus one.
  EXPECT_EQ(S.Unknown[0].FixedLine,
            "    drop(_1); // rustsight-allow(use-after-free)");
}

TEST(Suppress, AllUnknownTokensRemoveTheComment) {
  SuppressionSet S =
      scanSuppressions("    drop(_1); // rustsight-allow(nope)\n");
  EXPECT_TRUE(S.ByLine.empty());
  ASSERT_EQ(S.Unknown.size(), 1u);
  // Nothing remains to allow, so the fix strips the comment entirely.
  EXPECT_EQ(S.Unknown[0].FixedLine, "drop(_1);");
}

TEST(Suppress, UnknownTokenColumnPointsAtTheToken) {
  std::string Line = "x; // rustsight-allow(bogus)\n";
  SuppressionSet S = scanSuppressions(Line);
  ASSERT_EQ(S.Unknown.size(), 1u);
  EXPECT_EQ(Line.substr(S.Unknown[0].Col - 1, 5), "bogus");
}

TEST(Suppress, DuplicateRulesDeduplicate) {
  SuppressionSet S = scanSuppressions(
      "x; // rustsight-allow(use-after-free, RS-UAF-001)\n");
  ASSERT_EQ(S.ByLine.count(1u), 1u);
  EXPECT_EQ(S.ByLine.at(1u).size(), 1u);
}

TEST(Suppress, CrlfAndUnclosedListsAreTolerated) {
  SuppressionSet S =
      scanSuppressions("x; // rustsight-allow(double-free\r\ny;\r\n");
  EXPECT_TRUE(S.allows(RuleId::DoubleFree, 1));
}

TEST(Suppress, MarkerOnTheFirstLine) {
  SuppressionSet S =
      scanSuppressions("// rustsight-allow(double-free)\nx;\ny;\n");
  ASSERT_EQ(S.ByLine.size(), 1u);
  EXPECT_EQ(S.ByLine.count(1u), 1u);
  EXPECT_TRUE(S.allows(RuleId::DoubleFree, 2));
  EXPECT_FALSE(S.allows(RuleId::DoubleFree, 3));
}

TEST(Suppress, CrlfLinesKeepTheirNumbersAndFixedLines) {
  SuppressionSet S = scanSuppressions(
      "a;\r\nb;\r\nx; // rustsight-allow(double-lock, bogus)\r\ny;\r\n");
  ASSERT_EQ(S.ByLine.size(), 1u);
  EXPECT_TRUE(S.allows(RuleId::DoubleLock, 3));
  EXPECT_FALSE(S.allows(RuleId::DoubleLock, 2));
  ASSERT_EQ(S.Unknown.size(), 1u);
  EXPECT_EQ(S.Unknown[0].Line, 3u);
  EXPECT_EQ(S.Unknown[0].Token, "bogus");
  // The carriage return is not part of the line the fix rewrites.
  EXPECT_EQ(S.Unknown[0].FixedLine, "x; // rustsight-allow(double-lock)");
}

TEST(Suppress, MarkerOnALastLineWithoutNewline) {
  SuppressionSet S =
      scanSuppressions("a;\nb;\nx; // rustsight-allow(use-after-free)");
  ASSERT_EQ(S.ByLine.size(), 1u);
  EXPECT_TRUE(S.allows(RuleId::UseAfterFree, 3));
  EXPECT_FALSE(S.allows(RuleId::UseAfterFree, 2));
}

TEST(Suppress, TwoMarkersOnOneLineScanTheLineOnce) {
  // The line is scanned once: its first allow list after the comment
  // opener counts, and the next line's marker keeps its own number.
  SuppressionSet S = scanSuppressions(
      "x; // rustsight-allow(double-free) rustsight-allow(double-lock)\n"
      "y;\n"
      "z; // rustsight-allow(use-after-free)\n");
  ASSERT_EQ(S.ByLine.size(), 2u);
  ASSERT_EQ(S.ByLine.at(1u).size(), 1u);
  EXPECT_EQ(S.ByLine.at(1u)[0], RuleId::DoubleFree);
  EXPECT_FALSE(S.allows(RuleId::DoubleLock, 1));
  EXPECT_TRUE(S.allows(RuleId::UseAfterFree, 3));
  EXPECT_TRUE(S.Unknown.empty());
}
