#include "testgen/Scorecard.h"

#include "detectors/Diagnostics.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

using namespace rs;
using namespace rs::testgen;

namespace {

engine::FileReport okReport(std::string Path,
                            std::vector<detectors::BugKind> Kinds) {
  engine::FileReport R;
  R.Path = std::move(Path);
  R.Status = engine::EngineStatus::Ok;
  for (detectors::BugKind K : Kinds) {
    detectors::Diagnostic D;
    D.Kind = K;
    D.Function = "f";
    R.Findings.push_back(D);
  }
  return R;
}

TEST(ScorecardTest, MetricEdgeConventions) {
  DetectorScore S;
  // Nothing reported, nothing expected: vacuously perfect.
  EXPECT_DOUBLE_EQ(S.precision(), 1.0);
  EXPECT_DOUBLE_EQ(S.recall(), 1.0);
  EXPECT_DOUBLE_EQ(S.f1(), 1.0);

  S.TP = 3;
  S.FP = 1;
  S.FN = 2;
  EXPECT_DOUBLE_EQ(S.precision(), 0.75);
  EXPECT_DOUBLE_EQ(S.recall(), 0.6);
  EXPECT_NEAR(S.f1(), 2 * 0.75 * 0.6 / (0.75 + 0.6), 1e-12);

  // All misses: F1 collapses to 0 without dividing by zero.
  DetectorScore Z;
  Z.FP = 1;
  Z.FN = 1;
  EXPECT_DOUBLE_EQ(Z.precision(), 0.0);
  EXPECT_DOUBLE_EQ(Z.recall(), 0.0);
  EXPECT_DOUBLE_EQ(Z.f1(), 0.0);
}

TEST(ScorecardTest, ScoresConfusionQuadrants) {
  engine::CorpusReport Report;
  Report.Files.push_back(
      okReport("/x/pos_hit.mir", {detectors::BugKind::UseAfterFree}));
  Report.Files.push_back(okReport("/x/pos_miss.mir", {}));
  Report.Files.push_back(
      okReport("/x/neg_hit.mir", {detectors::BugKind::UseAfterFree}));
  Report.Files.push_back(okReport("/x/neg_clean.mir", {}));

  Manifest Man;
  Man.Cases.push_back({"pos_hit.mir", "use-after-free", true});
  Man.Cases.push_back({"pos_miss.mir", "use-after-free", true});
  Man.Cases.push_back({"neg_hit.mir", "use-after-free", false});
  Man.Cases.push_back({"neg_clean.mir", "use-after-free", false});
  Man.Cases.push_back({"absent.mir", "use-after-free", true});

  Scorecard Card = scoreReport(Report, Man);
  ASSERT_EQ(Card.Scores.size(), 1u);
  const DetectorScore &S = Card.Scores[0];
  EXPECT_EQ(S.Detector, "use-after-free");
  EXPECT_EQ(S.TP, 1u);
  EXPECT_EQ(S.FN, 1u);
  EXPECT_EQ(S.FP, 1u);
  EXPECT_EQ(S.TN, 1u);
  EXPECT_EQ(Card.CasesScored, 4u);
  EXPECT_EQ(Card.CasesUnmatched, 1u);
  EXPECT_EQ(Card.FilesAnalyzed, 4u);
}

TEST(ScorecardTest, StarLabelExpandsToEveryDetector) {
  engine::CorpusReport Report;
  Report.Files.push_back(okReport("/x/clean.mir", {}));

  Manifest Man;
  Man.Cases.push_back({"clean.mir", "*", false});

  Scorecard Card = scoreReport(Report, Man);
  // One TN per battery detector.
  EXPECT_GE(Card.Scores.size(), 9u);
  for (const DetectorScore &S : Card.Scores) {
    EXPECT_EQ(S.TN, 1u) << S.Detector;
    EXPECT_EQ(S.TP + S.FP + S.FN, 0u) << S.Detector;
  }
}

TEST(ScorecardTest, ManifestRoundTripsThroughDisk) {
  std::filesystem::path P =
      std::filesystem::temp_directory_path() / "rs_manifest_test.json";
  {
    std::ofstream Out(P);
    Out << R"({"version":1,"cases":[)"
        << R"({"file":"a.mir","detector":"double-lock","positive":true},)"
        << R"({"file":"b.mir","detector":"*","positive":false}]})";
  }
  std::string Error;
  auto Man = loadManifest(P.string(), &Error);
  ASSERT_TRUE(Man.has_value()) << Error;
  ASSERT_EQ(Man->Cases.size(), 2u);
  EXPECT_EQ(Man->Cases[0].File, "a.mir");
  EXPECT_EQ(Man->Cases[0].Detector, "double-lock");
  EXPECT_TRUE(Man->Cases[0].Positive);
  EXPECT_EQ(Man->Cases[1].Detector, "*");
  std::filesystem::remove(P);
}

TEST(ScorecardTest, ManifestErrorsAreReported) {
  std::string Error;
  EXPECT_FALSE(loadManifest("/nonexistent/manifest.json", &Error));
  EXPECT_NE(Error.find("cannot read"), std::string::npos);

  std::filesystem::path P =
      std::filesystem::temp_directory_path() / "rs_manifest_bad.json";
  {
    std::ofstream Out(P);
    Out << R"({"cases":[{"detector":"x","positive":true}]})"; // no file
  }
  EXPECT_FALSE(loadManifest(P.string(), &Error));
  EXPECT_NE(Error.find("missing"), std::string::npos);
  std::filesystem::remove(P);
}

TEST(ScorecardTest, BaselineComparisonFlagsRegressions) {
  engine::CorpusReport Report;
  Report.Files.push_back(okReport("/x/pos.mir", {}));
  Manifest Man;
  Man.Cases.push_back({"pos.mir", "use-after-free", true}); // FN -> f1 0

  Scorecard Card = scoreReport(Report, Man);
  auto Regressions = compareToBaseline(
      Card, R"({"f1":{"use-after-free":"1.0000"}})");
  ASSERT_EQ(Regressions.size(), 1u);
  EXPECT_NE(Regressions[0].find("below baseline"), std::string::npos);

  // Matching baseline passes.
  EXPECT_TRUE(
      compareToBaseline(Card, R"({"f1":{"use-after-free":"0.0000"}})")
          .empty());
  // Malformed baselines are loud, not silent.
  EXPECT_FALSE(compareToBaseline(Card, "not json").empty());
}

// A detector with only negative cases has nothing to measure recall on: it
// renders "unscored" everywhere, never a vacuous 1.0000, and a baseline
// comparison flags it.
TEST(ScorecardTest, BenignOnlyDetectorIsUnscored) {
  engine::CorpusReport Report;
  Report.Files.push_back(okReport("/x/cv_ok.mir", {}));
  Report.Files.push_back(
      okReport("/x/uaf_bug.mir", {detectors::BugKind::UseAfterFree}));
  Manifest Man;
  Man.Cases.push_back({"cv_ok.mir", "missing-wakeup", false});
  Man.Cases.push_back({"uaf_bug.mir", "use-after-free", true});

  Scorecard Card = scoreReport(Report, Man);
  const DetectorScore *MW = Card.find("missing-wakeup");
  ASSERT_NE(MW, nullptr);
  EXPECT_EQ(MW->TN, 1u);
  EXPECT_FALSE(MW->scored());
  EXPECT_TRUE(Card.find("use-after-free")->scored());

  std::string Text = Card.renderText();
  size_t Row = Text.find("missing-wakeup");
  ASSERT_NE(Row, std::string::npos);
  std::string Line = Text.substr(Row, Text.find('\n', Row) - Row);
  EXPECT_NE(Line.find("1.0000  unscored  unscored"), std::string::npos)
      << Line;
  EXPECT_NE(Card.renderJson().find(
                R"("name":"missing-wakeup","tp":0,"fp":0,"fn":0,"tn":1,)"
                R"("precision":"1.0000","recall":"unscored","f1":"unscored")"),
            std::string::npos)
      << Card.renderJson();
  EXPECT_EQ(Card.renderBaselineJson(),
            R"({"f1":{"use-after-free":"1.0000","missing-wakeup":"unscored"}})");

  // Even against its own baseline, an unscored detector is a regression.
  auto Regressions = compareToBaseline(Card, Card.renderBaselineJson());
  ASSERT_EQ(Regressions.size(), 1u);
  EXPECT_NE(Regressions[0].find("missing-wakeup: unscored"),
            std::string::npos);
}

// Manifests label cases by battery detector; a detector fires on a file
// through any rule it produces, not only the one spelled like it.
TEST(ScorecardTest, FindingCountsForItsProducingDetector) {
  engine::CorpusReport Report;
  Report.Files.push_back(
      okReport("/x/ch_bug.mir", {detectors::BugKind::RecvNoSender}));
  Report.Files.push_back(
      okReport("/x/rc_bug.mir", {detectors::BugKind::BorrowConflict}));
  Manifest Man;
  Man.Cases.push_back({"ch_bug.mir", "missing-wakeup", true});
  Man.Cases.push_back({"rc_bug.mir", "double-lock", true});

  Scorecard Card = scoreReport(Report, Man);
  EXPECT_EQ(Card.find("missing-wakeup")->TP, 1u);
  EXPECT_EQ(Card.find("double-lock")->TP, 1u);
}

TEST(ScorecardTest, JsonRenderIsStableAndStatFree) {
  engine::CorpusReport Report;
  Report.Files.push_back(
      okReport("/x/a.mir", {detectors::BugKind::DoubleLock}));
  Manifest Man;
  Man.Cases.push_back({"a.mir", "double-lock", true});

  Scorecard Card = scoreReport(Report, Man);
  std::string J = Card.renderJson();
  EXPECT_EQ(J, scoreReport(Report, Man).renderJson());
  EXPECT_NE(J.find("\"scorecard\""), std::string::npos);
  EXPECT_NE(J.find("\"f1\":\"1.0000\""), std::string::npos);
  // No wall-clock or cache fields — the scorecard must be byte-stable
  // across cache temperature.
  EXPECT_EQ(J.find("ms"), std::string::npos);
  EXPECT_EQ(J.find("cache"), std::string::npos);

  std::string B = Card.renderBaselineJson();
  EXPECT_NE(B.find("\"double-lock\":\"1.0000\""), std::string::npos);
}

} // namespace
