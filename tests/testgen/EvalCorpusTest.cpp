#include "testgen/EvalCorpus.h"

#include "engine/Engine.h"
#include "testgen/Scorecard.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

using namespace rs;
using namespace rs::testgen;

namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path &P) {
  std::ifstream In(P, std::ios::binary);
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

class EvalCorpusTest : public ::testing::Test {
protected:
  void SetUp() override {
    // Suffix with the test name: ctest runs each TEST in its own process,
    // concurrently, and they must not share scratch space.
    Dir = fs::temp_directory_path() /
          (std::string("rs_evalcorpus_") +
           ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(Dir);
  }
  void TearDown() override { fs::remove_all(Dir); }
  fs::path Dir;
};

TEST_F(EvalCorpusTest, MeetsTheEvaluationFloor) {
  size_t N = writeEvalCorpus(Dir.string());
  EXPECT_GE(N, 60u);

  auto Man = loadManifest((Dir / "manifest.json").string());
  ASSERT_TRUE(Man.has_value());
  EXPECT_EQ(Man->Cases.size(), N);

  size_t Positives = 0, Negatives = 0;
  for (const LabeledCase &C : Man->Cases) {
    (C.Positive ? Positives : Negatives) += 1;
    EXPECT_TRUE(fs::exists(Dir / C.File)) << C.File;
  }
  EXPECT_GE(Positives, 20u);
  EXPECT_GE(Negatives, 20u);

  // Every Section 7 pattern family must be represented.
  for (const char *Stem :
       {"uaf_post_drop", "uaf_guarded", "use_after_scope", "dangling_return",
        "double_lock", "double_lock_interproc", "lock_order_inversion",
        "double_free", "invalid_free", "uninit_read", "interior_mutability",
        "condvar_wait", "channel_recv", "refcell_conflict"})
    EXPECT_TRUE(fs::exists(Dir / (std::string(Stem) + "_bug_0.mir")))
        << Stem;
}

TEST_F(EvalCorpusTest, RegenerationIsByteIdentical) {
  writeEvalCorpus(Dir.string());
  fs::path Dir2 = fs::temp_directory_path() / "rs_evalcorpus_test2";
  fs::remove_all(Dir2);
  writeEvalCorpus(Dir2.string());

  size_t Compared = 0;
  for (const auto &E : fs::directory_iterator(Dir)) {
    EXPECT_EQ(slurp(E.path()), slurp(Dir2 / E.path().filename()))
        << E.path().filename();
    ++Compared;
  }
  EXPECT_GE(Compared, 60u);
  fs::remove_all(Dir2);
}

// The end-to-end acceptance test: engine + scorecard over the generated
// corpus must reproduce the checked-in expectation — perfect detection on
// every labeled case.
TEST_F(EvalCorpusTest, EngineScoresPerfectlyOnGeneratedCorpus) {
  writeEvalCorpus(Dir.string());

  engine::EngineOptions Opts;
  Opts.Jobs = 2;
  Opts.UseCache = false;
  engine::AnalysisEngine E(Opts);
  engine::CorpusReport Report = E.analyzeCorpus({Dir.string()});

  auto Man = loadManifest((Dir / "manifest.json").string());
  ASSERT_TRUE(Man.has_value());
  Scorecard Card = scoreReport(Report, *Man);

  EXPECT_EQ(Card.CasesUnmatched, 0u);
  EXPECT_EQ(Card.FilesFailed, 0u);
  EXPECT_GE(Card.CasesScored, 60u);
  for (const DetectorScore &S : Card.Scores) {
    EXPECT_DOUBLE_EQ(S.f1(), 1.0) << S.Detector << ": tp=" << S.TP
                                  << " fp=" << S.FP << " fn=" << S.FN;
  }
}

// The checked-in corpus at examples/mir/eval must stay in sync with the
// generator — drift means someone edited cases by hand or changed the
// generator without regenerating.
TEST_F(EvalCorpusTest, CheckedInCorpusMatchesGenerator) {
  fs::path Repo(RS_REPO_ROOT);
  fs::path Checked = Repo / "examples" / "mir" / "eval";
  ASSERT_TRUE(fs::exists(Checked))
      << "run: rustsight gen --emit-eval-corpus examples/mir/eval";

  writeEvalCorpus(Dir.string());
  size_t Compared = 0;
  for (const auto &E : fs::directory_iterator(Dir)) {
    EXPECT_EQ(slurp(E.path()), slurp(Checked / E.path().filename()))
        << E.path().filename()
        << " drifted; regenerate with rustsight gen --emit-eval-corpus";
    ++Compared;
  }
  EXPECT_GE(Compared, 60u);
}

// The scorecard must measure every bug rule in Rules.def, not score a
// detector from negatives alone: the checked-in corpus needs, per rule, at
// least two positive files (labeled for the rule's detector) that report
// the rule ID, and at least one benign twin of those patterns
// ("<stem>_ok_*" next to "<stem>_bug_*") on which the rule stays silent.
TEST_F(EvalCorpusTest, CheckedInCorpusCoversEveryBugRule) {
  fs::path Checked = fs::path(RS_REPO_ROOT) / "examples" / "mir" / "eval";
  auto Man = loadManifest((Checked / "manifest.json").string());
  ASSERT_TRUE(Man.has_value());

  engine::EngineOptions Opts;
  Opts.Jobs = 2;
  Opts.UseCache = false;
  engine::AnalysisEngine E(Opts);
  engine::CorpusReport Report = E.analyzeCorpus({Checked.string()});
  std::map<std::string, std::set<std::string>> RulesByFile;
  for (const engine::FileReport &F : Report.Files)
    for (const detectors::Diagnostic &D : F.Findings)
      RulesByFile[fs::path(F.Path).filename().string()].insert(
          diag::ruleStringId(D.Kind));

  for (size_t I = 0; I != diag::numBugRules(); ++I) {
    const diag::RuleInfo &Rule = diag::ruleInfo(diag::RuleId(I));
    unsigned Positives = 0;
    std::set<std::string> Stems;
    for (const LabeledCase &C : Man->Cases) {
      size_t Bug = C.File.find("_bug_");
      if (!C.Positive || Bug == std::string::npos ||
          C.Detector != Rule.Detector ||
          !RulesByFile[C.File].count(Rule.StringId))
        continue;
      ++Positives;
      Stems.insert(C.File.substr(0, Bug));
    }
    unsigned SilentTwins = 0;
    for (const LabeledCase &C : Man->Cases) {
      size_t Ok = C.File.find("_ok_");
      if (!C.Positive && Ok != std::string::npos &&
          Stems.count(C.File.substr(0, Ok)) &&
          !RulesByFile[C.File].count(Rule.StringId))
        ++SilentTwins;
    }
    EXPECT_GE(Positives, 2u) << Rule.StringId << " (" << Rule.Name
                             << "): too few positive files report it";
    EXPECT_GE(SilentTwins, 1u) << Rule.StringId << " (" << Rule.Name
                               << "): no silent benign twin";
  }
}

} // namespace
