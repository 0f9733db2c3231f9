//===----------------------------------------------------------------------===//
//
// Tests for the resilient corpus engine: per-file status folding, detector
// quarantine under injected and organic faults, budget degradation, and the
// exit-code contract.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"

#include "detectors/Detectors.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>

using namespace rs;
using namespace rs::engine;

namespace {

const char *CleanSrc = "fn clean() -> i32 {\n"
                       "    bb0: {\n"
                       "        _0 = const 1;\n"
                       "        return;\n"
                       "    }\n"
                       "}\n";

// The Figure 7 shape: a raw pointer survives its referent's drop.
const char *BuggySrc = "fn uaf() -> u8 {\n"
                       "    let _1: Box<u8>;\n"
                       "    let _2: *const u8;\n"
                       "    bb0: {\n"
                       "        _1 = Box::new(const 7) -> bb1;\n"
                       "    }\n"
                       "    bb1: {\n"
                       "        _2 = &raw const (*_1);\n"
                       "        drop(_1) -> bb2;\n"
                       "    }\n"
                       "    bb2: {\n"
                       "        _0 = copy (*_2);\n"
                       "        return;\n"
                       "    }\n"
                       "}\n";

const FileReport analyze(std::string_view Src,
                         EngineOptions Opts = EngineOptions()) {
  AnalysisEngine E(Opts);
  return E.analyzeFile("test.mir", Src);
}

/// A detector that always throws — the organic analogue of the injected
/// engine.detector fault.
class ExplodingDetector : public detectors::Detector {
public:
  const char *name() const override { return "exploding"; }
  void run(detectors::AnalysisContext &, detectors::DiagnosticEngine &) override {
    throw std::runtime_error("detector blew up");
  }
};

} // namespace

TEST(Engine, CleanSourceIsOk) {
  FileReport R = analyze(CleanSrc);
  EXPECT_EQ(R.Status, EngineStatus::Ok);
  EXPECT_TRUE(R.Reason.empty());
  EXPECT_TRUE(R.Findings.empty());
  ASSERT_FALSE(R.Detectors.empty());
  for (const DetectorOutcome &D : R.Detectors)
    EXPECT_EQ(D.Status, EngineStatus::Ok) << D.Name << ": " << D.Note;
}

TEST(Engine, FindingsDoNotDegradeStatus) {
  FileReport R = analyze(BuggySrc);
  EXPECT_EQ(R.Status, EngineStatus::Ok);
  EXPECT_FALSE(R.Findings.empty());
}

TEST(Engine, MalformedItemDegradesButStillAnalyzes) {
  std::string Src =
      std::string("fn broken( {\n    bb0: { return; }\n}\n") + BuggySrc;
  FileReport R = analyze(Src);
  EXPECT_EQ(R.Status, EngineStatus::Degraded);
  EXPECT_EQ(R.ItemsDropped, 1u);
  EXPECT_EQ(R.ParseErrors.size(), 1u);
  EXPECT_NE(R.Reason.find("parser recovery"), std::string::npos);
  // The surviving function was still analyzed, bug and all.
  EXPECT_FALSE(R.Findings.empty());
  EXPECT_TRUE(R.analyzed());
}

TEST(Engine, UnparseableSourceIsSkipped) {
  FileReport R = analyze("@@@ not mir at all @@@");
  EXPECT_EQ(R.Status, EngineStatus::Skipped);
  EXPECT_NE(R.Reason.find("no parseable items"), std::string::npos);
  EXPECT_FALSE(R.analyzed());
}

TEST(Engine, VerifierRejectionIsSkippedWithLocation) {
  // Parses fine, but branches to a block that does not exist.
  FileReport R = analyze("fn bad() {\n"
                         "    bb0: { goto -> bb9; }\n"
                         "}\n");
  EXPECT_EQ(R.Status, EngineStatus::Skipped);
  EXPECT_NE(R.Reason.find("verifier rejected module"), std::string::npos);
  ASSERT_FALSE(R.VerifierErrors.empty());
  // Structured diagnostics carry the function name in the message and the
  // rejection site as a real source location.
  EXPECT_EQ(R.VerifierErrors[0].Kind, diag::RuleId::VerifyError);
  EXPECT_NE(R.VerifierErrors[0].Message.find("function 'bad'"),
            std::string::npos);
  EXPECT_EQ(R.VerifierErrors[0].Loc.file(), "test.mir");
  EXPECT_EQ(R.VerifierErrors[0].Loc.line(), 2u);
}

TEST(Engine, DirectoriesExpandToTheirMirFiles) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::path(testing::TempDir()) / "engine_dir_test";
  fs::remove_all(Dir);
  fs::create_directories(Dir / "nested");
  std::ofstream(Dir / "a_clean.mir") << CleanSrc;
  std::ofstream(Dir / "b_malformed.mir") << "fn oops(";
  std::ofstream(Dir / "nested" / "c_buggy.mir") << BuggySrc;
  std::ofstream(Dir / "ignored.txt") << "not mir";

  AnalysisEngine E;
  CorpusReport Report = E.analyzeCorpus({Dir.string()});
  ASSERT_EQ(Report.Files.size(), 3u); // .txt not picked up, nested .mir is.
  EXPECT_EQ(Report.countWithStatus(EngineStatus::Ok), 2u);
  EXPECT_EQ(Report.countWithStatus(EngineStatus::Skipped), 1u);
  EXPECT_GT(Report.totalFindings(), 0u);
  fs::remove_all(Dir);
}

TEST(Engine, EmptyDirectoryIsOneSkippedEntry) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::path(testing::TempDir()) / "engine_empty_dir";
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  AnalysisEngine E;
  CorpusReport Report = E.analyzeCorpus({Dir.string()});
  ASSERT_EQ(Report.Files.size(), 1u);
  EXPECT_EQ(Report.Files[0].Status, EngineStatus::Skipped);
  EXPECT_EQ(Report.Files[0].Reason, "no .mir files in directory");
  EXPECT_EQ(Report.exitCode(), 2);
  fs::remove_all(Dir);
}

TEST(Engine, DirectoryPassedAsFileIsSkipped) {
  AnalysisEngine E;
  FileReport R = E.analyzeFile(testing::TempDir());
  EXPECT_EQ(R.Status, EngineStatus::Skipped);
  EXPECT_EQ(R.Reason, "is a directory");
}

TEST(Engine, UnreadableFileIsSkipped) {
  AnalysisEngine E;
  FileReport R = E.analyzeFile("/nonexistent/definitely/missing.mir");
  EXPECT_EQ(R.Status, EngineStatus::Skipped);
  EXPECT_EQ(R.Reason, "cannot open file");
}

TEST(Engine, ParseProbeFaultIsContained) {
  fault::ScopedFault F("engine.parse", 1);
  FileReport R = analyze(CleanSrc);
  EXPECT_EQ(R.Status, EngineStatus::Skipped);
  EXPECT_NE(R.Reason.find("engine fault contained"), std::string::npos);
  EXPECT_NE(R.Reason.find("engine.parse"), std::string::npos);
}

TEST(Engine, VerifyProbeFaultIsContained) {
  fault::ScopedFault F("engine.verify", 1);
  FileReport R = analyze(CleanSrc);
  EXPECT_EQ(R.Status, EngineStatus::Skipped);
  EXPECT_NE(R.Reason.find("engine.verify"), std::string::npos);
}

TEST(Engine, FaultedFileDoesNotPoisonTheNextOne) {
  fault::ScopedFault F("engine.parse", 1);
  AnalysisEngine E;
  FileReport First = E.analyzeFile("first.mir", CleanSrc);
  FileReport Second = E.analyzeFile("second.mir", CleanSrc);
  EXPECT_EQ(First.Status, EngineStatus::Skipped);
  EXPECT_EQ(Second.Status, EngineStatus::Ok);
}

// The acceptance scenario: injecting a fault into one built-in detector
// quarantines exactly that detector while the others' findings are still
// reported.
TEST(Engine, InjectedDetectorFaultQuarantinesOnlyThatDetector) {
  // First pass, no faults: learn the battery order and which detector
  // reports the use-after-free.
  FileReport Clean = analyze(BuggySrc);
  ASSERT_GE(Clean.Detectors.size(), 2u);
  size_t UafIdx = Clean.Detectors.size();
  for (size_t I = 0; I != Clean.Detectors.size(); ++I)
    if (Clean.Detectors[I].Findings > 0)
      UafIdx = I;
  ASSERT_NE(UafIdx, Clean.Detectors.size()) << "expected a finding";

  // Fault a different detector (probe numbers are 1-based, one probe per
  // detector per file).
  size_t VictimIdx = UafIdx == 0 ? 1 : 0;
  fault::ScopedFault F("engine.detector", /*FailOnNth=*/VictimIdx + 1);
  FileReport R = analyze(BuggySrc);

  ASSERT_EQ(R.Detectors.size(), Clean.Detectors.size());
  EXPECT_EQ(R.Detectors[VictimIdx].Status, EngineStatus::Skipped);
  EXPECT_NE(R.Detectors[VictimIdx].Note.find("quarantined"),
            std::string::npos);
  // Every other detector still ran; the findings survived.
  for (size_t I = 0; I != R.Detectors.size(); ++I)
    if (I != VictimIdx) {
      EXPECT_EQ(R.Detectors[I].Status, EngineStatus::Ok)
          << R.Detectors[I].Name;
    }
  EXPECT_EQ(R.Detectors[UafIdx].Findings, Clean.Detectors[UafIdx].Findings);
  EXPECT_EQ(R.Findings.size(), Clean.Findings.size());
  EXPECT_EQ(R.Status, EngineStatus::Degraded);
  EXPECT_NE(R.Reason.find("quarantined"), std::string::npos);
}

TEST(Engine, ThrowingCustomDetectorIsQuarantined) {
  AnalysisEngine E;
  E.setDetectorFactory([] {
    std::vector<std::unique_ptr<detectors::Detector>> Ds;
    Ds.push_back(std::make_unique<ExplodingDetector>());
    Ds.push_back(std::make_unique<detectors::UseAfterFreeDetector>());
    return Ds;
  });
  FileReport R = E.analyzeFile("test.mir", BuggySrc);
  ASSERT_EQ(R.Detectors.size(), 2u);
  EXPECT_EQ(R.Detectors[0].Status, EngineStatus::Skipped);
  EXPECT_NE(R.Detectors[0].Note.find("detector blew up"), std::string::npos);
  EXPECT_EQ(R.Detectors[1].Status, EngineStatus::Ok);
  EXPECT_GT(R.Detectors[1].Findings, 0u);
  EXPECT_EQ(R.Status, EngineStatus::Degraded);
}

TEST(Engine, ExhaustedBudgetSkipsDetectorsWithNote) {
  // A one-step file budget dies during summary computation; every detector
  // is then skipped before running (never hung), and the file is skipped.
  EngineOptions Opts;
  Opts.MaxFileSteps = 1;
  FileReport R = analyze(BuggySrc, Opts);
  EXPECT_EQ(R.Status, EngineStatus::Skipped);
  ASSERT_FALSE(R.Detectors.empty());
  for (const DetectorOutcome &D : R.Detectors) {
    EXPECT_EQ(D.Status, EngineStatus::Skipped);
    EXPECT_NE(D.Note.find("skipped before run"), std::string::npos);
  }
}

TEST(Engine, DataflowCapDegradesInsteadOfSkipping) {
  // A tiny per-function dataflow cap: detectors still run, but flag their
  // results as incomplete (middle rung of the ladder).
  EngineOptions Opts;
  Opts.MaxDataflowIters = 1;
  FileReport R = analyze(BuggySrc, Opts);
  EXPECT_EQ(R.Status, EngineStatus::Degraded);
  EXPECT_NE(R.Reason.find("budget"), std::string::npos);
  bool AnyDegradedDetector = false;
  for (const DetectorOutcome &D : R.Detectors)
    AnyDegradedDetector |= D.Status == EngineStatus::Degraded;
  EXPECT_TRUE(AnyDegradedDetector);
}

TEST(Engine, CorpusRunNeverAbortsAndCountsStatuses) {
  AnalysisEngine E;
  CorpusReport Report;
  Report.Files.push_back(E.analyzeFile("clean.mir", CleanSrc));
  Report.Files.push_back(E.analyzeFile("bad.mir", "fn oops("));
  Report.Files.push_back(E.analyzeFile("buggy.mir", BuggySrc));
  EXPECT_EQ(Report.countWithStatus(EngineStatus::Ok), 2u);
  EXPECT_EQ(Report.countWithStatus(EngineStatus::Skipped), 1u);
  EXPECT_GT(Report.totalFindings(), 0u);
  EXPECT_EQ(Report.exitCode(), 1);
}

TEST(Engine, ExitCodeContract) {
  AnalysisEngine E;

  CorpusReport Empty;
  EXPECT_EQ(Empty.exitCode(), 2);

  CorpusReport AllBad;
  AllBad.Files.push_back(E.analyzeFile("junk.mir", "@@@"));
  EXPECT_EQ(AllBad.exitCode(), 2);

  CorpusReport Clean;
  Clean.Files.push_back(E.analyzeFile("clean.mir", CleanSrc));
  EXPECT_EQ(Clean.exitCode(), 0);
  EXPECT_EQ(Clean.exitCode(/*Strict=*/true), 0);

  CorpusReport Mixed;
  Mixed.Files.push_back(E.analyzeFile("clean.mir", CleanSrc));
  Mixed.Files.push_back(E.analyzeFile("junk.mir", "@@@"));
  EXPECT_EQ(Mixed.exitCode(), 0);
  // Strict mode: any non-Ok file is a failure even without findings.
  EXPECT_EQ(Mixed.exitCode(/*Strict=*/true), 2);

  CorpusReport WithBug;
  WithBug.Files.push_back(E.analyzeFile("buggy.mir", BuggySrc));
  EXPECT_EQ(WithBug.exitCode(), 1);
}

TEST(Engine, JsonReportCarriesStatusesAndSummary) {
  AnalysisEngine E;
  CorpusReport Report;
  Report.Files.push_back(E.analyzeFile("clean.mir", CleanSrc));
  Report.Files.push_back(E.analyzeFile("bad.mir", "fn oops("));
  Report.Files.push_back(E.analyzeFile("buggy.mir", BuggySrc));
  std::string J = Report.renderJson();
  EXPECT_NE(J.find("\"path\":\"clean.mir\""), std::string::npos);
  EXPECT_NE(J.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(J.find("\"status\":\"skipped\""), std::string::npos);
  EXPECT_NE(J.find("\"kind\":\"use-after-free\""), std::string::npos);
  EXPECT_NE(J.find("\"summary\""), std::string::npos);
  EXPECT_NE(J.find("\"files\":3"), std::string::npos);

  std::string T = Report.renderText();
  EXPECT_NE(T.find("clean.mir: ok"), std::string::npos);
  EXPECT_NE(T.find("bad.mir: skipped"), std::string::npos);
}
