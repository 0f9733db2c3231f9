//===----------------------------------------------------------------------===//
//
// Tests for the supervisor's checkpoint journal and the one FileReport
// payload beneath it (worker frames carry it too): round-tripped reports
// must render byte-identically (that is the whole resume guarantee), the
// payload's bytes are pinned, and journals that
// are corrupt, truncated, or keyed to a different run must load as "no
// checkpoint" without touching the caller's state.
//
//===----------------------------------------------------------------------===//

#include "engine/Checkpoint.h"

#include "corpus/CorpusWalk.h"
#include "diag/Version.h"
#include "engine/Engine.h"
#include "support/Hash.h"
#include "support/SourceLocation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace fs = std::filesystem;
using namespace rs;
using namespace rs::engine;

namespace {

const char *CleanSrc = "fn clean() -> i32 {\n"
                       "    bb0: {\n"
                       "        _0 = const 1;\n"
                       "        return;\n"
                       "    }\n"
                       "}\n";

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

fs::path writeCorpus(const char *Name) {
  fs::path Dir = fs::path(testing::TempDir()) / Name;
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  std::ofstream(Dir / "buggy.mir") << BuggySrc;
  std::ofstream(Dir / "clean.mir") << CleanSrc;
  std::ofstream(Dir / "malformed.mir") << "fn oops( {\n";
  return Dir;
}

/// Analyzes the corpus in-process and returns (inputs, per-file reports).
std::pair<std::vector<corpus::CorpusInput>, CorpusReport>
analyze(const fs::path &Dir) {
  EngineOptions Opts;
  Opts.Jobs = 1;
  Opts.UseCache = false;
  AnalysisEngine E(Opts);
  return {corpus::expandMirPaths({Dir.string()}),
          E.analyzeCorpus({Dir.string()})};
}

/// Round-trips every report of \p Report through the one payload codec,
/// re-anchored at the report's own path, as the supervisor and the journal
/// loader do.
CorpusReport roundTrip(const CorpusReport &Report) {
  CorpusReport Rebuilt;
  for (const FileReport &R : Report.Files) {
    std::optional<FileReport> Back =
        deserializeFileReport(serializeFileReport(R), R.Path);
    EXPECT_TRUE(Back.has_value()) << R.Path;
    Rebuilt.Files.push_back(Back ? std::move(*Back) : FileReport());
  }
  Rebuilt.finalize();
  return Rebuilt;
}

/// \p V as \p Bytes little-endian bytes: a payload spelled independently
/// of the codec, so a layout change shows up as a diff here.
std::string le(uint64_t V, int Bytes) {
  std::string Out;
  for (int I = 0; I != Bytes; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
  return Out;
}

/// A payload string: its u32 length, then its bytes.
std::string str(std::string_view S) { return le(S.size(), 4) + std::string(S); }

/// The guarantee the supervisor and resume stand on: a report that crossed
/// a process boundary is indistinguishable in every rendered surface.
void expectSameRendering(const CorpusReport &Want, const CorpusReport &Got) {
  EXPECT_EQ(Want.renderJson(), Got.renderJson());
  EXPECT_EQ(Want.renderSarif(), Got.renderSarif());
  EXPECT_EQ(Want.renderText(), Got.renderText());
  EXPECT_EQ(Want.exitCode(), Got.exitCode());
  EXPECT_EQ(Want.exitCode(true), Got.exitCode(true));
}

} // namespace

TEST(FileReportPayload, RoundTripRendersByteIdentically) {
  fs::path Dir = writeCorpus("wire_roundtrip");
  auto [Inputs, Report] = analyze(Dir);
  ASSERT_FALSE(Report.Files.empty());
  expectSameRendering(Report, roundTrip(Report));
}

TEST(FileReportPayload, NonOkReportsRoundTripEveryRenderer) {
  // Each rung of the degradation ladder a worker frame or journal entry
  // must carry: a budget-degraded file, a verifier-skipped file, a file
  // whose parse recovered, and a file the supervisor quarantined.
  EngineOptions Budget;
  Budget.UseCache = false;
  Budget.MaxDataflowIters = 1;
  EngineOptions Plain;
  Plain.UseCache = false;
  CorpusReport Report;
  Report.Files.push_back(
      AnalysisEngine(Budget).analyzeFile("ladder/budget.mir", BuggySrc));
  Report.Files.push_back(AnalysisEngine(Plain).analyzeFile(
      "ladder/verifier.mir", "fn bad() {\n    bb0: { goto -> bb9; }\n}\n"));
  Report.Files.push_back(AnalysisEngine(Plain).analyzeFile(
      "ladder/recovered.mir",
      std::string("fn broken( {\n    bb0: { return; }\n}\n") + BuggySrc));
  FileReport Quarantined = FileReport::skipped(
      "ladder/victim.mir", "quarantined after 3 isolated worker attempt(s): "
                           "worker killed by signal 11 (SIGSEGV)");
  diag::Diagnostic D(diag::RuleId::WorkerQuarantined);
  D.Message = "file quarantined: worker killed by signal 11 (SIGSEGV)";
  D.Loc = SourceLocation(internFileName("ladder/victim.mir"), 1, 1);
  D.Notes.push_back("worker stderr: boom");
  Quarantined.Notices.push_back(std::move(D));
  Report.Files.push_back(std::move(Quarantined));
  Report.finalize();

  const FileReport &Degraded = Report.Files[0];
  ASSERT_EQ(Degraded.Status, EngineStatus::Degraded);
  ASSERT_TRUE(std::any_of(
      Degraded.Detectors.begin(), Degraded.Detectors.end(),
      [](const DetectorOutcome &O) { return !O.Note.empty(); }));
  ASSERT_EQ(Report.Files[1].Status, EngineStatus::Skipped);
  ASSERT_FALSE(Report.Files[1].VerifierErrors.empty());
  ASSERT_EQ(Report.Files[2].Status, EngineStatus::Degraded);
  ASSERT_EQ(Report.Files[2].ItemsDropped, 1u);
  ASSERT_FALSE(Report.Files[2].ParseErrors.empty());

  CorpusReport Rebuilt = roundTrip(Report);
  for (size_t I = 0; I != Report.Files.size(); ++I) {
    EXPECT_EQ(Rebuilt.Files[I].Status, Report.Files[I].Status) << I;
    EXPECT_EQ(Rebuilt.Files[I].Reason, Report.Files[I].Reason) << I;
  }
  expectSameRendering(Report, Rebuilt);
}

TEST(FileReportPayload, OkPayloadKeepsTheCacheEntryBytes) {
  // Every field an ok report carries, pinned byte for byte: a change to
  // these bytes must come with a ReportSchemaVersion bump, or a warm cache
  // would misread the entries the previous build left.
  FileReport R;
  R.Path = "pin/a.mir";
  R.Status = EngineStatus::Ok;
  R.Detectors.push_back({"use-after-free", EngineStatus::Ok, "", 1});
  R.Detectors.push_back({"double-lock", EngineStatus::Ok, "", 0});
  diag::Diagnostic F(diag::RuleId::UseAfterFree);
  F.Function = "f";
  F.Block = 2;
  F.StmtIndex = 1;
  F.Message = "use of dropped value";
  F.Loc = SourceLocation(internFileName("pin/a.mir"), 12, 9);
  F.Secondary.push_back(
      {SourceLocation(internFileName("pin/b.mir"), 3, 5), "freed here", "g"});
  F.Notes.push_back("a note");
  F.Fixes.push_back(
      {SourceLocation(internFileName("pin/a.mir"), 12, 9), "x", "fix it"});
  R.Findings.push_back(std::move(F));
  diag::Diagnostic N(diag::RuleId::UnknownSuppression);
  N.Message = "unknown rule";
  N.Loc = SourceLocation(internFileName("pin/a.mir"), 1, 4);
  R.Notices.push_back(std::move(N));
  R.SuppressedFindings = 2;

  const std::string NoSpans = le(0, 4) + le(0, 4) + le(0, 4);
  EXPECT_EQ(serializeFileReport(R),
            "RSRP" + le(5, 4) +
                // status, reason, items dropped, suppressed
                le(0, 1) + str("") + le(0, 4) + le(2, 8) +
                // detectors
                le(2, 4) + str("use-after-free") + le(0, 1) + str("") +
                le(1, 8) + str("double-lock") + le(0, 1) + str("") +
                le(0, 8) +
                // findings: the primary location carries no file
                le(1, 4) + str("RS-UAF-001") + le(0, 1) + str("f") +
                le(2, 4) + le(1, 8) + str("use of dropped value") +
                le(12, 4) + le(9, 4) +
                // a counterpart-file span keeps its file
                le(1, 4) + le(3, 4) + le(5, 4) + str("pin/b.mir") + str("g") +
                str("freed here") +
                // notes
                le(1, 4) + str("a note") +
                // a fix-it in the report's own file re-anchors
                le(1, 4) + le(12, 4) + le(9, 4) + str("") + str("x") +
                str("fix it") +
                // parse errors, verifier errors
                le(0, 4) + le(0, 4) +
                // notices
                le(1, 4) + str("RS-META-001") + le(1, 1) + str("") +
                le(0, 4) + le(0, 8) + str("unknown rule") + le(1, 4) +
                le(4, 4) + NoSpans);
}

TEST(FileReportPayload, RejectsDefectivePayloads) {
  EXPECT_FALSE(deserializeFileReport("", "x.mir").has_value());
  EXPECT_FALSE(deserializeFileReport("not json", "x.mir").has_value());
  EXPECT_FALSE(deserializeFileReport("{}", "x.mir").has_value());
  EXPECT_FALSE(deserializeFileReport("{\"v\":999}", "x.mir").has_value());
  // An ok report with one detector, then \p Diags (the four diagnostic
  // lists) and \p Tail.
  const std::string NoDiags = le(0, 4) + le(0, 4) + le(0, 4) + le(0, 4);
  auto Payload = [&](uint64_t Status, uint64_t DetectorStatus,
                     const std::string &Diags, const std::string &Tail) {
    return "RSRP" + le(version::ReportSchemaVersion, 4) + le(Status, 1) +
           str("") + le(0, 4) + le(0, 8) + le(1, 4) + str("d") +
           le(DetectorStatus, 1) + str("") + le(0, 8) + Diags + Tail;
  };
  auto Decodes = [](const std::string &P) {
    return deserializeFileReport(P, "x.mir").has_value();
  };
  EXPECT_TRUE(Decodes(Payload(0, 0, NoDiags, "")));
  EXPECT_TRUE(Decodes(Payload(2, 1, NoDiags, "")));
  // A status past "skipped", the report's or a detector's.
  EXPECT_FALSE(Decodes(Payload(3, 0, NoDiags, "")));
  EXPECT_FALSE(Decodes(Payload(0, 3, NoDiags, "")));
  // A trailing byte, and a payload cut short.
  EXPECT_FALSE(Decodes(Payload(0, 0, NoDiags, "x")));
  EXPECT_FALSE(Decodes(Payload(0, 0, le(0, 4), "")));
  // Another magic, and another version.
  std::string Other = Payload(0, 0, NoDiags, "");
  Other[0] = 'X';
  EXPECT_FALSE(Decodes(Other));
  Other = Payload(0, 0, NoDiags, "");
  Other[4] = static_cast<char>(version::ReportSchemaVersion + 1);
  EXPECT_FALSE(Decodes(Other));
  // A finding count past the end of the payload.
  EXPECT_FALSE(Decodes(Payload(0, 0, le(0xffffffff, 4) + NoDiags, "")));
  // A finding under an unknown rule, and one with a severity past "note";
  // the same finding under a known rule and severity decodes.
  auto Finding = [&](const char *Rule, uint64_t Severity) {
    return le(1, 4) + str(Rule) + le(Severity, 1) + str("f") + le(0, 4) +
           le(0, 8) + str("m") + le(1, 4) + le(1, 4) + le(0, 4) + le(0, 4) +
           le(0, 4) + le(0, 4) + le(0, 4) + le(0, 4);
  };
  EXPECT_TRUE(Decodes(Payload(0, 0, Finding("RS-UAF-001", 2), "")));
  EXPECT_FALSE(Decodes(Payload(0, 0, Finding("RS-NOPE-001", 0), "")));
  EXPECT_FALSE(Decodes(Payload(0, 0, Finding("RS-UAF-001", 3), "")));
}

TEST(CorpusFingerprint, SensitiveToPathsOrderAndSkips) {
  std::vector<corpus::CorpusInput> A = {{"a.mir", ""}, {"b.mir", ""}};
  std::vector<corpus::CorpusInput> Reordered = {{"b.mir", ""}, {"a.mir", ""}};
  std::vector<corpus::CorpusInput> Skipped = {{"a.mir", "empty dir"},
                                              {"b.mir", ""}};
  // Separator structure: (a.mir+b, ...) must not alias (a.mir, b...).
  std::vector<corpus::CorpusInput> Shifted = {{"a.mirb", ".mir"}};
  EXPECT_EQ(fingerprintCorpus(A), fingerprintCorpus(A));
  EXPECT_NE(fingerprintCorpus(A), fingerprintCorpus(Reordered));
  EXPECT_NE(fingerprintCorpus(A), fingerprintCorpus(Skipped));
  EXPECT_NE(fingerprintCorpus(A), fingerprintCorpus(Shifted));
}

TEST(CheckpointJournal, WriteLoadRoundTripsCompletedEntries) {
  fs::path Dir = writeCorpus("ck_roundtrip");
  auto [Inputs, Report] = analyze(Dir);
  const RunKey Key{fingerprintCorpus(Inputs), 0x1234};

  // Journal only the even ordinals, as an interrupted run would.
  std::vector<std::optional<FileReport>> Partial(Report.Files.size());
  for (size_t I = 0; I < Report.Files.size(); I += 2)
    Partial[I] = Report.Files[I];

  fs::path Path = Dir / "journal.json";
  CheckpointJournal J(Path.string());
  ASSERT_TRUE(J.write(Key, Partial));

  std::vector<std::optional<FileReport>> Loaded(Report.Files.size());
  ASSERT_TRUE(J.load(Key, Inputs, Loaded));
  for (size_t I = 0; I != Report.Files.size(); ++I) {
    EXPECT_EQ(Loaded[I].has_value(), I % 2 == 0) << I;
    if (Loaded[I]) {
      EXPECT_EQ(Loaded[I]->Path, Report.Files[I].Path);
      EXPECT_EQ(serializeFileReport(*Loaded[I]),
                serializeFileReport(Report.Files[I]));
    }
  }
  // The atomic tmp-write + rename idiom must not leave droppings.
  size_t Extra = 0;
  for (const auto &E : fs::directory_iterator(Dir))
    if (E.path().filename().string().find(".tmp.") != std::string::npos)
      ++Extra;
  EXPECT_EQ(Extra, 0u);
}

TEST(CheckpointJournal, MismatchedKeyOrDefectLoadsAsNoCheckpoint) {
  fs::path Dir = writeCorpus("ck_defects");
  auto [Inputs, Report] = analyze(Dir);
  const RunKey Key{fingerprintCorpus(Inputs), 0x1234};

  std::vector<std::optional<FileReport>> All(Report.Files.size());
  for (size_t I = 0; I != Report.Files.size(); ++I)
    All[I] = Report.Files[I];

  fs::path Path = Dir / "journal.json";
  CheckpointJournal J(Path.string());
  ASSERT_TRUE(J.write(Key, All));

  std::vector<std::optional<FileReport>> Out(Report.Files.size());
  // Absent file.
  EXPECT_FALSE(CheckpointJournal((Dir / "missing.json").string()).load(
      Key, Inputs, Out));
  // Different corpus, different configuration: both halves of the key gate.
  EXPECT_FALSE(
      J.load(RunKey{Key.CorpusFingerprint + 1, Key.Salt}, Inputs, Out));
  EXPECT_FALSE(
      J.load(RunKey{Key.CorpusFingerprint, Key.Salt + 1}, Inputs, Out));

  // Truncation and corruption degrade to "no checkpoint", never a crash.
  {
    std::string Text;
    {
      std::ifstream In(Path, std::ios::binary);
      std::ostringstream Buf;
      Buf << In.rdbuf();
      Text = Buf.str();
    }
    std::ofstream(Path, std::ios::binary | std::ios::trunc)
        << Text.substr(0, Text.size() / 2);
    EXPECT_FALSE(J.load(Key, Inputs, Out));
    std::ofstream(Path, std::ios::binary | std::ios::trunc)
        << "{\"version\":999}";
    EXPECT_FALSE(J.load(Key, Inputs, Out));
    std::ofstream(Path, std::ios::binary | std::ios::trunc) << "]][[";
    EXPECT_FALSE(J.load(Key, Inputs, Out));
  }
  // Every failed load left the output untouched.
  for (const auto &Slot : Out)
    EXPECT_FALSE(Slot.has_value());

  J.remove();
  EXPECT_FALSE(fs::exists(Path));
}

TEST(CheckpointJournal, VersionOneJournalLoadsAsNoCheckpoint) {
  // Journals of the earlier formats resume nothing, and the run analyzes
  // from scratch: version 1 held each report as JSON with its path, version
  // 2 as the path-less JSON payload.
  fs::path Dir = writeCorpus("ck_v1");
  auto [Inputs, Report] = analyze(Dir);
  const RunKey Key{fingerprintCorpus(Inputs), 0x1234};
  fs::path Path = Dir / "journal.json";
  const std::string First = Inputs[0].Path;
  auto WriteJournal = [&](int Version, const std::string &Entry) {
    std::ofstream(Path, std::ios::binary | std::ios::trunc)
        << "{\"version\":" << Version << ",\"corpus\":\""
        << hashToHex(Key.CorpusFingerprint) << "\",\"salt\":\""
        << hashToHex(Key.Salt) << "\",\"files\":[{\"ordinal\":0,\"report\":"
        << Entry << "}]}";
  };
  FileReport Ok;
  Ok.Status = EngineStatus::Ok;
  const std::string Current =
      "\"" + bytesToHex(serializeFileReport(Ok)) + "\"";
  CheckpointJournal J(Path.string());
  std::vector<std::optional<FileReport>> Out(Inputs.size());
  const std::pair<int, std::string> Retired[] = {
      {1, "{\"v\":4,\"path\":\"" + First +
              "\",\"status\":\"ok\",\"detectors\":[],\"findings\":[]}"},
      {2, "{\"v\":4,\"detectors\":[],\"findings\":[]}"},
      // The current entry under an old version: the version alone turns
      // the journal away.
      {1, Current},
      {2, Current}};
  for (const auto &[Version, Entry] : Retired) {
    WriteJournal(Version, Entry);
    EXPECT_FALSE(J.load(Key, Inputs, Out)) << Version << " " << Entry;
    for (const auto &Slot : Out)
      EXPECT_FALSE(Slot.has_value());
  }
  // The same entry under the current version loads.
  WriteJournal(static_cast<int>(CheckpointJournal::FormatVersion), Current);
  ASSERT_TRUE(J.load(Key, Inputs, Out));
  ASSERT_TRUE(Out[0].has_value());
  EXPECT_EQ(Out[0]->Path, Inputs[0].Path);
}
