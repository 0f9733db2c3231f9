//===----------------------------------------------------------------------===//
//
// Tests for the binary FileReport codec: seeded reports of every shape
// round-trip to the same bytes, and a damaged payload decodes to nullopt
// or to some report, never to a crash.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"

#include "diag/Diag.h"
#include "support/Rng.h"
#include "support/SourceLocation.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

namespace fs = std::filesystem;
using namespace rs;
using namespace rs::engine;

namespace {

/// A string of one of the shapes a payload must carry: empty, short
/// printable, every byte value, or 64 KiB.
std::string randomString(Rng &R) {
  switch (R.below(6)) {
  case 0:
    return "";
  case 1: {
    std::string S;
    for (uint64_t I = 0, N = R.range(1, 12); I != N; ++I)
      S.push_back(static_cast<char>(R.range('a', 'z')));
    return S;
  }
  case 2: {
    std::string S;
    for (int B = 0; B != 256; ++B)
      S.push_back(static_cast<char>(B));
    return S;
  }
  case 3:
    return std::string(64 * 1024, static_cast<char>(R.below(256)));
  default: {
    std::string S;
    for (uint64_t I = 0, N = R.range(1, 40); I != N; ++I)
      S.push_back(static_cast<char>(R.below(256)));
    return S;
  }
  }
}

/// A location with no position, one in the report's own file, one in a
/// counterpart file, or one with no file at all.
SourceLocation randomLoc(Rng &R, const std::string &Own) {
  const unsigned Line = static_cast<unsigned>(R.range(1, 5000));
  const unsigned Col = static_cast<unsigned>(R.range(1, 200));
  switch (R.below(4)) {
  case 0:
    return SourceLocation();
  case 1:
    return SourceLocation(internFileName(Own), Line, Col);
  case 2:
    return SourceLocation(internFileName("other/callee.mir"), Line, Col);
  default:
    return SourceLocation(nullptr, Line, Col);
  }
}

EngineStatus randomStatus(Rng &R) {
  return static_cast<EngineStatus>(R.below(3));
}

diag::Diagnostic randomDiagnostic(Rng &R, const std::string &Own) {
  diag::Diagnostic D(static_cast<diag::RuleId>(R.below(diag::numRules())));
  D.Sev = static_cast<diag::Severity>(R.below(3));
  D.Function = randomString(R);
  D.Block = static_cast<mir::BlockId>(R.below(1u << 20));
  D.StmtIndex = static_cast<size_t>(R.next() >> 1);
  D.Message = randomString(R);
  D.Loc = R.chance(1, 5) ? SourceLocation()
                         : SourceLocation(internFileName(Own),
                                          static_cast<unsigned>(R.range(1, 99)),
                                          static_cast<unsigned>(R.range(1, 9)));
  for (uint64_t I = 0, N = R.below(4); I != N; ++I)
    D.Secondary.push_back(
        {randomLoc(R, Own), randomString(R), randomString(R)});
  for (uint64_t I = 0, N = R.below(3); I != N; ++I)
    D.Notes.push_back(randomString(R));
  for (uint64_t I = 0, N = R.below(3); I != N; ++I)
    D.Fixes.push_back({randomLoc(R, Own), randomString(R), randomString(R)});
  return D;
}

std::vector<diag::Diagnostic> randomDiagnostics(Rng &R, const std::string &Own,
                                                uint64_t Max) {
  std::vector<diag::Diagnostic> Out;
  for (uint64_t I = 0, N = R.below(Max + 1); I != N; ++I)
    Out.push_back(randomDiagnostic(R, Own));
  return Out;
}

FileReport randomReport(Rng &R) {
  FileReport F;
  F.Path = "gen/file_" + std::to_string(R.below(1000)) + ".mir";
  F.Status = randomStatus(R);
  F.Reason = R.chance(1, 2) ? randomString(R) : "";
  F.ItemsDropped = static_cast<unsigned>(R.below(1000));
  F.SuppressedFindings = static_cast<size_t>(R.below(1000));
  for (uint64_t I = 0, N = R.below(10); I != N; ++I)
    F.Detectors.push_back({randomString(R), randomStatus(R),
                           R.chance(1, 2) ? randomString(R) : "",
                           static_cast<size_t>(R.below(50))});
  F.Findings = randomDiagnostics(R, F.Path, 6);
  F.ParseErrors = randomDiagnostics(R, F.Path, 2);
  F.VerifierErrors = randomDiagnostics(R, F.Path, 2);
  F.Notices = randomDiagnostics(R, F.Path, 2);
  return F;
}

/// The linked report of the eval corpus's cross-file use-after-free caller:
/// findings with secondary spans in its callee's file.
FileReport evalReport() {
  const fs::path Eval = fs::path(RS_REPO_ROOT) / "examples" / "mir" / "eval";
  EngineOptions O;
  O.Jobs = 1;
  O.UseCache = false;
  CorpusReport Report = AnalysisEngine(O).analyzeCorpus(
      {(Eval / "xfile_uaf_bug_0_def.mir").string(),
       (Eval / "xfile_uaf_bug_0_use.mir").string()});
  EXPECT_EQ(Report.Files.size(), 2u);
  return Report.Files.back();
}

} // namespace

TEST(ReportCodec, SeededReportsRoundTripToTheSameBytes) {
  Rng R(0x5eed);
  bool SawStatus[3] = {}, SawCounterpart = false;
  for (int I = 0; I != 200; ++I) {
    const FileReport Want = randomReport(R);
    SawStatus[static_cast<int>(Want.Status)] = true;
    for (const diag::Diagnostic &D : Want.Findings)
      for (const diag::Span &S : D.Secondary)
        SawCounterpart |= S.Loc.isValid() && S.Loc.file() == "other/callee.mir";
    const std::string Payload = serializeFileReport(Want);
    std::optional<FileReport> Back = deserializeFileReport(Payload, Want.Path);
    ASSERT_TRUE(Back.has_value()) << I;
    EXPECT_EQ(serializeFileReport(*Back), Payload) << I;
    EXPECT_EQ(Back->Path, Want.Path);
    EXPECT_EQ(Back->Status, Want.Status);
    EXPECT_EQ(Back->Reason, Want.Reason);
    EXPECT_EQ(Back->ItemsDropped, Want.ItemsDropped);
    EXPECT_EQ(Back->SuppressedFindings, Want.SuppressedFindings);
    ASSERT_EQ(Back->Detectors.size(), Want.Detectors.size());
    for (size_t J = 0; J != Want.Detectors.size(); ++J) {
      EXPECT_EQ(Back->Detectors[J].Name, Want.Detectors[J].Name);
      EXPECT_EQ(Back->Detectors[J].Status, Want.Detectors[J].Status);
      EXPECT_EQ(Back->Detectors[J].Note, Want.Detectors[J].Note);
      EXPECT_EQ(Back->Detectors[J].Findings, Want.Detectors[J].Findings);
    }
    ASSERT_EQ(Back->Findings.size(), Want.Findings.size());
    for (size_t J = 0; J != Want.Findings.size(); ++J) {
      const diag::Diagnostic &A = Want.Findings[J], &B = Back->Findings[J];
      EXPECT_EQ(B.Kind, A.Kind);
      EXPECT_EQ(B.Sev, A.Sev);
      EXPECT_EQ(B.Function, A.Function);
      EXPECT_EQ(B.Block, A.Block);
      EXPECT_EQ(B.StmtIndex, A.StmtIndex);
      EXPECT_EQ(B.Message, A.Message);
      EXPECT_EQ(B.Loc, A.Loc);
      EXPECT_EQ(B.Notes, A.Notes);
      ASSERT_EQ(B.Secondary.size(), A.Secondary.size());
      for (size_t K = 0; K != A.Secondary.size(); ++K) {
        // A span with no file re-anchors at the report's own path.
        const SourceLocation &L = A.Secondary[K].Loc;
        EXPECT_EQ(B.Secondary[K].Loc,
                  L.isValid() && L.file().empty()
                      ? SourceLocation(internFileName(Want.Path), L.line(),
                                       L.column())
                      : L);
        EXPECT_EQ(B.Secondary[K].Function, A.Secondary[K].Function);
        EXPECT_EQ(B.Secondary[K].Label, A.Secondary[K].Label);
      }
      ASSERT_EQ(B.Fixes.size(), A.Fixes.size());
      for (size_t K = 0; K != A.Fixes.size(); ++K) {
        EXPECT_EQ(B.Fixes[K].Replacement, A.Fixes[K].Replacement);
        EXPECT_EQ(B.Fixes[K].Description, A.Fixes[K].Description);
      }
    }
    EXPECT_EQ(Back->ParseErrors.size(), Want.ParseErrors.size());
    EXPECT_EQ(Back->VerifierErrors.size(), Want.VerifierErrors.size());
    EXPECT_EQ(Back->Notices.size(), Want.Notices.size());
  }
  EXPECT_TRUE(SawStatus[0] && SawStatus[1] && SawStatus[2]);
  EXPECT_TRUE(SawCounterpart);
}

TEST(ReportCodec, EveryStrictPrefixIsRejected) {
  const FileReport Want = evalReport();
  ASSERT_FALSE(Want.Findings.empty());
  const std::string Payload = serializeFileReport(Want);
  ASSERT_TRUE(deserializeFileReport(Payload, Want.Path).has_value());
  for (size_t N = 0; N != Payload.size(); ++N)
    EXPECT_FALSE(deserializeFileReport(Payload.substr(0, N), Want.Path))
        << N;
}

TEST(ReportCodec, EverySingleByteChangeDecodesOrDeclines) {
  const FileReport Want = evalReport();
  const std::string Payload = serializeFileReport(Want);
  // The real payload carries a counterpart-file span.
  ASSERT_NE(Payload.find("xfile_uaf_bug_0_def.mir"), std::string::npos);
  size_t Decoded = 0;
  for (size_t At = 0; At != Payload.size(); ++At)
    for (int Value = 0; Value != 256; ++Value) {
      if (static_cast<char>(Value) == Payload[At])
        continue;
      std::string Bad = Payload;
      Bad[At] = static_cast<char>(Value);
      // Whatever decodes is a report the codec can write again.
      if (std::optional<FileReport> R = deserializeFileReport(Bad, Want.Path)) {
        ++Decoded;
        const std::string Again = serializeFileReport(*R);
        EXPECT_TRUE(deserializeFileReport(Again, Want.Path).has_value());
      }
    }
  // Changes inside strings and integers still decode; changes to the
  // header never do.
  EXPECT_GT(Decoded, 0u);
  for (size_t At = 0; At != 8; ++At) {
    std::string Bad = Payload;
    Bad[At] = static_cast<char>(Bad[At] ^ 0x40);
    EXPECT_FALSE(deserializeFileReport(Bad, Want.Path)) << At;
  }
}
