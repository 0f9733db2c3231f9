//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "testgen/Scorecard.h"

#include "detectors/Detector.h"
#include "support/Json.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace rs::testgen {

namespace {

std::string baseName(const std::string &Path) {
  return std::filesystem::path(Path).filename().string();
}

/// The battery's detector names, in registration order — the row order of
/// every scorecard.
std::vector<std::string> batteryNames() {
  std::vector<std::string> Names;
  for (const auto &D : detectors::makeAllDetectors())
    Names.push_back(D->name());
  return Names;
}

/// Recall or F1 as rendered: "unscored" when there is no positive case.
std::string scoredMetric(const DetectorScore &S, double V) {
  return S.scored() ? formatDouble(V, 4) : "unscored";
}

} // namespace

std::optional<Manifest> loadManifest(const std::string &Path,
                                     std::string *Error) {
  auto Fail = [&](std::string Msg) -> std::optional<Manifest> {
    if (Error)
      *Error = std::move(Msg);
    return std::nullopt;
  };

  std::ifstream In(Path);
  if (!In)
    return Fail("cannot read manifest: " + Path);
  std::stringstream Buf;
  Buf << In.rdbuf();

  std::optional<JsonValue> Doc = JsonValue::parse(Buf.str());
  if (!Doc || !Doc->isObject())
    return Fail("manifest is not a JSON object: " + Path);
  const JsonValue *Cases = Doc->get("cases");
  if (!Cases || !Cases->isArray())
    return Fail("manifest has no \"cases\" array: " + Path);

  Manifest Man;
  for (const JsonValue &C : Cases->elements()) {
    LabeledCase L;
    L.File = C.getString("file");
    L.Detector = C.getString("detector");
    L.Positive = C.getBool("positive");
    if (L.File.empty() || L.Detector.empty())
      return Fail("manifest case missing \"file\" or \"detector\": " + Path);
    Man.Cases.push_back(std::move(L));
  }
  return Man;
}

double DetectorScore::precision() const {
  return TP + FP == 0 ? 1.0 : double(TP) / double(TP + FP);
}

double DetectorScore::recall() const {
  return TP + FN == 0 ? 1.0 : double(TP) / double(TP + FN);
}

double DetectorScore::f1() const {
  double P = precision(), R = recall();
  return P + R == 0 ? 0.0 : 2 * P * R / (P + R);
}

const DetectorScore *Scorecard::find(std::string_view Detector) const {
  for (const DetectorScore &S : Scores)
    if (S.Detector == Detector)
      return &S;
  return nullptr;
}

Scorecard scoreReport(const engine::CorpusReport &Report,
                      const Manifest &Man) {
  // Per report file: which detector kinds fired (by name). Keyed by final
  // path component, the spelling the manifest uses.
  std::map<std::string, std::set<std::string>> FiredByFile;
  std::set<std::string> ReportFiles;

  Scorecard Card;
  for (const engine::FileReport &F : Report.Files) {
    std::string Name = baseName(F.Path);
    ReportFiles.insert(Name);
    if (F.Status == engine::EngineStatus::Ok)
      ++Card.FilesAnalyzed;
    else
      ++Card.FilesFailed;
    for (const detectors::Diagnostic &D : F.Findings) {
      // The producing detector ("missing-wakeup" for RS-MW-002), plus
      // both rule spellings, so manifests can also label cases by short
      // kind name ("recv-no-sender") or stable rule ID ("RS-MW-002").
      FiredByFile[Name].insert(diag::ruleInfo(D.Kind).Detector);
      FiredByFile[Name].insert(detectors::bugKindName(D.Kind));
      FiredByFile[Name].insert(diag::ruleStringId(D.Kind));
    }
  }

  std::vector<std::string> Battery = batteryNames();
  std::map<std::string, DetectorScore> ByName;

  auto ScoreOne = [&](const std::string &File, const std::string &Detector,
                      bool Positive) {
    if (!ReportFiles.count(File)) {
      ++Card.CasesUnmatched;
      return;
    }
    auto It = FiredByFile.find(File);
    bool Fired = It != FiredByFile.end() && It->second.count(Detector);
    DetectorScore &S = ByName[Detector];
    S.Detector = Detector;
    if (Fired)
      ++(Positive ? S.TP : S.FP);
    else
      ++(Positive ? S.FN : S.TN);
    ++Card.CasesScored;
  };

  for (const LabeledCase &L : Man.Cases) {
    if (L.Detector == "*") {
      for (const std::string &D : Battery)
        ScoreOne(L.File, D, L.Positive);
    } else {
      ScoreOne(L.File, L.Detector, L.Positive);
    }
  }

  for (const std::string &D : Battery)
    if (ByName.count(D))
      Card.Scores.push_back(ByName[D]);
  return Card;
}

std::string Scorecard::renderText() const {
  std::string Out;
  Out += "detector                  tp   fp   fn   tn  precision  recall      f1\n";
  for (const DetectorScore &S : Scores) {
    char Line[160];
    std::snprintf(Line, sizeof(Line),
                  "%-22s %4u %4u %4u %4u     %6s  %6s  %6s\n",
                  S.Detector.c_str(), S.TP, S.FP, S.FN, S.TN,
                  formatDouble(S.precision(), 4).c_str(),
                  scoredMetric(S, S.recall()).c_str(),
                  scoredMetric(S, S.f1()).c_str());
    Out += Line;
  }
  Out += "cases: " + std::to_string(CasesScored) + " scored, " +
         std::to_string(CasesUnmatched) + " unmatched; files: " +
         std::to_string(FilesAnalyzed) + " analyzed, " +
         std::to_string(FilesFailed) + " failed\n";
  return Out;
}

std::string Scorecard::renderJson() const {
  JsonWriter W;
  W.beginObject();
  W.key("scorecard");
  W.beginObject();
  W.field("cases_scored", static_cast<int64_t>(CasesScored));
  W.field("cases_unmatched", static_cast<int64_t>(CasesUnmatched));
  W.field("files_analyzed", static_cast<int64_t>(FilesAnalyzed));
  W.field("files_failed", static_cast<int64_t>(FilesFailed));
  W.key("detectors");
  W.beginArray();
  for (const DetectorScore &S : Scores) {
    W.beginObject();
    W.field("name", S.Detector);
    W.field("tp", static_cast<int64_t>(S.TP));
    W.field("fp", static_cast<int64_t>(S.FP));
    W.field("fn", static_cast<int64_t>(S.FN));
    W.field("tn", static_cast<int64_t>(S.TN));
    // Metrics render as fixed-point strings: byte-stable across platforms,
    // which double formatting is not.
    W.field("precision", formatDouble(S.precision(), 4));
    W.field("recall", scoredMetric(S, S.recall()));
    W.field("f1", scoredMetric(S, S.f1()));
    W.endObject();
  }
  W.endArray();
  W.endObject();
  W.endObject();
  return W.str();
}

std::string Scorecard::renderBaselineJson() const {
  JsonWriter W;
  W.beginObject();
  W.key("f1");
  W.beginObject();
  for (const DetectorScore &S : Scores)
    W.field(S.Detector, scoredMetric(S, S.f1()));
  W.endObject();
  W.endObject();
  return W.str();
}

std::vector<std::string> compareToBaseline(const Scorecard &S,
                                           const std::string &BaselineJson) {
  std::vector<std::string> Regressions;
  std::optional<JsonValue> Doc = JsonValue::parse(BaselineJson);
  if (!Doc || !Doc->isObject()) {
    Regressions.push_back("baseline is not a JSON object");
    return Regressions;
  }
  const JsonValue *F1 = Doc->get("f1");
  if (!F1 || !F1->isObject()) {
    Regressions.push_back("baseline has no \"f1\" object");
    return Regressions;
  }
  for (const DetectorScore &Got : S.Scores)
    if (!Got.scored())
      Regressions.push_back(Got.Detector +
                            ": unscored (no positive case to measure)");
  for (const auto &[Name, V] : F1->members()) {
    double Want =
        V.isString() ? std::strtod(V.asString().c_str(), nullptr)
                     : V.asDouble();
    const DetectorScore *Got = S.find(Name);
    if (!Got) {
      Regressions.push_back(Name + ": baselined but missing from scorecard");
      continue;
    }
    if (Got->f1() + 1e-6 < Want)
      Regressions.push_back(Name + ": f1 " + formatDouble(Got->f1(), 4) +
                            " below baseline " + formatDouble(Want, 4));
  }
  return Regressions;
}

} // namespace rs::testgen
