#include "diag/Diag.h"

#include "support/Hash.h"
#include "support/Json.h"

#include <algorithm>
#include <cassert>
#include <tuple>

using namespace rs;
using namespace rs::diag;

//===----------------------------------------------------------------------===//
// Rule table
//===----------------------------------------------------------------------===//

namespace {

constexpr RuleInfo RuleTable[] = {
#define DIAG_RULE(EnumName, Id, Name, Detector, Sev, Summary, Help)           \
  {RuleId::EnumName, Id, Name, Detector, Severity::Sev, Summary, Help},
#include "diag/Rules.def"
};

constexpr size_t NumRulesTotal = sizeof(RuleTable) / sizeof(RuleTable[0]);

constexpr size_t NumBugRulesTotal = [] {
  size_t N = 0;
#define DIAG_BUG_RULE(EnumName, Id, Name, Detector, Sev, Summary, Help) ++N;
#define DIAG_INFRA_RULE(EnumName, Id, Name, Detector, Sev, Summary, Help)
#include "diag/Rules.def"
  return N;
}();

static_assert(NumBugRulesTotal == 11,
              "the paper's taxonomy defines 11 detector bug kinds; update "
              "the detectors and this assert together");

} // namespace

size_t rs::diag::numRules() { return NumRulesTotal; }
size_t rs::diag::numBugRules() { return NumBugRulesTotal; }

const RuleInfo &rs::diag::ruleInfo(RuleId R) {
  size_t Index = static_cast<size_t>(R);
  assert(Index < NumRulesTotal && "RuleId outside Rules.def");
  return RuleTable[Index];
}

const char *rs::diag::ruleStringId(RuleId R) { return ruleInfo(R).StringId; }

const char *rs::diag::ruleName(RuleId R) { return ruleInfo(R).Name; }

const char *rs::diag::severityName(Severity S) {
  switch (S) {
  case Severity::Error:
    return "error";
  case Severity::Warning:
    return "warning";
  case Severity::Note:
    return "note";
  }
  return "error";
}

bool rs::diag::isBugRule(RuleId R) {
  return static_cast<size_t>(R) < NumBugRulesTotal;
}

bool rs::diag::ruleFromString(std::string_view Spelling, RuleId &Out) {
  for (const RuleInfo &I : RuleTable)
    if (Spelling == I.StringId || Spelling == I.Name) {
      Out = I.Rule;
      return true;
    }
  return false;
}

bool rs::diag::bugRuleFromName(std::string_view Name, RuleId &Out) {
  for (size_t I = 0; I != NumBugRulesTotal; ++I)
    if (Name == RuleTable[I].Name) {
      Out = RuleTable[I].Rule;
      return true;
    }
  return false;
}

//===----------------------------------------------------------------------===//
// Diagnostic
//===----------------------------------------------------------------------===//

std::string Diagnostic::toString() const {
  if (Function.empty()) {
    // File-level diagnostic (parse error, engine status).
    std::string Out;
    if (Loc.isValid())
      Out = Loc.toString() + ": ";
    Out += std::string(severityName(Sev)) + ": " + ruleName(Kind) + ": " +
           Message;
    return Out;
  }
  std::string Out = Function + ":bb" + std::to_string(Block) + "[" +
                    std::to_string(StmtIndex) + "]: " + ruleName(Kind) +
                    ": " + Message;
  if (Loc.isValid())
    Out += " (" + Loc.toString() + ")";
  return Out;
}

namespace {

std::string_view baseName(std::string_view Path) {
  size_t Slash = Path.find_last_of("/\\");
  return Slash == std::string_view::npos ? Path : Path.substr(Slash + 1);
}

} // namespace

uint64_t Diagnostic::fingerprint() const {
  uint64_t H = fnv1a64(ruleStringId(Kind));
  H = fnv1a64("\x1f", H);
  H = fnv1a64(baseName(Loc.file()), H);
  H = fnv1a64("\x1f", H);
  H = fnv1a64(Function, H);
  H = fnv1a64U64(Block, H);
  H = fnv1a64U64(StmtIndex, H);
  H = fnv1a64(Message, H);
  return H;
}

std::string Diagnostic::fingerprintHex() const {
  return hashToHex(fingerprint());
}

bool rs::diag::diagnosticLess(const Diagnostic &A, const Diagnostic &B) {
  return std::tie(A.Function, A.Block, A.StmtIndex, A.Kind, A.Message) <
         std::tie(B.Function, B.Block, B.StmtIndex, B.Kind, B.Message);
}

//===----------------------------------------------------------------------===//
// DiagnosticEngine
//===----------------------------------------------------------------------===//

void DiagnosticEngine::report(Diagnostic D) {
  Diags.push_back(std::move(D));
  Sorted = false;
}

void DiagnosticEngine::sort() {
  if (Sorted)
    return;
  std::sort(Diags.begin(), Diags.end(), diagnosticLess);
  // Detectors may flag the same point twice through different paths; the
  // first copy wins (producers emit secondary spans deterministically, so
  // duplicates carry identical payloads).
  Diags.erase(std::unique(Diags.begin(), Diags.end(),
                          [](const Diagnostic &A, const Diagnostic &B) {
                            return A.Function == B.Function &&
                                   A.Block == B.Block &&
                                   A.StmtIndex == B.StmtIndex &&
                                   A.Kind == B.Kind && A.Message == B.Message;
                          }),
              Diags.end());
  Sorted = true;
}

std::vector<Diagnostic> DiagnosticEngine::take() {
  sort();
  std::vector<Diagnostic> Out = std::move(Diags);
  Diags.clear();
  Sorted = true;
  return Out;
}

size_t DiagnosticEngine::countOfKind(RuleId K) const {
  size_t N = 0;
  for (const Diagnostic &D : Diags)
    if (D.Kind == K)
      ++N;
  return N;
}

size_t DiagnosticEngine::countOfDetector(std::string_view Detector) const {
  size_t N = 0;
  for (const Diagnostic &D : Diags)
    if (ruleInfo(D.Kind).Detector == Detector)
      ++N;
  return N;
}

std::string DiagnosticEngine::renderText() const {
  std::string Out;
  for (const Diagnostic &D : Diags) {
    Out += D.toString();
    Out += '\n';
  }
  return Out;
}

std::string DiagnosticEngine::renderJson() const {
  JsonWriter W;
  W.beginArray();
  for (const Diagnostic &D : Diags)
    writeDiagnosticJson(W, D);
  W.endArray();
  return W.str();
}

//===----------------------------------------------------------------------===//
// Shared JSON shape (schema v2)
//===----------------------------------------------------------------------===//

void rs::diag::writeDiagnosticJson(JsonWriter &W, const Diagnostic &D) {
  W.beginObject();
  W.field("rule", ruleStringId(D.Kind));
  W.field("kind", ruleName(D.Kind));
  W.field("severity", severityName(D.Sev));
  if (!D.Function.empty()) {
    W.field("function", D.Function);
    W.field("block", static_cast<int64_t>(D.Block));
    W.field("statement", static_cast<int64_t>(D.StmtIndex));
  }
  W.field("message", D.Message);
  if (D.Loc.isValid())
    W.field("location", D.Loc.toString());
  W.field("fingerprint", D.fingerprintHex());
  if (!D.Secondary.empty()) {
    W.key("secondary");
    W.beginArray();
    for (const Span &S : D.Secondary) {
      W.beginObject();
      if (S.Loc.isValid())
        W.field("location", S.Loc.toString());
      if (!S.Function.empty())
        W.field("function", S.Function);
      W.field("label", S.Label);
      W.endObject();
    }
    W.endArray();
  }
  if (!D.Notes.empty()) {
    W.key("notes");
    W.beginArray();
    for (const std::string &N : D.Notes)
      W.value(N);
    W.endArray();
  }
  if (!D.Fixes.empty()) {
    W.key("fixes");
    W.beginArray();
    for (const FixIt &F : D.Fixes) {
      W.beginObject();
      if (F.Loc.isValid())
        W.field("location", F.Loc.toString());
      W.field("replacement", F.Replacement);
      W.field("description", F.Description);
      W.endObject();
    }
    W.endArray();
  }
  W.endObject();
}
