//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unified structured-diagnostics core. Every producer in the system —
/// the eleven bug detectors, the MIR parser and verifier, and the analysis
/// engine's degradation machinery — emits diag::Diagnostic values, and every
/// output format (text with source snippets, JSON, SARIF 2.1.0) renders from
/// the same list. A diagnostic carries a stable rule ID from Rules.def, a
/// severity, a primary span plus ordered labeled secondary spans ("value
/// dropped here", "first lock acquired here"), free-form notes, optional
/// machine-applicable fix-its, and a stable fingerprint used for
/// deduplication and --baseline diffing.
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_DIAG_DIAG_H
#define RUSTSIGHT_DIAG_DIAG_H

#include "mir/Mir.h"
#include "support/SourceLocation.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rs {
class JsonWriter;
} // namespace rs

namespace rs::diag {

/// How severe a diagnostic is. Orders by decreasing severity so severity
/// comparisons read naturally (Error < Warning means "more severe").
enum class Severity {
  Error,   ///< A bug finding or a hard pipeline failure.
  Warning, ///< Suspicious but not certainly wrong, or lost coverage.
  Note,    ///< Informational: reduced precision, context.
};

/// Every rule RustSight can emit, generated from Rules.def. The bug rules
/// come first, in the historical BugKind order (their enumerator values are
/// the deterministic sort key for findings); infrastructure rules follow.
enum class RuleId {
#define DIAG_RULE(EnumName, Id, Name, Detector, Sev, Summary, Help) EnumName,
#include "diag/Rules.def"
};

/// Static metadata for one rule, shared by the name tables, the SARIF rule
/// array, and the suppression parser.
struct RuleInfo {
  RuleId Rule;
  const char *StringId;  ///< Stable ID: "RS-UAF-001". Spelled in SARIF,
                         ///< suppression comments, and baselines.
  const char *Name;      ///< Short kind name: "use-after-free".
  const char *Detector;  ///< Battery detector that produces it ("" = none).
  Severity DefaultSeverity;
  const char *Summary;   ///< One-sentence description (SARIF shortDescription).
  const char *Help;      ///< Paper anchor / remediation (SARIF fullDescription).
};

/// Total number of rules, and the index of the first non-bug rule.
size_t numRules();
size_t numBugRules();

/// Metadata lookup; valid for every RuleId.
const RuleInfo &ruleInfo(RuleId R);

/// "RS-UAF-001" spelling of \p R.
const char *ruleStringId(RuleId R);

/// "use-after-free" spelling of \p R.
const char *ruleName(RuleId R);

/// "error" / "warning" / "note".
const char *severityName(Severity S);

/// True for the detector bug kinds (paper Sections 5-7); false for
/// pipeline/infrastructure rules.
bool isBugRule(RuleId R);

/// Looks a rule up by its stable string ID ("RS-UAF-001") or, failing that,
/// by its short name ("use-after-free"). Accepts any rule. Returns false
/// when nothing matches.
bool ruleFromString(std::string_view Spelling, RuleId &Out);

/// Looks a *bug* rule up by short name only — the historical
/// bugKindFromName contract, used by the result cache to reject payloads
/// from a different detector set and by eval manifests.
bool bugRuleFromName(std::string_view Name, RuleId &Out);

/// A labeled secondary program point: "value dropped here", "first lock
/// acquired here". Function is the enclosing function when the span lives
/// in a different function than the diagnostic (lock-order counterparts);
/// empty otherwise.
struct Span {
  SourceLocation Loc;
  std::string Label;
  std::string Function;

  friend bool operator==(const Span &A, const Span &B) {
    return A.Loc == B.Loc && A.Label == B.Label && A.Function == B.Function;
  }
};

/// A machine-applicable replacement: swap the full source line at Loc for
/// Replacement. Line-granular because MIR statements are line-oriented;
/// tools/IDEs can apply it textually without reparsing.
struct FixIt {
  SourceLocation Loc;
  std::string Replacement;
  std::string Description;
};

/// One structured diagnostic: a finding from a detector, a parser or
/// verifier error, or an engine status note.
struct Diagnostic {
  Diagnostic() = default;
  /// Seeds Kind and the severity from the rule table.
  explicit Diagnostic(RuleId Rule)
      : Kind(Rule), Sev(ruleInfo(Rule).DefaultSeverity) {}

  RuleId Kind = RuleId::UseAfterFree;
  Severity Sev = Severity::Error;
  /// Enclosing function; empty for file-level diagnostics (parse errors,
  /// engine statuses).
  std::string Function;
  mir::BlockId Block = 0;
  /// Statement index within the block; Statements.size() means the
  /// terminator. Zero for file-level diagnostics.
  size_t StmtIndex = 0;
  std::string Message;
  /// Primary span.
  SourceLocation Loc;
  /// Ordered labeled secondary spans (producers emit them sorted by
  /// program point so output is deterministic).
  std::vector<Span> Secondary;
  /// Free-form notes rendered after the spans.
  std::vector<std::string> Notes;
  /// Machine-applicable fixes.
  std::vector<FixIt> Fixes;

  /// Renders the historical one-line form
  /// "function:bbN[i]: kind: message (loc)"; file-level diagnostics render
  /// "loc: severity: kind: message" instead.
  std::string toString() const;

  /// Stable identity for dedup and baselines: FNV-1a over the rule string
  /// ID, the basename of the primary span's file, the function, block and
  /// statement indices, and the message. Deliberately excludes line/column
  /// (so unrelated edits above a finding don't churn baselines) and the
  /// directory (so baselines survive path re-anchoring).
  uint64_t fingerprint() const;

  /// fingerprint() in the 16-digit hex spelling used by baseline files and
  /// SARIF partialFingerprints.
  std::string fingerprintHex() const;
};

/// Deterministic ordering used everywhere a diagnostic list is rendered:
/// (Function, Block, StmtIndex, Kind, Message).
bool diagnosticLess(const Diagnostic &A, const Diagnostic &B);

/// Writes one diagnostic as a JSON object — the single schema every JSON
/// surface shares (DiagnosticEngine::renderJson, the engine's CorpusReport,
/// the result-cache payload).
void writeDiagnosticJson(JsonWriter &W, const Diagnostic &D);

/// Collects diagnostics across producers and renders them deterministically.
/// Sorting is explicit: call sort() once after the last report(); the
/// accessors are const and never mutate.
class DiagnosticEngine {
public:
  void report(Diagnostic D);

  /// Sorts by (function, block, statement, kind, message) and drops exact
  /// duplicates (detectors may flag the same point twice through different
  /// paths). Idempotent.
  void sort();

  /// True once sort() has run and no report() followed it.
  bool isSorted() const { return Sorted; }

  /// The collected diagnostics, in report order until sort() is called.
  const std::vector<Diagnostic> &diagnostics() const { return Diags; }

  /// Moves the (sorted) diagnostics out, leaving the engine empty.
  std::vector<Diagnostic> take();

  size_t count() const { return Diags.size(); }
  size_t countOfKind(RuleId K) const;
  /// Diagnostics whose rule \p Detector produces (RuleInfo::Detector).
  size_t countOfDetector(std::string_view Detector) const;

  /// One toString() line per diagnostic. Call sort() first for
  /// deterministic output.
  std::string renderText() const;

  /// A JSON array of diagnostic objects. Call sort() first for
  /// deterministic output.
  std::string renderJson() const;

private:
  std::vector<Diagnostic> Diags;
  bool Sorted = true;
};

} // namespace rs::diag

#endif // RUSTSIGHT_DIAG_DIAG_H
