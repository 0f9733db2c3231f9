//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ground-truth detector evaluation: loads a labeled-case manifest, scores
/// an engine corpus report against it, and renders a per-detector
/// precision/recall/F1 scorecard (text and JSON). The paper reports its
/// detectors' findings qualitatively; this layer measures ours.
///
/// Labeling model: each case names one file and one detector and says
/// whether that detector must fire there ("positive") — the benign twin of
/// every injected pattern is a labeled negative for the same detector. A
/// case with detector "*" is a clean program: a negative for every detector
/// in the battery. (file, detector) pairs no case labels are not scored.
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_TESTGEN_SCORECARD_H
#define RUSTSIGHT_TESTGEN_SCORECARD_H

#include "engine/Engine.h"

#include <optional>
#include <string>
#include <vector>

namespace rs::testgen {

/// One labeled (file, detector) expectation.
struct LabeledCase {
  std::string File;     ///< Case file name, relative to the manifest.
  std::string Detector; ///< Detector name, or "*" = negative for all.
  bool Positive = false;
};

/// A parsed manifest.json.
struct Manifest {
  std::vector<LabeledCase> Cases;
};

/// Loads a manifest file; nullopt (with \p Error set) on unreadable file,
/// malformed JSON, or a case missing file/detector fields.
std::optional<Manifest> loadManifest(const std::string &Path,
                                     std::string *Error = nullptr);

/// Confusion counts and derived metrics for one detector. Edge conventions:
/// precision is 1 when nothing was reported (TP+FP == 0), recall is 1 when
/// nothing was expected (TP+FN == 0), F1 is 0 when precision+recall is 0.
/// A detector with no positive case is not scored(): every rendering
/// prints "unscored" for its recall and F1 instead of that vacuous 1.
struct DetectorScore {
  std::string Detector;
  unsigned TP = 0, FP = 0, FN = 0, TN = 0;

  bool scored() const { return TP + FN != 0; }
  double precision() const;
  double recall() const;
  double f1() const;
};

/// The whole evaluation. Deliberately excludes timings and cache counters —
/// like CorpusReport::renderJson, the rendered scorecard is byte-identical
/// for any job count and cache temperature.
struct Scorecard {
  /// One row per detector with at least one labeled case, in detector
  /// battery order.
  std::vector<DetectorScore> Scores;
  size_t CasesScored = 0;    ///< Labeled (file, detector) pairs scored.
  size_t CasesUnmatched = 0; ///< Labels whose file the report lacks.
  size_t FilesAnalyzed = 0;  ///< Report files that analyzed Ok.
  size_t FilesFailed = 0;    ///< Report files that degraded or skipped.

  const DetectorScore *find(std::string_view Detector) const;

  /// Aligned table plus a summary line.
  std::string renderText() const;

  /// {"scorecard": {...}} — schema pinned by tests/golden.
  std::string renderJson() const;

  /// {"f1": {"<detector>": "<f1>"}} — the EVAL_baseline.json format.
  std::string renderBaselineJson() const;
};

/// Scores \p Report against \p Man. A detector "fires" on a file when the
/// file has a finding the detector produces (labels may also name a rule
/// by kind name or rule ID). Report files match manifest cases by final
/// path component.
Scorecard scoreReport(const engine::CorpusReport &Report, const Manifest &Man);

/// Compares \p S against a baseline document (renderBaselineJson format);
/// returns one human-readable line per regression (F1 below baseline by
/// more than 1e-6, a baselined detector missing from the scorecard, or a
/// scorecard detector that is not scored()).
std::vector<std::string> compareToBaseline(const Scorecard &S,
                                           const std::string &BaselineJson);

} // namespace rs::testgen

#endif // RUSTSIGHT_TESTGEN_SCORECARD_H
