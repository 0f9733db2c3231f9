//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Writes the labeled ground-truth evaluation corpus: for every mutation in
/// the catalog, several buggy cases and their benign twins (each planted in
/// a different generated host program), plus clean generator-only programs
/// labeled negative for every detector. Emits one .mir file per case and a
/// manifest.json that Scorecard.h scores against. Fully determined by the
/// spec — regenerating with the same spec reproduces the checked-in corpus
/// byte for byte.
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_TESTGEN_EVALCORPUS_H
#define RUSTSIGHT_TESTGEN_EVALCORPUS_H

#include <cstdint>
#include <string>

namespace rs::testgen {

/// Shape of the written corpus. Defaults satisfy the evaluation floor:
/// 14 mutations x 3 positives + 14 x 2 benign twins + 15 clean = 85 cases,
/// 42 positives, 43 negatives — plus, when CrossFileCases is set, the
/// multi-file interprocedural pairs below (12 files). Every detector gets
/// at least 3 positive cases, so none is scored from negatives alone.
struct EvalCorpusSpec {
  uint64_t BaseSeed = 9000;
  unsigned PositivesPerMutation = 3;
  unsigned BenignPerMutation = 2;
  unsigned CleanCases = 15;

  /// Emit the cross-file pairs: for each of use-after-free, double-lock
  /// and ABBA lock-order, one buggy (use-file, def-file) pair whose bug
  /// only exists when the whole-program link resolves the callee across
  /// the file boundary, and one benign twin pair. Use-files carry the
  /// positive/negative label; def-files are labeled clean ("*"). Callee
  /// names are unique per case so first-definition-wins extern resolution
  /// can never cross-wire a benign twin to a buggy callee.
  bool CrossFileCases = true;
};

/// Writes the corpus into \p Dir (created if needed): one "<pattern>_bug_N
/// .mir" / "<pattern>_ok_N.mir" per injected case, "clean_N.mir" per clean
/// case, and "manifest.json". Returns the number of cases written.
size_t writeEvalCorpus(const std::string &Dir,
                       const EvalCorpusSpec &Spec = EvalCorpusSpec());

} // namespace rs::testgen

#endif // RUSTSIGHT_TESTGEN_EVALCORPUS_H
