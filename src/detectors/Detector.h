//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The detector framework: a shared AnalysisContext that caches per-function
/// analyses, the Detector interface, and the registry that runs every
/// built-in detector over a module.
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_DETECTORS_DETECTOR_H
#define RUSTSIGHT_DETECTORS_DETECTOR_H

#include "analysis/CallGraph.h"
#include "analysis/Link.h"
#include "analysis/Memory.h"
#include "analysis/Summaries.h"
#include "detectors/Diagnostics.h"
#include "support/Budget.h"

#include <memory>
#include <string>
#include <vector>

namespace rs::detectors {

/// Resource limits for one AnalysisContext, threaded into every analysis it
/// runs. All zero/null means unlimited (the historical behavior).
struct AnalysisLimits {
  /// Shared budget for the whole context (typically one file). Analyses
  /// drain it cooperatively; when it is exhausted they degrade instead of
  /// running on. Not owned; may be null.
  Budget *ContextBudget = nullptr;

  /// Per-function cap on dataflow block updates (0 = unlimited). Bounds one
  /// pathological CFG without starving the rest of the module.
  uint64_t MaxDataflowSteps = 0;

  /// Fixpoint rounds for interprocedural summaries.
  unsigned MaxSummaryRounds = 8;

  /// Cross-file summary environment from the whole-program link step
  /// (Link.h). Calls to functions this module does not define resolve
  /// through it, and detectors emit counterpart spans into the defining
  /// files. Null in per-file mode. Not owned; must stay alive and immutable
  /// for the context's lifetime.
  const analysis::ExternalSummaries *External = nullptr;
};

/// Caches the module-level and per-function analyses detectors share, so a
/// battery of detectors pays for each analysis once.
class AnalysisContext {
public:
  explicit AnalysisContext(const mir::Module &M)
      : AnalysisContext(M, AnalysisLimits()) {}

  AnalysisContext(const mir::Module &M, const AnalysisLimits &Limits);

  const mir::Module &module() const { return M; }
  const analysis::SummaryMap &summaries() const { return Summaries; }
  const analysis::CallGraph &callGraph() const { return CG; }

  /// The (cached) CFG of the module's function with ordinal \p Id (its
  /// position in Module::functions()).
  const analysis::Cfg &cfg(mir::FuncId Id);

  /// The (cached) memory analysis of function \p Id, computed with
  /// summaries. Under a budget the result may be degraded; see
  /// memoryDegraded().
  const analysis::MemoryAnalysis &memory(mir::FuncId Id);

  /// By-function forms of the above, for callers that hold a Function of
  /// this module rather than its ordinal (a by-name lookup).
  const analysis::Cfg &cfg(const mir::Function &F) { return cfg(idOf(F)); }
  const analysis::MemoryAnalysis &memory(const mir::Function &F) {
    return memory(idOf(F));
  }

  // --- Degradation ladder introspection -----------------------------------

  /// False when the budget truncated summary computation: detectors still
  /// run, but with per-function-only interprocedural knowledge.
  bool summariesComplete() const { return SummariesOk; }

  /// True when \p F's memory analysis hit its budget before the fixpoint
  /// (only meaningful after memory(F) has been requested).
  bool memoryDegraded(const mir::Function &F) const;

  /// True when anything computed so far was budget-degraded.
  bool anyDegraded() const;

  /// The shared context budget (null when unlimited).
  const Budget *contextBudget() const { return Limits.ContextBudget; }

  /// Cross-file info for externally-defined callee \p Name (effect sites +
  /// defining file for counterpart spans), or null in per-file mode or for
  /// names the link step did not resolve.
  const analysis::ExternalFunctionInfo *
  externalInfo(std::string_view Name) const {
    return Limits.External ? Limits.External->find(Name) : nullptr;
  }

private:
  struct PerFunction {
    std::unique_ptr<analysis::Cfg> G;
    std::unique_ptr<analysis::MemoryAnalysis> MA;
    /// Per-function dataflow budget, chained to the context budget; kept
    /// alive here so its exhaustion state stays inspectable.
    std::unique_ptr<Budget> DfBudget;
  };

  const mir::Module &M;
  AnalysisLimits Limits;
  bool SummariesOk = true;
  analysis::CallGraph CG; ///< Built first; shared with summary scheduling.
  analysis::SummaryMap Summaries;
  /// Dense per-function cache indexed by function ordinal (= CallGraph id).
  /// On unbudgeted contexts the entries start out adopted from the summary
  /// computation, which already solved every function's memory analysis
  /// against the final summaries.
  std::vector<PerFunction> Cache;

  PerFunction &entry(mir::FuncId Id);
  mir::FuncId idOf(const mir::Function &F) const;
};

/// Builds a labeled secondary span from an analysis program point.
/// \p Function names the enclosing function only when it differs from the
/// diagnostic's own (cross-function spans, e.g. lock-order counterparts).
inline diag::Span spanAt(const analysis::StatePoint &P, std::string Label,
                         std::string Function = std::string()) {
  diag::Span S;
  S.Loc = P.Loc;
  S.Label = std::move(Label);
  S.Function = std::move(Function);
  return S;
}

/// Appends one \p Label span per transition site. Sites arrive sorted by
/// program point (see MemoryAnalysis::transitionSites), so the resulting
/// span order is deterministic.
inline void addSpans(Diagnostic &D,
                     const std::vector<analysis::StatePoint> &Sites,
                     std::string_view Label) {
  for (const analysis::StatePoint &P : Sites)
    D.Secondary.push_back(spanAt(P, std::string(Label)));
}

/// A static bug detector.
class Detector {
public:
  virtual ~Detector() = default;

  /// Stable identifier, e.g. "use-after-free".
  virtual const char *name() const = 0;

  /// Scans the whole module, reporting findings into \p Diags.
  virtual void run(AnalysisContext &Ctx, DiagnosticEngine &Diags) = 0;
};

/// Instantiates every built-in detector, in deterministic order.
std::vector<std::unique_ptr<Detector>> makeAllDetectors();

/// Convenience: runs every built-in detector over \p M.
void runAllDetectors(const mir::Module &M, DiagnosticEngine &Diags);

} // namespace rs::detectors

#endif // RUSTSIGHT_DETECTORS_DETECTOR_H
