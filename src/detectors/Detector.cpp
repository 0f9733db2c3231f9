#include "detectors/Detector.h"

#include "detectors/Detectors.h"

#include <cassert>

using namespace rs::analysis;
using namespace rs::detectors;
using namespace rs::mir;

AnalysisContext::AnalysisContext(const Module &M, const AnalysisLimits &Limits)
    : M(M), Limits(Limits), CG(M) {
  Cache.resize(M.functions().size());
  // Adopt the analyses the summary scheduler built only when nothing bounds
  // this context: under budgets the degradation semantics (per-function
  // budget chaining, partial results) must match a fresh computation.
  bool Unbounded = !Limits.ContextBudget && Limits.MaxDataflowSteps == 0;
  ModuleAnalysisCache Built;
  Summaries =
      computeSummaries(M, Limits.MaxSummaryRounds, Limits.ContextBudget,
                       &SummariesOk, &CG, nullptr, Unbounded ? &Built : nullptr,
                       Limits.External);
  if (Unbounded && Built.Cfgs.size() == Cache.size()) {
    for (size_t I = 0; I != Cache.size(); ++I) {
      Cache[I].G = std::move(Built.Cfgs[I]);
      Cache[I].MA = std::move(Built.Memory[I]);
    }
  }
}

rs::mir::FuncId AnalysisContext::idOf(const Function &F) const {
  analysis::FuncId Id = CG.idOf(F.Name);
  assert(Id != analysis::InvalidFuncId && &M.func(Id) == &F &&
         "function from a different module");
  return Id;
}

AnalysisContext::PerFunction &AnalysisContext::entry(rs::mir::FuncId Id) {
  assert(Id < Cache.size() && "function ordinal out of range");
  PerFunction &E = Cache[Id];
  if (!E.G)
    E.G = std::make_unique<Cfg>(M.func(Id), /*PruneConstantBranches=*/true);
  return E;
}

const Cfg &AnalysisContext::cfg(rs::mir::FuncId Id) { return *entry(Id).G; }

const MemoryAnalysis &AnalysisContext::memory(rs::mir::FuncId Id) {
  PerFunction &E = entry(Id);
  if (!E.MA) {
    Budget *Bgt = nullptr;
    if (Limits.MaxDataflowSteps != 0 || Limits.ContextBudget) {
      E.DfBudget = std::make_unique<Budget>(Budget::steps(
          Limits.MaxDataflowSteps));
      E.DfBudget->setParent(Limits.ContextBudget);
      Bgt = E.DfBudget.get();
    }
    E.MA = std::make_unique<MemoryAnalysis>(*E.G, M, &Summaries, Bgt);
  }
  return *E.MA;
}

bool AnalysisContext::memoryDegraded(const Function &F) const {
  analysis::FuncId Id = CG.idOf(F.Name);
  if (Id == analysis::InvalidFuncId)
    return false;
  const PerFunction &E = Cache[Id];
  return E.MA && !E.MA->dataflowConverged();
}

bool AnalysisContext::anyDegraded() const {
  if (!SummariesOk)
    return true;
  for (const PerFunction &E : Cache)
    if (E.MA && !E.MA->dataflowConverged())
      return true;
  return false;
}

std::vector<std::unique_ptr<Detector>> rs::detectors::makeAllDetectors() {
  std::vector<std::unique_ptr<Detector>> Out;
  Out.push_back(std::make_unique<UseAfterFreeDetector>());
  Out.push_back(std::make_unique<DoubleLockDetector>());
  Out.push_back(std::make_unique<LockOrderDetector>());
  Out.push_back(std::make_unique<InvalidFreeDetector>());
  Out.push_back(std::make_unique<DoubleFreeDetector>());
  Out.push_back(std::make_unique<UninitReadDetector>());
  Out.push_back(std::make_unique<InteriorMutabilityDetector>());
  Out.push_back(std::make_unique<MissingWakeupDetector>());
  Out.push_back(std::make_unique<DanglingReturnDetector>());
  return Out;
}

void rs::detectors::runAllDetectors(const Module &M, DiagnosticEngine &Diags) {
  AnalysisContext Ctx(M);
  for (const auto &D : makeAllDetectors())
    D->run(Ctx, Diags);
  // The convenience entry point leaves \p Diags render-ready: sorted into
  // the canonical order and deduplicated.
  Diags.sort();
}
