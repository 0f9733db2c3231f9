//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "analysis/Link.h"

#include "analysis/Cfg.h"
#include "analysis/Memory.h"
#include "analysis/Objects.h"
#include "analysis/Scc.h"
#include "mir/Intrinsics.h"
#include "support/Hash.h"
#include "support/Json.h"

#include <algorithm>
#include <set>

using namespace rs;
using namespace rs::analysis;
using namespace rs::mir;

//===----------------------------------------------------------------------===//
// SummaryTable bridge
//===----------------------------------------------------------------------===//

const FunctionSummary *
rs::analysis::externalFindSummary(const ExternalSummaries &Ext,
                                  std::string_view Name) {
  const ExternalFunctionInfo *Info = Ext.find(Name);
  return Info ? &Info->Summary : nullptr;
}

//===----------------------------------------------------------------------===//
// Fingerprints and facts
//===----------------------------------------------------------------------===//

namespace {

/// Separator fold: keeps adjacent variable-length parts from aliasing.
uint64_t foldSep(uint64_t H) { return fnv1a64("\x1f", H); }

uint64_t foldStr(std::string_view S, uint64_t H) {
  return foldSep(fnv1a64(S, H));
}

uint64_t foldU64(uint64_t V, uint64_t H) { return fnv1a64U64(V, H); }

} // namespace

uint64_t rs::analysis::moduleDeclFingerprint(const Module &M) {
  uint64_t H = fnv1a64("rslink-decls-v1");
  for (const StructDecl &S : M.structs()) {
    H = foldStr(S.Name, H);
    for (const auto &[FieldName, Ty] : S.Fields) {
      H = foldStr(FieldName, H);
      H = foldStr(Ty ? Ty->toString() : std::string(), H);
    }
    H = foldU64(S.HasDrop ? 1 : 0, H);
  }
  for (const StaticDecl &S : M.statics()) {
    H = foldStr(S.Name, H);
    H = foldStr(S.Ty ? S.Ty->toString() : std::string(), H);
    H = foldU64(S.Mutable ? 1 : 0, H);
  }
  std::vector<std::string> Sync;
  for (const auto &[Name, IsSync] : M.syncAdts())
    if (IsSync)
      Sync.push_back(std::string(Name));
  std::sort(Sync.begin(), Sync.end());
  for (const std::string &S : Sync)
    H = foldStr(S, H);
  return H;
}

namespace {

// The structural body fold behind functionFingerprint: every field
// Function::toString() renders, and every statement and terminator
// location, a machine word at a time into the running hash \p H. Each kind
// is folded before the fields it selects and each list's length before its
// elements, so the folded word sequence decodes to one body only.

void foldWord(uint64_t &H, uint64_t W) { H = wordFold(H, W); }

/// Folds \p S length-first, so adjacent strings cannot alias.
void foldString(uint64_t &H, std::string_view S) {
  H = wordFoldBytes(wordFold(H, S.size()), S);
}

void foldType(uint64_t &H, const Type *T) {
  // Kinds fold one up, so a missing type (0) is not a kind.
  foldWord(H, T ? static_cast<uint64_t>(T->kind()) + 1 : 0);
  if (!T)
    return;
  switch (T->kind()) {
  case Type::Kind::Prim:
    foldWord(H, static_cast<uint64_t>(T->prim()));
    break;
  case Type::Kind::Ref:
  case Type::Kind::RawPtr:
    foldWord(H, T->isMutPtr());
    foldType(H, T->pointee());
    break;
  case Type::Kind::Array:
    foldWord(H, T->arrayLen());
    foldType(H, T->pointee());
    break;
  case Type::Kind::Slice:
    foldType(H, T->pointee());
    break;
  case Type::Kind::Adt:
    foldString(H, T->adtNameSym().view());
    [[fallthrough]];
  case Type::Kind::Tuple:
    foldWord(H, T->args().size());
    for (const Type *A : T->args())
      foldType(H, A);
    break;
  }
}

void foldLoc(uint64_t &H, const SourceLocation &Loc) {
  foldWord(H, (uint64_t(Loc.line()) << 32) | Loc.column());
}

void foldPlace(uint64_t &H, const Place &P) {
  foldWord(H, P.Base);
  foldWord(H, P.Projs.size());
  for (const ProjectionElem &E : P.Projs) {
    foldWord(H, static_cast<uint64_t>(E.K));
    if (E.K == ProjectionElem::Kind::Field)
      foldWord(H, E.FieldIdx);
    else if (E.K == ProjectionElem::Kind::Index)
      foldWord(H, E.IndexLocal);
  }
}

void foldOperand(uint64_t &H, const Operand &O) {
  foldWord(H, static_cast<uint64_t>(O.K));
  if (O.isPlace()) {
    foldPlace(H, O.P);
    return;
  }
  const ConstValue &C = O.C;
  foldWord(H, static_cast<uint64_t>(C.K));
  switch (C.K) {
  case ConstValue::Kind::Int:
    foldWord(H, static_cast<uint64_t>(C.Int));
    foldType(H, C.Ty);
    break;
  case ConstValue::Kind::Bool:
    foldWord(H, C.Bool);
    break;
  case ConstValue::Kind::Str:
    foldString(H, C.Str.view());
    break;
  case ConstValue::Kind::Unit:
    break;
  }
}

void foldOperands(uint64_t &H, const OperandList &Ops) {
  foldWord(H, Ops.size());
  for (const Operand &O : Ops)
    foldOperand(H, O);
}

void foldRvalue(uint64_t &H, const Rvalue &RV) {
  foldWord(H, static_cast<uint64_t>(RV.K));
  switch (RV.K) {
  case Rvalue::Kind::Use:
    foldOperand(H, RV.Ops[0]);
    break;
  case Rvalue::Kind::Ref:
  case Rvalue::Kind::AddressOf:
    foldWord(H, RV.Mut);
    foldPlace(H, RV.P);
    break;
  case Rvalue::Kind::BinaryOp:
    foldWord(H, static_cast<uint64_t>(RV.BOp));
    foldOperand(H, RV.Ops[0]);
    foldOperand(H, RV.Ops[1]);
    break;
  case Rvalue::Kind::UnaryOp:
    foldWord(H, static_cast<uint64_t>(RV.UOp));
    foldOperand(H, RV.Ops[0]);
    break;
  case Rvalue::Kind::Cast:
    foldOperand(H, RV.Ops[0]);
    foldType(H, RV.CastTy);
    break;
  case Rvalue::Kind::Aggregate:
    foldString(H, RV.AggName.view());
    foldOperands(H, RV.Ops);
    break;
  case Rvalue::Kind::Discriminant:
  case Rvalue::Kind::Len:
    foldPlace(H, RV.P);
    break;
  }
}

void foldStatement(uint64_t &H, const Statement &S) {
  foldWord(H, static_cast<uint64_t>(S.K));
  foldLoc(H, S.Loc);
  switch (S.K) {
  case Statement::Kind::Assign:
    foldPlace(H, S.Dest);
    foldRvalue(H, S.RV);
    break;
  case Statement::Kind::StorageLive:
  case Statement::Kind::StorageDead:
    foldWord(H, S.Local);
    break;
  case Statement::Kind::Nop:
    break;
  }
}

void foldTerminator(uint64_t &H, const Terminator &T) {
  foldWord(H, static_cast<uint64_t>(T.K));
  foldLoc(H, T.Loc);
  switch (T.K) {
  case Terminator::Kind::Goto:
    foldWord(H, T.Target);
    break;
  case Terminator::Kind::SwitchInt:
    foldOperand(H, T.Discr);
    foldWord(H, T.Cases.size());
    for (const auto &[Value, Block] : T.Cases) {
      foldWord(H, static_cast<uint64_t>(Value));
      foldWord(H, Block);
    }
    foldWord(H, T.Target);
    break;
  case Terminator::Kind::Return:
  case Terminator::Kind::Resume:
  case Terminator::Kind::Unreachable:
    break;
  case Terminator::Kind::Drop:
    foldPlace(H, T.DropPlace);
    foldWord(H, T.Target);
    foldWord(H, T.Unwind);
    break;
  case Terminator::Kind::Call:
    foldWord(H, T.HasDest);
    if (T.HasDest)
      foldPlace(H, T.Dest);
    foldString(H, T.Callee.view());
    foldOperands(H, T.Args);
    foldWord(H, T.Target);
    foldWord(H, T.Unwind);
    break;
  case Terminator::Kind::Assert:
    foldOperand(H, T.Discr);
    foldWord(H, T.Target);
    break;
  }
}

} // namespace

uint64_t rs::analysis::functionFingerprint(const Function &F, uint64_t DeclFp) {
  static constexpr uint64_t Tag = fnv1a64("rslink-fn-v2");
  uint64_t H = wordFold(wordFoldSeed(0), Tag);
  foldWord(H, DeclFp);
  foldString(H, F.Name.view());
  foldWord(H, F.IsUnsafe);
  foldWord(H, F.NumArgs);
  foldWord(H, F.Locals.size());
  for (const LocalDecl &L : F.Locals) {
    foldType(H, L.Ty);
    foldWord(H, L.Mutable);
    foldString(H, L.DebugName.view());
  }
  foldWord(H, F.Blocks.size());
  for (const BasicBlock &BB : F.Blocks) {
    foldWord(H, BB.Statements.size());
    for (const Statement &S : BB.Statements)
      foldStatement(H, S);
    foldTerminator(H, BB.Term);
  }
  return wordFoldFinish(H);
}

ModuleFacts rs::analysis::collectModuleFacts(const Module &M,
                                             const std::string &Path) {
  ModuleFacts Facts;
  Facts.Path = Path;
  uint64_t DeclFp = moduleDeclFingerprint(M);
  Facts.Functions.reserve(M.functions().size());
  for (const Function &F : M.functions()) {
    FunctionFacts FF;
    FF.Name = F.Name.str();
    FF.NumArgs = F.NumArgs;
    FF.BodyFp = functionFingerprint(F, DeclFp);
    for (const BasicBlock &BB : F.Blocks) {
      const Terminator &T = BB.Term;
      if (T.K != Terminator::Kind::Call)
        continue;
      IntrinsicKind IK = classifyIntrinsic(T.Callee);
      if (IK == IntrinsicKind::ThreadSpawn) {
        // Spawn-by-name: the thread entry point is a link edge too — its
        // body feeds the spawner's lock-order analysis, so it must be
        // covered by the spawner's link key.
        if (!T.Args.empty() && !T.Args[0].isPlace() &&
            T.Args[0].C.K == ConstValue::Kind::Str)
          FF.Callees.push_back(T.Args[0].C.Str);
        continue;
      }
      if (IK != IntrinsicKind::None)
        continue;
      FF.Callees.push_back(std::string(T.Callee));
    }
    std::sort(FF.Callees.begin(), FF.Callees.end());
    FF.Callees.erase(std::unique(FF.Callees.begin(), FF.Callees.end()),
                     FF.Callees.end());
    Facts.Functions.push_back(std::move(FF));
  }
  return Facts;
}

namespace {

/// The names \p M defines and the names it calls without defining, each
/// sorted and deduplicated: the two sides of its cross-module edges.
std::pair<std::vector<std::string_view>, std::vector<std::string_view>>
edgeNameViews(const ModuleFacts &M) {
  std::vector<std::string_view> Defs, Calls;
  for (const FunctionFacts &F : M.Functions)
    Defs.push_back(F.Name);
  std::sort(Defs.begin(), Defs.end());
  Defs.erase(std::unique(Defs.begin(), Defs.end()), Defs.end());
  for (const FunctionFacts &F : M.Functions)
    for (const std::string &C : F.Callees)
      if (!std::binary_search(Defs.begin(), Defs.end(), std::string_view(C)))
        Calls.push_back(C);
  std::sort(Calls.begin(), Calls.end());
  Calls.erase(std::unique(Calls.begin(), Calls.end()), Calls.end());
  return {std::move(Defs), std::move(Calls)};
}

std::vector<uint64_t> hashNames(const std::vector<std::string_view> &Names) {
  std::vector<uint64_t> Out;
  Out.reserve(Names.size());
  for (std::string_view N : Names)
    Out.push_back(fnv1a64(N));
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

} // namespace

bool rs::analysis::callsOut(const ModuleFacts &M) {
  return !edgeNameViews(M).second.empty();
}

EdgeNames rs::analysis::edgeNames(const ModuleFacts &M) {
  auto [Defs, Calls] = edgeNameViews(M);
  return {hashNames(Defs), hashNames(Calls)};
}

void LinkNames::update(const EdgeNames &M, int32_t Delta) {
  auto Bump = [&](uint64_t Name, int32_t Uses::*Field) {
    auto It = Names.try_emplace(Name).first;
    It->second.*Field += Delta;
    if (It->second.Defs == 0 && It->second.Calls == 0)
      Names.erase(It);
  };
  for (uint64_t D : M.Defs)
    Bump(D, &Uses::Defs);
  for (uint64_t C : M.Calls)
    Bump(C, &Uses::Calls);
}

bool LinkNames::touchesEdge(const EdgeNames &M) const {
  auto Count = [&](uint64_t Name, int32_t Uses::*Field) {
    auto It = Names.find(Name);
    return It == Names.end() ? 0 : It->second.*Field;
  };
  for (uint64_t C : M.Calls)
    if (Count(C, &Uses::Defs) > 0)
      return true;
  for (uint64_t D : M.Defs)
    if (Count(D, &Uses::Calls) > 0)
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// LinkedCorpus
//===----------------------------------------------------------------------===//

LinkedCorpus LinkedCorpus::build(std::vector<ModuleFacts> Facts) {
  LinkedCorpus C;
  C.Modules = std::move(Facts);

  // Global ids in definition order; first definition in corpus order wins
  // the extern-resolution index.
  for (uint32_t M = 0; M != C.Modules.size(); ++M) {
    C.ModuleBase.push_back(static_cast<uint32_t>(C.Functions.size()));
    for (uint32_t Ord = 0; Ord != C.Modules[M].Functions.size(); ++Ord) {
      uint32_t Gid = static_cast<uint32_t>(C.Functions.size());
      C.Functions.push_back({M, Ord});
      C.Index.try_emplace(C.Modules[M].Functions[Ord].Name, Gid);
    }
  }

  uint32_t N = C.numFunctions();
  C.Callees.resize(N);
  C.ModuleRefs.resize(C.Modules.size());
  // Per-function unresolved callee names, for the link key.
  std::vector<std::vector<std::string_view>> Unresolved(N);

  for (uint32_t M = 0; M != C.Modules.size(); ++M) {
    // Local definitions shadow the global index inside their own module.
    std::map<std::string_view, uint32_t> Local;
    for (uint32_t Ord = 0; Ord != C.Modules[M].Functions.size(); ++Ord)
      Local.try_emplace(C.Modules[M].Functions[Ord].Name,
                        C.globalId(M, Ord));

    std::map<std::string, uint32_t, std::less<>> Refs;
    for (uint32_t Ord = 0; Ord != C.Modules[M].Functions.size(); ++Ord) {
      uint32_t Gid = C.globalId(M, Ord);
      const FunctionFacts &FF = C.Modules[M].Functions[Ord];
      for (const std::string &Callee : FF.Callees) {
        auto L = Local.find(Callee);
        if (L != Local.end()) {
          C.Callees[Gid].push_back(L->second);
          continue;
        }
        auto G = C.Index.find(Callee);
        if (G != C.Index.end()) {
          C.Callees[Gid].push_back(G->second);
          Refs.try_emplace(Callee, G->second);
        } else {
          Unresolved[Gid].push_back(Callee);
        }
      }
    }
    C.ModuleRefs[M].assign(Refs.begin(), Refs.end());
  }
  C.Exporter.assign(C.Modules.size(), 0);
  for (const auto &Refs : C.ModuleRefs)
    for (const auto &Ref : Refs)
      C.Exporter[C.Functions[Ref.second].Module] = 1;

  // Link keys: a Merkle fold over the condensation. Tarjan emits callee
  // components before their callers, so one pass in component order sees
  // every child key before it is needed. Members of a cycle share one
  // component key (any member's body feeds every member's summary); each
  // member's own name on top keeps them apart as DB addresses.
  SccGraph Sccs(N, C.Callees);
  std::vector<uint64_t> CompKeys(Sccs.numComponents());
  std::vector<uint64_t> Children;
  std::vector<std::string_view> Unres;
  for (uint32_t Comp = 0; Comp != Sccs.numComponents(); ++Comp) {
    uint64_t H = fnv1a64("rslink-key-v2");
    Children.clear();
    Unres.clear();
    for (uint32_t Member : Sccs.members(Comp)) {
      const FunctionFacts &FF = C.facts(Member);
      H = foldStr(FF.Name, H);
      H = foldU64(FF.BodyFp, H);
      for (uint32_t Succ : C.Callees[Member])
        if (uint32_t SC = Sccs.componentOf(Succ); SC != Comp)
          Children.push_back(CompKeys[SC]);
      Unres.insert(Unres.end(), Unresolved[Member].begin(),
                   Unresolved[Member].end());
    }
    std::sort(Children.begin(), Children.end());
    Children.erase(std::unique(Children.begin(), Children.end()),
                   Children.end());
    std::sort(Unres.begin(), Unres.end());
    Unres.erase(std::unique(Unres.begin(), Unres.end()), Unres.end());
    H = foldU64(Children.size(), H);
    for (uint64_t K : Children)
      H = foldU64(K, H);
    H = foldU64(Unres.size(), H);
    for (std::string_view U : Unres)
      H = foldStr(U, H);
    CompKeys[Comp] = H;
  }
  C.LinkKeys.resize(N);
  for (uint32_t Gid = 0; Gid != N; ++Gid)
    C.LinkKeys[Gid] =
        foldStr(C.facts(Gid).Name, CompKeys[Sccs.componentOf(Gid)]);
  return C;
}

std::optional<uint32_t> LinkedCorpus::lookup(std::string_view Name) const {
  auto It = Index.find(Name);
  if (It == Index.end())
    return std::nullopt;
  return It->second;
}

uint64_t LinkedCorpus::linkDigest(uint32_t ModuleIdx) const {
  const auto &Refs = ModuleRefs[ModuleIdx];
  if (Refs.empty())
    return 0;
  uint64_t H = fnv1a64("rslink-digest-v1");
  for (const auto &[Name, Gid] : Refs) {
    H = foldStr(Name, H);
    H = foldU64(LinkKeys[Gid], H);
    // The defining path is part of the observable output (cross-file spans
    // render it), so a renamed callee file must invalidate the caller.
    H = foldStr(definingPath(Gid), H);
  }
  // 0 is the "no resolved externs" sentinel; keep real digests off it.
  return H == 0 ? 1 : H;
}

uint64_t LinkedCorpus::moduleKey(uint32_t ModuleIdx) const {
  uint64_t H = fnv1a64("rslink-module-v1");
  uint32_t NumFns =
      static_cast<uint32_t>(Modules[ModuleIdx].Functions.size());
  H = foldU64(NumFns, H);
  for (uint32_t Ord = 0; Ord != NumFns; ++Ord)
    H = foldU64(LinkKeys[globalId(ModuleIdx, Ord)], H);
  return H;
}

ExternalSummaries LinkedCorpus::sliceFor(uint32_t ModuleIdx,
                                         const ExternalSummaries &Env) const {
  ExternalSummaries Slice;
  for (const auto &[Name, Gid] : ModuleRefs[ModuleIdx]) {
    (void)Gid;
    if (const ExternalFunctionInfo *Info = Env.find(Name))
      Slice.insert(*Info);
  }
  return Slice;
}

//===----------------------------------------------------------------------===//
// Per-module summarization with effect sites
//===----------------------------------------------------------------------===//

namespace {

void appendSites(std::vector<LinkSite> &Out,
                 const std::vector<StatePoint> &Points) {
  for (const StatePoint &P : Points)
    if (P.Loc.isValid())
      Out.push_back({P.Loc.line(), P.Loc.column()});
}

} // namespace

ModuleSummaries rs::analysis::summarizeLinkedModule(const Module &M,
                                                    uint32_t ModuleIdx,
                                                    const ExternalSummaries &Env,
                                                    unsigned MaxSummaryRounds) {
  ModuleSummaries MS;
  MS.ModuleIdx = ModuleIdx;
  bool Complete = true;
  ModuleAnalysisCache Cache;
  SummaryMap Table =
      computeSummaries(M, MaxSummaryRounds, /*Bgt=*/nullptr, &Complete,
                       /*CG=*/nullptr, /*Stats=*/nullptr, &Cache,
                       Env.empty() ? nullptr : &Env);
  MS.Complete = Complete;

  uint32_t N = static_cast<uint32_t>(M.functions().size());
  MS.Functions.resize(N);
  for (uint32_t I = 0; I != N; ++I) {
    const Function &F = M.functions()[I];
    ExternalFunctionInfo &Info = MS.Functions[I];
    Info.Name = F.Name.str();
    Info.NumArgs = F.NumArgs;
    Info.Summary = Table.byId(I);
    Info.DropSites.assign(F.NumArgs + 1, {});
    Info.LockSites.assign(F.NumArgs + 1, {});

    bool AnyEffect = false;
    for (LocalId P = 1; P <= F.NumArgs; ++P)
      AnyEffect |= Info.Summary.DropsParamPointee[P] ||
                   Info.Summary.AcquiresLockOnParam[P] != LM_None;
    if (!AnyEffect)
      continue;

    // Effect sites come from the same memory analysis the summary bits came
    // from; rebuild it against the final table when the scheduler did not
    // leave one to adopt (recursive components).
    std::unique_ptr<Cfg> OwnCfg;
    const Cfg *G = I < Cache.Cfgs.size() ? Cache.Cfgs[I].get() : nullptr;
    if (!G) {
      OwnCfg = std::make_unique<Cfg>(F, /*PruneConstantBranches=*/true);
      G = OwnCfg.get();
    }
    std::unique_ptr<MemoryAnalysis> OwnMA;
    const MemoryAnalysis *MA =
        I < Cache.Memory.size() ? Cache.Memory[I].get() : nullptr;
    if (!MA) {
      OwnMA = std::make_unique<MemoryAnalysis>(*G, M, &Table, nullptr);
      MA = OwnMA.get();
    }
    const ObjectTable &Objects = MA->objects();

    for (LocalId P = 1; P <= F.NumArgs; ++P) {
      if (Info.Summary.DropsParamPointee[P]) {
        ObjId Pointee = Objects.paramPointee(P);
        if (Pointee != ~0u)
          appendSites(Info.DropSites[P],
                      MA->transitionSites(ObjEvent::Dropped, Pointee));
      }
      if (Info.Summary.AcquiresLockOnParam[P] != LM_None) {
        std::vector<StatePoint> Points;
        for (ObjId O = 0; O != Objects.numObjects(); ++O) {
          if (paramRootOfObject(F, Objects, O) != P)
            continue;
          for (StatePoint S :
               MA->transitionSites(ObjEvent::HeldExclusive, O))
            Points.push_back(S);
          for (StatePoint S : MA->transitionSites(ObjEvent::HeldShared, O))
            Points.push_back(S);
        }
        std::sort(Points.begin(), Points.end(),
                  [](const StatePoint &A, const StatePoint &B) {
                    return std::tie(A.Block, A.StmtIndex) <
                           std::tie(B.Block, B.StmtIndex);
                  });
        Points.erase(std::unique(Points.begin(), Points.end(),
                                 [](const StatePoint &A, const StatePoint &B) {
                                   return A.Block == B.Block &&
                                          A.StmtIndex == B.StmtIndex;
                                 }),
                     Points.end());
        appendSites(Info.LockSites[P], Points);
      }
    }
  }
  return MS;
}

//===----------------------------------------------------------------------===//
// The link solver
//===----------------------------------------------------------------------===//

LinkResult rs::analysis::solveLink(LinkedCorpus Corpus, const LinkOptions &Opts,
                                   const LinkDbHooks &Db,
                                   const SummarizeRoundFn &Summarize) {
  LinkResult R;
  R.Corpus = std::move(Corpus);
  const LinkedCorpus &LC = R.Corpus;
  uint32_t NumMods = static_cast<uint32_t>(LC.modules().size());

  // Names some other module's analysis can observe.
  std::set<std::string, std::less<>> Referenced;
  for (uint32_t M = 0; M != NumMods; ++M)
    for (const auto &[Name, Gid] : LC.externRefs(M)) {
      (void)Gid;
      Referenced.insert(Name);
    }

  // Only an exporter's summaries are ever read, so every other module
  // needs no summary: it is never probed, summarized or stored.
  //
  // DB probe: one entry per exporter, addressed by the fold of its function
  // link keys, so an entry is served exactly when every function's key is
  // unchanged (summarization is per-module; partial coverage saves
  // nothing). A hit's payload is checked against the facts before it
  // seeds the environment.
  std::vector<char> FromDb(NumMods, 0);
  std::vector<std::vector<ExternalFunctionInfo>> DbInfo(NumMods);
  for (uint32_t M = 0; M != NumMods; ++M) {
    if (!LC.exports(M)) {
      ++R.Stats.ModulesNeedNoSummary;
      continue;
    }
    if (!Db.Lookup)
      continue;
    const ModuleFacts &Facts = LC.modules()[M];
    std::optional<std::string> Payload = Db.Lookup(LC.moduleKey(M));
    std::optional<std::vector<ExternalFunctionInfo>> Infos;
    if (Payload)
      Infos = deserializeSummaryPayload(*Payload);
    bool Matches = Infos && Infos->size() == Facts.Functions.size();
    for (uint32_t Ord = 0; Matches && Ord != Infos->size(); ++Ord)
      Matches = (*Infos)[Ord].Name == Facts.Functions[Ord].Name &&
                (*Infos)[Ord].NumArgs == Facts.Functions[Ord].NumArgs;
    if (!Matches) {
      ++R.Stats.DbMisses;
      continue;
    }
    DbInfo[M] = std::move(*Infos);
    FromDb[M] = 1;
    ++R.Stats.DbHits;
    ++R.Stats.ModulesFromDb;
  }

  // Seed the environment from the decoded entries.
  for (uint32_t M = 0; M != NumMods; ++M) {
    for (uint32_t Ord = 0; Ord != DbInfo[M].size(); ++Ord) {
      ExternalFunctionInfo &Info = DbInfo[M][Ord];
      std::optional<uint32_t> Winner = LC.lookup(Info.Name);
      if (!Winner || *Winner != LC.globalId(M, Ord))
        continue;
      if (!Referenced.count(Info.Name))
        continue;
      Info.File = LC.modules()[M].Path;
      R.Env.insert(std::move(Info));
    }
  }

  // Jacobi rounds: each round recomputes exactly the exporters whose
  // observed environment slice changed in the previous round (round one
  // recomputes every exporter the DB did not serve). The trajectory is
  // deterministic, which is what keeps the supervisor's distributed rounds
  // byte-identical to these.
  std::vector<ModuleSummaries> Last(NumMods);
  std::vector<char> Computed(NumMods, 0);
  std::set<std::string, std::less<>> Changed;
  bool First = true;

  auto Schedule = [&]() {
    std::vector<uint32_t> Sched;
    for (uint32_t M = 0; M != NumMods; ++M) {
      if (FromDb[M] || !LC.exports(M))
        continue;
      if (First) {
        Sched.push_back(M);
        continue;
      }
      for (const auto &[Name, Gid] : LC.externRefs(M)) {
        (void)Gid;
        if (Changed.count(Name)) {
          Sched.push_back(M);
          break;
        }
      }
    }
    return Sched;
  };

  for (unsigned Round = 0; Round != Opts.MaxSummaryRounds; ++Round) {
    std::vector<uint32_t> Sched = Schedule();
    if (Sched.empty())
      break;
    ++R.Stats.Rounds;
    std::vector<ModuleSummaries> Results = Summarize(Sched, R.Env);
    R.Stats.ModulesSummarized += static_cast<unsigned>(Results.size());

    std::set<std::string, std::less<>> NewChanged;
    for (ModuleSummaries &MS : Results) {
      uint32_t M = MS.ModuleIdx;
      if (M >= NumMods || FromDb[M])
        continue;
      if (!MS.Complete)
        R.Converged = false;
      for (uint32_t Ord = 0; Ord != MS.Functions.size(); ++Ord) {
        ExternalFunctionInfo &Info = MS.Functions[Ord];
        std::optional<uint32_t> Winner = LC.lookup(Info.Name);
        if (!Winner || *Winner != LC.globalId(M, Ord))
          continue;
        if (!Referenced.count(Info.Name))
          continue;
        Info.File = LC.modules()[M].Path;
        const ExternalFunctionInfo *Old = R.Env.find(Info.Name);
        if (!Old || !(*Old == Info)) {
          R.Env.insert(Info);
          NewChanged.insert(Info.Name);
        }
      }
      Last[M] = std::move(MS);
      Computed[M] = 1;
    }
    Changed = std::move(NewChanged);
    First = false;
  }
  if (!Schedule().empty())
    R.Converged = false;

  // Persist converged summaries — and only converged ones: a clamped or
  // truncated fixpoint must never poison future warm runs.
  if (Db.Store && R.Converged) {
    for (uint32_t M = 0; M != NumMods; ++M) {
      if (FromDb[M] || !Computed[M] || !Last[M].Complete)
        continue;
      Db.Store(LC.moduleKey(M), serializeSummaryPayload(Last[M].Functions));
      ++R.Stats.DbStores;
    }
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

namespace {

/// Writes one ExternalFunctionInfo as a JSON object on \p W. The file field
/// is included only when \p WithFile (wire environments re-anchor through
/// it; DB payloads re-anchor at load instead).
void writeInfo(JsonWriter &W, const ExternalFunctionInfo &Info,
               bool WithFile) {
  W.beginObject();
  W.field("v", SummaryPayloadVersion);
  W.field("name", Info.Name);
  W.key("args");
  W.value(Info.NumArgs);
  if (WithFile)
    W.field("file", Info.File);

  auto WriteParamList = [&](std::string_view Key, auto Pred) {
    W.key(Key);
    W.beginArray();
    for (unsigned P = 1; P <= Info.NumArgs; ++P)
      if (Pred(P))
        W.value(P);
    W.endArray();
  };
  WriteParamList("drops",
                 [&](unsigned P) { return !!Info.Summary.DropsParamPointee[P]; });
  WriteParamList("aliases", [&](unsigned P) {
    return !!Info.Summary.ReturnAliasesParamPointee[P];
  });
  W.key("locks");
  W.beginArray();
  for (unsigned P = 1; P <= Info.NumArgs; ++P) {
    if (Info.Summary.AcquiresLockOnParam[P] == LM_None)
      continue;
    W.beginArray();
    W.value(P);
    W.value(static_cast<unsigned>(Info.Summary.AcquiresLockOnParam[P]));
    W.endArray();
  }
  W.endArray();

  auto WriteSites = [&](std::string_view Key,
                        const std::vector<std::vector<LinkSite>> &Sites) {
    W.key(Key);
    W.beginArray();
    for (unsigned P = 1; P < Sites.size(); ++P) {
      if (Sites[P].empty())
        continue;
      W.beginArray();
      W.value(P);
      W.beginArray();
      for (const LinkSite &S : Sites[P]) {
        W.beginArray();
        W.value(S.Line);
        W.value(S.Col);
        W.endArray();
      }
      W.endArray();
      W.endArray();
    }
    W.endArray();
  };
  WriteSites("dropSites", Info.DropSites);
  WriteSites("lockSites", Info.LockSites);
  W.endObject();
}

std::optional<ExternalFunctionInfo> parseInfo(const JsonValue &V) {
  if (!V.isObject() || V.getInt("v", -1) != SummaryPayloadVersion)
    return std::nullopt;
  ExternalFunctionInfo Info;
  Info.Name = std::string(V.getString("name"));
  if (Info.Name.empty())
    return std::nullopt;
  int64_t Args = V.getInt("args", -1);
  if (Args < 0 || Args > 1 << 16)
    return std::nullopt;
  Info.NumArgs = static_cast<unsigned>(Args);
  Info.File = std::string(V.getString("file"));
  Info.Summary = FunctionSummary(Info.NumArgs);
  Info.DropSites.assign(Info.NumArgs + 1, {});
  Info.LockSites.assign(Info.NumArgs + 1, {});

  auto ValidParam = [&](int64_t P) { return P >= 1 && P <= Args; };

  auto ReadParamList = [&](std::string_view Key, auto Set) -> bool {
    const JsonValue *L = V.get(Key);
    if (!L || !L->isArray())
      return false;
    for (const JsonValue &E : L->elements()) {
      if (!E.isInt() || !ValidParam(E.asInt()))
        return false;
      Set(static_cast<unsigned>(E.asInt()));
    }
    return true;
  };
  if (!ReadParamList("drops", [&](unsigned P) {
        Info.Summary.DropsParamPointee[P] = true;
      }))
    return std::nullopt;
  if (!ReadParamList("aliases", [&](unsigned P) {
        Info.Summary.ReturnAliasesParamPointee[P] = true;
      }))
    return std::nullopt;

  const JsonValue *Locks = V.get("locks");
  if (!Locks || !Locks->isArray())
    return std::nullopt;
  for (const JsonValue &E : Locks->elements()) {
    if (!E.isArray() || E.elements().size() != 2 ||
        !E.elements()[0].isInt() || !E.elements()[1].isInt() ||
        !ValidParam(E.elements()[0].asInt()))
      return std::nullopt;
    int64_t Mode = E.elements()[1].asInt();
    if (Mode <= 0 || Mode > (LM_Shared | LM_Exclusive))
      return std::nullopt;
    Info.Summary.AcquiresLockOnParam[E.elements()[0].asInt()] =
        static_cast<uint8_t>(Mode);
  }

  auto ReadSites = [&](std::string_view Key,
                       std::vector<std::vector<LinkSite>> &Sites) -> bool {
    const JsonValue *L = V.get(Key);
    if (!L || !L->isArray())
      return false;
    for (const JsonValue &E : L->elements()) {
      if (!E.isArray() || E.elements().size() != 2 ||
          !E.elements()[0].isInt() || !E.elements()[1].isArray() ||
          !ValidParam(E.elements()[0].asInt()))
        return false;
      std::vector<LinkSite> &Out =
          Sites[static_cast<size_t>(E.elements()[0].asInt())];
      for (const JsonValue &S : E.elements()[1].elements()) {
        if (!S.isArray() || S.elements().size() != 2 ||
            !S.elements()[0].isInt() || !S.elements()[1].isInt())
          return false;
        Out.push_back({static_cast<unsigned>(S.elements()[0].asInt()),
                       static_cast<unsigned>(S.elements()[1].asInt())});
      }
    }
    return true;
  };
  if (!ReadSites("dropSites", Info.DropSites))
    return std::nullopt;
  if (!ReadSites("lockSites", Info.LockSites))
    return std::nullopt;
  return Info;
}

} // namespace

std::string rs::analysis::serializeSummaryPayload(
    const std::vector<ExternalFunctionInfo> &Functions) {
  JsonWriter W;
  W.beginObject();
  W.field("v", SummaryPayloadVersion);
  W.key("functions");
  W.beginArray();
  for (const ExternalFunctionInfo &Info : Functions)
    writeInfo(W, Info, /*WithFile=*/false);
  W.endArray();
  W.endObject();
  return W.str();
}

std::optional<std::vector<ExternalFunctionInfo>>
rs::analysis::deserializeSummaryPayload(std::string_view Payload) {
  std::optional<JsonValue> V = JsonValue::parse(Payload);
  if (!V || !V->isObject() || V->getInt("v", -1) != SummaryPayloadVersion)
    return std::nullopt;
  const JsonValue *Fns = V->get("functions");
  if (!Fns || !Fns->isArray())
    return std::nullopt;
  std::vector<ExternalFunctionInfo> Out;
  Out.reserve(Fns->elements().size());
  for (const JsonValue &E : Fns->elements()) {
    std::optional<ExternalFunctionInfo> Info = parseInfo(E);
    if (!Info)
      return std::nullopt;
    Out.push_back(std::move(*Info));
  }
  return Out;
}

std::string rs::analysis::serializeModuleFacts(const ModuleFacts &Facts) {
  JsonWriter W;
  W.beginObject();
  W.field("v", SummaryPayloadVersion);
  W.key("functions");
  W.beginArray();
  for (const FunctionFacts &FF : Facts.Functions) {
    W.beginObject();
    W.field("name", FF.Name);
    W.key("args");
    W.value(FF.NumArgs);
    W.field("fp", hashToHex(FF.BodyFp));
    W.key("callees");
    W.beginArray();
    for (const std::string &C : FF.Callees)
      W.value(C);
    W.endArray();
    W.endObject();
  }
  W.endArray();
  W.endObject();
  return W.str();
}

std::optional<ModuleFacts>
rs::analysis::deserializeModuleFacts(std::string_view Payload,
                                     std::string Path) {
  std::optional<JsonValue> V = JsonValue::parse(Payload);
  if (!V || !V->isObject() || V->getInt("v", -1) != SummaryPayloadVersion)
    return std::nullopt;
  ModuleFacts Facts;
  Facts.Path = std::move(Path);
  const JsonValue *Fns = V->get("functions");
  if (!Fns || !Fns->isArray())
    return std::nullopt;
  for (const JsonValue &E : Fns->elements()) {
    if (!E.isObject())
      return std::nullopt;
    FunctionFacts FF;
    FF.Name = std::string(E.getString("name"));
    int64_t Args = E.getInt("args", -1);
    if (FF.Name.empty() || Args < 0)
      return std::nullopt;
    FF.NumArgs = static_cast<unsigned>(Args);
    if (!hexToHash(E.getString("fp"), FF.BodyFp))
      return std::nullopt;
    const JsonValue *Callees = E.get("callees");
    if (!Callees || !Callees->isArray())
      return std::nullopt;
    for (const JsonValue &C : Callees->elements()) {
      if (!C.isString())
        return std::nullopt;
      FF.Callees.push_back(C.asString());
    }
    Facts.Functions.push_back(std::move(FF));
  }
  return Facts;
}

std::string rs::analysis::serializeModuleSummaries(const ModuleSummaries &MS) {
  JsonWriter W;
  W.beginObject();
  W.field("v", SummaryPayloadVersion);
  W.key("module");
  W.value(MS.ModuleIdx);
  W.field("complete", MS.Complete);
  W.key("functions");
  W.beginArray();
  for (const ExternalFunctionInfo &Info : MS.Functions)
    writeInfo(W, Info, /*WithFile=*/false);
  W.endArray();
  W.endObject();
  return W.str();
}

std::optional<ModuleSummaries>
rs::analysis::deserializeModuleSummaries(std::string_view Payload) {
  std::optional<JsonValue> V = JsonValue::parse(Payload);
  if (!V || !V->isObject() || V->getInt("v", -1) != SummaryPayloadVersion)
    return std::nullopt;
  ModuleSummaries MS;
  int64_t Idx = V->getInt("module", -1);
  if (Idx < 0)
    return std::nullopt;
  MS.ModuleIdx = static_cast<uint32_t>(Idx);
  MS.Complete = V->getBool("complete", true);
  const JsonValue *Fns = V->get("functions");
  if (!Fns || !Fns->isArray())
    return std::nullopt;
  for (const JsonValue &E : Fns->elements()) {
    std::optional<ExternalFunctionInfo> Info = parseInfo(E);
    if (!Info)
      return std::nullopt;
    MS.Functions.push_back(std::move(*Info));
  }
  return MS;
}

std::string rs::analysis::serializeEnv(const ExternalSummaries &Env) {
  JsonWriter W;
  W.beginObject();
  W.field("v", SummaryPayloadVersion);
  W.key("entries");
  W.beginArray();
  for (const auto &[Name, Info] : Env.entries()) {
    (void)Name;
    writeInfo(W, Info, /*WithFile=*/true);
  }
  W.endArray();
  W.endObject();
  return W.str();
}

std::optional<ExternalSummaries>
rs::analysis::deserializeEnv(std::string_view Payload) {
  std::optional<JsonValue> V = JsonValue::parse(Payload);
  if (!V || !V->isObject() || V->getInt("v", -1) != SummaryPayloadVersion)
    return std::nullopt;
  const JsonValue *Entries = V->get("entries");
  if (!Entries || !Entries->isArray())
    return std::nullopt;
  ExternalSummaries Env;
  for (const JsonValue &E : Entries->elements()) {
    std::optional<ExternalFunctionInfo> Info = parseInfo(E);
    if (!Info)
      return std::nullopt;
    Env.insert(std::move(*Info));
  }
  return Env;
}
