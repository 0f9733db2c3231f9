//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The whole-program link layer: a corpus-wide call graph over every module
/// in a run, per-function link fingerprints, and the cross-file summary
/// environment detectors consume when a callee is defined in another file.
///
/// The paper's subjects (Servo, TiKV, Rand) are multi-crate programs whose
/// use-after-free and double-lock bugs routinely cross file boundaries;
/// per-file detection misses them by construction. The link step follows
/// the summary-based whole-program shape of Zhou/Sun/Criswell (PAPERS.md,
/// arXiv 2310.10298): summarize each module once, link the summaries, and
/// let every file's detectors resolve extern callees through the linked
/// environment.
///
/// Determinism contract: linking consumes modules in corpus file order (the
/// canonical expandMirPaths ordering, see corpus/CorpusWalk.h). When two
/// files define the same function name, the first definition in corpus
/// order wins extern resolution; later duplicates still shadow it inside
/// their own module. The solver runs deterministic Jacobi rounds — the
/// round trajectory, not just the fixpoint, is identical between the
/// in-process engine and the supervisor's shard fleet, because both drive
/// the same solveLink() loop and only the transport of one round differs.
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_ANALYSIS_LINK_H
#define RUSTSIGHT_ANALYSIS_LINK_H

#include "analysis/Summaries.h"
#include "mir/Mir.h"

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace rs::analysis {

//===----------------------------------------------------------------------===//
// The external summary environment
//===----------------------------------------------------------------------===//

/// One effect site inside an externally-defined function, as a line/column
/// position in its defining file (the file path lives on the owning
/// ExternalFunctionInfo). Sites are kept in transition-site order (block,
/// statement), so span emission stays deterministic.
struct LinkSite {
  unsigned Line = 0;
  unsigned Col = 0;

  friend bool operator==(const LinkSite &A, const LinkSite &B) {
    return A.Line == B.Line && A.Col == B.Col;
  }
};

/// Everything a caller's file needs to know about one function defined in
/// another file: its converged summary plus the program points that justify
/// cross-file secondary spans ("freed inside callee here", "acquired inside
/// callee here").
struct ExternalFunctionInfo {
  std::string Name;
  std::string File; ///< Defining corpus path (spans render through it).
  unsigned NumArgs = 0;
  FunctionSummary Summary;
  /// Sites where the pointee of parameter P may be dropped inside the
  /// callee, indexed by parameter local id (index 0 unused). Present only
  /// for parameters whose DropsParamPointee bit is set.
  std::vector<std::vector<LinkSite>> DropSites;
  /// Sites where a lock rooted at parameter P may be acquired inside the
  /// callee, indexed like DropSites.
  std::vector<std::vector<LinkSite>> LockSites;

  friend bool operator==(const ExternalFunctionInfo &A,
                         const ExternalFunctionInfo &B) {
    return A.Name == B.Name && A.File == B.File && A.NumArgs == B.NumArgs &&
           A.Summary == B.Summary && A.DropSites == B.DropSites &&
           A.LockSites == B.LockSites;
  }
};

/// The cross-file summary environment for one analysis: external function
/// name -> converged info. Entry addresses are stable for the container's
/// lifetime (node-based map), which SummaryTable's find() fallback and
/// MemoryAnalysis's pre-resolved per-block summary pointers rely on.
/// Mutation is only legal between analysis runs (the link solver updates
/// entries between rounds, never while a module is being summarized).
class ExternalSummaries {
public:
  const ExternalFunctionInfo *find(std::string_view Name) const {
    auto It = Map.find(Name);
    return It == Map.end() ? nullptr : &It->second;
  }

  /// Inserts or overwrites the entry for Info.Name in place (the entry's
  /// address never changes once created).
  ExternalFunctionInfo &insert(ExternalFunctionInfo Info) {
    auto It = Map.find(Info.Name);
    if (It == Map.end())
      It = Map.emplace(Info.Name, ExternalFunctionInfo()).first;
    It->second = std::move(Info);
    return It->second;
  }

  bool empty() const { return Map.empty(); }
  size_t size() const { return Map.size(); }

  /// Name-ordered entries, for deterministic serialization.
  const std::map<std::string, ExternalFunctionInfo, std::less<>> &
  entries() const {
    return Map;
  }

private:
  std::map<std::string, ExternalFunctionInfo, std::less<>> Map;
};

//===----------------------------------------------------------------------===//
// Module facts and link fingerprints
//===----------------------------------------------------------------------===//

/// The linker-visible shape of one function: identity, direct call targets,
/// and a content fingerprint. BodyFp is a structural fold over the
/// in-memory body: every field the MIR printer renders, every
/// statement/terminator source location (summary sites are locations, so a
/// shifted-but-identical body must re-fingerprint), and the defining
/// module's type/struct/static declarations (drop effects depend on struct
/// Drop impls). Two bodies fold alike exactly when they render alike at the
/// same locations.
struct FunctionFacts {
  std::string Name;
  unsigned NumArgs = 0;
  uint64_t BodyFp = 0;
  /// Direct non-intrinsic callee names, sorted and deduplicated.
  std::vector<std::string> Callees;
};

/// Linker input for one corpus file that parsed and verified cleanly.
struct ModuleFacts {
  std::string Path;
  std::vector<FunctionFacts> Functions; ///< In module ordinal order.
};

/// Fingerprint of \p M's declaration context (structs, statics, sync
/// impls) — folded into every function fingerprint of the module.
uint64_t moduleDeclFingerprint(const mir::Module &M);

/// One function's link-level content fingerprint (FunctionFacts::BodyFp):
/// a word-at-a-time structural fold over \p F's name, unsafety, arity,
/// locals, statements and terminators with their locations, without
/// rendering the body. \p DeclFp is the defining module's
/// moduleDeclFingerprint().
uint64_t functionFingerprint(const mir::Function &F, uint64_t DeclFp);

/// Extracts the linker-visible facts of \p M (anchored at corpus \p Path).
ModuleFacts collectModuleFacts(const mir::Module &M, const std::string &Path);

/// True when \p M calls (or spawns) a function it does not define: the
/// only kind of module a link can re-analyze against other modules.
bool callsOut(const ModuleFacts &M);

/// The two sides of one module's cross-module edges, as 64-bit name
/// hashes: the names it defines and the names it calls (or spawns) without
/// defining them, each sorted and deduplicated. Calls are told from local
/// definitions by name before hashing, so a collision can only add an edge,
/// never hide one. Empty for a module outside the link.
struct EdgeNames {
  std::vector<uint64_t> Defs;
  std::vector<uint64_t> Calls;
};

EdgeNames edgeNames(const ModuleFacts &M);

/// The name-level shape of a set of modules: per name hash, how many
/// modules define it and how many call it without defining it (the extern
/// calls LinkedCorpus::build resolves across modules). A resident corpus
/// keeps one, and a persisted link state rebuilds one from its recorded
/// hashes, so that after an edit it can tell without rebuilding the link
/// whether the edited module's new facts touch a cross-module edge. A hash
/// collision can only report an edge that is not there, never hide one.
class LinkNames {
public:
  void add(const EdgeNames &M) { update(M, 1); }
  void remove(const EdgeNames &M) { update(M, -1); }

  /// True when \p M calls a name some indexed module defines, or defines a
  /// name some indexed module calls. Remove \p M's previous names first, so
  /// that "some indexed module" means another one.
  bool touchesEdge(const EdgeNames &M) const;

private:
  struct Uses {
    int32_t Defs = 0;
    int32_t Calls = 0;
  };
  void update(const EdgeNames &M, int32_t Delta);
  std::unordered_map<uint64_t, Uses> Names;
};

//===----------------------------------------------------------------------===//
// The linked corpus
//===----------------------------------------------------------------------===//

/// The corpus-wide call graph in global function-id space, plus the derived
/// link fingerprints. Global ids are dense and assigned in definition order
/// (module-major, then ordinal), so the structure is identical no matter
/// which process built it from the same facts.
class LinkedCorpus {
public:
  struct FunctionRef {
    uint32_t Module = 0;  ///< Index into modules().
    uint32_t Ordinal = 0; ///< Function ordinal within its module.
  };

  /// Builds the link structure: global name index (first definition in
  /// corpus order wins), resolved cross-file adjacency, Tarjan SCC
  /// condensation, and per-function link keys.
  static LinkedCorpus build(std::vector<ModuleFacts> Facts);

  const std::vector<ModuleFacts> &modules() const { return Modules; }
  /// Hands the facts back out of a corpus that is done with them.
  std::vector<ModuleFacts> takeModules() && { return std::move(Modules); }
  uint32_t numFunctions() const {
    return static_cast<uint32_t>(Functions.size());
  }

  const FunctionRef &ref(uint32_t GlobalId) const {
    return Functions[GlobalId];
  }
  /// The global id of function \p Ordinal of module \p ModuleIdx.
  uint32_t globalId(uint32_t ModuleIdx, uint32_t Ordinal) const {
    return ModuleBase[ModuleIdx] + Ordinal;
  }
  const FunctionFacts &facts(uint32_t GlobalId) const {
    const FunctionRef &R = Functions[GlobalId];
    return Modules[R.Module].Functions[R.Ordinal];
  }
  const std::string &definingPath(uint32_t GlobalId) const {
    return Modules[Functions[GlobalId].Module].Path;
  }

  /// The winning definition of \p Name, or nullopt for unresolved names.
  std::optional<uint32_t> lookup(std::string_view Name) const;

  /// Resolved direct callees of \p GlobalId (global ids; cross-module edges
  /// included), sorted by callee name.
  const std::vector<uint32_t> &callees(uint32_t GlobalId) const {
    return Callees[GlobalId];
  }

  /// The link key of \p GlobalId: a Merkle fold over the condensation
  /// DAG. Each SCC component's key folds its members' (name, BodyFp) in id
  /// order, the sorted distinct keys of its callee components and its
  /// members' sorted unresolved callee names; a function's key folds its
  /// own name on top (cycle members share a component, not a key). So the
  /// key covers every function body and unresolved name reachable from
  /// the function: two functions with equal link keys have byte-identical
  /// summarization inputs, which is what makes the key safe as a SummaryDb
  /// address and as a cache-key ingredient. Built in O(V+E) time.
  uint64_t linkKey(uint32_t GlobalId) const { return LinkKeys[GlobalId]; }

  /// The fold of module \p ModuleIdx's function link keys in ordinal
  /// order: the SummaryDb address of the module's one entry (a module is
  /// summarized as a unit, so its entry is valid exactly when every one of
  /// its functions' keys is unchanged).
  uint64_t moduleKey(uint32_t ModuleIdx) const;

  /// True when module \p ModuleIdx holds the winning definition of a name
  /// another module calls: only such a module's summaries are ever read,
  /// so only exporters are summarized, probed and stored by the solver.
  bool exports(uint32_t ModuleIdx) const { return Exporter[ModuleIdx]; }

  /// The resolved extern references of module \p ModuleIdx: names its
  /// functions call that are defined in *other* modules, sorted, with the
  /// winning definition's global id.
  const std::vector<std::pair<std::string, uint32_t>> &
  externRefs(uint32_t ModuleIdx) const {
    return ModuleRefs[ModuleIdx];
  }

  /// Folds module \p ModuleIdx's resolved extern references — (name, link
  /// key, defining path) triples — into one digest, or 0 when the module
  /// has none. The engine folds a non-zero digest into the file's report
  /// cache key, so a leaf file keeps sharing cache entries with per-file
  /// mode while a caller's entry is invalidated by any change to a callee
  /// body in another file (or to that file's path, which spans render).
  uint64_t linkDigest(uint32_t ModuleIdx) const;

  /// The environment slice module \p ModuleIdx's analysis can observe:
  /// every resolved extern ref's entry copied out of \p Env. Lookups during
  /// analysis only ever use the module's own callee names, so analyzing
  /// against the slice is byte-identical to analyzing against the full
  /// corpus environment.
  ExternalSummaries sliceFor(uint32_t ModuleIdx,
                             const ExternalSummaries &Env) const;

private:
  std::vector<ModuleFacts> Modules;
  std::vector<FunctionRef> Functions;
  std::vector<uint32_t> ModuleBase; ///< First global id of each module.
  std::map<std::string, uint32_t, std::less<>> Index;
  std::vector<std::vector<uint32_t>> Callees;
  std::vector<uint64_t> LinkKeys;
  std::vector<std::vector<std::pair<std::string, uint32_t>>> ModuleRefs;
  std::vector<char> Exporter;
};

//===----------------------------------------------------------------------===//
// Per-module summarization against an environment
//===----------------------------------------------------------------------===//

/// One module's contribution to the link environment for one solver round:
/// per-function summaries and effect sites, computed against a fixed
/// external environment. Produced by summarizeLinkedModule() in-process and
/// by shard workers over the wire; the two are byte-identical.
struct ModuleSummaries {
  uint32_t ModuleIdx = 0;
  bool Complete = true; ///< False when summary iteration hit its bound.
  /// Per function ordinal. File is left empty; the solver anchors it to the
  /// module's corpus path when entries enter the environment.
  std::vector<ExternalFunctionInfo> Functions;
};

/// Summarizes every function of \p M against \p Env and extracts the
/// drop/lock effect sites cross-file spans point at.
ModuleSummaries summarizeLinkedModule(const mir::Module &M,
                                      uint32_t ModuleIdx,
                                      const ExternalSummaries &Env,
                                      unsigned MaxSummaryRounds);

//===----------------------------------------------------------------------===//
// The link solver
//===----------------------------------------------------------------------===//

struct LinkOptions {
  /// Outer Jacobi round bound (also the per-module summary bound). A
  /// corpus whose cross-module summary chains are deeper than this is
  /// reported non-converged and its summaries are not persisted.
  unsigned MaxSummaryRounds = 8;
};

/// Persisted-summary hooks, keyed by module key (LinkedCorpus::moduleKey).
/// Wired by the engine to its one ResultCache, at
/// sched::SummaryDb::address(module key, schema); null std::function
/// disables persistence. Lookup returns the stored payload or nullopt;
/// store persists a converged payload.
struct LinkDbHooks {
  std::function<std::optional<std::string>(uint64_t Key)> Lookup;
  std::function<void(uint64_t Key, std::string_view Payload)> Store;
};

/// Every module is either an exporter (LinkedCorpus::exports) or needs no
/// summary; the DB counters cover exporters only.
struct LinkStats {
  unsigned Rounds = 0;             ///< Summarization rounds actually run.
  unsigned ModulesSummarized = 0;  ///< Module summarizations across rounds.
  unsigned ModulesNeedNoSummary = 0; ///< Modules no other module reads.
  unsigned ModulesFromDb = 0;      ///< Exporters fully served by the DB.
  uint64_t DbHits = 0;   ///< Exporters whose entry was found and matched.
  uint64_t DbMisses = 0; ///< Exporters with no usable entry.
  uint64_t DbStores = 0; ///< Exporter entries persisted.
};

struct LinkResult {
  LinkedCorpus Corpus;
  /// Converged info for every extern-referenced defined function.
  ExternalSummaries Env;
  /// False when a round bound truncated the fixpoint (effects then
  /// under-approximate; nothing is persisted).
  bool Converged = true;
  LinkStats Stats;
};

/// One solver round's transport: recompute the summaries of the modules in
/// \p ModuleIdxs against \p Env and return one ModuleSummaries each (order
/// irrelevant; the solver rekeys by ModuleIdx). The in-process engine runs
/// summarizeLinkedModule() directly; the supervisor dispatches the round to
/// its shard workers. A missing module in the result (worker lost) is
/// treated as unchanged for this round.
using SummarizeRoundFn = std::function<std::vector<ModuleSummaries>(
    const std::vector<uint32_t> &ModuleIdxs, const ExternalSummaries &Env)>;

/// Runs the deterministic link fixpoint over \p Corpus. Only exporters take
/// part: the environment is seeded from the summary DB (an exporter whose
/// entry hits skips summarization entirely), then Jacobi rounds run through
/// \p Summarize until no environment entry changes. Converged exporter
/// payloads are stored back through \p Db.
LinkResult solveLink(LinkedCorpus Corpus, const LinkOptions &Opts,
                     const LinkDbHooks &Db, const SummarizeRoundFn &Summarize);

//===----------------------------------------------------------------------===//
// Serialization (worker wire frames and SummaryDb payloads)
//===----------------------------------------------------------------------===//

/// SummaryDb payload schema: a versioned JSON envelope per module, one
/// entry per function in ordinal order. Bump when the payload shape
/// changes — old entries then deserialize as misses (cold, never corrupt).
inline constexpr int64_t SummaryPayloadVersion = 2;

/// Encodes one module's converged per-function infos as a SummaryDb
/// payload. Defining file paths are deliberately excluded (entries
/// re-anchor at load, like report-cache entries).
std::string
serializeSummaryPayload(const std::vector<ExternalFunctionInfo> &Functions);

/// Decodes a SummaryDb payload; nullopt on any version or shape mismatch.
std::optional<std::vector<ExternalFunctionInfo>>
deserializeSummaryPayload(std::string_view Payload);

/// The facts cache schema: bump when ModuleFacts or functionFingerprint
/// change, so cached facts from an older build are never addressed.
inline constexpr uint64_t FactsSchemaVersion = 2;

/// Facts wire form for the supervisor's collect phase and the engine's
/// facts cache (one JSON object). The path is left out: decoding anchors
/// the facts at \p Path, the way cached reports re-anchor at the path
/// their content shows up at.
std::string serializeModuleFacts(const ModuleFacts &Facts);
std::optional<ModuleFacts> deserializeModuleFacts(std::string_view Payload,
                                                  std::string Path);

/// ModuleSummaries wire form for the supervisor's summarize rounds.
std::string serializeModuleSummaries(const ModuleSummaries &MS);
std::optional<ModuleSummaries>
deserializeModuleSummaries(std::string_view Payload);

/// Environment wire form (entries carry their defining files) for the
/// supervisor's redistribution phases.
std::string serializeEnv(const ExternalSummaries &Env);
std::optional<ExternalSummaries> deserializeEnv(std::string_view Payload);

} // namespace rs::analysis

#endif // RUSTSIGHT_ANALYSIS_LINK_H
