#include "analysis/Link.h"

#include "mir/Parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace rs;
using namespace rs::analysis;
using namespace rs::mir;

namespace {

Module parseOk(std::string_view Src) {
  auto R = Parser::parse(Src);
  EXPECT_TRUE(R) << (R ? "" : R.error().toString());
  return R.take();
}

// Module "caller.mir": calls a cross-file callee, a local helper, an
// intrinsic, and spawns a thread by string name.
const char *CallerSrc =
    "fn caller(_1: *mut u8) {\n"
    "    let _2: ();\n"
    "    let _3: ();\n"
    "    bb0: {\n"
    "        _2 = free_it(copy _1) -> bb1;\n"
    "    }\n"
    "    bb1: {\n"
    "        _3 = local_helper() -> bb2;\n"
    "    }\n"
    "    bb2: {\n"
    "        _3 = thread::spawn(const \"spawned_body\") -> bb3;\n"
    "    }\n"
    "    bb3: { return; }\n"
    "}\n"
    "fn local_helper() { bb0: { return; } }\n";

// Module "callee.mir": defines free_it (drops its parameter's pointee) and
// spawned_body, plus its own unresolved extern reference.
const char *CalleeSrc =
    "fn free_it(_1: *mut u8) {\n"
    "    bb0: {\n"
    "        dealloc(copy _1) -> bb1;\n"
    "    }\n"
    "    bb1: { return; }\n"
    "}\n"
    "fn spawned_body() {\n"
    "    let _1: ();\n"
    "    bb0: {\n"
    "        _1 = truly_external() -> bb1;\n"
    "    }\n"
    "    bb1: { return; }\n"
    "}\n";

std::vector<ModuleFacts> twoModuleFacts() {
  Module Caller = parseOk(CallerSrc);
  Module Callee = parseOk(CalleeSrc);
  return {collectModuleFacts(Caller, "caller.mir"),
          collectModuleFacts(Callee, "callee.mir")};
}

/// In-process round function over a fixed set of parsed modules.
SummarizeRoundFn inProcessRounds(const std::vector<const Module *> &Mods) {
  return [Mods](const std::vector<uint32_t> &Idxs,
                const ExternalSummaries &Env) {
    std::vector<ModuleSummaries> Out;
    for (uint32_t I : Idxs)
      Out.push_back(summarizeLinkedModule(*Mods[I], I, Env, 8));
    return Out;
  };
}

} // namespace

TEST(Link, ExternRefsIncludeSpawnTargets) {
  LinkedCorpus LC = LinkedCorpus::build(twoModuleFacts());
  // Intrinsics and locally-defined names are not external references; the
  // thread-spawn string target is.
  std::vector<std::string> Names;
  for (const auto &[Name, Gid] : LC.externRefs(0)) {
    EXPECT_EQ(LC.facts(Gid).Name, Name);
    EXPECT_EQ(LC.definingPath(Gid), "callee.mir");
    Names.push_back(Name);
  }
  EXPECT_EQ(Names, (std::vector<std::string>{"free_it", "spawned_body"}));
  // callee.mir defines both, so it is the one exporter.
  EXPECT_FALSE(LC.exports(0));
  EXPECT_TRUE(LC.exports(1));
}

TEST(Link, LinkNamesSeeCrossModuleEdges) {
  std::vector<ModuleFacts> Facts = twoModuleFacts();
  LinkNames Names;
  Names.add(edgeNames(Facts[1]));
  // caller.mir calls free_it and spawns spawned_body, both defined by the
  // indexed callee.mir; its local helper and the intrinsic are no edge.
  EXPECT_TRUE(Names.touchesEdge(edgeNames(Facts[0])));
  Names.add(edgeNames(Facts[0]));

  // Out of the index, callee.mir is still on an edge: caller.mir calls
  // what it defines.
  Names.remove(edgeNames(Facts[1]));
  EXPECT_TRUE(Names.touchesEdge(edgeNames(Facts[1])));

  // A module whose names nobody else defines or calls is on no edge, even
  // though it calls an unresolved name of its own.
  Module Lone = parseOk("fn lone() { let _1: (); bb0: { _1 = truly_external()"
                        " -> bb1; } bb1: { return; } }\n");
  const EdgeNames LoneNames = edgeNames(collectModuleFacts(Lone, "lone.mir"));
  EXPECT_FALSE(Names.touchesEdge(LoneNames));
  // Once a module defining that unresolved name joins, it is one.
  Module Def = parseOk("fn truly_external() { bb0: { return; } }\n");
  const EdgeNames DefNames = edgeNames(collectModuleFacts(Def, "def.mir"));
  Names.add(LoneNames);
  EXPECT_TRUE(Names.touchesEdge(DefNames));
  Names.remove(LoneNames);
  Names.remove(edgeNames(Facts[0]));
  EXPECT_FALSE(Names.touchesEdge(DefNames));
}

TEST(Link, CollectModuleFactsShape) {
  Module M = parseOk(CallerSrc);
  ModuleFacts F = collectModuleFacts(M, "caller.mir");
  EXPECT_EQ(F.Path, "caller.mir");
  ASSERT_EQ(F.Functions.size(), 2u);
  EXPECT_EQ(F.Functions[0].Name, "caller");
  EXPECT_EQ(F.Functions[0].NumArgs, 1u);
  // Callees are sorted and deduplicated, and include the spawn target.
  EXPECT_EQ(F.Functions[0].Callees,
            (std::vector<std::string>{"free_it", "local_helper",
                                      "spawned_body"}));
  EXPECT_EQ(F.Functions[1].Name, "local_helper");
  EXPECT_TRUE(F.Functions[1].Callees.empty());
  EXPECT_NE(F.Functions[0].BodyFp, 0u);
  EXPECT_NE(F.Functions[0].BodyFp, F.Functions[1].BodyFp);
}

namespace {

/// One function using every construct the MIR printer renders.
const char *FingerprintBase =
    "unsafe fn f(_1: i32, _2: &mut u8) -> i32 {\n"
    "    let mut _3: (i32, bool);\n"
    "    let _4: *const u8;\n"
    "    let _5: [u8; 4];\n"
    "    let _6: Mutex<i32>;\n"
    "    let _7: usize;\n"
    "    let _8: ();\n"
    "    bb0: {\n"
    "        StorageLive(_3);\n"
    "        _3 = (copy _1, const true);\n"
    "        _4 = &raw const (*_2);\n"
    "        _7 = Len(_5);\n"
    "        _0 = Add(copy _3.0, const 1_i32);\n"
    "        _0 = Neg(copy _1);\n"
    "        _7 = copy _1 as usize;\n"
    "        _0 = discriminant(_6);\n"
    "        _8 = Pair { 0: copy _5[_7], 1: move _6 };\n"
    "        _2 = &mut (*_2);\n"
    "        StorageDead(_3);\n"
    "        switchInt(copy _1) -> [0: bb1, 1: bb2, otherwise: bb3];\n"
    "    }\n"
    "    bb1: {\n"
    "        _8 = take(move _2, const \"a\") -> [return: bb2, unwind: bb4];\n"
    "    }\n"
    "    bb2: { drop(_6) -> [return: bb3, unwind: bb4]; }\n"
    "    bb3: { assert(const true) -> bb5; }\n"
    "    bb4: { resume; }\n"
    "    bb5: { goto -> bb6; }\n"
    "    bb6: { sink(const ()) -> bb7; }\n"
    "    bb7: { return; }\n"
    "}\n";

uint64_t soleBodyFp(std::string_view Src) {
  Module M = parseOk(Src);
  EXPECT_EQ(M.functions().size(), 1u) << Src;
  if (M.functions().size() != 1)
    return 0;
  return functionFingerprint(M.functions()[0], moduleDeclFingerprint(M));
}

/// The rendered reference key: what the fingerprint must agree with.
std::string renderedKey(const Function &F) {
  std::string Key = F.toString();
  for (const BasicBlock &BB : F.Blocks) {
    for (const Statement &S : BB.Statements)
      Key += "@" + std::to_string(S.Loc.line()) + ":" +
             std::to_string(S.Loc.column());
    Key += "@" + std::to_string(BB.Term.Loc.line()) + ":" +
           std::to_string(BB.Term.Loc.column());
  }
  return Key;
}

} // namespace

TEST(Link, FingerprintCoversBodyAndLocations) {
  // One text edit per rendered field, plus location-only shifts: summary
  // sites are source locations, so a body that merely moved must
  // re-fingerprint too. Each edit keeps every other field (and every
  // other location) as it was.
  struct Edit {
    const char *Field;
    const char *From;
    const char *To;
  };
  const Edit Edits[] = {
      {"name", "fn f(", "fn g("},
      {"unsafe flag", "unsafe fn", "fn"},
      {"arity", "(_1: i32, _2: &mut u8) -> i32 {\n",
       "(_1: i32) -> i32 { let _2: &mut u8;\n"},
      {"return type", "-> i32 {", "-> i64 {"},
      {"parameter type", "_2: &mut u8", "_2: &u8"},
      {"local mutability", "let mut _3", "let _3"},
      {"tuple element type", "(i32, bool)", "(i32, i8)"},
      {"raw pointer mutability", "*const u8", "*mut u8"},
      {"array length", "[u8; 4]", "[u8; 5]"},
      {"ADT name", "Mutex<i32>", "RwLock<i32>"},
      {"ADT argument", "Mutex<i32>", "Mutex<u32>"},
      {"primitive type", "_7: usize", "_7: isize"},
      {"statement kind", "StorageLive(_3)", "StorageDead(_3)"},
      {"storage local", "StorageLive(_3)", "StorageLive(_8)"},
      {"assign destination", "_4 = &raw", "_7 = &raw"},
      {"deref projection", "&raw const (*_2)", "&raw const _2"},
      {"field projection", "copy _3.0", "copy _3.1"},
      {"index projection", "_5[_7]", "_5[_1]"},
      {"address-of mutability", "&raw const", "&raw mut"},
      {"ref mutability", "&mut (*_2)", "&(*_2)"},
      {"rvalue kind", "Len(_5)", "discriminant(_5)"},
      {"rvalue place", "Len(_5)", "Len(_6)"},
      {"binary op", "Add(", "Sub("},
      {"unary op", "Neg(", "Not("},
      {"cast type", "as usize", "as isize"},
      {"aggregate name", "Pair {", "Pear {"},
      {"aggregate arity", "(copy _1, const true)", "(copy _1, const true, "
                                                   "const true)"},
      {"operand kind", "copy _1 as", "move _1 as"},
      {"int constant", "const 1_i32", "const 2_i32"},
      {"constant type suffix", "const 1_i32", "const 1_i64"},
      {"bool constant", "(copy _1, const true)", "(copy _1, const false)"},
      {"string bytes", "const \"a\"", "const \"b\""},
      {"unit constant", "sink(const ())", "sink(const 0)"},
      {"terminator kind", "resume;", "unreachable;"},
      {"switch operand", "switchInt(copy _1)", "switchInt(copy _7)"},
      {"switch case value", "[0: bb1", "[7: bb1"},
      {"switch case target", "1: bb2,", "1: bb3,"},
      {"switch otherwise", "otherwise: bb3", "otherwise: bb4"},
      {"call target", "[return: bb2, unwind", "[return: bb3, unwind"},
      {"call unwind", "bb2, unwind: bb4]", "bb2, unwind: bb5]"},
      {"call unwind presence", "-> [return: bb2, unwind: bb4]", "-> bb2"},
      {"drop place", "drop(_6)", "drop(_5)"},
      {"drop unwind", "bb3, unwind: bb4]", "bb3, unwind: bb5]"},
      {"call destination", "_8 = take(", "_3 = take("},
      {"call HasDest", "_8 = take(", "take("},
      {"callee", "take(", "tale("},
      {"call argument", "take(move _2", "take(copy _2"},
      {"assert operand", "assert(const true)", "assert(const false)"},
      {"assert target", "-> bb5;", "-> bb6;"},
      {"goto target", "goto -> bb6", "goto -> bb7"},
      {"statement column", "        StorageDead(_3);",
       "         StorageDead(_3);"},
      {"terminator column", "    bb4: { resume; }", "    bb4: {  resume; }"},
      {"line shift", "unsafe fn f(", "\nunsafe fn f("},
  };

  const std::string Base = FingerprintBase;
  const uint64_t BaseFp = soleBodyFp(Base);
  ASSERT_NE(BaseFp, 0u);
  EXPECT_EQ(soleBodyFp(Base), BaseFp) << "re-parsing moved the fingerprint";
  for (const Edit &E : Edits) {
    SCOPED_TRACE(E.Field);
    size_t At = Base.find(E.From);
    ASSERT_NE(At, std::string::npos);
    ASSERT_EQ(Base.find(E.From, At + 1), std::string::npos)
        << "edit site is ambiguous";
    std::string Edited = Base;
    Edited.replace(At, std::string_view(E.From).size(), E.To);
    const uint64_t Fp = soleBodyFp(Edited);
    EXPECT_NE(Fp, BaseFp);
    EXPECT_EQ(soleBodyFp(Edited), Fp);
  }

  // The printer renders a local's debug name, which the parser never
  // sets; edit it in memory.
  Module M = parseOk(Base);
  Function &F = M.functions()[0];
  F.Locals[3].DebugName = Symbol::intern("buf");
  EXPECT_NE(functionFingerprint(F, moduleDeclFingerprint(M)), BaseFp);
}

TEST(Link, FingerprintPartitionsLikeTheRenderedBody) {
  // Over the example corpora, two functions fingerprint alike exactly
  // when they render alike at the same locations.
  std::map<uint64_t, std::string> KeyOf;
  std::map<std::string, uint64_t> FpOf;
  unsigned Functions = 0;
  for (const char *Sub : {"examples/mir", "examples/mir/eval"}) {
    for (const auto &Entry : std::filesystem::directory_iterator(
             std::filesystem::path(RS_REPO_ROOT) / Sub)) {
      if (!Entry.is_regular_file() || Entry.path().extension() != ".mir")
        continue;
      std::ifstream In(Entry.path(), std::ios::binary);
      std::stringstream Buf;
      Buf << In.rdbuf();
      auto R = Parser::parse(Buf.str());
      if (!R)
        continue; // Malformed-on-purpose inputs.
      Module M = R.take();
      for (const Function &F : M.functions()) {
        SCOPED_TRACE(Entry.path().string() + ": " + F.Name.str());
        const uint64_t Fp = functionFingerprint(F, /*DeclFp=*/0);
        const std::string Key = renderedKey(F);
        auto [KeyIt, NewFp] = KeyOf.try_emplace(Fp, Key);
        EXPECT_EQ(KeyIt->second, Key) << "distinct bodies share a fingerprint";
        auto [FpIt, NewKey] = FpOf.try_emplace(Key, Fp);
        EXPECT_EQ(FpIt->second, Fp) << "one body, two fingerprints";
        ++Functions;
      }
    }
  }
  EXPECT_GT(Functions, 100u);
  EXPECT_EQ(KeyOf.size(), FpOf.size());
}

TEST(Link, BuildResolvesAcrossModules) {
  LinkedCorpus LC = LinkedCorpus::build(twoModuleFacts());
  ASSERT_EQ(LC.numFunctions(), 4u);
  // Global ids are dense, module-major in corpus order.
  EXPECT_EQ(LC.globalId(0, 0), 0u);
  EXPECT_EQ(LC.globalId(1, 0), 2u);
  EXPECT_EQ(LC.facts(0).Name, "caller");
  EXPECT_EQ(LC.definingPath(2), "callee.mir");

  // caller's resolved callees: free_it (cross-module), local_helper (own
  // module), spawned_body (cross-module) — sorted by callee name.
  std::vector<std::string> CalleeNames;
  for (uint32_t Id : LC.callees(0))
    CalleeNames.push_back(LC.facts(Id).Name);
  EXPECT_EQ(CalleeNames, (std::vector<std::string>{"free_it", "local_helper",
                                                   "spawned_body"}));

  // truly_external stays an unresolved leaf.
  EXPECT_FALSE(LC.lookup("truly_external").has_value());
  ASSERT_TRUE(LC.lookup("free_it").has_value());
  EXPECT_EQ(*LC.lookup("free_it"), 2u);

  // externRefs: caller.mir resolves two names into callee.mir; callee.mir
  // resolves none (truly_external is unresolved, free_it is its own).
  ASSERT_EQ(LC.externRefs(0).size(), 2u);
  EXPECT_EQ(LC.externRefs(0)[0].first, "free_it");
  EXPECT_TRUE(LC.externRefs(1).empty());
  EXPECT_NE(LC.linkDigest(0), 0u);
  EXPECT_EQ(LC.linkDigest(1), 0u);
}

TEST(Link, FirstDefinitionInCorpusOrderWins) {
  Module A = parseOk("fn dup() { bb0: { return; } }\n");
  Module B = parseOk("fn dup() { let _1: (); bb0: { _1 = dup() -> bb1; }\n"
                     "           bb1: { return; } }\n");
  LinkedCorpus LC = LinkedCorpus::build({collectModuleFacts(A, "a.mir"),
                                         collectModuleFacts(B, "b.mir")});
  ASSERT_TRUE(LC.lookup("dup").has_value());
  EXPECT_EQ(LC.definingPath(*LC.lookup("dup")), "a.mir");
  // b.mir's own dup call resolves to its local definition, not the winner.
  EXPECT_EQ(LC.callees(LC.globalId(1, 0)),
            (std::vector<uint32_t>{LC.globalId(1, 0)}));
  EXPECT_TRUE(LC.externRefs(1).empty());
}

TEST(Link, LinkKeySeesCalleeBodiesAcrossFiles) {
  std::vector<ModuleFacts> Facts = twoModuleFacts();
  LinkedCorpus Base = LinkedCorpus::build(Facts);

  // Perturb free_it's body fingerprint (as if callee.mir was edited).
  std::vector<ModuleFacts> Edited = twoModuleFacts();
  Edited[1].Functions[0].BodyFp ^= 0x1234;
  LinkedCorpus Changed = LinkedCorpus::build(std::move(Edited));

  // caller (global 0) reaches free_it, so its link key and its module's
  // digest move; local_helper (global 1) does not reach it.
  EXPECT_NE(Base.linkKey(0), Changed.linkKey(0));
  EXPECT_EQ(Base.linkKey(1), Changed.linkKey(1));
  EXPECT_NE(Base.linkDigest(0), Changed.linkDigest(0));

  // The unresolved-name set is folded too: renaming the unresolved leaf
  // moves spawned_body's key.
  std::vector<ModuleFacts> Renamed = twoModuleFacts();
  for (FunctionFacts &F : Renamed[1].Functions)
    for (std::string &C : F.Callees)
      if (C == "truly_external")
        C = "other_external";
  LinkedCorpus R = LinkedCorpus::build(std::move(Renamed));
  EXPECT_NE(Base.linkKey(3), R.linkKey(3));
}

TEST(Link, SolveLinkConvergesAndExposesEffects) {
  Module Caller = parseOk(CallerSrc);
  Module Callee = parseOk(CalleeSrc);
  LinkResult LR =
      solveLink(LinkedCorpus::build(twoModuleFacts()), LinkOptions(),
                LinkDbHooks(), inProcessRounds({&Caller, &Callee}));
  EXPECT_TRUE(LR.Converged);
  EXPECT_GE(LR.Stats.Rounds, 1u);

  const ExternalFunctionInfo *Info = LR.Env.find("free_it");
  ASSERT_NE(Info, nullptr);
  EXPECT_EQ(Info->File, "callee.mir");
  ASSERT_EQ(Info->Summary.DropsParamPointee.size(), 2u);
  EXPECT_TRUE(Info->Summary.DropsParamPointee[1]);
  // The dealloc site inside free_it justifies the cross-file span.
  ASSERT_EQ(Info->DropSites.size(), 2u);
  ASSERT_EQ(Info->DropSites[1].size(), 1u);
  EXPECT_GT(Info->DropSites[1][0].Line, 0u);

  // sliceFor(caller.mir) carries exactly its resolved extern entries.
  ExternalSummaries Slice = LR.Corpus.sliceFor(0, LR.Env);
  EXPECT_EQ(Slice.size(), 2u);
  EXPECT_NE(Slice.find("free_it"), nullptr);
  EXPECT_NE(Slice.find("spawned_body"), nullptr);
  EXPECT_EQ(Slice.find("caller"), nullptr);
}

TEST(Link, SummaryDbHooksServeWarmRuns) {
  Module Caller = parseOk(CallerSrc);
  Module Callee = parseOk(CalleeSrc);
  std::map<uint64_t, std::string> Db;
  LinkDbHooks Hooks;
  Hooks.Lookup = [&Db](uint64_t K) -> std::optional<std::string> {
    auto It = Db.find(K);
    if (It == Db.end())
      return std::nullopt;
    return It->second;
  };
  Hooks.Store = [&Db](uint64_t K, std::string_view P) {
    Db.emplace(K, std::string(P));
  };

  LinkResult Cold = solveLink(LinkedCorpus::build(twoModuleFacts()),
                              LinkOptions(), Hooks,
                              inProcessRounds({&Caller, &Callee}));
  EXPECT_TRUE(Cold.Converged);
  EXPECT_GT(Cold.Stats.DbStores, 0u);
  EXPECT_GT(Cold.Stats.ModulesSummarized, 0u);
  ASSERT_FALSE(Db.empty());

  // Warm: the exporter's link key hits, so no module is summarized at all
  // and the environment is byte-identical to the cold run's. caller.mir
  // exports nothing and needs no summary either way.
  LinkResult Warm = solveLink(LinkedCorpus::build(twoModuleFacts()),
                              LinkOptions(), Hooks,
                              inProcessRounds({&Caller, &Callee}));
  EXPECT_TRUE(Warm.Converged);
  EXPECT_EQ(Warm.Stats.ModulesSummarized, 0u);
  EXPECT_EQ(Warm.Stats.ModulesFromDb, 1u);
  EXPECT_EQ(Warm.Stats.ModulesNeedNoSummary, 1u);
  EXPECT_GT(Warm.Stats.DbHits, 0u);
  EXPECT_EQ(serializeEnv(Warm.Env), serializeEnv(Cold.Env));
}

TEST(Link, SerializationRoundTrips) {
  Module Caller = parseOk(CallerSrc);
  Module Callee = parseOk(CalleeSrc);
  LinkResult LR =
      solveLink(LinkedCorpus::build(twoModuleFacts()), LinkOptions(),
                LinkDbHooks(), inProcessRounds({&Caller, &Callee}));

  // Per-module SummaryDb payload.
  const ExternalFunctionInfo *Info = LR.Env.find("free_it");
  ASSERT_NE(Info, nullptr);
  std::optional<std::vector<ExternalFunctionInfo>> Back =
      deserializeSummaryPayload(serializeSummaryPayload({*Info}));
  ASSERT_TRUE(Back.has_value());
  ASSERT_EQ(Back->size(), 1u);
  (*Back)[0].File = Info->File; // Payloads re-anchor the file at load.
  EXPECT_EQ((*Back)[0], *Info);
  EXPECT_FALSE(deserializeSummaryPayload("{\"garbage\":1}").has_value());

  // ModuleFacts wire frame: stored without a path, re-anchored at load.
  ModuleFacts F = collectModuleFacts(Caller, "caller.mir");
  std::string Stored = serializeModuleFacts(F);
  EXPECT_EQ(Stored.find("caller.mir"), std::string::npos);
  std::optional<ModuleFacts> FB =
      deserializeModuleFacts(Stored, "moved/caller.mir");
  ASSERT_TRUE(FB.has_value());
  EXPECT_EQ(FB->Path, "moved/caller.mir");
  ASSERT_EQ(FB->Functions.size(), F.Functions.size());
  for (size_t I = 0; I != F.Functions.size(); ++I) {
    EXPECT_EQ(FB->Functions[I].Name, F.Functions[I].Name);
    EXPECT_EQ(FB->Functions[I].BodyFp, F.Functions[I].BodyFp);
    EXPECT_EQ(FB->Functions[I].Callees, F.Functions[I].Callees);
  }

  // ModuleSummaries wire frame.
  ModuleSummaries MS =
      summarizeLinkedModule(Callee, 1, ExternalSummaries(), 8);
  std::optional<ModuleSummaries> MB =
      deserializeModuleSummaries(serializeModuleSummaries(MS));
  ASSERT_TRUE(MB.has_value());
  EXPECT_EQ(MB->ModuleIdx, 1u);
  EXPECT_EQ(MB->Complete, MS.Complete);
  EXPECT_EQ(MB->Functions, MS.Functions);

  // Environment wire frame (entries carry defining files).
  std::optional<ExternalSummaries> EB = deserializeEnv(serializeEnv(LR.Env));
  ASSERT_TRUE(EB.has_value());
  EXPECT_EQ(serializeEnv(*EB), serializeEnv(LR.Env));
  const ExternalFunctionInfo *EInfo = EB->find("free_it");
  ASSERT_NE(EInfo, nullptr);
  EXPECT_EQ(EInfo->File, "callee.mir");
}

namespace {

/// One synthetic module per entry of \p Modules, at "m<index>.mir".
std::vector<ModuleFacts>
syntheticFacts(const std::vector<std::vector<FunctionFacts>> &Modules) {
  std::vector<ModuleFacts> Out;
  for (size_t M = 0; M != Modules.size(); ++M) {
    ModuleFacts F;
    F.Path = "m" + std::to_string(M) + ".mir";
    F.Functions = Modules[M];
    Out.push_back(std::move(F));
  }
  return Out;
}

/// A function whose BodyFp is derived from its name.
FunctionFacts fn(std::string Name, std::vector<std::string> Callees = {}) {
  FunctionFacts F;
  F.BodyFp = std::hash<std::string>()(Name) | 1;
  F.Name = std::move(Name);
  F.Callees = std::move(Callees);
  return F;
}

} // namespace

TEST(Link, LeafEditMovesExactlyItsTransitiveCallers) {
  // top -> mid -> leaf; sibling -> other; bystander calls nothing.
  // cousin -> mid as well, so the edit reaches it through a shared child.
  std::vector<std::vector<FunctionFacts>> Mods = {
      {fn("top", {"mid"}), fn("sibling", {"other"})},
      {fn("mid", {"leaf"}), fn("cousin", {"mid"}), fn("bystander")},
      {fn("leaf"), fn("other")}};
  LinkedCorpus Base = LinkedCorpus::build(syntheticFacts(Mods));
  Mods[2][0].BodyFp ^= 0x55;
  LinkedCorpus Edited = LinkedCorpus::build(syntheticFacts(Mods));

  std::map<std::string, bool> Moved;
  for (uint32_t G = 0; G != Base.numFunctions(); ++G)
    Moved[Base.facts(G).Name] = Base.linkKey(G) != Edited.linkKey(G);
  EXPECT_EQ(Moved, (std::map<std::string, bool>{{"leaf", true},
                                                {"mid", true},
                                                {"top", true},
                                                {"cousin", true},
                                                {"sibling", false},
                                                {"other", false},
                                                {"bystander", false}}));
  // Module keys follow their functions: m0 and m1 hold a caller, m2 the
  // leaf itself.
  for (uint32_t M = 0; M != 3; ++M)
    EXPECT_NE(Base.moduleKey(M), Edited.moduleKey(M)) << M;

  // A module with no moved function keeps its key.
  std::vector<std::vector<FunctionFacts>> Apart = Mods;
  Apart.push_back({fn("island")});
  LinkedCorpus A = LinkedCorpus::build(syntheticFacts(Apart));
  Apart[2][0].BodyFp ^= 0x99;
  LinkedCorpus B = LinkedCorpus::build(syntheticFacts(Apart));
  EXPECT_EQ(A.moduleKey(3), B.moduleKey(3));
  EXPECT_NE(A.moduleKey(2), B.moduleKey(2));
}

TEST(Link, CycleMembersGetDistinctKeys) {
  // ping <-> pong across two files, plus a caller of the cycle.
  std::vector<std::vector<FunctionFacts>> Mods = {
      {fn("ping", {"pong"}), fn("entry", {"ping"})}, {fn("pong", {"ping"})}};
  LinkedCorpus LC = LinkedCorpus::build(syntheticFacts(Mods));
  uint32_t Ping = *LC.lookup("ping"), Pong = *LC.lookup("pong");
  EXPECT_NE(LC.linkKey(Ping), LC.linkKey(Pong));
  EXPECT_NE(LC.linkKey(Ping), LC.linkKey(*LC.lookup("entry")));

  // Either member's body feeds both members' keys, and the caller's.
  Mods[1][0].BodyFp ^= 0x7;
  LinkedCorpus Edited = LinkedCorpus::build(syntheticFacts(Mods));
  EXPECT_NE(LC.linkKey(Ping), Edited.linkKey(Ping));
  EXPECT_NE(LC.linkKey(Pong), Edited.linkKey(Pong));
  EXPECT_NE(LC.linkKey(*LC.lookup("entry")),
            Edited.linkKey(*Edited.lookup("entry")));
}

TEST(Link, RenamingAnUnresolvedNameMovesTheKeysThatReachIt) {
  std::vector<std::vector<FunctionFacts>> Mods = {
      {fn("outer", {"inner"}), fn("apart", {"elsewhere"})},
      {fn("inner", {"ffi_call"})}};
  LinkedCorpus Base = LinkedCorpus::build(syntheticFacts(Mods));
  Mods[1][0].Callees = {"ffi_call_renamed"};
  LinkedCorpus Renamed = LinkedCorpus::build(syntheticFacts(Mods));
  for (const char *Name : {"outer", "inner"})
    EXPECT_NE(Base.linkKey(*Base.lookup(Name)),
              Renamed.linkKey(*Renamed.lookup(Name)))
        << Name;
  EXPECT_EQ(Base.linkKey(*Base.lookup("apart")),
            Renamed.linkKey(*Renamed.lookup("apart")));
}

TEST(Link, LongChainAndWideFanInBuildInLinearTime) {
  // A 20k-function chain across 2k files and a 10k-way fan-in onto one
  // leaf. Per-component reach sets would need 20k x 20k bits for the
  // chain alone; the Merkle fold is O(V+E).
  constexpr uint32_t ChainLen = 20000, PerFile = 10, FanIn = 10000;
  std::vector<std::vector<FunctionFacts>> Mods;
  for (uint32_t I = 0; I != ChainLen; ++I) {
    if (I % PerFile == 0)
      Mods.emplace_back();
    std::vector<std::string> Callees;
    if (I + 1 != ChainLen)
      Callees.push_back("chain_" + std::to_string(I + 1));
    Mods.back().push_back(fn("chain_" + std::to_string(I), Callees));
  }
  Mods.push_back({fn("hub")});
  for (uint32_t I = 0; I != FanIn; ++I) {
    if (I % PerFile == 0)
      Mods.emplace_back();
    Mods.back().push_back(fn("fan_" + std::to_string(I), {"hub"}));
  }
  LinkedCorpus LC = LinkedCorpus::build(syntheticFacts(Mods));
  ASSERT_EQ(LC.numFunctions(), ChainLen + 1 + FanIn);

  // Every chain key is distinct (each covers a different suffix), and the
  // chain head's key moves when the far tail changes.
  std::vector<uint64_t> Keys;
  for (uint32_t I = 0; I != ChainLen; ++I)
    Keys.push_back(LC.linkKey(*LC.lookup("chain_" + std::to_string(I))));
  std::sort(Keys.begin(), Keys.end());
  EXPECT_EQ(std::unique(Keys.begin(), Keys.end()), Keys.end());

  Mods[(ChainLen - 1) / PerFile].back().BodyFp ^= 1;
  LinkedCorpus Tail = LinkedCorpus::build(syntheticFacts(Mods));
  EXPECT_NE(LC.linkKey(*LC.lookup("chain_0")),
            Tail.linkKey(*Tail.lookup("chain_0")));
  EXPECT_EQ(LC.linkKey(*LC.lookup("fan_0")),
            Tail.linkKey(*Tail.lookup("fan_0")));
}
