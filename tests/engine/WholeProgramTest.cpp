//===----------------------------------------------------------------------===//
//
// End-to-end tests for the whole-program link step (docs/WHOLEPROGRAM.md):
// cross-file findings with counterpart spans in both files, the
// withheld-callee miss, and the determinism matrix — in-process vs shard
// fleet, job counts, cold vs warm SummaryDb, the payload-skew drill, and
// warm runs served without decoding a module.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"

#include "../sched/CacheSegments.h"

#include "analysis/Link.h"
#include "diag/Diag.h"
#include "engine/Supervisor.h"
#include "support/FaultInjection.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;
using namespace rs;
using namespace rs::engine;

namespace {

// The caller half of the cross-file use-after-free: the allocation only
// dies inside the callee, which lives in the other file.
const char *UafUseSrc = "fn xp_caller() -> u8 {\n"
                        "    let _1: *mut u8;\n"
                        "    let _2: ();\n"
                        "    bb0: {\n"
                        "        _1 = alloc(const 8) -> bb1;\n"
                        "    }\n"
                        "    bb1: {\n"
                        "        (*_1) = const 5;\n"
                        "        _2 = xp_free(copy _1) -> bb2;\n"
                        "    }\n"
                        "    bb2: {\n"
                        "        _0 = copy (*_1);\n"
                        "        return;\n"
                        "    }\n"
                        "}\n";

const char *UafDefSrc = "fn xp_free(_1: *mut u8) {\n"
                        "    bb0: {\n"
                        "        dealloc(copy _1) -> bb1;\n"
                        "    }\n"
                        "    bb1: {\n"
                        "        return;\n"
                        "    }\n"
                        "}\n";

// The caller half of the cross-file double lock: the guard is still live
// across a call to a helper that re-locks the same mutex.
const char *DlUseSrc = "fn xp_outer(_1: &Mutex<i32>) -> i32 {\n"
                       "    let _2: MutexGuard<i32>;\n"
                       "    bb0: {\n"
                       "        _2 = Mutex::lock(copy _1) -> bb1;\n"
                       "    }\n"
                       "    bb1: {\n"
                       "        _0 = xp_relock(copy _1) -> bb2;\n"
                       "    }\n"
                       "    bb2: {\n"
                       "        return;\n"
                       "    }\n"
                       "}\n";

const char *DlDefSrc = "fn xp_relock(_1: &Mutex<i32>) -> i32 {\n"
                       "    let _2: MutexGuard<i32>;\n"
                       "    bb0: {\n"
                       "        _2 = Mutex::lock(copy _1) -> bb1;\n"
                       "    }\n"
                       "    bb1: {\n"
                       "        _0 = copy (*_2);\n"
                       "        return;\n"
                       "    }\n"
                       "}\n";

fs::path writePair(const char *Name, const char *UseSrc, const char *DefSrc) {
  fs::path Dir = fs::path(testing::TempDir()) / Name;
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  std::ofstream(Dir / "a_def.mir") << DefSrc;
  std::ofstream(Dir / "b_use.mir") << UseSrc;
  return Dir;
}

/// Both cross-file pairs in one directory.
fs::path writeCorpus(const char *Name) {
  fs::path Dir = writePair(Name, UafUseSrc, UafDefSrc);
  std::ofstream(Dir / "c_dl_def.mir") << DlDefSrc;
  std::ofstream(Dir / "d_dl_use.mir") << DlUseSrc;
  return Dir;
}

/// \p Names in \p Dir, in that order. A run over another order than the
/// directory's links instead of reusing the link state a run over the
/// directory left (its key folds the input order).
std::vector<std::string> inOrder(const fs::path &Dir,
                                 std::initializer_list<const char *> Names) {
  std::vector<std::string> Out;
  for (const char *Name : Names)
    Out.push_back((Dir / Name).string());
  return Out;
}

EngineOptions baseOptions() {
  EngineOptions Opts;
  Opts.Jobs = 1;
  Opts.UseCache = false;
  return Opts;
}

EngineOptions cachedOptions(const fs::path &CacheDir) {
  EngineOptions Opts = baseOptions();
  Opts.UseCache = true;
  Opts.CacheDir = CacheDir.string();
  return Opts;
}

const FileReport *findFile(const CorpusReport &R, const char *Needle) {
  for (const FileReport &F : R.Files)
    if (F.Path.find(Needle) != std::string::npos)
      return &F;
  return nullptr;
}

/// The first finding of \p Kind in \p F, or null.
const diag::Diagnostic *findKind(const FileReport &F, const char *Kind) {
  for (const diag::Diagnostic &D : F.Findings)
    if (std::string_view(diag::ruleName(D.Kind)) == Kind)
      return &D;
  return nullptr;
}

/// The first secondary span whose location lives in \p FileNeedle, or null.
const diag::Span *spanInto(const diag::Diagnostic &D,
                           const char *FileNeedle) {
  for (const diag::Span &S : D.Secondary)
    if (S.Loc.file().find(FileNeedle) != std::string::npos)
      return &S;
  return nullptr;
}

} // namespace

TEST(WholeProgram, CrossFileUseAfterFreeHasCounterpartSpan) {
  fs::path Dir = writePair("wp_uaf", UafUseSrc, UafDefSrc);
  AnalysisEngine E(baseOptions());
  CorpusReport R = E.analyzeCorpus({Dir.string()});

  EXPECT_TRUE(R.Stats.LinkEnabled);
  EXPECT_EQ(R.Stats.LinkedFiles, 2u);

  // The finding lands in the use file...
  const FileReport *Use = findFile(R, "b_use.mir");
  ASSERT_NE(Use, nullptr);
  const diag::Diagnostic *D = findKind(*Use, "use-after-free");
  ASSERT_NE(D, nullptr) << R.renderText();
  EXPECT_EQ(D->Function, "xp_caller");

  // ...with a secondary span pointing at the dealloc inside the callee,
  // in the counterpart file.
  const diag::Span *S = spanInto(*D, "a_def.mir");
  ASSERT_NE(S, nullptr) << R.renderText();
  EXPECT_EQ(S->Label, "may be dropped inside callee 'xp_free' here");
  EXPECT_EQ(S->Loc.line(), 3u); // dealloc(copy _1) in a_def.mir.

  // The def file itself stays clean: standalone, xp_free frees an unknown
  // caller-owned object.
  const FileReport *Def = findFile(R, "a_def.mir");
  ASSERT_NE(Def, nullptr);
  EXPECT_TRUE(Def->Findings.empty());
}

TEST(WholeProgram, CrossFileDoubleLockHasCounterpartSpan) {
  fs::path Dir = writePair("wp_dl", DlUseSrc, DlDefSrc);
  AnalysisEngine E(baseOptions());
  CorpusReport R = E.analyzeCorpus({Dir.string()});

  const FileReport *Use = findFile(R, "b_use.mir");
  ASSERT_NE(Use, nullptr);
  const diag::Diagnostic *D = findKind(*Use, "double-lock");
  ASSERT_NE(D, nullptr) << R.renderText();
  EXPECT_NE(D->Message.find("xp_relock"), std::string::npos);

  const diag::Span *S = spanInto(*D, "a_def.mir");
  ASSERT_NE(S, nullptr) << R.renderText();
  EXPECT_EQ(S->Label, "acquired inside callee 'xp_relock' here");
  EXPECT_EQ(S->Loc.line(), 4u); // Mutex::lock in a_def.mir.

  const FileReport *Def = findFile(R, "a_def.mir");
  ASSERT_NE(Def, nullptr);
  EXPECT_TRUE(Def->Findings.empty());
}

TEST(WholeProgram, MissedWhenCalleeFileWithheld) {
  // Analyzing the use file alone — even with linking forced on — must not
  // report the bug: the callee is an unresolved leaf with no summary.
  fs::path Dir = writePair("wp_withheld", UafUseSrc, UafDefSrc);
  EngineOptions Opts = baseOptions();
  Opts.WholeProgram = WholeProgramMode::On;
  AnalysisEngine E(Opts);
  CorpusReport R = E.analyzeCorpus({(Dir / "b_use.mir").string()});

  ASSERT_EQ(R.Files.size(), 1u);
  EXPECT_EQ(R.Files[0].Status, EngineStatus::Ok);
  EXPECT_EQ(R.totalFindings(), 0u) << R.renderText();
}

TEST(WholeProgram, OffModeStaysPerFile) {
  fs::path Dir = writePair("wp_off", UafUseSrc, UafDefSrc);
  EngineOptions Opts = baseOptions();
  Opts.WholeProgram = WholeProgramMode::Off;
  AnalysisEngine E(Opts);
  CorpusReport R = E.analyzeCorpus({Dir.string()});

  EXPECT_FALSE(R.Stats.LinkEnabled);
  EXPECT_EQ(R.totalFindings(), 0u) << R.renderText();
}

TEST(WholeProgram, AutoLinksOnlyMultiFileCorpora) {
  fs::path Dir = writePair("wp_auto", UafUseSrc, UafDefSrc);
  {
    AnalysisEngine E(baseOptions());
    CorpusReport R = E.analyzeCorpus({(Dir / "b_use.mir").string()});
    EXPECT_FALSE(R.Stats.LinkEnabled);
  }
  {
    AnalysisEngine E(baseOptions());
    CorpusReport R = E.analyzeCorpus({Dir.string()});
    EXPECT_TRUE(R.Stats.LinkEnabled);
  }
}

// A per-file run is a linked run with an empty environment: a leaf file
// (link digest 0) shares its report entry with per-file mode, while a file
// whose callee lives elsewhere is keyed by its digest. The linked driver
// analyzes a file that calls out of its own only after the link, under its
// digest, so it leaves the leaf's per-file entry and the caller's linked
// one.
TEST(WholeProgram, LeafEntryFromLinkedRunServesPerFileRuns) {
  fs::path Dir = writePair("wp_leaf_entry", UafUseSrc, UafDefSrc);
  fs::path CacheDir = fs::path(testing::TempDir()) / "wp_leaf_entry_cache";
  fs::remove_all(CacheDir);
  EngineOptions Opts = baseOptions();
  Opts.UseCache = true;
  Opts.CacheDir = CacheDir.string();

  {
    AnalysisEngine E(Opts);
    CorpusReport Linked = E.analyzeCorpus({Dir.string()});
    ASSERT_TRUE(Linked.Stats.LinkEnabled);
    // The leaf per-file, then the caller against the environment.
    EXPECT_EQ(Linked.Stats.CacheMisses, 2u);
    EXPECT_EQ(Linked.totalFindings(), 1u) << Linked.renderText();

    // The same engine's per-file entry hits for the leaf, and the caller's
    // per-file analysis is a miss (without the environment, the cross-file
    // bug is invisible) ...
    sched::ResultCache::Stats Before = E.cache()->stats();
    FileReport Def = E.analyzeFile((Dir / "a_def.mir").string());
    EXPECT_EQ(E.cache()->stats().Hits, Before.Hits + 1);
    EXPECT_EQ(E.cache()->stats().Misses, Before.Misses);
    FileReport Use = E.analyzeFile((Dir / "b_use.mir").string());
    EXPECT_EQ(E.cache()->stats().Hits, Before.Hits + 1);
    EXPECT_EQ(E.cache()->stats().Misses, Before.Misses + 1);
    EXPECT_EQ(Def.Status, EngineStatus::Ok);
    EXPECT_TRUE(Use.Findings.empty());
    // ... while the caller's linked entry lives under its digest: a digest
    // no link produced misses.
    FileReport Stale = E.analyzeFile((Dir / "b_use.mir").string(),
                                     std::nullopt, nullptr,
                                     /*LinkDigest=*/42);
    EXPECT_EQ(E.cache()->stats().Misses, Before.Misses + 2);
    EXPECT_TRUE(Stale.Findings.empty());
  }

  // A WholeProgramMode::Off run over a cache only a linked run has written:
  // the leaf's per-file entry serves from disk, the caller's is a miss.
  fs::remove_all(CacheDir);
  {
    AnalysisEngine Warm(Opts);
    Warm.analyzeCorpus({Dir.string()});
  }
  {
    EngineOptions OffOpts = Opts;
    OffOpts.WholeProgram = WholeProgramMode::Off;
    AnalysisEngine Off(OffOpts);
    CorpusReport PerFile = Off.analyzeCorpus({Dir.string()});
    EXPECT_FALSE(PerFile.Stats.LinkEnabled);
    EXPECT_EQ(PerFile.Stats.CacheHits, 1u) << PerFile.Stats.renderLine();
    EXPECT_EQ(PerFile.Stats.DiskHits, 1u);
    EXPECT_EQ(PerFile.Stats.CacheMisses, 1u);
    EXPECT_EQ(PerFile.totalFindings(), 0u) << PerFile.renderText();
  }
  fs::remove_all(CacheDir);
}

TEST(WholeProgram, JsonIsByteIdenticalAcrossJobsAndShards) {
  fs::path Dir = writeCorpus("wp_determinism");

  AnalysisEngine Serial(baseOptions());
  CorpusReport Want = Serial.analyzeCorpus({Dir.string()});
  EXPECT_EQ(Want.totalFindings(), 2u) << Want.renderText();

  // Job counts.
  for (unsigned Jobs : {2u, 8u}) {
    EngineOptions Opts = baseOptions();
    Opts.Jobs = Jobs;
    AnalysisEngine E(Opts);
    CorpusReport Got = E.analyzeCorpus({Dir.string()});
    EXPECT_EQ(Want.renderJson(), Got.renderJson()) << "jobs=" << Jobs;
    EXPECT_EQ(Want.renderSarif(), Got.renderSarif()) << "jobs=" << Jobs;
  }

  // Shard fleet: the supervised two-phase link must reproduce the
  // in-process bytes for every shard count.
  for (unsigned Shards : {1u, 4u}) {
    SupervisorOptions SO;
    SO.Engine = baseOptions();
    SO.Shards = Shards;
    SO.BackoffMs = 1;
    SO.WorkerExe = RS_RUSTSIGHT_BIN;
    Supervisor S(std::move(SO));
    CorpusReport Got = S.run({Dir.string()});
    EXPECT_EQ(Want.renderJson(), Got.renderJson()) << "shards=" << Shards;
    EXPECT_EQ(Want.renderSarif(), Got.renderSarif()) << "shards=" << Shards;
  }
}

TEST(WholeProgram, ColdVsWarmSummaryDbIsByteIdentical) {
  fs::path Dir = writePair("wp_warm", UafUseSrc, UafDefSrc);
  fs::path CacheDir = fs::path(testing::TempDir()) / "wp_warm_cache";
  fs::remove_all(CacheDir);

  EngineOptions Opts = baseOptions();
  Opts.UseCache = true;
  Opts.CacheDir = CacheDir.string();

  std::string Cold, Warm;
  {
    AnalysisEngine E(Opts);
    CorpusReport R = E.analyzeCorpus({Dir.string()});
    EXPECT_GT(R.Stats.SummaryDbStores, 0u);
    EXPECT_EQ(R.Stats.ModulesFromSummaryDb, 0u);
    Cold = R.renderJson();
  }
  {
    // A fresh engine against the same disk root reuses the cold run's link
    // and renders its bytes exactly.
    AnalysisEngine E(Opts);
    CorpusReport R = E.analyzeCorpus({Dir.string()});
    EXPECT_TRUE(R.Stats.LinkReused) << R.Stats.renderLine();
    EXPECT_EQ(Cold, R.renderJson());
  }
  {
    // Over the files in another order the run links: the one exporter's
    // link key hits, so no module is summarized and the bytes match a
    // cache-less run exactly. The caller exports nothing and needs no
    // summary.
    AnalysisEngine E(Opts);
    CorpusReport R = E.analyzeCorpus(inOrder(Dir, {"b_use.mir", "a_def.mir"}));
    EXPECT_FALSE(R.Stats.LinkReused);
    EXPECT_EQ(R.Stats.LinkRounds, 0u) << R.Stats.renderLine();
    EXPECT_EQ(R.Stats.ModulesFromSummaryDb, 1u) << R.Stats.renderLine();
    EXPECT_EQ(R.Stats.ModulesNeedNoSummary, 1u);
    EXPECT_GT(R.Stats.SummaryDbHits, 0u);
    Warm = R.renderJson();
  }
  AnalysisEngine Fresh(baseOptions());
  EXPECT_EQ(Fresh.analyzeCorpus(inOrder(Dir, {"b_use.mir", "a_def.mir"}))
                .renderJson(),
            Warm);
}

TEST(WholeProgram, SummaryDbSchemaBumpIsColdNotCorrupt) {
  fs::path Dir = writePair("wp_schema", UafUseSrc, UafDefSrc);
  // A third file gives the runs below three input orders: each links
  // instead of reusing an earlier order's link state.
  std::ofstream(Dir / "c_leaf.mir") << "fn leaf() {\n    bb0: { return; }\n}\n";
  fs::path CacheDir = fs::path(testing::TempDir()) / "wp_schema_cache";
  fs::remove_all(CacheDir);

  const EngineOptions Opts = cachedOptions(CacheDir);
  std::string Cold;
  {
    AnalysisEngine E(Opts);
    Cold = E.analyzeCorpus({Dir.string()}).renderJson();
  }

  // The CI drill: a summary payload from another schema version must read
  // as a cold DB — same bytes, zero corruption — and be stored again. Skew
  // the payload's leading {"v":N of every summary entry (the ones carrying
  // per-parameter "drops") to a same-length version and re-seal the
  // segment (envelope checksum, index and footer), so only the payload
  // gate rejects.
  const std::string Current =
      "{\"v\":" + std::to_string(analysis::SummaryPayloadVersion);
  const std::string Skew = "{\"v\":9";
  ASSERT_EQ(Current.size(), Skew.size());
  ASSERT_NE(Current, Skew);
  size_t Unexpected = 0;
  const size_t Skewed = cachetest::editEntries(
      CacheDir, [&](uint64_t, std::string &Payload) {
        if (Payload.find("\"drops\":") == std::string::npos)
          return true;
        if (Payload.compare(0, Current.size(), Current) != 0)
          ++Unexpected;
        Payload.replace(0, Current.size(), Skew);
        return true;
      });
  ASSERT_EQ(Unexpected, 0u);
  ASSERT_EQ(Skewed, 1u);

  AnalysisEngine Fresh(baseOptions());
  const auto BumpedOrder =
      inOrder(Dir, {"c_leaf.mir", "a_def.mir", "b_use.mir"});
  const auto AgainOrder =
      inOrder(Dir, {"b_use.mir", "c_leaf.mir", "a_def.mir"});
  {
    AnalysisEngine Bumped(Opts);
    CorpusReport R = Bumped.analyzeCorpus(BumpedOrder);
    EXPECT_EQ(Fresh.analyzeCorpus(BumpedOrder).renderJson(), R.renderJson());
    EXPECT_FALSE(R.Stats.LinkReused);
    EXPECT_EQ(R.Stats.ModulesFromSummaryDb, 0u);
    EXPECT_EQ(R.Stats.SummaryDbStores, 1u);
    EXPECT_EQ(R.Stats.CorruptEntries, 0u);
    ASSERT_NE(Bumped.cache(), nullptr);
    EXPECT_EQ(Bumped.cache()->stats().CorruptEntries, 0u);
  }
  {
    // The re-stored entry serves the next run that links warm again.
    AnalysisEngine Again(Opts);
    CorpusReport R = Again.analyzeCorpus(AgainOrder);
    EXPECT_EQ(Fresh.analyzeCorpus(AgainOrder).renderJson(), R.renderJson());
    EXPECT_EQ(R.Stats.ModulesFromSummaryDb, 1u) << R.Stats.renderLine();
  }
  fs::remove_all(CacheDir);
}

TEST(WholeProgram, CorruptSummaryEntryIsAMissCountedInTheRun) {
  fs::path Dir = writePair("wp_corrupt_summary", UafUseSrc, UafDefSrc);
  fs::path CacheDir = fs::path(testing::TempDir()) / "wp_corrupt_summary_cache";
  fs::remove_all(CacheDir);
  std::string Cold;
  {
    AnalysisEngine E(cachedOptions(CacheDir));
    CorpusReport R = E.analyzeCorpus({Dir.string()});
    EXPECT_EQ(R.Stats.SummaryDbStores, 1u) << R.Stats.renderLine();
    Cold = R.renderJson();
  }

  // The one summary entry (the exporter's) is the only payload carrying
  // per-parameter "drops"; flip its last byte so the checksum fails.
  auto Summaries = [&] {
    std::vector<cachetest::Entry> Out;
    for (cachetest::Entry &E : cachetest::entries(CacheDir))
      if (E.Payload.find("\"drops\":") != std::string::npos)
        Out.push_back(std::move(E));
    return Out;
  };
  const std::vector<cachetest::Entry> Sealed = Summaries();
  ASSERT_EQ(Sealed.size(), 1u);
  cachetest::corruptPayload(Sealed[0]);

  {
    // Over another input order, so that the run links and reads the entry.
    const auto Reversed = inOrder(Dir, {"b_use.mir", "a_def.mir"});
    AnalysisEngine Warm(cachedOptions(CacheDir));
    CorpusReport R = Warm.analyzeCorpus(Reversed);
    AnalysisEngine Fresh(baseOptions());
    EXPECT_EQ(R.renderJson(), Fresh.analyzeCorpus(Reversed).renderJson());
    EXPECT_EQ(R.Stats.CorruptEntries, 1u) << R.Stats.renderLine();
    EXPECT_EQ(R.Stats.ModulesFromSummaryDb, 0u);
    EXPECT_EQ(R.Stats.SummaryDbMisses, 1u);
    EXPECT_EQ(R.Stats.SummaryDbStores, 1u);
  }
  // Stored again and sealed in the newer segment, which wins.
  std::optional<cachetest::Entry> Again =
      cachetest::findEntry(CacheDir, Sealed[0].Key);
  ASSERT_TRUE(Again.has_value());
  EXPECT_NE(Again->Segment, Sealed[0].Segment);
  EXPECT_EQ(Again->Payload, Sealed[0].Payload);
  fs::remove_all(CacheDir);
}

TEST(WholeProgram, LinkedRunOverUnwritableCacheWarnsOnce) {
  fs::path Dir = writePair("wp_warn_once", UafUseSrc, UafDefSrc);
  fs::path CacheDir = fs::path(testing::TempDir()) / "wp_warn_once_cache";
  fs::remove_all(CacheDir);
  AnalysisEngine Fresh(baseOptions());
  const std::string Want = Fresh.analyzeCorpus({Dir.string()}).renderJson();

  // Every disk write fails: reports, facts, summaries and the link state
  // alike go through the one store, so the run warns once.
  fault::ScopedFault Unwritable("cache.disk.store", 1, 1000000);
  AnalysisEngine E(cachedOptions(CacheDir));
  testing::internal::CaptureStderr();
  CorpusReport R = E.analyzeCorpus({Dir.string()});
  const std::string Err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(R.renderJson(), Want);
  EXPECT_EQ(R.Stats.SummaryDbStores, 1u) << R.Stats.renderLine();
  size_t Warnings = 0;
  for (size_t Pos = Err.find("disk cache layer disabled");
       Pos != std::string::npos;
       Pos = Err.find("disk cache layer disabled", Pos + 1))
    ++Warnings;
  EXPECT_EQ(Warnings, 1u) << Err;
  EXPECT_FALSE(fs::exists(CacheDir));
}

TEST(WholeProgram, WarmUnchangedRunNeverParsesOrDecodes) {
  fs::path Dir = writeCorpus("wp_nodecode");
  fs::path CacheDir = fs::path(testing::TempDir()) / "wp_nodecode_cache";
  fs::remove_all(CacheDir);
  std::string Cold;
  {
    AnalysisEngine E(cachedOptions(CacheDir));
    CorpusReport R = E.analyzeCorpus({Dir.string()});
    EXPECT_EQ(R.totalFindings(), 2u) << R.renderText();
    Cold = R.renderJson();
  }

  // The armed probe turns every parse into a Skipped file. The facts
  // cache, the summary DB and the report cache must carry the run.
  const auto Reordered =
      inOrder(Dir, {"c_dl_def.mir", "d_dl_use.mir", "a_def.mir", "b_use.mir"});
  AnalysisEngine Fresh(baseOptions());
  const std::string Want = Fresh.analyzeCorpus(Reordered).renderJson();
  fault::ScopedFault NoParse("engine.parse", 1, 1000000);
  {
    // The unchanged corpus reuses the cold run's link: each file's report
    // under its recorded digest.
    AnalysisEngine Warm(cachedOptions(CacheDir));
    CorpusReport R = Warm.analyzeCorpus({Dir.string()});
    EXPECT_EQ(R.renderJson(), Cold);
    EXPECT_TRUE(R.Stats.LinkReused) << R.Stats.renderLine();
    EXPECT_EQ(R.Stats.CacheHits, 4u);
  }
  {
    // Another input order links. The two def files export and hit; the two
    // callers need no summary. Each def file's per-file report hits, and
    // each caller's linked one (a caller is analyzed under its digest only).
    AnalysisEngine Warm(cachedOptions(CacheDir));
    CorpusReport R = Warm.analyzeCorpus(Reordered);
    EXPECT_EQ(R.renderJson(), Want);
    EXPECT_EQ(R.countWithStatus(EngineStatus::Ok), 4u) << R.renderText();
    EXPECT_FALSE(R.Stats.LinkReused);
    EXPECT_EQ(R.Stats.LinkRounds, 0u) << R.Stats.renderLine();
    EXPECT_EQ(R.Stats.ModulesFromSummaryDb, 2u) << R.Stats.renderLine();
    EXPECT_EQ(R.Stats.ModulesNeedNoSummary, 2u);
    EXPECT_EQ(R.Stats.SummaryDbHits, 2u);
    EXPECT_EQ(R.Stats.CacheHits, 4u);
  }
  fs::remove_all(CacheDir);
}

TEST(WholeProgram, WarmCacheServesACopiedCorpusAtItsNewPaths) {
  fs::path Dir = writeCorpus("wp_copy_src");
  fs::path Copy = fs::path(testing::TempDir()) / "wp_copy_dst";
  fs::path CacheDir = fs::path(testing::TempDir()) / "wp_copy_cache";
  fs::remove_all(Copy);
  fs::remove_all(CacheDir);
  {
    AnalysisEngine E(cachedOptions(CacheDir));
    E.analyzeCorpus({Dir.string()});
  }
  fs::copy(Dir, Copy);

  CorpusReport Got;
  {
    AnalysisEngine Warm(cachedOptions(CacheDir));
    Got = Warm.analyzeCorpus({Copy.string()});
  }
  AnalysisEngine Fresh(baseOptions());
  CorpusReport Want = Fresh.analyzeCorpus({Copy.string()});
  EXPECT_EQ(Got.renderJson(), Want.renderJson());
  EXPECT_EQ(Got.renderSarif(), Want.renderSarif());
  // Facts and summaries came from the cache, yet re-anchored: the
  // counterpart spans point into the copy, not the original.
  EXPECT_EQ(Got.Stats.LinkRounds, 0u) << Got.Stats.renderLine();
  EXPECT_EQ(Got.Stats.ModulesFromSummaryDb, 2u);
  EXPECT_EQ(Got.Stats.ModulesNeedNoSummary, 2u);
  const FileReport *Use = findFile(Got, "b_use.mir");
  ASSERT_NE(Use, nullptr);
  const diag::Diagnostic *D = findKind(*Use, "use-after-free");
  ASSERT_NE(D, nullptr) << Got.renderText();
  const diag::Span *S = spanInto(*D, "a_def.mir");
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->Loc.file(), (Copy / "a_def.mir").string());
  fs::remove_all(Copy);
  fs::remove_all(CacheDir);
}

TEST(WholeProgram, FileOutsideTheLinkIsReadAndParsedOnce) {
  // A recovered parse and a verifier rejection both keep a file out of
  // the link; its per-file analysis must reuse the facts phase's load.
  fs::path Dir = writePair("wp_load_once", UafUseSrc, UafDefSrc);
  std::ofstream(Dir / "c_recovered.mir")
      << "fn broken( {\n    bb0: { return; }\n}\n"
      << "fn fine() {\n    bb0: { return; }\n}\n";
  std::ofstream(Dir / "d_rejected.mir")
      << "fn bad() {\n    bb0: { goto -> bb9; }\n}\n";

  // Armed far past any real hit count: the probes only count.
  fault::ScopedFault CountParses("engine.parse", 1000000);
  fault::ScopedFault CountVerifies("engine.verify", 1000000);
  AnalysisEngine E(baseOptions());
  CorpusReport R = E.analyzeCorpus({Dir.string()});
  EXPECT_EQ(R.Stats.LinkedFiles, 2u);
  EXPECT_EQ(R.countWithStatus(EngineStatus::Degraded), 1u) << R.renderText();
  EXPECT_EQ(R.countWithStatus(EngineStatus::Skipped), 1u) << R.renderText();
  // Each file once, plus one more load for each linked file: the
  // exporter's summary round and the caller's linked re-analysis. The two
  // files outside the link load once.
  EXPECT_EQ(fault::hitCount("engine.parse"), 6u);
  EXPECT_EQ(fault::hitCount("engine.verify"), 6u);
}

TEST(WholeProgram, MemoryOnlyCacheKeepsReportsAndSummariesOnly) {
  // Link facts and link states are kept only in a cache that outlives the
  // process, and no cache keeps a module. A memory-only cache holds the
  // def file's report, the caller's linked report and the def file's
  // summary, so re-analyzing unchanged content (a serve revalidation) is a
  // report hit.
  fs::path Dir = writePair("wp_memory_only", UafUseSrc, UafDefSrc);
  EngineOptions Opts = baseOptions();
  Opts.UseCache = true;
  AnalysisEngine E(Opts);
  CorpusReport R = E.analyzeCorpus({Dir.string()});
  EXPECT_EQ(R.totalFindings(), 1u) << R.renderText();
  ASSERT_NE(E.cache(), nullptr);
  EXPECT_EQ(E.cache()->memoryEntryCount(), 3u);
  const uint64_t Hits = E.cache()->stats().Hits;
  FileReport Again = E.analyzeFile((Dir / "a_def.mir").string());
  EXPECT_EQ(E.cache()->stats().Hits, Hits + 1);
  EXPECT_EQ(serializeFileReport(Again), serializeFileReport(R.Files[0]));
}

TEST(WholeProgram, SummaryDbHonorsTheCacheCap) {
  fs::path Dir = writeCorpus("wp_db_cap");
  EngineOptions Opts = baseOptions();
  Opts.UseCache = true;
  Opts.CacheMaxEntries = 1;
  AnalysisEngine E(Opts);
  CorpusReport R = E.analyzeCorpus({Dir.string()});
  // Only the two exporters store an entry. Summaries share the engine's
  // one LRU with every other entry, and the cap bounds it.
  EXPECT_EQ(R.Stats.SummaryDbStores, 2u) << R.Stats.renderLine();
  ASSERT_NE(E.cache(), nullptr);
  EXPECT_LE(E.cache()->memoryEntryCount(), 1u);
}
