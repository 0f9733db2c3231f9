//===----------------------------------------------------------------------===//
//
// Tests for the parallel corpus driver and the content-addressed result
// cache wired through it: the determinism guarantee (byte-identical JSON
// for every job count, cold or warm), cache hit/miss/invalidation rules,
// corruption tolerance, and fault containment under parallelism.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"

#include "support/FaultInjection.h"
#include "testgen/Mutators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <tuple>

namespace fs = std::filesystem;
using namespace rs;
using namespace rs::engine;

namespace {

const char *CleanSrc = "fn clean() -> i32 {\n"
                       "    bb0: {\n"
                       "        _0 = const 1;\n"
                       "        return;\n"
                       "    }\n"
                       "}\n";

const char *BuggySrc = "fn uaf() -> u8 {\n"
                       "    let _1: Box<u8>;\n"
                       "    let _2: *const u8;\n"
                       "    bb0: {\n"
                       "        _1 = Box::new(const 7) -> bb1;\n"
                       "    }\n"
                       "    bb1: {\n"
                       "        _2 = &raw const (*_1);\n"
                       "        drop(_1) -> bb2;\n"
                       "    }\n"
                       "    bb2: {\n"
                       "        _0 = copy (*_2);\n"
                       "        return;\n"
                       "    }\n"
                       "}\n";

mir::Module generatedModule(uint64_t Seed) {
  using testgen::Mutation;
  return testgen::plantedModule(Seed, 6,
                                {{Mutation::UafPostDrop, true, 2},
                                 {Mutation::UafPostDrop, false, 2},
                                 {Mutation::DoubleLockInterproc, true, 1},
                                 {Mutation::DoubleLock, true, 1},
                                 {Mutation::DoubleLockInterproc, false, 1},
                                 {Mutation::DoubleLock, false, 1},
                                 {Mutation::LockOrderInversion, true, 1},
                                 {Mutation::DoubleFree, true, 1},
                                 {Mutation::UninitRead, true, 1},
                                 {Mutation::RefCellConflict, true, 1}});
}

/// Builds a mixed on-disk corpus: several generated modules (with real
/// findings), a handcrafted clean file, a duplicate of it (content-level
/// cache hit), a buggy file, and a malformed one.
fs::path writeCorpus(const char *Name) {
  fs::path Dir = fs::path(testing::TempDir()) / Name;
  fs::remove_all(Dir);
  fs::create_directories(Dir / "nested");
  for (uint64_t Seed : {11, 12, 13}) {
    mir::Module M = generatedModule(Seed);
    std::ofstream(Dir / ("gen_" + std::to_string(Seed) + ".mir"))
        << M.toString();
  }
  std::ofstream(Dir / "clean_a.mir") << CleanSrc;
  std::ofstream(Dir / "clean_b_dup.mir") << CleanSrc;
  std::ofstream(Dir / "nested" / "buggy.mir") << BuggySrc;
  std::ofstream(Dir / "malformed.mir") << "fn oops( {\n";
  return Dir;
}

std::string runJson(EngineOptions Opts, const fs::path &Dir,
                    RunStats *StatsOut = nullptr) {
  AnalysisEngine E(Opts);
  CorpusReport R = E.analyzeCorpus({Dir.string()});
  if (StatsOut)
    *StatsOut = R.Stats;
  return R.renderJson();
}

} // namespace

TEST(ParallelEngine, ByteIdenticalJsonForEveryJobCount) {
  fs::path Dir = writeCorpus("par_equiv");
  EngineOptions Base;
  Base.UseCache = false; // Isolate the scheduler from the cache here.
  Base.Jobs = 1;
  std::string Serial = runJson(Base, Dir);
  EXPECT_NE(Serial.find("use-after-free"), std::string::npos);
  for (unsigned Jobs : {2u, 4u, 8u}) {
    EngineOptions O = Base;
    O.Jobs = Jobs;
    EXPECT_EQ(runJson(O, Dir), Serial) << "jobs=" << Jobs;
  }
  fs::remove_all(Dir);
}

TEST(ParallelEngine, TextReportIsDeterministicToo) {
  fs::path Dir = writeCorpus("par_equiv_text");
  EngineOptions O;
  O.Jobs = 1;
  AnalysisEngine Serial(O);
  std::string Expected = Serial.analyzeCorpus({Dir.string()}).renderText();
  O.Jobs = 8;
  AnalysisEngine Parallel(O);
  EXPECT_EQ(Parallel.analyzeCorpus({Dir.string()}).renderText(), Expected);
  fs::remove_all(Dir);
}

TEST(ParallelEngine, StatsRecordJobsAndWallClock) {
  fs::path Dir = writeCorpus("par_stats");
  EngineOptions O;
  O.Jobs = 2;
  RunStats S;
  runJson(O, Dir, &S);
  EXPECT_EQ(S.Jobs, 2u);
  EXPECT_GT(S.WallMs, 0.0);
  EXPECT_TRUE(S.CacheEnabled);
  std::string Line = S.renderLine();
  EXPECT_NE(Line.find("cache:"), std::string::npos);
  EXPECT_NE(Line.find("2 job(s)"), std::string::npos);
  fs::remove_all(Dir);
}

TEST(ParallelEngine, WarmRerunHitsAndReproducesExactly) {
  fs::path Dir = writeCorpus("par_warm");
  EngineOptions O;
  O.Jobs = 4;
  AnalysisEngine E(O);
  CorpusReport Cold = E.analyzeCorpus({Dir.string()});
  CorpusReport Warm = E.analyzeCorpus({Dir.string()});
  // Every clean file hits on the rerun; malformed ones are never cached.
  EXPECT_GE(Warm.Stats.CacheHits, 6u);
  EXPECT_EQ(Warm.Stats.CacheMisses, 1u); // The malformed file.
  EXPECT_EQ(Warm.renderJson(), Cold.renderJson());
  EXPECT_EQ(Warm.renderText(), Cold.renderText());
  fs::remove_all(Dir);
}

TEST(ParallelEngine, DiskCacheCarriesAcrossEngineInstances) {
  fs::path Dir = writeCorpus("par_disk");
  fs::path CacheDir = fs::path(testing::TempDir()) / "par_disk_cache";
  fs::remove_all(CacheDir);
  EngineOptions O;
  O.Jobs = 4;
  O.CacheDir = CacheDir.string();
  std::string Cold, Warm;
  RunStats ColdStats, WarmStats;
  {
    AnalysisEngine E(O);
    Cold = E.analyzeCorpus({Dir.string()}).renderJson();
    ColdStats = E.analyzeCorpus({Dir.string()}).Stats; // In-memory warm.
    EXPECT_EQ(ColdStats.DiskHits, 0u);
  }
  {
    AnalysisEngine E(O); // Fresh process-equivalent: memory layer empty.
    CorpusReport R = E.analyzeCorpus({Dir.string()});
    Warm = R.renderJson();
    WarmStats = R.Stats;
  }
  EXPECT_EQ(Warm, Cold);
  // Five unique clean contents (the duplicate clean file shares one entry).
  EXPECT_GE(WarmStats.DiskHits, 5u);
  fs::remove_all(Dir);
  fs::remove_all(CacheDir);
}

TEST(ParallelEngine, EditedFileInvalidatesItsEntryOnly) {
  fs::path Dir = writeCorpus("par_edit");
  EngineOptions O;
  O.Jobs = 4;
  AnalysisEngine E(O);
  CorpusReport First = E.analyzeCorpus({Dir.string()});
  EXPECT_EQ(First.exitCode(), 1); // Findings exist.

  // Rewrite the clean file with content no run has seen: its fingerprint
  // changes, so its old entry is simply never asked for again.
  std::ofstream(Dir / "clean_a.mir", std::ios::trunc)
      << "fn clean_edited() -> i32 {\n"
         "    bb0: {\n"
         "        _0 = const 2;\n"
         "        return;\n"
         "    }\n"
         "}\n";
  CorpusReport Second = E.analyzeCorpus({Dir.string()});
  EXPECT_EQ(Second.Stats.CacheMisses, 2u); // Edited + malformed.
  EXPECT_EQ(Second.totalFindings(), First.totalFindings());
  fs::remove_all(Dir);
}

TEST(ParallelEngine, DetectorSetSaltInvalidatesEverything) {
  fs::path Dir = writeCorpus("par_salt");
  fs::path CacheDir = fs::path(testing::TempDir()) / "par_salt_cache";
  fs::remove_all(CacheDir);
  EngineOptions O;
  O.Jobs = 2;
  O.CacheDir = CacheDir.string();
  {
    AnalysisEngine E(O);
    E.analyzeCorpus({Dir.string()});
  }
  // Same corpus, different analysis options: every key changes, so the
  // disk layer never serves a stale result.
  EngineOptions Changed = O;
  Changed.MaxSummaryRounds = 3;
  AnalysisEngine E(Changed);
  CorpusReport R = E.analyzeCorpus({Dir.string()});
  EXPECT_EQ(R.Stats.DiskHits, 0u);
  // At most the in-run duplicate file can hit (racy with the parallel
  // driver: its twin may not have been stored yet).
  EXPECT_LE(R.Stats.CacheHits, 1u);
  EXPECT_GE(R.Stats.CacheMisses, 6u);
  fs::remove_all(Dir);
  fs::remove_all(CacheDir);
}

TEST(ParallelEngine, SaltDerivationIsStableAndSensitive) {
  EngineOptions A;
  std::vector<std::string> Battery = {"use-after-free", "double-lock"};
  uint64_t Salt = cacheSalt(A, Battery);
  EXPECT_EQ(Salt, cacheSalt(A, Battery)); // Deterministic.
  EngineOptions B = A;
  B.MaxDataflowIters = 9;
  EXPECT_NE(cacheSalt(B, Battery), Salt);
  std::vector<std::string> Bigger = Battery;
  Bigger.push_back("lock-order");
  EXPECT_NE(cacheSalt(A, Bigger), Salt);
  // Name-boundary confusion must not collide.
  EXPECT_NE(cacheSalt(A, {"ab", "c"}), cacheSalt(A, {"a", "bc"}));
}

TEST(ParallelEngine, FingerprintNormalizesLineEndingsOnly) {
  EXPECT_EQ(fingerprintSource("fn a()\r\n{}\r\n"),
            fingerprintSource("fn a()\n{}\n"));
  EXPECT_NE(fingerprintSource("fn a() {}"), fingerprintSource("fn a() { }"));
  EXPECT_EQ(fingerprintSource("a\rb"), fingerprintSource("a\rb"));
  EXPECT_NE(fingerprintSource("a\rb"), fingerprintSource("ab")); // Lone \r.
}

TEST(ParallelEngine, CorruptDiskEntryDegradesToMissNotCrash) {
  fs::path Dir = writeCorpus("par_corrupt");
  fs::path CacheDir = fs::path(testing::TempDir()) / "par_corrupt_cache";
  fs::remove_all(CacheDir);
  EngineOptions O;
  O.Jobs = 4;
  O.CacheDir = CacheDir.string();
  std::string Cold;
  {
    AnalysisEngine E(O);
    Cold = E.analyzeCorpus({Dir.string()}).renderJson();
  }
  // Vandalize every entry.
  for (const auto &Entry : fs::directory_iterator(CacheDir))
    std::ofstream(Entry.path(), std::ios::trunc) << "@@corrupt@@";
  AnalysisEngine E(O);
  CorpusReport R = E.analyzeCorpus({Dir.string()});
  EXPECT_EQ(R.renderJson(), Cold);
  EXPECT_EQ(R.Stats.DiskHits, 0u);
  // Five unique clean contents were on disk; every vandalized entry counts.
  EXPECT_GE(R.Stats.CorruptEntries, 5u);
  fs::remove_all(Dir);
  fs::remove_all(CacheDir);
}

TEST(ParallelEngine, CachePayloadRoundTripsThroughSerialization) {
  AnalysisEngine E;
  FileReport R = E.analyzeSource(BuggySrc, "orig.mir");
  ASSERT_EQ(R.Status, EngineStatus::Ok);
  ASSERT_FALSE(R.Findings.empty());
  std::string Payload = serializeFileReport(R);
  std::optional<FileReport> Back = deserializeFileReport(Payload, "other.mir");
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->Path, "other.mir");
  EXPECT_EQ(Back->Status, EngineStatus::Ok);
  ASSERT_EQ(Back->Findings.size(), R.Findings.size());
  for (size_t I = 0; I != R.Findings.size(); ++I) {
    EXPECT_EQ(Back->Findings[I].Kind, R.Findings[I].Kind);
    EXPECT_EQ(Back->Findings[I].Message, R.Findings[I].Message);
    EXPECT_EQ(Back->Findings[I].Loc.line(), R.Findings[I].Loc.line());
    // Locations re-anchor to the new path.
    if (Back->Findings[I].Loc.isValid()) {
      EXPECT_EQ(Back->Findings[I].Loc.file(), "other.mir");
    }
  }
  ASSERT_EQ(Back->Detectors.size(), R.Detectors.size());
  EXPECT_FALSE(deserializeFileReport("@@garbage@@", "x.mir").has_value());
  EXPECT_FALSE(deserializeFileReport("{\"v\":999}", "x.mir").has_value());
}

TEST(ParallelEngine, FindingsAreExplicitlySorted) {
  fs::path Dir = writeCorpus("par_sorted");
  EngineOptions O;
  O.Jobs = 8;
  AnalysisEngine E(O);
  CorpusReport R = E.analyzeCorpus({Dir.string()});
  ASSERT_GT(R.totalFindings(), 0u);
  for (const FileReport &F : R.Files) {
    bool Sorted = std::is_sorted(
        F.Findings.begin(), F.Findings.end(),
        [](const detectors::Diagnostic &A, const detectors::Diagnostic &B) {
          return std::tie(A.Function, A.Block, A.StmtIndex, A.Kind,
                          A.Message) < std::tie(B.Function, B.Block,
                                                B.StmtIndex, B.Kind,
                                                B.Message);
        });
    EXPECT_TRUE(Sorted) << F.Path;
  }
  fs::remove_all(Dir);
}

TEST(ParallelEngine, FilesStayInInputOrderUnderParallelism) {
  fs::path Dir = writeCorpus("par_order");
  EngineOptions O;
  O.Jobs = 8;
  AnalysisEngine E(O);
  CorpusReport R = E.analyzeCorpus({Dir.string()});
  std::vector<std::string> Paths;
  for (const FileReport &F : R.Files)
    Paths.push_back(F.Path);
  // Directory expansion is recursive-sorted, so the merged report must be
  // sorted regardless of which worker finished first.
  EXPECT_TRUE(std::is_sorted(Paths.begin(), Paths.end()));
  EXPECT_EQ(Paths.size(), 7u);
  fs::remove_all(Dir);
}

TEST(ParallelEngine, InjectedFaultsAreContainedUnderParallelism) {
  fs::path Dir = writeCorpus("par_fault");
  EngineOptions O;
  O.Jobs = 4;
  O.UseCache = false; // Faults fire in analyzeSource; keep it on that path.
  fault::ScopedFault F("engine.parse", 1, 1000000);
  AnalysisEngine E(O);
  CorpusReport R = E.analyzeCorpus({Dir.string()});
  ASSERT_EQ(R.Files.size(), 7u);
  for (const FileReport &FR : R.Files) {
    EXPECT_EQ(FR.Status, EngineStatus::Skipped);
    EXPECT_NE(FR.Reason.find("engine.parse"), std::string::npos) << FR.Path;
  }
  EXPECT_EQ(R.exitCode(), 2);
  fs::remove_all(Dir);
}

TEST(ParallelEngine, NoCacheOptionDisablesCaching) {
  fs::path Dir = writeCorpus("par_nocache");
  EngineOptions O;
  O.Jobs = 2;
  O.UseCache = false;
  AnalysisEngine E(O);
  CorpusReport A = E.analyzeCorpus({Dir.string()});
  CorpusReport B = E.analyzeCorpus({Dir.string()});
  EXPECT_FALSE(A.Stats.CacheEnabled);
  EXPECT_EQ(B.Stats.CacheHits, 0u);
  EXPECT_EQ(E.cache(), nullptr);
  EXPECT_EQ(A.renderJson(), B.renderJson());
  fs::remove_all(Dir);
}
