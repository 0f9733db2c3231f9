//===----------------------------------------------------------------------===//
//
// Tests for the parsed-MIR snapshot layer wired through the engine cache:
// a report miss with a valid snapshot on disk must run detectors without
// ever touching the Lexer/Parser (proved by arming the parse fault probe),
// a defective snapshot must fall back to the parser, a previous-schema
// report entry, or one in the retired JSON envelope, must read as a cold
// miss — never as corruption — and a memory-only cache must keep no facts
// and only the snapshots of modules that call out of their file.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"

#include "../sched/CacheSegments.h"

#include "diag/Version.h"
#include "mir/Snapshot.h"
#include "support/FaultInjection.h"
#include "support/Hash.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

namespace fs = std::filesystem;
using namespace rs;
using namespace rs::engine;

namespace {

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

// A cross-file use-after-free: the caller's allocation dies inside the
// callee, which lives in the other file.
const char *LinkDefSrc = "fn mo_free(_1: *mut u8) {\n"
                         "    bb0: {\n"
                         "        dealloc(copy _1) -> bb1;\n"
                         "    }\n"
                         "    bb1: {\n"
                         "        return;\n"
                         "    }\n"
                         "}\n";

const char *LinkUseSrc = "fn mo_caller() -> u8 {\n"
                         "    let _1: *mut u8;\n"
                         "    let _2: ();\n"
                         "    bb0: {\n"
                         "        _1 = alloc(const 8) -> bb1;\n"
                         "    }\n"
                         "    bb1: {\n"
                         "        (*_1) = const 5;\n"
                         "        _2 = mo_free(copy _1) -> bb2;\n"
                         "    }\n"
                         "    bb2: {\n"
                         "        _0 = copy (*_1);\n"
                         "        return;\n"
                         "    }\n"
                         "}\n";

fs::path freshCacheDir(const char *Name) {
  fs::path Dir = fs::path(testing::TempDir()) / Name;
  fs::remove_all(Dir);
  return Dir;
}

/// The key of the snapshot blob the engine would store for \p Source.
uint64_t snapshotKeyFor(std::string_view Source) {
  return snapshotCacheKey(fingerprintSource(Source));
}

/// True when \p Payload is a report entry's (a report serializes as
/// {"v":<ReportSchemaVersion>,"detectors":...}).
bool isReport(std::string_view Payload) {
  const std::string Prefix = "{\"v\":" +
                             std::to_string(version::ReportSchemaVersion) +
                             ",\"detectors\":";
  return Payload.substr(0, Prefix.size()) == Prefix;
}

/// The keys of the report entries sealed in \p CacheDir.
std::vector<uint64_t> reportKeys(const fs::path &CacheDir) {
  std::vector<uint64_t> Keys;
  for (const cachetest::Entry &E : cachetest::entries(CacheDir))
    if (isReport(E.Payload))
      Keys.push_back(E.Key);
  return Keys;
}

std::string renderReport(const FileReport &R) {
  // Findings plus status: enough shape to detect any divergence between
  // a parsed and a snapshot-served analysis.
  std::ostringstream Out;
  Out << engineStatusName(R.Status) << "|" << R.Reason << "|";
  for (const auto &D : R.Findings)
    Out << D.Loc.line() << ":" << D.Loc.column() << " " << D.Message
        << ";";
  Out << "suppressed=" << R.SuppressedFindings;
  return Out.str();
}

} // namespace

TEST(SnapshotCache, CleanAnalysisStoresASnapshotBlob) {
  fs::path CacheDir = freshCacheDir("snap_store_cache");
  EngineOptions O;
  O.CacheDir = CacheDir.string();
  {
    AnalysisEngine E(O);
    FileReport R = E.analyzeFile("buggy.mir", BuggySrc);
    EXPECT_EQ(R.Status, EngineStatus::Ok);
    EXPECT_EQ(R.Findings.size(), 1u);
  }
  std::optional<cachetest::Entry> Snap =
      cachetest::findEntry(CacheDir, snapshotKeyFor(BuggySrc));
  ASSERT_TRUE(Snap.has_value());
  EXPECT_EQ(Snap->Payload.substr(0, 4), "RSMS");
  fs::remove_all(CacheDir);
}

TEST(SnapshotCache, SnapshotServesWithoutTouchingTheParser) {
  fs::path CacheDir = freshCacheDir("snap_serve_cache");
  EngineOptions O;
  O.CacheDir = CacheDir.string();
  std::string Cold;
  {
    AnalysisEngine E(O);
    Cold = renderReport(E.analyzeFile("buggy.mir", BuggySrc));
  }

  // Different analysis options: the report key changes (cold), but the
  // snapshot key is content-only, so the module must load from the blob.
  // With the parse probe armed to fail every hit, any attempt to lex or
  // parse would be contained as Skipped — an Ok report proves the parser
  // was never entered.
  EngineOptions Changed = O;
  Changed.MaxSummaryRounds = Changed.MaxSummaryRounds + 1;
  AnalysisEngine E(Changed);
  fault::ScopedFault NoParse("engine.parse", 1, 1000000);
  FileReport R = E.analyzeFile("buggy.mir", BuggySrc);
  EXPECT_EQ(R.Status, EngineStatus::Ok);
  EXPECT_EQ(renderReport(R), Cold);
  ASSERT_NE(E.cache(), nullptr);
  EXPECT_EQ(E.cache()->stats().BlobDiskHits, 1u);
  fs::remove_all(CacheDir);
}

TEST(SnapshotCache, CorruptSnapshotFallsBackToTheParser) {
  fs::path CacheDir = freshCacheDir("snap_corrupt_cache");
  EngineOptions O;
  O.CacheDir = CacheDir.string();
  std::string Cold;
  {
    AnalysisEngine E(O);
    Cold = renderReport(E.analyzeFile("buggy.mir", BuggySrc));
  }

  // Flip one payload byte inside the blob envelope: the cache-layer
  // checksum rejects it, the engine re-parses, and the result is
  // byte-identical to the cold run.
  std::optional<cachetest::Entry> Blob =
      cachetest::findEntry(CacheDir, snapshotKeyFor(BuggySrc));
  ASSERT_TRUE(Blob.has_value());
  ASSERT_GT(Blob->Payload.size(), 8u);
  cachetest::corruptPayload(*Blob);

  EngineOptions Changed = O;
  Changed.MaxSummaryRounds = Changed.MaxSummaryRounds + 1;
  AnalysisEngine E(Changed);
  FileReport R = E.analyzeFile("buggy.mir", BuggySrc);
  EXPECT_EQ(R.Status, EngineStatus::Ok);
  EXPECT_EQ(renderReport(R), Cold);
  ASSERT_NE(E.cache(), nullptr);
  EXPECT_EQ(E.cache()->stats().BlobDiskHits, 0u);
  EXPECT_GE(E.cache()->stats().CorruptEntries, 1u);
  fs::remove_all(CacheDir);
}

TEST(SnapshotCache, SnapshotSchemaSkewIsAMissNotACrash) {
  fs::path CacheDir = freshCacheDir("snap_skew_cache");
  EngineOptions O;
  O.CacheDir = CacheDir.string();
  std::string Cold;
  {
    AnalysisEngine E(O);
    Cold = renderReport(E.analyzeFile("buggy.mir", BuggySrc));
  }

  // Rewrite the blob with a snapshot from "the future": valid envelope
  // (the cache layer accepts it) but a bumped snapshot schema version, so
  // the snapshot reader itself must reject it and fall back to parsing.
  std::optional<cachetest::Entry> Blob =
      cachetest::findEntry(CacheDir, snapshotKeyFor(BuggySrc));
  ASSERT_TRUE(Blob.has_value());
  {
    // Bump the inner schema byte (payload byte 4, after "RSMS") and store
    // the result: the newer segment wins.
    std::string Payload = Blob->Payload;
    Payload[4] = static_cast<char>(mir::snapshot::SnapshotSchemaVersion + 1);
    sched::ResultCache::Options CO;
    CO.DiskDir = CacheDir.string();
    sched::ResultCache C(CO);
    C.storeBlob(snapshotKeyFor(BuggySrc), Payload);
  }

  EngineOptions Changed = O;
  Changed.MaxSummaryRounds = Changed.MaxSummaryRounds + 1;
  AnalysisEngine E(Changed);
  FileReport R = E.analyzeFile("buggy.mir", BuggySrc);
  EXPECT_EQ(R.Status, EngineStatus::Ok);
  EXPECT_EQ(renderReport(R), Cold);
  fs::remove_all(CacheDir);
}

TEST(SnapshotCache, PreviousSchemaReportEntryIsColdNotCorrupt) {
  // The satellite-6 contract: after the ReportSchemaVersion bump, an
  // on-disk report entry whose payload says "v":<old> must behave like a
  // cold cache — deserialization declines, the file is re-analyzed, and
  // the corruption counter stays at zero (the envelope itself is fine).
  fs::path CacheDir = freshCacheDir("snap_v2_cache");
  EngineOptions O;
  O.CacheDir = CacheDir.string();
  std::string Cold;
  {
    AnalysisEngine E(O);
    Cold = renderReport(E.analyzeFile("buggy.mir", BuggySrc));
  }

  // Downgrade the stored payload's schema tag in place, simulating an
  // entry written by the previous release at the same key, and re-seal
  // the segment. The entry is found by its payload. Drop the snapshot
  // blob too so the rerun exercises the full cold path.
  std::string Cur = "{\"v\":" + std::to_string(version::ReportSchemaVersion);
  std::string Old =
      "{\"v\":" + std::to_string(version::ReportSchemaVersion - 1);
  const size_t Edited = cachetest::editEntries(
      CacheDir, [&](uint64_t Key, std::string &Payload) {
        if (isReport(Payload))
          Payload.replace(0, Cur.size(), Old);
        return Key != snapshotKeyFor(BuggySrc);
      });
  ASSERT_EQ(Edited, 2u);

  AnalysisEngine E(O); // Same options: same report key as the stale entry.
  FileReport R = E.analyzeFile("buggy.mir", BuggySrc);
  EXPECT_EQ(R.Status, EngineStatus::Ok);
  EXPECT_EQ(renderReport(R), Cold);
  ASSERT_NE(E.cache(), nullptr);
  // The envelope itself read fine (a Hit at the cache layer), but the
  // stale payload was declined above it and the file re-analyzed — with
  // zero corruption recorded. Cold, not corrupt.
  EXPECT_EQ(E.cache()->stats().CorruptEntries, 0u);
  EXPECT_EQ(E.cache()->stats().DiskHits, 1u);
  fs::remove_all(CacheDir);
}

TEST(SnapshotCache, RetiredJsonReportEntryIsColdNotCorrupt) {
  // A report entry left behind in the retired JSON envelope
  // ("rscache-<key>.json") is never addressed again: the rerun is a cold
  // miss with the same bytes, no corruption, and the report is stored
  // again in a segment under the same key. The seal collects the JSON
  // file with the other per-entry files of earlier releases.
  fs::path CacheDir = freshCacheDir("snap_json_envelope_cache");
  EngineOptions O;
  O.CacheDir = CacheDir.string();
  std::string Cold;
  {
    AnalysisEngine E(O);
    Cold = renderReport(E.analyzeFile("buggy.mir", BuggySrc));
  }
  const std::vector<uint64_t> Reports = reportKeys(CacheDir);
  ASSERT_EQ(Reports.size(), 1u);
  const std::string KeyHex = hashToHex(Reports[0]);
  JsonWriter W;
  W.beginObject();
  W.field("version", int64_t(1));
  W.field("key", KeyHex);
  W.field("payload", cachetest::findEntry(CacheDir, Reports[0])->Payload);
  W.endObject();
  fs::path Json = CacheDir / ("rscache-" + KeyHex + ".json");
  cachetest::spill(Json, W.str());
  cachetest::editEntries(CacheDir, [&](uint64_t Key, std::string &) {
    return Key != Reports[0];
  });

  {
    AnalysisEngine E(O);
    FileReport R = E.analyzeFile("buggy.mir", BuggySrc);
    EXPECT_EQ(renderReport(R), Cold);
    ASSERT_NE(E.cache(), nullptr);
    EXPECT_EQ(E.cache()->stats().CorruptEntries, 0u);
    EXPECT_EQ(E.cache()->stats().DiskHits, 0u);
    EXPECT_EQ(E.cache()->stats().Misses, 1u);
    EXPECT_TRUE(fs::exists(Json)); // Never addressed, so never touched.
  }
  EXPECT_EQ(reportKeys(CacheDir), Reports);
  EXPECT_FALSE(fs::exists(Json)); // Collected by the seal.
  fs::remove_all(CacheDir);
}

TEST(SnapshotCache, MemoryOnlyCacheKeepsOnlyCallerSnapshots) {
  // Link facts, and the snapshot of every clean module, are kept only in
  // a cache that outlives the process. A memory-only cache keeps the
  // snapshot of a module that calls out of its file (the link re-analyzes
  // it), and still keeps reports, so re-analyzing unchanged content (a
  // serve revalidation) is a report hit.
  EngineOptions O;
  O.Jobs = 1;
  O.WholeProgram = WholeProgramMode::On;
  AnalysisEngine E(O);
  ASSERT_NE(E.cache(), nullptr);
  CorpusReport R = E.analyzeCorpus(
      {{"a_def.mir", "", LinkDefSrc}, {"b_use.mir", "", LinkUseSrc}},
      nullptr);
  ASSERT_EQ(R.Files.size(), 2u);
  EXPECT_TRUE(R.Stats.LinkEnabled);
  EXPECT_EQ(R.Files[1].Findings.size(), 1u); // The cross-file finding.
  // The one blob hit: the caller's re-analysis decoded its snapshot.
  EXPECT_EQ(E.cache()->stats().BlobHits, 1u);

  for (const char *Src : {LinkDefSrc, LinkUseSrc}) {
    const uint64_t Fp = fingerprintSource(Src);
    EXPECT_EQ(E.cache()->lookupBlobRef(snapshotCacheKey(Fp)).has_value(),
              Src == LinkUseSrc);
    EXPECT_FALSE(E.cache()->lookupBlobRef(factsCacheKey(Fp)).has_value());
  }

  const uint64_t Hits = E.cache()->stats().Hits;
  FileReport Again = E.analyzeFile("a_def.mir", LinkDefSrc);
  EXPECT_EQ(E.cache()->stats().Hits, Hits + 1);
  EXPECT_EQ(renderReport(Again), renderReport(R.Files[0]));
}
