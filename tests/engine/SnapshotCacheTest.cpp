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

/// The path of the snapshot blob the engine would store for \p Source.
fs::path snapshotPathFor(const fs::path &CacheDir, std::string_view Source) {
  return CacheDir / sched::ResultCache::blobFileName(
                        snapshotCacheKey(fingerprintSource(Source)));
}

std::string readFile(const fs::path &P) {
  std::ifstream In(P, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

void writeFile(const fs::path &P, std::string_view Bytes) {
  std::ofstream Out(P, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

/// The cache envelope's header: magic, version, key, size, checksum.
constexpr size_t EnvelopeHeader = 32;

/// The one report entry in \p CacheDir, found by its payload (a report
/// serializes as {"v":<ReportSchemaVersion>,"detectors":...}); empty when
/// there is not exactly one.
fs::path reportEntry(const fs::path &CacheDir) {
  const std::string Prefix = "{\"v\":" +
                             std::to_string(version::ReportSchemaVersion) +
                             ",\"detectors\":";
  std::vector<fs::path> Found;
  for (const auto &F : fs::directory_iterator(CacheDir)) {
    std::string Bytes = readFile(F.path());
    if (Bytes.size() >= EnvelopeHeader &&
        Bytes.compare(EnvelopeHeader, Prefix.size(), Prefix) == 0)
      Found.push_back(F.path());
  }
  return Found.size() == 1 ? Found[0] : fs::path();
}

/// Recomputes the envelope checksum over an edited payload, so only the
/// layers above the cache can reject it.
void reseal(std::string &Envelope) {
  uint64_t H = fnv1a64(std::string_view(Envelope).substr(EnvelopeHeader));
  for (int I = 0; I != 8; ++I)
    Envelope[24 + I] = static_cast<char>((H >> (8 * I)) & 0xff);
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
  AnalysisEngine E(O);
  FileReport R = E.analyzeFile("buggy.mir", BuggySrc);
  EXPECT_EQ(R.Status, EngineStatus::Ok);
  EXPECT_EQ(R.Findings.size(), 1u);
  EXPECT_TRUE(fs::exists(snapshotPathFor(CacheDir, BuggySrc)));
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
  fs::path Blob = snapshotPathFor(CacheDir, BuggySrc);
  ASSERT_TRUE(fs::exists(Blob));
  std::string Bytes = readFile(Blob);
  ASSERT_GT(Bytes.size(), 40u);
  Bytes[Bytes.size() - 1] = static_cast<char>(Bytes[Bytes.size() - 1] ^ 1);
  writeFile(Blob, Bytes);

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
  fs::path Blob = snapshotPathFor(CacheDir, BuggySrc);
  ASSERT_TRUE(fs::exists(Blob));
  {
    std::string Skewed = readFile(Blob);
    // Decode the envelope payload, bump the inner schema byte, restore.
    // Envelope: magic(4) version(4) key(8) size(8) checksum(8) payload.
    // The snapshot schema version is payload byte 4 (after "RSMS").
    std::string Payload = Skewed.substr(32);
    Payload[4] = static_cast<char>(mir::snapshot::SnapshotSchemaVersion + 1);
    sched::ResultCache::Options CO;
    CO.DiskDir = CacheDir.string();
    sched::ResultCache C(CO);
    C.storeBlob(snapshotCacheKey(fingerprintSource(BuggySrc)), Payload);
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
  // the envelope. The entry is found by its payload.
  fs::path Found = reportEntry(CacheDir);
  ASSERT_FALSE(Found.empty());
  std::string Text = readFile(Found);
  std::string Cur = "{\"v\":" + std::to_string(version::ReportSchemaVersion);
  std::string Old =
      "{\"v\":" + std::to_string(version::ReportSchemaVersion - 1);
  ASSERT_EQ(Text.compare(EnvelopeHeader, Cur.size(), Cur), 0) << Text;
  Text.replace(EnvelopeHeader, Cur.size(), Old);
  reseal(Text);
  writeFile(Found, Text);
  // Drop the snapshot blob too so the rerun exercises the full cold path.
  fs::remove(snapshotPathFor(CacheDir, BuggySrc));

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
  // again in the one binary envelope under the same key.
  fs::path CacheDir = freshCacheDir("snap_json_envelope_cache");
  EngineOptions O;
  O.CacheDir = CacheDir.string();
  std::string Cold;
  {
    AnalysisEngine E(O);
    Cold = renderReport(E.analyzeFile("buggy.mir", BuggySrc));
  }
  fs::path Bin = reportEntry(CacheDir);
  ASSERT_FALSE(Bin.empty());
  ASSERT_EQ(Bin.extension(), ".bin");
  const std::string KeyHex = Bin.stem().string().substr(8); // "rscache-".
  JsonWriter W;
  W.beginObject();
  W.field("version", int64_t(1));
  W.field("key", KeyHex);
  W.field("payload", readFile(Bin).substr(EnvelopeHeader));
  W.endObject();
  fs::path Json = CacheDir / ("rscache-" + KeyHex + ".json");
  writeFile(Json, W.str());
  fs::remove(Bin);

  AnalysisEngine E(O);
  FileReport R = E.analyzeFile("buggy.mir", BuggySrc);
  EXPECT_EQ(renderReport(R), Cold);
  ASSERT_NE(E.cache(), nullptr);
  EXPECT_EQ(E.cache()->stats().CorruptEntries, 0u);
  EXPECT_EQ(E.cache()->stats().DiskHits, 0u);
  EXPECT_EQ(E.cache()->stats().Misses, 1u);
  EXPECT_EQ(reportEntry(CacheDir), Bin);
  EXPECT_TRUE(fs::exists(Json)); // Never addressed, so never touched.
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
