//===----------------------------------------------------------------------===//
//
// Tests for cache entries left behind by earlier builds: a previous-schema
// report entry, a report entry in the retired JSON envelope and the MIR
// snapshot entries earlier builds stored must all read as cold — never as
// corruption — and the snapshot entries are never read, so a seal never
// carries them forward.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"

#include "../sched/CacheSegments.h"

#include "diag/Version.h"
#include "mir/Parser.h"
#include "mir/Snapshot.h"
#include "support/Hash.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <vector>

namespace fs = std::filesystem;
using namespace rs;
using namespace rs::engine;

namespace {

/// A file of the labeled eval corpus.
fs::path evalFile(const char *Name) {
  return fs::path(RS_REPO_ROOT) / "examples" / "mir" / "eval" / Name;
}

/// One clean file with a use-after-free finding.
const std::string BuggySrc =
    cachetest::slurp(evalFile("uaf_post_drop_bug_0.mir"));

fs::path freshDir(const char *Name) {
  fs::path Dir = fs::path(testing::TempDir()) / Name;
  fs::remove_all(Dir);
  return Dir;
}

/// A report payload's header: "RSRP", then \p Version as a little-endian
/// u32.
std::string reportHeader(uint64_t Version) {
  return std::string("RSRP") + char(Version) + '\0' + '\0' + '\0';
}

/// True when \p Payload is a report entry's.
bool isReport(std::string_view Payload) {
  const std::string Header = reportHeader(version::ReportSchemaVersion);
  return Payload.substr(0, Header.size()) == Header;
}

/// The keys of the report entries sealed in \p CacheDir.
std::vector<uint64_t> reportKeys(const fs::path &CacheDir) {
  std::vector<uint64_t> Keys;
  for (const cachetest::Entry &E : cachetest::entries(CacheDir))
    if (isReport(E.Payload))
      Keys.push_back(E.Key);
  return Keys;
}

} // namespace

TEST(CacheCompat, PreviousSchemaReportEntryIsColdNotCorrupt) {
  // After a ReportSchemaVersion bump, an on-disk report entry whose
  // payload header says <old> must behave like a cold cache: deserialization
  // declines, the file is re-analyzed, and the corruption counter stays at
  // zero (the envelope itself is fine).
  fs::path CacheDir = freshDir("compat_v2_cache");
  EngineOptions O;
  O.CacheDir = CacheDir.string();
  std::string Cold;
  {
    AnalysisEngine E(O);
    Cold = serializeFileReport(E.analyzeFile("buggy.mir", BuggySrc));
  }

  // Downgrade the stored payload's schema tag in place, simulating an
  // entry written by the previous release at the same key, and re-seal
  // the segment. The entry is found by its payload.
  const std::string Old = reportHeader(version::ReportSchemaVersion - 1);
  const size_t Edited = cachetest::editEntries(
      CacheDir, [&](uint64_t, std::string &Payload) {
        if (isReport(Payload))
          Payload.replace(0, Old.size(), Old);
        return true;
      });
  ASSERT_EQ(Edited, 1u);

  {
    AnalysisEngine E(O); // Same options: same report key as the stale one.
    FileReport R = E.analyzeFile("buggy.mir", BuggySrc);
    EXPECT_EQ(R.Status, EngineStatus::Ok);
    EXPECT_EQ(serializeFileReport(R), Cold);
    ASSERT_NE(E.cache(), nullptr);
    // The envelope itself read fine (a Hit at the cache layer), but the
    // stale payload was declined above it and the file re-analyzed — with
    // zero corruption recorded. Cold, not corrupt.
    EXPECT_EQ(E.cache()->stats().CorruptEntries, 0u);
    EXPECT_EQ(E.cache()->stats().DiskHits, 1u);
  }
  fs::remove_all(CacheDir);
}

TEST(CacheCompat, RetiredJsonReportEntryIsColdNotCorrupt) {
  // A report entry left behind in the retired JSON envelope
  // ("rscache-<key>.json") is never addressed again: the rerun is a cold
  // miss with the same bytes, no corruption, and the report is stored
  // again in a segment under the same key. The seal collects the JSON
  // file with the other per-entry files of earlier releases.
  fs::path CacheDir = freshDir("compat_json_envelope_cache");
  EngineOptions O;
  O.CacheDir = CacheDir.string();
  std::string Cold;
  {
    AnalysisEngine E(O);
    Cold = serializeFileReport(E.analyzeFile("buggy.mir", BuggySrc));
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
    EXPECT_EQ(serializeFileReport(R), Cold);
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

TEST(CacheCompat, SnapshotEntriesAreNeitherReadNorCarriedForward) {
  // Earlier builds stored a parsed-MIR snapshot of every clean module. A
  // cache holding them next to a normal fill serves a warm run with the
  // cold bytes and no corruption, and a seal never copies them forward:
  // nothing reads them, so they age out of the generation window.
  const fs::path Dir = freshDir("compat_snapshot_corpus");
  const fs::path CacheDir = freshDir("compat_snapshot_cache");
  fs::create_directories(Dir);
  // A cross-file use-after-free pair and a leaf.
  const char *Files[] = {"xfile_uaf_bug_0_def.mir", "xfile_uaf_bug_0_use.mir",
                         "uaf_post_drop_bug_0.mir"};
  for (const char *Name : Files)
    fs::copy_file(evalFile(Name), Dir / Name);

  EngineOptions O;
  O.Jobs = 1;
  O.WholeProgram = WholeProgramMode::On;
  O.CacheDir = CacheDir.string();
  std::string Cold;
  {
    AnalysisEngine E(O);
    CorpusReport R = E.analyzeCorpus({Dir.string()});
    ASSERT_EQ(R.Stats.LinkedFiles, 3u) << R.Stats.renderLine();
    Cold = R.renderJson();
  }
  const std::vector<fs::path> Fill = cachetest::segments(CacheDir);
  ASSERT_EQ(Fill.size(), 1u);
  for (const cachetest::Entry &E : cachetest::entries(CacheDir))
    EXPECT_NE(E.Payload.substr(0, 4), "RSMS") << "the fill stored a snapshot";

  // Plant each module's snapshot in a second segment of the fill's
  // generation, then age that generation into the seal's copy-forward
  // zone with empty segments of the generations after it.
  std::vector<cachetest::RawEntry> Planted;
  std::vector<uint64_t> SnapshotKeys;
  for (const char *Name : Files) {
    const std::string Src = cachetest::slurp(Dir / Name);
    const uint64_t Fp = fingerprintSource(Src);
    mir::ModuleParse P = mir::Parser::parseRecover(Src, Name);
    ASSERT_TRUE(P.ok()) << Name;
    SnapshotKeys.push_back(snapshotCacheKey(Fp));
    Planted.push_back({SnapshotKeys.back(),
                       cachetest::envelope(SnapshotKeys.back(),
                                           mir::snapshot::write(P.M, Fp))});
  }
  // "rsseg-<generation, 16 hex digits>-<writer>.seg"
  const std::string FillName = Fill[0].filename().string();
  const uint64_t FillGen = std::stoull(FillName.substr(6, 16), nullptr, 16);
  cachetest::spill(CacheDir / cachetest::segmentName(FillGen, "0-0"),
                   cachetest::segmentBytes(Planted));
  const size_t Later = sched::ResultCache::GenerationWindow -
                       sched::ResultCache::CopyForwardZone;
  for (uint64_t G = FillGen + 1; G != FillGen + 1 + Later; ++G)
    cachetest::spill(CacheDir / cachetest::segmentName(G),
                     cachetest::segmentBytes({}));

  {
    // The unchanged corpus: every report hits, nothing is stored.
    AnalysisEngine Warm(O);
    CorpusReport R = Warm.analyzeCorpus({Dir.string()});
    EXPECT_EQ(R.renderJson(), Cold);
    EXPECT_TRUE(R.Stats.LinkReused) << R.Stats.renderLine();
    ASSERT_NE(Warm.cache(), nullptr);
    EXPECT_EQ(Warm.cache()->stats().CorruptEntries, 0u);
  }

  // A leaf edit reuses the link and stores, so its seal copies forward
  // every entry it read or retained from the aged generation: the
  // unchanged files' reports, facts and summaries, and no snapshot.
  std::ofstream(Dir / Files[2], std::ios::app) << "\n";
  EngineOptions Fresh = O;
  Fresh.UseCache = false;
  Fresh.CacheDir.clear();
  const std::string Want =
      AnalysisEngine(Fresh).analyzeCorpus({Dir.string()}).renderJson();
  {
    AnalysisEngine Warm(O);
    CorpusReport R = Warm.analyzeCorpus({Dir.string()});
    EXPECT_EQ(R.renderJson(), Want);
    EXPECT_TRUE(R.Stats.LinkReused) << R.Stats.renderLine();
    EXPECT_EQ(Warm.cache()->stats().CorruptEntries, 0u);
  }
  const fs::path Newest = cachetest::segments(CacheDir).front();
  ASSERT_NE(Newest.filename(), Fill[0].filename());
  const std::optional<std::vector<cachetest::Entry>> Sealed =
      cachetest::parseSegment(cachetest::slurp(Newest), Newest);
  ASSERT_TRUE(Sealed.has_value());
  std::vector<uint64_t> Keys;
  for (const cachetest::Entry &E : *Sealed)
    Keys.push_back(E.Key);
  EXPECT_NE(std::find(Keys.begin(), Keys.end(),
                      factsCacheKey(fingerprintSource(
                          cachetest::slurp(Dir / Files[0])))),
            Keys.end())
      << "the seal copied nothing forward";
  for (uint64_t Key : SnapshotKeys)
    EXPECT_EQ(std::find(Keys.begin(), Keys.end(), Key), Keys.end());
  fs::remove_all(Dir);
  fs::remove_all(CacheDir);
}
