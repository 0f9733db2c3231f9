//===----------------------------------------------------------------------===//
//
// Tests for the content-addressed result cache: memory-layer hit/miss and
// LRU eviction, disk-layer round trips through sealed segments, and — most
// importantly — the corruption contract: a damaged entry or segment is a
// miss, never a crash.
//
//===----------------------------------------------------------------------===//

#include "sched/ResultCache.h"

#include "CacheSegments.h"

#include "support/FaultInjection.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/wait.h>
#include <unistd.h>

namespace fs = std::filesystem;
using namespace rs::sched;
using namespace rs::cachetest;

namespace {

/// A fresh temp dir per test so entries never leak between them.
fs::path freshDir(const char *Name) {
  fs::path Dir = fs::path(testing::TempDir()) / Name;
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  return Dir;
}

ResultCache::Options diskOptions(const fs::path &Dir) {
  ResultCache::Options O;
  O.DiskDir = Dir.string();
  return O;
}

/// An envelope with every field given, for the corruption cases.
std::string envelope(uint32_t Version, uint64_t Key, std::string_view Payload,
                     uint64_t Size, uint64_t Checksum) {
  std::string E = "RSCB";
  putLE(E, Version, 4);
  putLE(E, Key, 8);
  putLE(E, Size, 8);
  putLE(E, Checksum, 8);
  E.append(Payload);
  return E;
}

/// Runs \p Fill against a fresh instance over \p Dir and destroys it, so
/// its segment is sealed.
template <typename Fn> void sealed(const fs::path &Dir, Fn Fill) {
  ResultCache C(diskOptions(Dir));
  Fill(C);
}

} // namespace

TEST(ResultCache, MemoryHitMissAndStats) {
  ResultCache C;
  EXPECT_FALSE(C.lookup(1).has_value());
  C.store(1, "payload-one");
  auto Hit = C.lookup(1);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(*Hit, "payload-one");
  EXPECT_FALSE(C.lookup(2).has_value());

  ResultCache::Stats S = C.stats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 2u);
  EXPECT_EQ(S.Evictions, 0u);
  EXPECT_EQ(S.DiskHits, 0u);
}

TEST(ResultCache, StoreOverwritesInPlace) {
  ResultCache C;
  C.store(7, "old");
  C.store(7, "new");
  EXPECT_EQ(C.memoryEntryCount(), 1u);
  EXPECT_EQ(*C.lookup(7), "new");
}

TEST(ResultCache, LruEvictionPrefersColdEntries) {
  ResultCache::Options O;
  O.MaxMemoryEntries = 2;
  ResultCache C(O);
  C.store(1, "a");
  C.store(2, "b");
  ASSERT_TRUE(C.lookup(1).has_value()); // Touch 1 so 2 is the cold one.
  C.store(3, "c");
  EXPECT_EQ(C.stats().Evictions, 1u);
  EXPECT_EQ(C.memoryEntryCount(), 2u);
  EXPECT_TRUE(C.lookup(1).has_value());
  EXPECT_FALSE(C.lookup(2).has_value()); // Evicted.
  EXPECT_TRUE(C.lookup(3).has_value());
}

TEST(ResultCache, DiskRoundTripAcrossInstances) {
  fs::path Dir = freshDir("rscache_roundtrip");
  uint64_t Key = 0xdeadbeef12345678ull;
  sealed(Dir, [&](ResultCache &W) { W.store(Key, "the serialized report"); });
  // One sealed segment, named by generation 1.
  ASSERT_EQ(segments(Dir).size(), 1u);
  EXPECT_EQ(fileCount(Dir), 1u);
  EXPECT_EQ(segments(Dir)[0].filename().string().substr(0, 23),
            "rsseg-0000000000000001-");

  ResultCache Reader(diskOptions(Dir));
  auto Hit = Reader.lookup(Key);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(*Hit, "the serialized report");
  ResultCache::Stats S = Reader.stats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.DiskHits, 1u);
  // The disk hit was promoted: the second lookup is served from memory.
  ASSERT_TRUE(Reader.lookup(Key).has_value());
  EXPECT_EQ(Reader.stats().DiskHits, 1u);
}

TEST(ResultCache, PayloadBytesSurviveEscaping) {
  fs::path Dir = freshDir("rscache_escape");
  std::string Nasty = "{\"json\":\"in json\"}\nline2\ttab \\ \"quote\" \x01";
  Nasty += '\0'; // Even an embedded NUL must round-trip.
  Nasty += "tail";
  sealed(Dir, [&](ResultCache &W) { W.store(42, Nasty); });
  ResultCache R(diskOptions(Dir));
  auto Hit = R.lookup(42);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(*Hit, Nasty);
}

TEST(ResultCache, CorruptEntryDegradesToMissAndIsDropped) {
  fs::path Dir = freshDir("rscache_corrupt");
  const uint64_t Key = 7;
  const std::string Valid = rs::cachetest::envelope(Key, "x");
  // Each envelope sits in a segment whose index and footer are intact.
  const std::string Cases[] = {
      std::string(32, '\0'),                            // Zeroed header.
      "not an envelope at all, but 32+ bytes long",     // Garbage.
      envelope(99, Key, "x", 1, rs::fnv1a64("x")),      // Unknown version.
      Valid + "y",                                      // Size mismatch.
      envelope(ResultCache::DiskBlobFormatVersion, Key, "x", 1,
               rs::fnv1a64("y")),                       // Bad checksum.
      envelope(ResultCache::DiskBlobFormatVersion, Key, "", 1,
               rs::fnv1a64("x")),                       // Truncated payload.
  };
  for (const std::string &Body : Cases) {
    fs::remove_all(Dir);
    fs::create_directories(Dir);
    spill(Dir / segmentName(1), segmentBytes({{Key, Body}}));
    ResultCache C(diskOptions(Dir));
    EXPECT_FALSE(C.lookup(Key).has_value()) << "case: " << Body;
    EXPECT_EQ(C.stats().CorruptEntries, 1u) << "case: " << Body;
    EXPECT_EQ(C.stats().Misses, 1u) << "case: " << Body;
    // Dropped: the next lookup is a plain miss, not corruption again.
    EXPECT_FALSE(C.lookup(Key).has_value());
    EXPECT_EQ(C.stats().CorruptEntries, 1u) << "case: " << Body;
  }
  // The hand-built segment is the one the cache reads.
  spill(Dir / segmentName(1), segmentBytes({{Key, Valid}}));
  EXPECT_EQ(ResultCache(diskOptions(Dir)).lookup(Key).value_or(""), "x");
}

TEST(ResultCache, EntryUnderWrongNameIsRejected) {
  // A valid envelope indexed under another key must not be served: the
  // envelope key check catches aliased entries.
  fs::path Dir = freshDir("rscache_wrongname");
  spill(Dir / segmentName(1),
        segmentBytes({{2, rs::cachetest::envelope(1, "payload of key 1")}}));
  ResultCache C(diskOptions(Dir));
  EXPECT_FALSE(C.lookup(2).has_value());
  EXPECT_EQ(C.stats().CorruptEntries, 1u);
}

TEST(ResultCache, UnwritableDiskDirCountsStoreErrorsWithoutCrashing) {
  ResultCache::Options O;
  // A path under a regular file can never become a directory.
  fs::path Blocker = fs::path(testing::TempDir()) / "rscache_blocker";
  std::ofstream(Blocker) << "i am a file";
  O.DiskDir = (Blocker / "sub").string();
  ResultCache C(O);
  C.store(9, "lost payload");
  EXPECT_EQ(C.stats().StoreErrors, 1u);
  // The memory layer still works.
  EXPECT_TRUE(C.lookup(9).has_value());
}

TEST(ResultCache, FirstDiskWriteFailureDisablesTheDiskLayer) {
  fs::path Dir = freshDir("rscache_disable");
  sealed(Dir, [](ResultCache &Seed) {
    Seed.store(1, "seeded before the failure");
  });
  const std::vector<fs::path> Seeded = segments(Dir);
  ASSERT_EQ(Seeded.size(), 1u);
  {
    ResultCache C(diskOptions(Dir));
    ASSERT_FALSE(C.diskDisabled());
    {
      rs::fault::ScopedFault Fault("cache.disk.store", 1);
      C.store(2, "victim of the first failure");
    }
    EXPECT_TRUE(C.diskDisabled());
    EXPECT_EQ(C.stats().StoreErrors, 1u);
    // Disk reads are gated too: the entry seeded on disk is not consulted
    // once the layer is down (a filesystem sick enough to fail writes is
    // not trusted for reads either).
    EXPECT_FALSE(C.lookup(1).has_value());
    EXPECT_EQ(C.stats().DiskHits, 0u);
    // The memory layer is unaffected.
    EXPECT_TRUE(C.lookup(2).has_value());
    // Later stores skip the disk silently — one error total.
    for (uint64_t Key = 10; Key != 20; ++Key)
      C.store(Key, "memory only");
    EXPECT_EQ(C.stats().StoreErrors, 1u);
  }
  // Nothing sealed, nothing left behind: only the seeded segment.
  EXPECT_EQ(segments(Dir), Seeded);
  EXPECT_EQ(fileCount(Dir), 1u);
  // A fresh cache over the same directory starts with the layer healthy.
  ResultCache Fresh(diskOptions(Dir));
  EXPECT_FALSE(Fresh.diskDisabled());
  EXPECT_TRUE(Fresh.lookup(1).has_value());
  EXPECT_FALSE(Fresh.lookup(2).has_value());
}

TEST(ResultCache, UnwritableDiskDirFailsOnceThenGoesQuiet) {
  // Same contract through the real IO path: a DiskDir that can never be
  // created (nested under a regular file — root ignores permission bits,
  // so chmod is not a reliable blocker) trips the disable on the first
  // store and stays silent for the rest.
  ResultCache::Options O;
  fs::path Blocker = fs::path(testing::TempDir()) / "rscache_quiet_blocker";
  std::ofstream(Blocker) << "i am a file";
  O.DiskDir = (Blocker / "sub").string();
  ResultCache C(O);
  for (uint64_t Key = 0; Key != 8; ++Key)
    C.store(Key, "payload");
  EXPECT_TRUE(C.diskDisabled());
  EXPECT_EQ(C.stats().StoreErrors, 1u);
  for (uint64_t Key = 0; Key != 8; ++Key)
    EXPECT_TRUE(C.lookup(Key).has_value());
}

TEST(ResultCache, ConcurrentMixedUseIsSafe) {
  fs::path Dir = freshDir("rscache_threads");
  ResultCache::Options O = diskOptions(Dir);
  O.MaxMemoryEntries = 16; // Force evictions under contention too.
  {
    ResultCache C(O);
    std::vector<std::thread> Threads;
    for (int T = 0; T != 8; ++T)
      Threads.emplace_back([&C, T] {
        for (uint64_t I = 0; I != 64; ++I) {
          uint64_t Key = (I + uint64_t(T) * 7) % 32;
          if (auto Hit = C.lookup(Key))
            EXPECT_EQ(*Hit, "payload-" + std::to_string(Key));
          else
            C.store(Key, "payload-" + std::to_string(Key));
        }
      });
    for (std::thread &T : Threads)
      T.join();
    // Every entry reads back intact, evicted or not: the temporary
    // serves what the memory layer dropped.
    for (uint64_t Key = 0; Key != 32; ++Key)
      EXPECT_EQ(C.lookup(Key).value_or(""), "payload-" + std::to_string(Key));
    EXPECT_EQ(C.stats().CorruptEntries, 0u);
  }
  // And the sealed segment holds all of them.
  ResultCache Fresh(O);
  for (uint64_t Key = 0; Key != 32; ++Key)
    EXPECT_EQ(Fresh.lookup(Key).value_or(""),
              "payload-" + std::to_string(Key));
  EXPECT_EQ(Fresh.stats().DiskHits, 32u);
}

TEST(ResultCache, DiskEntryIsOneSealedEnvelope) {
  fs::path Dir = freshDir("rscache_format");
  {
    ResultCache C(diskOptions(Dir));
    C.store(0xabc, "hello");
    // Until the seal the run appends to a temporary: no segment yet.
    EXPECT_TRUE(segments(Dir).empty());
    ASSERT_EQ(fileCount(Dir), 1u);
    EXPECT_EQ(fs::directory_iterator(Dir)->path().extension(), ".tmp");
  }
  // The seal renames it to one segment, byte for byte the documented
  // layout, with no temporary left behind.
  std::vector<fs::path> Segs = segments(Dir);
  ASSERT_EQ(Segs.size(), 1u);
  EXPECT_EQ(slurp(Segs[0]),
            segmentBytes({{0xabc, rs::cachetest::envelope(0xabc, "hello")}}));
  EXPECT_EQ(fileCount(Dir), 1u);
}

//===----------------------------------------------------------------------===//
// Blob entries (lookupBlobRef/storeBlob): the same envelope for payloads
// that may contain any bytes, with their own hit/miss counters so
// report-cache accounting stays exact, and no promotion of disk hits.
//===----------------------------------------------------------------------===//

namespace {

/// A payload no text format would survive: embedded NULs, every byte
/// value, no trailing newline.
std::string binaryPayload() {
  std::string P("snapshot\0bytes", 14); // Length-given: keeps the NUL.
  for (int I = 0; I != 256; ++I)
    P.push_back(static_cast<char>(I));
  return P;
}

} // namespace

TEST(ResultCacheBlob, MemoryRoundTripAndSeparateCounters) {
  ResultCache C;
  EXPECT_FALSE(C.lookupBlobRef(9).has_value());
  C.storeBlob(9, binaryPayload());
  auto Got = C.lookupBlobRef(9);
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(Got->bytes(), binaryPayload());
  ResultCache::Stats S = C.stats();
  EXPECT_EQ(S.BlobHits, 1u);
  EXPECT_EQ(S.BlobMisses, 1u);
  // The report counters are untouched by blob traffic.
  EXPECT_EQ(S.Hits, 0u);
  EXPECT_EQ(S.Misses, 0u);
}

TEST(ResultCacheBlob, DiskRoundTripAcrossInstances) {
  fs::path Dir = freshDir("rscache_blob_disk");
  sealed(Dir, [](ResultCache &C) { C.storeBlob(0x1234, binaryPayload()); });
  ResultCache C(diskOptions(Dir)); // Fresh instance: memory layer empty.
  auto Got = C.lookupBlobRef(0x1234);
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(Got->bytes(), binaryPayload());
  ResultCache::Stats S = C.stats();
  EXPECT_EQ(S.BlobDiskHits, 1u);
  EXPECT_EQ(S.BlobHits, 1u);
  // Not promoted into memory: the second lookup reads the disk again.
  EXPECT_EQ(C.memoryEntryCount(), 0u);
  EXPECT_TRUE(C.lookupBlobRef(0x1234).has_value());
  EXPECT_EQ(C.stats().BlobDiskHits, 2u);
}

TEST(ResultCacheBlob, CorruptEnvelopeDegradesToMissAndIsDropped) {
  fs::path Dir = freshDir("rscache_blob_corrupt");
  sealed(Dir, [](ResultCache &C) { C.storeBlob(7, binaryPayload()); });
  // Flip one payload byte: the checksum must catch it.
  std::optional<Entry> E = findEntry(Dir, 7);
  ASSERT_TRUE(E.has_value());
  corruptPayload(*E);
  {
    ResultCache C(diskOptions(Dir));
    EXPECT_FALSE(C.lookupBlobRef(7).has_value());
    EXPECT_EQ(C.stats().CorruptEntries, 1u);
    EXPECT_EQ(C.stats().BlobMisses, 1u);
    // Dropped for the rest of the run: a plain miss now.
    EXPECT_FALSE(C.lookupBlobRef(7).has_value());
    EXPECT_EQ(C.stats().CorruptEntries, 1u);
    // The run stores it again; its segment is the newest and wins.
    C.storeBlob(7, binaryPayload());
  }
  ResultCache C(diskOptions(Dir));
  auto Got = C.lookupBlobRef(7);
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(Got->bytes(), binaryPayload());
  EXPECT_EQ(C.stats().CorruptEntries, 0u);
}

TEST(ResultCacheBlob, TruncatedEnvelopeIsCorrupt) {
  fs::path Dir = freshDir("rscache_blob_trunc");
  sealed(Dir, [](ResultCache &C) { C.storeBlob(8, binaryPayload()); });
  std::vector<fs::path> Segs = segments(Dir);
  ASSERT_EQ(Segs.size(), 1u);
  std::string Bytes = slurp(Segs[0]);
  spill(Segs[0], std::string_view(Bytes).substr(0, Bytes.size() / 2));
  ResultCache C(diskOptions(Dir));
  EXPECT_FALSE(C.lookupBlobRef(8).has_value());
  EXPECT_EQ(C.stats().CorruptEntries, 1u);
  // The damaged segment is dropped, not read again.
  EXPECT_TRUE(segments(Dir).empty());
}

TEST(ResultCacheBlob, EnvelopeUnderWrongKeyIsRejected) {
  fs::path Dir = freshDir("rscache_blob_wrongkey");
  sealed(Dir, [](ResultCache &C) { C.storeBlob(21, binaryPayload()); });
  // Re-index the entry under a different key: the embedded key no longer
  // matches and the entry must be rejected.
  std::vector<fs::path> Segs = segments(Dir);
  ASSERT_EQ(Segs.size(), 1u);
  spill(Segs[0], segmentBytes({{22, rs::cachetest::envelope(
                                        21, binaryPayload())}}));
  ResultCache C(diskOptions(Dir));
  EXPECT_FALSE(C.lookupBlobRef(22).has_value());
  EXPECT_EQ(C.stats().CorruptEntries, 1u);
}

TEST(ResultCacheBlob, ReportAndBlobEntriesShareOneEnvelope) {
  fs::path Dir = freshDir("rscache_blob_coexist");
  sealed(Dir, [](ResultCache &C) {
    C.store(1, "report payload");
    C.storeBlob(2, binaryPayload());
  });
  std::vector<fs::path> Segs = segments(Dir);
  ASSERT_EQ(Segs.size(), 1u);
  EXPECT_EQ(fileCount(Dir), 1u);
  EXPECT_EQ(slurp(Segs[0]),
            segmentBytes({{1, rs::cachetest::envelope(1, "report payload")},
                          {2, rs::cachetest::envelope(2, binaryPayload())}}));
  // Either entry reads through either pair; only the counters differ.
  ResultCache Fresh(diskOptions(Dir));
  EXPECT_EQ(Fresh.lookup(2).value_or(""), binaryPayload());
  auto Report = Fresh.lookupBlobRef(1);
  ASSERT_TRUE(Report.has_value());
  EXPECT_EQ(Report->bytes(), "report payload");
  ResultCache::Stats S = Fresh.stats();
  EXPECT_EQ(S.DiskHits, 1u);
  EXPECT_EQ(S.BlobDiskHits, 1u);
}

TEST(ResultCacheBlob, StoreFaultDisablesDiskLayerForBlobsToo) {
  fs::path Dir = freshDir("rscache_blob_fault");
  {
    ResultCache C(diskOptions(Dir));
    {
      rs::fault::ScopedFault F("cache.disk.store", 1);
      C.storeBlob(5, "doomed");
    }
    EXPECT_TRUE(C.diskDisabled());
    EXPECT_EQ(C.stats().StoreErrors, 1u);
    // The memory layer still serves it.
    auto Got = C.lookupBlobRef(5);
    ASSERT_TRUE(Got.has_value());
    EXPECT_EQ(Got->bytes(), "doomed");
  }
  EXPECT_EQ(fileCount(Dir), 0u);
}

//===----------------------------------------------------------------------===//
// Segments: one file per instance, a bounded window, copy-forward, garbage
// collection, and damage at every byte.
//===----------------------------------------------------------------------===//

TEST(ResultCacheSegment, EveryTruncationAndBitFlipIsAMiss) {
  fs::path Dir = freshDir("rscache_seg_fuzz");
  sealed(Dir, [](ResultCache &C) { C.store(3, "small"); });
  std::vector<fs::path> Segs = segments(Dir);
  ASSERT_EQ(Segs.size(), 1u);
  const fs::path Seg = Segs[0];
  const std::string Good = slurp(Seg);
  ASSERT_EQ(ResultCache(diskOptions(Dir)).lookup(3).value_or(""), "small");

  auto ExpectMiss = [&](std::string_view Bytes, const std::string &What) {
    spill(Seg, Bytes);
    ResultCache C(diskOptions(Dir));
    EXPECT_FALSE(C.lookup(3).has_value()) << What;
    EXPECT_EQ(C.stats().CorruptEntries, 1u) << What;
    EXPECT_EQ(C.stats().DiskHits, 0u) << What;
  };
  for (size_t Len = 0; Len != Good.size(); ++Len)
    ExpectMiss(std::string_view(Good).substr(0, Len),
               "truncated to " + std::to_string(Len));
  for (size_t Bit = 0; Bit != Good.size() * 8; ++Bit) {
    std::string Flipped = Good;
    Flipped[Bit / 8] = static_cast<char>(Flipped[Bit / 8] ^ (1 << (Bit % 8)));
    ExpectMiss(Flipped, "bit " + std::to_string(Bit) + " flipped");
  }
}

TEST(ResultCacheSegment, OtherFormatVersionIsColdNotCorrupt) {
  // A segment whose intact footer names another SegmentFormatVersion (a
  // newer or older release's) is skipped: a miss, nothing counted corrupt,
  // and the file is left for the window to retire.
  fs::path Dir = freshDir("rscache_seg_version");
  std::string Bytes =
      segmentBytes({{4, rs::cachetest::envelope(4, "other release")}});
  std::string Footer = Bytes.substr(Bytes.size() - FooterSize, 32);
  Footer[4] = static_cast<char>(ResultCache::SegmentFormatVersion + 1);
  putLE(Footer, rs::fnv1a64(Footer), 8);
  Bytes.replace(Bytes.size() - FooterSize, FooterSize, Footer);
  spill(Dir / segmentName(1), Bytes);
  ResultCache C(diskOptions(Dir));
  EXPECT_FALSE(C.lookup(4).has_value());
  EXPECT_EQ(C.stats().CorruptEntries, 0u);
  EXPECT_TRUE(fs::exists(Dir / segmentName(1)));
}

TEST(ResultCacheSegment, EntryEvictedFromMemoryStaysReadable) {
  fs::path Dir = freshDir("rscache_seg_evicted");
  ResultCache::Options O = diskOptions(Dir);
  O.MaxMemoryEntries = 4;
  ResultCache C(O);
  for (uint64_t Key = 0; Key != 64; ++Key)
    C.store(Key, "entry-" + std::to_string(Key));
  EXPECT_EQ(C.stats().Evictions, 60u);
  // Key 0 left memory long ago; the run's temporary still serves it.
  EXPECT_EQ(C.lookup(0).value_or(""), "entry-0");
  EXPECT_EQ(C.stats().DiskHits, 1u);
  auto Blob = C.lookupBlobRef(1);
  ASSERT_TRUE(Blob.has_value());
  EXPECT_EQ(Blob->bytes(), "entry-1");
  EXPECT_EQ(C.stats().CorruptEntries, 0u);
}

TEST(ResultCacheSegment, TwoInstancesOnOneDirectorySealDistinctSegments) {
  // The pattern of perfbench's replay: a ResultCache and a SummaryDb's
  // cache over one directory in one process.
  fs::path Dir = freshDir("rscache_seg_two");
  {
    ResultCache A(diskOptions(Dir));
    ResultCache B(diskOptions(Dir));
    A.store(1, "from A");
    B.store(2, "from B");
    // Each holds its own locked temporary.
    EXPECT_EQ(fileCount(Dir), 2u);
  }
  EXPECT_EQ(segments(Dir).size(), 2u);
  EXPECT_EQ(fileCount(Dir), 2u);
  ResultCache C(diskOptions(Dir));
  EXPECT_EQ(C.lookup(1).value_or(""), "from A");
  EXPECT_EQ(C.lookup(2).value_or(""), "from B");
  EXPECT_EQ(C.stats().DiskHits, 2u);
}

TEST(ResultCacheSegment, WindowBoundsFilesAndCopyForwardKeepsReadEntries) {
  fs::path Dir = freshDir("rscache_seg_window");
  constexpr size_t K = ResultCache::GenerationWindow;
  sealed(Dir, [](ResultCache &C) {
    C.store(1, "read every run");
    C.store(2, "never read again");
  });
  // K + 3 more runs, each reading key 1 and storing one new entry.
  for (uint64_t Run = 0; Run != K + 3; ++Run) {
    sealed(Dir, [&](ResultCache &C) {
      EXPECT_EQ(C.lookup(1).value_or(""), "read every run") << "run " << Run;
      C.store(100 + Run, "run " + std::to_string(Run));
    });
    EXPECT_LE(fileCount(Dir), K) << "run " << Run;
  }
  EXPECT_EQ(segments(Dir).size(), K);
  ResultCache C(diskOptions(Dir));
  // Read in every run, so copied forward before its segment left.
  EXPECT_EQ(C.lookup(1).value_or(""), "read every run");
  // Never read: gone with its segment.
  EXPECT_FALSE(C.lookup(2).has_value());
  // The newest K runs' entries are in the window; the first 3 runs' (never
  // read again) left with their segments.
  for (uint64_t Run = 0; Run != K + 3; ++Run)
    EXPECT_EQ(C.lookup(100 + Run).has_value(), Run >= 3) << "run " << Run;
  EXPECT_EQ(C.stats().CorruptEntries, 0u);
}

TEST(ResultCacheSegment, WarmRunWithoutStoresWritesNothing) {
  fs::path Dir = freshDir("rscache_seg_warm");
  sealed(Dir, [](ResultCache &C) { C.store(1, "x"); });
  const std::vector<fs::path> Before = segments(Dir);
  const std::string Bytes = slurp(Before.at(0));
  sealed(Dir, [](ResultCache &C) {
    EXPECT_TRUE(C.lookup(1).has_value());
    EXPECT_FALSE(C.lookup(2).has_value());
  });
  EXPECT_EQ(segments(Dir), Before);
  EXPECT_EQ(fileCount(Dir), 1u);
  EXPECT_EQ(slurp(Before[0]), Bytes);
}

TEST(ResultCacheSegment, LegacyPerEntryDirectoryIsColdAndCollected) {
  // A directory the per-entry layout filled: "rscache-<key>.bin" envelopes,
  // a retired JSON entry and a stray write temporary. It reads as cold,
  // with nothing counted corrupt, and the first seal collects all of it.
  fs::path Dir = freshDir("rscache_seg_legacy");
  const uint64_t Key = 0xdeadbeef12345678ull;
  spill(Dir / ("rscache-" + rs::hashToHex(Key) + ".bin"),
        rs::cachetest::envelope(Key, "old layout"));
  spill(Dir / ("rscache-" + rs::hashToHex(Key) + ".json"), "{}");
  spill(Dir / ("rscache-" + rs::hashToHex(Key) + ".bin.tmp.1.2"), "x");
  spill(Dir / "rs-checkpoint.json", "journal"); // Not the cache's.
  {
    ResultCache C(diskOptions(Dir));
    EXPECT_FALSE(C.lookup(Key).has_value());
    EXPECT_EQ(C.stats().CorruptEntries, 0u);
    EXPECT_EQ(C.stats().Misses, 1u);
    C.store(Key, "new layout");
  }
  EXPECT_EQ(segments(Dir).size(), 1u);
  EXPECT_EQ(fileCount(Dir), 2u);
  EXPECT_TRUE(fs::exists(Dir / "rs-checkpoint.json"));
  EXPECT_EQ(ResultCache(diskOptions(Dir)).lookup(Key).value_or(""),
            "new layout");
}

TEST(ResultCacheSegment, WindowCountsGenerationsNotWriters) {
  // A supervised run: every worker seals into its supervisor's generation,
  // so the window keeps K runs however many processes each one starts.
  fs::path Dir = freshDir("rscache_seg_generations");
  constexpr size_t K = ResultCache::GenerationWindow;
  constexpr uint64_t Writers = 3;
  auto KeyOf = [](uint64_t Run, uint64_t W) { return 100 + Run * Writers + W; };
  for (uint64_t Run = 0; Run != K + 3; ++Run) {
    ResultCache Supervisor(diskOptions(Dir));
    ResultCache::Options O = diskOptions(Dir);
    O.Generation = Supervisor.generation();
    EXPECT_EQ(O.Generation, Run + 1);
    for (uint64_t W = 0; W != Writers; ++W) {
      ResultCache Worker(O);
      Worker.store(KeyOf(Run, W), "worker " + std::to_string(W));
    }
  }
  EXPECT_EQ(segments(Dir).size(), K * Writers);
  ResultCache C(diskOptions(Dir));
  for (uint64_t Run = 0; Run != K + 3; ++Run)
    for (uint64_t W = 0; W != Writers; ++W)
      EXPECT_EQ(C.lookup(KeyOf(Run, W)).has_value(), Run >= 3)
          << "run " << Run << " writer " << W;
}

TEST(ResultCacheSegment, LateSealJoinsTheNewestGeneration) {
  // A resident instance (a serve session) opened at generation 1 seals
  // after K + 2 later runs: its segment joins the newest generation
  // instead of landing outside the window.
  fs::path Dir = freshDir("rscache_seg_resident");
  constexpr size_t K = ResultCache::GenerationWindow;
  auto Resident = std::make_unique<ResultCache>(diskOptions(Dir));
  EXPECT_EQ(Resident->generation(), 1u);
  for (uint64_t Run = 0; Run != K + 2; ++Run)
    sealed(Dir, [&](ResultCache &C) { C.store(100 + Run, "run"); });
  Resident->store(1, "resident");
  Resident.reset();
  EXPECT_EQ(segments(Dir).size(), K + 1);
  EXPECT_EQ(segments(Dir).front().filename().string().substr(0, 22),
            "rsseg-" + rs::hashToHex(K + 2));
  ResultCache C(diskOptions(Dir));
  EXPECT_EQ(C.lookup(1).value_or(""), "resident");
  EXPECT_EQ(C.generation(), K + 3);
}

TEST(ResultCacheSegment, AbandonedTemporaryIsRecoveredLiveOneIsNot) {
  fs::path Dir = freshDir("rscache_seg_tmp");
  // A killed run's temporary (no writer holds its lock): two intact
  // envelopes, the first stored twice, then one cut short mid-write.
  const std::string Torn = rs::cachetest::envelope(7, "torn");
  spill(Dir / "rsseg-999999-0.tmp",
        rs::cachetest::envelope(5, "stale") +
            rs::cachetest::envelope(6, "partial") +
            rs::cachetest::envelope(5, "latest") +
            Torn.substr(0, Torn.size() - 1));
  // One killed before its first store completed.
  spill(Dir / "rsseg-999999-2.tmp", Torn.substr(0, 10));
  // A live writer's, locked by a descriptor of our own.
  const fs::path Live = Dir / "rsseg-999999-1.tmp";
  spill(Live, rs::cachetest::envelope(8, "in progress"));
  int Fd = ::open(Live.c_str(), O_RDONLY);
  ASSERT_GE(Fd, 0);
  ASSERT_EQ(::flock(Fd, LOCK_EX), 0);
  {
    ResultCache C(diskOptions(Dir));
    EXPECT_EQ(C.lookup(5).value_or(""), "latest");
    EXPECT_EQ(C.lookup(6).value_or(""), "partial");
    // The torn tail is a miss, not damage; a live temporary is never read.
    EXPECT_FALSE(C.lookup(7).has_value());
    EXPECT_FALSE(C.lookup(8).has_value());
    EXPECT_EQ(C.stats().DiskHits, 2u);
    EXPECT_EQ(C.stats().CorruptEntries, 0u);
    C.store(9, "y");
  }
  EXPECT_FALSE(fs::exists(Dir / "rsseg-999999-0.tmp"));
  EXPECT_FALSE(fs::exists(Dir / "rsseg-999999-2.tmp"));
  EXPECT_TRUE(fs::exists(Live));
  EXPECT_EQ(segments(Dir).size(), 2u);
  // The recovered segment is sealed like any other.
  ResultCache C(diskOptions(Dir));
  EXPECT_EQ(C.lookup(6).value_or(""), "partial");
  EXPECT_EQ(C.lookup(9).value_or(""), "y");
  EXPECT_EQ(C.stats().CorruptEntries, 0u);
  ::close(Fd);
}

TEST(ResultCacheSegment, KilledWritersStoresAreRecovered) {
  // A process that dies without running its destructor (a killed worker or
  // daemon) loses no completed store.
  fs::path Dir = freshDir("rscache_seg_killed");
  const pid_t Child = ::fork();
  ASSERT_GE(Child, 0);
  if (Child == 0) {
    ResultCache C(diskOptions(Dir));
    C.store(1, "stored before the kill");
    C.storeBlob(2, "blob too");
    ::_exit(0);
  }
  int Status = 0;
  ASSERT_EQ(::waitpid(Child, &Status, 0), Child);
  ASSERT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0);
  EXPECT_TRUE(segments(Dir).empty());
  ResultCache C(diskOptions(Dir));
  EXPECT_EQ(C.lookup(1).value_or(""), "stored before the kill");
  auto Blob = C.lookupBlobRef(2);
  ASSERT_TRUE(Blob.has_value());
  EXPECT_EQ(Blob->bytes(), "blob too");
  EXPECT_EQ(segments(Dir).size(), 1u);
  EXPECT_EQ(fileCount(Dir), 1u);
}

TEST(ResultCacheSegment, SealFailureWarnsOnceAndMemoryLayerStillServes) {
  fs::path Dir = freshDir("rscache_seg_sealfail");
  sealed(Dir, [](ResultCache &C) { C.store(1, "kept"); });
  const std::vector<fs::path> Before = segments(Dir);
  testing::internal::CaptureStderr();
  {
    rs::fault::ScopedFault Fault("cache.disk.seal", 1);
    ResultCache C(diskOptions(Dir));
    C.store(2, "lost at the seal");
    EXPECT_EQ(C.lookup(2).value_or(""), "lost at the seal");
  }
  {
    // A store fault first, then the seal: still one warning in all.
    rs::fault::ScopedFault Store("cache.disk.store", 1);
    rs::fault::ScopedFault Seal("cache.disk.seal", 1);
    ResultCache C(diskOptions(Dir));
    C.store(3, "memory only");
    C.store(4, "memory only");
    EXPECT_EQ(C.lookup(3).value_or(""), "memory only");
    EXPECT_EQ(C.stats().StoreErrors, 1u);
  }
  const std::string Err = testing::internal::GetCapturedStderr();
  size_t Warnings = 0;
  for (size_t Pos = Err.find("disk cache layer disabled");
       Pos != std::string::npos;
       Pos = Err.find("disk cache layer disabled", Pos + 1))
    ++Warnings;
  EXPECT_EQ(Warnings, 2u) << Err; // One per instance.
  // Neither failed run left a segment or a temporary.
  EXPECT_EQ(segments(Dir), Before);
  EXPECT_EQ(fileCount(Dir), 1u);
  ResultCache C(diskOptions(Dir));
  EXPECT_TRUE(C.lookup(1).has_value());
  EXPECT_FALSE(C.lookup(2).has_value());
}
