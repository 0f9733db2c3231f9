//===----------------------------------------------------------------------===//
//
// Tests for the content-addressed result cache: memory-layer hit/miss and
// LRU eviction, disk-layer round trips, and — most importantly — the
// corruption contract: a damaged on-disk entry is a miss, never a crash.
//
//===----------------------------------------------------------------------===//

#include "sched/ResultCache.h"

#include "support/FaultInjection.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

namespace fs = std::filesystem;
using namespace rs::sched;

namespace {

/// A fresh temp dir per test so entries never leak between them.
fs::path freshDir(const char *Name) {
  fs::path Dir = fs::path(testing::TempDir()) / Name;
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  return Dir;
}

std::string readFile(const fs::path &P) {
  std::ifstream In(P, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

void putLE(std::string &Out, uint64_t V, int Bytes) {
  for (int I = 0; I != Bytes; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

/// The one entry envelope, built by hand: "RSCB", version, key, size,
/// FNV-1a checksum, payload.
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

std::string envelope(uint64_t Key, std::string_view Payload) {
  return envelope(ResultCache::DiskBlobFormatVersion, Key, Payload,
                  Payload.size(), rs::fnv1a64(Payload));
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
  {
    ResultCache::Options O;
    O.DiskDir = Dir.string();
    ResultCache Writer(O);
    Writer.store(Key, "the serialized report");
  }
  EXPECT_TRUE(fs::exists(Dir / ResultCache::blobFileName(Key)));
  EXPECT_EQ(ResultCache::blobFileName(Key), "rscache-deadbeef12345678.bin");

  ResultCache::Options O;
  O.DiskDir = Dir.string();
  ResultCache Reader(O);
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
  ResultCache::Options O;
  O.DiskDir = Dir.string();
  {
    ResultCache W(O);
    W.store(42, Nasty);
  }
  ResultCache R(O);
  auto Hit = R.lookup(42);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(*Hit, Nasty);
}

TEST(ResultCache, CorruptEntryDegradesToMissAndIsDropped) {
  fs::path Dir = freshDir("rscache_corrupt");
  ResultCache::Options O;
  O.DiskDir = Dir.string();

  uint64_t Key = 7;
  const std::string Valid = envelope(Key, "x");
  const std::string Cases[] = {
      "",                                   // Empty file.
      "not an envelope at all",             // Garbage.
      std::string("RSCB\x01\x00\x00\x00\x07", 9), // Truncated header.
      envelope(99, Key, "x", 1, rs::fnv1a64("x")),     // Unknown version.
      envelope(Key, "x") + "y",                        // Size mismatch.
      envelope(ResultCache::DiskBlobFormatVersion, Key, "x", 1,
               rs::fnv1a64("y")),                      // Bad checksum.
      Valid.substr(0, Valid.size() - 1),               // Truncated payload.
  };
  for (const std::string &Body : Cases) {
    fs::path Entry = Dir / ResultCache::blobFileName(Key);
    std::ofstream(Entry, std::ios::binary) << Body;
    ResultCache C(O);
    EXPECT_FALSE(C.lookup(Key).has_value()) << "case: " << Body;
    EXPECT_EQ(C.stats().CorruptEntries, 1u) << "case: " << Body;
    EXPECT_EQ(C.stats().Misses, 1u) << "case: " << Body;
    EXPECT_FALSE(fs::exists(Entry)) << "corrupt entry should be dropped";
  }
  // The hand-built envelope is the one the cache reads.
  std::ofstream(Dir / ResultCache::blobFileName(Key), std::ios::binary)
      << Valid;
  EXPECT_EQ(ResultCache(O).lookup(Key).value_or(""), "x");
}

TEST(ResultCache, EntryUnderWrongNameIsRejected) {
  // A valid entry copied to another key's file name must not be served:
  // the envelope key check catches renamed/aliased entries.
  fs::path Dir = freshDir("rscache_wrongname");
  ResultCache::Options O;
  O.DiskDir = Dir.string();
  {
    ResultCache W(O);
    W.store(1, "payload of key 1");
  }
  fs::copy_file(Dir / ResultCache::blobFileName(1),
                Dir / ResultCache::blobFileName(2));
  ResultCache C(O);
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
  ResultCache::Options O;
  O.DiskDir = Dir.string();
  {
    ResultCache Seed(O);
    Seed.store(1, "seeded before the failure");
  }
  ResultCache C(O);
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
  // Later stores skip the disk silently — one error total, no files.
  for (uint64_t Key = 10; Key != 20; ++Key)
    C.store(Key, "memory only");
  EXPECT_EQ(C.stats().StoreErrors, 1u);
  EXPECT_FALSE(fs::exists(Dir / ResultCache::blobFileName(2)));
  EXPECT_FALSE(fs::exists(Dir / ResultCache::blobFileName(10)));
  // A fresh cache over the same directory starts with the layer healthy.
  EXPECT_FALSE(ResultCache(O).diskDisabled());
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
  ResultCache::Options O;
  O.DiskDir = Dir.string();
  O.MaxMemoryEntries = 16; // Force evictions under contention too.
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
  // Every surviving entry must still read back intact.
  for (uint64_t Key = 0; Key != 32; ++Key)
    if (auto Hit = C.lookup(Key)) {
      EXPECT_EQ(*Hit, "payload-" + std::to_string(Key));
    }
}

TEST(ResultCache, DiskEntryIsOneSealedEnvelope) {
  fs::path Dir = freshDir("rscache_format");
  ResultCache::Options O;
  O.DiskDir = Dir.string();
  ResultCache C(O);
  C.store(0xabc, "hello");
  std::string Bytes = readFile(Dir / ResultCache::blobFileName(0xabc));
  EXPECT_EQ(Bytes, envelope(0xabc, "hello"));
  // No temporary files left behind.
  size_t Entries = 0;
  for (const auto &E : fs::directory_iterator(Dir)) {
    (void)E;
    ++Entries;
  }
  EXPECT_EQ(Entries, 1u);
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
  ResultCache::Options O;
  O.DiskDir = Dir.string();
  {
    ResultCache C(O);
    C.storeBlob(0x1234, binaryPayload());
  }
  ResultCache C(O); // Fresh instance: memory layer empty.
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
  ResultCache::Options O;
  O.DiskDir = Dir.string();
  {
    ResultCache C(O);
    C.storeBlob(7, binaryPayload());
  }
  fs::path File = Dir / ResultCache::blobFileName(7);
  ASSERT_TRUE(fs::exists(File));
  {
    // Flip one payload byte: the checksum must catch it.
    std::fstream F(File, std::ios::in | std::ios::out | std::ios::binary);
    F.seekp(-1, std::ios::end);
    char Last = 0;
    F.seekg(-1, std::ios::end);
    F.get(Last);
    F.seekp(-1, std::ios::end);
    F.put(static_cast<char>(Last ^ 0x40));
  }
  ResultCache C(O);
  EXPECT_FALSE(C.lookupBlobRef(7).has_value());
  EXPECT_EQ(C.stats().CorruptEntries, 1u);
  EXPECT_EQ(C.stats().BlobMisses, 1u);
  EXPECT_FALSE(fs::exists(File)) << "corrupt blob not dropped";
}

TEST(ResultCacheBlob, TruncatedEnvelopeIsCorrupt) {
  fs::path Dir = freshDir("rscache_blob_trunc");
  ResultCache::Options O;
  O.DiskDir = Dir.string();
  {
    ResultCache C(O);
    C.storeBlob(8, binaryPayload());
  }
  fs::path File = Dir / ResultCache::blobFileName(8);
  std::string Bytes = readFile(File);
  {
    std::ofstream Out(File, std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size() / 2));
  }
  ResultCache C(O);
  EXPECT_FALSE(C.lookupBlobRef(8).has_value());
  EXPECT_EQ(C.stats().CorruptEntries, 1u);
}

TEST(ResultCacheBlob, EnvelopeUnderWrongKeyIsRejected) {
  fs::path Dir = freshDir("rscache_blob_wrongkey");
  ResultCache::Options O;
  O.DiskDir = Dir.string();
  {
    ResultCache C(O);
    C.storeBlob(21, binaryPayload());
  }
  // Rename the entry to the file name of a different key: the embedded
  // key no longer matches and the entry must be rejected.
  fs::rename(Dir / ResultCache::blobFileName(21),
             Dir / ResultCache::blobFileName(22));
  ResultCache C(O);
  EXPECT_FALSE(C.lookupBlobRef(22).has_value());
  EXPECT_EQ(C.stats().CorruptEntries, 1u);
}

TEST(ResultCacheBlob, ReportAndBlobEntriesShareOneEnvelope) {
  fs::path Dir = freshDir("rscache_blob_coexist");
  ResultCache::Options O;
  O.DiskDir = Dir.string();
  ResultCache C(O);
  C.store(1, "report payload");
  C.storeBlob(2, binaryPayload());
  EXPECT_EQ(readFile(Dir / ResultCache::blobFileName(1)),
            envelope(1, "report payload"));
  EXPECT_EQ(readFile(Dir / ResultCache::blobFileName(2)),
            envelope(2, binaryPayload()));
  size_t Entries = 0;
  for (const auto &E : fs::directory_iterator(Dir)) {
    EXPECT_EQ(E.path().extension(), ".bin") << E.path();
    ++Entries;
  }
  EXPECT_EQ(Entries, 2u);
  // Either entry reads through either pair; only the counters differ.
  ResultCache Fresh(O);
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
  ResultCache::Options O;
  O.DiskDir = Dir.string();
  ResultCache C(O);
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
  EXPECT_FALSE(fs::exists(Dir / ResultCache::blobFileName(5)));
}
