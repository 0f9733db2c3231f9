#include "sched/SummaryDb.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include <unistd.h>

namespace fs = std::filesystem;
using namespace rs::sched;

namespace {

struct TempDir {
  fs::path Path;
  TempDir() {
    Path = fs::temp_directory_path() /
           ("rs-summarydb-" + std::to_string(::getpid()) + "-" +
            std::to_string(Counter++));
    fs::create_directories(Path);
  }
  ~TempDir() {
    std::error_code Ec;
    fs::remove_all(Path, Ec);
  }
  static int Counter;
};
int TempDir::Counter = 0;

SummaryDb::Options diskOpts(const TempDir &D, int64_t SchemaOverride = 0) {
  SummaryDb::Options O;
  O.DiskDir = D.Path.string();
  O.SchemaOverride = SchemaOverride;
  return O;
}

} // namespace

TEST(SummaryDb, MemoryRoundTrip) {
  SummaryDb Db;
  EXPECT_FALSE(Db.lookup(42).has_value());
  Db.store(42, "payload-42");
  EXPECT_EQ(Db.lookup(42).value_or(""), "payload-42");
  EXPECT_FALSE(Db.lookup(43).has_value());
}

TEST(SummaryDb, PersistsAcrossInstances) {
  TempDir D;
  {
    SummaryDb Db(diskOpts(D));
    Db.store(7, "converged-summary");
  }
  SummaryDb Fresh(diskOpts(D));
  EXPECT_EQ(Fresh.lookup(7).value_or(""), "converged-summary");
  EXPECT_EQ(Fresh.stats().DiskHits, 1u);
}

TEST(SummaryDb, SchemaFoldMovesEveryAddress) {
  // The schema version participates in the address, so a bump relocates
  // every entry instead of reinterpreting old payloads.
  EXPECT_NE(SummaryDb::address(1, 1), SummaryDb::address(1, 2));
  EXPECT_NE(SummaryDb::address(1, 1), SummaryDb::address(2, 1));
  EXPECT_EQ(SummaryDb::address(9, SummaryDb::SchemaVersion),
            SummaryDb::address(9, SummaryDb::SchemaVersion));
}

TEST(SummaryDb, SchemaBumpIsColdNotCorrupt) {
  TempDir D;
  {
    SummaryDb Db(diskOpts(D));
    Db.store(5, "old-schema-payload");
  }
  // A bumped schema must see a cold DB: a miss, with no corruption
  // counted (old entries are simply never addressed).
  SummaryDb Bumped(diskOpts(D, SummaryDb::SchemaVersion + 1));
  EXPECT_FALSE(Bumped.lookup(5).has_value());
  EXPECT_EQ(Bumped.stats().CorruptEntries, 0u);
  // The original schema still reads its entry.
  SummaryDb Back(diskOpts(D));
  EXPECT_EQ(Back.lookup(5).value_or(""), "old-schema-payload");
  // And the bumped instance can write its own generation alongside.
  Bumped.store(5, "new-schema-payload");
  EXPECT_EQ(Bumped.lookup(5).value_or(""), "new-schema-payload");
  EXPECT_EQ(Back.lookup(5).value_or(""), "old-schema-payload");
}

TEST(SummaryDb, CorruptEntryIsAMiss) {
  TempDir D;
  {
    SummaryDb Db(diskOpts(D));
    Db.store(11, "about-to-be-scrambled");
  }
  // Scramble the segment under the DB directory.
  for (const auto &E : fs::directory_iterator(D.Path))
    std::ofstream(E.path(), std::ios::binary | std::ios::trunc)
        << "not json at all";
  SummaryDb Fresh(diskOpts(D));
  EXPECT_FALSE(Fresh.lookup(11).has_value());
  EXPECT_EQ(Fresh.stats().CorruptEntries, 1u);
  // The corrupt segment was dropped: the next miss is plain, not corrupt.
  EXPECT_FALSE(Fresh.lookup(11).has_value());
  EXPECT_EQ(Fresh.stats().CorruptEntries, 1u);
}
