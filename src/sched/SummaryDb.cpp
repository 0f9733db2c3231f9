//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "sched/SummaryDb.h"

#include "support/Hash.h"

using namespace rs;
using namespace rs::sched;

SummaryDb::SummaryDb(Options O)
    : Schema(O.SchemaOverride ? O.SchemaOverride : SchemaVersion),
      Cache([&] {
        ResultCache::Options CO;
        CO.DiskDir = std::move(O.DiskDir);
        CO.MaxMemoryEntries = O.MaxMemoryEntries;
        return CO;
      }()) {}

uint64_t SummaryDb::address(uint64_t Key, int64_t Schema) {
  uint64_t H = fnv1a64("rustsight-summarydb");
  H = fnv1a64U64(static_cast<uint64_t>(Schema), H);
  return fnv1a64U64(Key, H);
}

std::optional<std::string> SummaryDb::lookup(uint64_t Key) {
  if (std::optional<ResultCache::BlobRef> Ref =
          Cache.lookupBlobRef(address(Key, Schema)))
    return std::string(Ref->bytes());
  return std::nullopt;
}

void SummaryDb::store(uint64_t Key, std::string_view Payload) {
  Cache.storeBlob(address(Key, Schema), Payload);
}

ResultCache::Stats SummaryDb::stats() const {
  ResultCache::Stats S = Cache.stats();
  S.Hits = S.BlobHits;
  S.Misses = S.BlobMisses;
  S.DiskHits = S.BlobDiskHits;
  return S;
}
