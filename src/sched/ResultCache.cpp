#include "sched/ResultCache.h"

#include "support/FaultInjection.h"
#include "support/File.h"
#include "support/Hash.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

namespace fs = std::filesystem;

using namespace rs;
using namespace rs::sched;

namespace {

/// Little-endian fixed-width fields for the entry envelope.
void putU32LE(std::string &Out, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void putU64LE(std::string &Out, uint64_t V) {
  for (int I = 0; I != 8; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

uint32_t getU32LE(const char *P) {
  uint32_t V = 0;
  for (int I = 0; I != 4; ++I)
    V |= static_cast<uint32_t>(static_cast<uint8_t>(P[I])) << (8 * I);
  return V;
}

uint64_t getU64LE(const char *P) {
  uint64_t V = 0;
  for (int I = 0; I != 8; ++I)
    V |= static_cast<uint64_t>(static_cast<uint8_t>(P[I])) << (8 * I);
  return V;
}

constexpr char BlobMagic[4] = {'R', 'S', 'C', 'B'};
constexpr size_t BlobHeaderSize = 4 + 4 + 8 + 8 + 8;

} // namespace

ResultCache::ResultCache() : ResultCache(Options{}) {}

ResultCache::ResultCache(Options O) : Opts(std::move(O)) {}

std::string ResultCache::blobFileName(uint64_t Key) {
  return "rscache-" + hashToHex(Key) + ".bin";
}

std::optional<std::string> ResultCache::lookup(uint64_t Key) {
  std::optional<BlobRef> Ref = find(Key, /*Report=*/true);
  if (!Ref)
    return std::nullopt;
  // A disk hit owns its envelope: strip the header in place.
  Ref->Owned.resize(Ref->Off + Ref->Len);
  Ref->Owned.erase(0, Ref->Off);
  return std::move(Ref->Owned);
}

std::optional<ResultCache::BlobRef> ResultCache::lookupBlobRef(uint64_t Key) {
  return find(Key, /*Report=*/false);
}

std::optional<ResultCache::BlobRef> ResultCache::find(uint64_t Key,
                                                      bool Report) {
  uint64_t Stats::*Hits = Report ? &Stats::Hits : &Stats::BlobHits;
  uint64_t Stats::*Misses = Report ? &Stats::Misses : &Stats::BlobMisses;
  uint64_t Stats::*DiskHits = Report ? &Stats::DiskHits : &Stats::BlobDiskHits;
  {
    std::lock_guard<std::mutex> Lock(M);
    auto It = Index.find(Key);
    if (It != Index.end()) {
      Lru.splice(Lru.begin(), Lru, It->second); // Touch: move to front.
      ++(Counters.*Hits);
      BlobRef R;
      R.Owned = It->second->second; // Copy: the LRU entry may be evicted.
      R.Len = R.Owned.size();
      return R;
    }
  }
  if (!Opts.DiskDir.empty() && !diskDisabled()) {
    if (std::optional<BlobRef> Ref = readEntry(Key)) {
      std::string Promoted;
      if (Report)
        Promoted = Ref->bytes();
      std::lock_guard<std::mutex> Lock(M);
      ++(Counters.*Hits);
      ++(Counters.*DiskHits);
      if (Report)
        insertMemory(Key, std::move(Promoted));
      return Ref;
    }
  }
  std::lock_guard<std::mutex> Lock(M);
  ++(Counters.*Misses);
  return std::nullopt;
}

void ResultCache::store(uint64_t Key, std::string_view Payload) {
  std::string Entry(Payload);
  {
    std::lock_guard<std::mutex> Lock(M);
    insertMemory(Key, std::move(Entry));
  }
  if (Opts.DiskDir.empty() || diskDisabled())
    return;
  if (fault::shouldFail("cache.disk.store")) {
    failStore();
    return;
  }

  std::string Envelope;
  Envelope.reserve(BlobHeaderSize + Payload.size());
  Envelope.append(BlobMagic, 4);
  putU32LE(Envelope, DiskBlobFormatVersion);
  putU64LE(Envelope, Key);
  putU64LE(Envelope, Payload.size());
  putU64LE(Envelope, fnv1a64(Payload));
  Envelope.append(Payload.data(), Payload.size());
  if (!writeFileAtomic((fs::path(Opts.DiskDir) / blobFileName(Key)).string(),
                       Envelope))
    failStore();
}

/// One write failure disables the layer for the rest of the run — a full
/// disk or revoked permission would otherwise fail identically for every
/// file, and a cache must never turn a sick filesystem into per-file
/// latency. The warning prints exactly once, on the transition.
void ResultCache::failStore() {
  bool WarnNow = false;
  {
    std::lock_guard<std::mutex> Lock(M);
    ++Counters.StoreErrors;
    WarnNow = !std::exchange(DiskDisabledFlag, true);
  }
  if (WarnNow)
    std::fprintf(stderr,
                 "rustsight: warning: cannot write result cache entry "
                 "under '%s'; disk cache layer disabled for the rest of "
                 "this run (in-memory layer unaffected)\n",
                 Opts.DiskDir.c_str());
}

bool ResultCache::diskDisabled() const {
  std::lock_guard<std::mutex> Lock(M);
  return DiskDisabledFlag;
}

void ResultCache::clearMemory() {
  std::lock_guard<std::mutex> Lock(M);
  Lru.clear();
  Index.clear();
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> Lock(M);
  return Counters;
}

size_t ResultCache::memoryEntryCount() const {
  std::lock_guard<std::mutex> Lock(M);
  return Index.size();
}

/// Caller holds the mutex.
void ResultCache::insertMemory(uint64_t Key, std::string Payload) {
  auto It = Index.find(Key);
  if (It != Index.end()) {
    It->second->second = std::move(Payload);
    Lru.splice(Lru.begin(), Lru, It->second);
    return;
  }
  Lru.emplace_front(Key, std::move(Payload));
  Index[Key] = Lru.begin();
  while (Opts.MaxMemoryEntries != 0 && Index.size() > Opts.MaxMemoryEntries) {
    Index.erase(Lru.back().first);
    Lru.pop_back();
    ++Counters.Evictions;
  }
}

std::optional<ResultCache::BlobRef> ResultCache::readEntry(uint64_t Key) {
  fs::path Path = fs::path(Opts.DiskDir) / blobFileName(Key);

  BlobRef Ref;
  if (readFile(Path.string(), Ref.Owned) != ReadFileError::None)
    return std::nullopt; // Absent: a plain miss, not corruption.
  std::string_view Bytes = Ref.Owned;

  // Any defect from here on is corruption: count it, drop the entry so the
  // next run does not pay the check again, and miss.
  auto Corrupt = [&]() -> std::optional<BlobRef> {
    {
      std::lock_guard<std::mutex> Lock(M);
      ++Counters.CorruptEntries;
    }
    std::error_code Ec;
    fs::remove(Path, Ec); // Best-effort.
    return std::nullopt;
  };

  if (Bytes.size() < BlobHeaderSize ||
      std::memcmp(Bytes.data(), BlobMagic, 4) != 0)
    return Corrupt();
  const char *P = Bytes.data() + 4;
  uint32_t Version = getU32LE(P);
  uint64_t StoredKey = getU64LE(P + 4);
  uint64_t Size = getU64LE(P + 12);
  uint64_t Checksum = getU64LE(P + 20);
  if (Version != DiskBlobFormatVersion || StoredKey != Key)
    return Corrupt();
  std::string_view Payload = Bytes.substr(BlobHeaderSize);
  if (Payload.size() != Size || fnv1a64(Payload) != Checksum)
    return Corrupt();
  Ref.Off = BlobHeaderSize;
  Ref.Len = Payload.size();
  return Ref;
}
