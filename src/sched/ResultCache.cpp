#include "sched/ResultCache.h"

#include "support/FaultInjection.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "support/Mmap.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include <unistd.h>

namespace fs = std::filesystem;

using namespace rs;
using namespace rs::sched;

ResultCache::ResultCache() : ResultCache(Options{}) {}

ResultCache::ResultCache(Options O) : Opts(std::move(O)) {}

std::string ResultCache::entryFileName(uint64_t Key) {
  return "rscache-" + hashToHex(Key) + ".json";
}

std::string ResultCache::blobFileName(uint64_t Key) {
  return "rscache-" + hashToHex(Key) + ".bin";
}

std::optional<std::string> ResultCache::lookup(uint64_t Key) {
  {
    std::lock_guard<std::mutex> Lock(M);
    auto It = Index.find(Key);
    if (It != Index.end()) {
      Lru.splice(Lru.begin(), Lru, It->second); // Touch: move to front.
      ++Counters.Hits;
      return It->second->second;
    }
  }
  if (!Opts.DiskDir.empty() && !diskDisabled()) {
    if (std::optional<std::string> Payload = loadFromDisk(Key)) {
      std::lock_guard<std::mutex> Lock(M);
      ++Counters.Hits;
      ++Counters.DiskHits;
      insertMemory(Key, *Payload);
      return Payload;
    }
  }
  std::lock_guard<std::mutex> Lock(M);
  ++Counters.Misses;
  return std::nullopt;
}

void ResultCache::store(uint64_t Key, std::string_view Payload) {
  {
    std::lock_guard<std::mutex> Lock(M);
    insertMemory(Key, std::string(Payload));
  }
  if (!Opts.DiskDir.empty() && !diskDisabled())
    storeToDisk(Key, Payload);
}

std::optional<std::string> ResultCache::lookupBlob(uint64_t Key) {
  {
    std::lock_guard<std::mutex> Lock(M);
    auto It = Index.find(Key);
    if (It != Index.end()) {
      Lru.splice(Lru.begin(), Lru, It->second);
      ++Counters.BlobHits;
      return It->second->second;
    }
  }
  if (!Opts.DiskDir.empty() && !diskDisabled()) {
    if (std::optional<BlobRef> Ref = loadBlobFromDisk(Key)) {
      std::string Payload(Ref->bytes());
      std::lock_guard<std::mutex> Lock(M);
      ++Counters.BlobHits;
      ++Counters.BlobDiskHits;
      insertMemory(Key, Payload);
      return Payload;
    }
  }
  std::lock_guard<std::mutex> Lock(M);
  ++Counters.BlobMisses;
  return std::nullopt;
}

std::optional<ResultCache::BlobRef> ResultCache::lookupBlobRef(uint64_t Key) {
  {
    std::lock_guard<std::mutex> Lock(M);
    auto It = Index.find(Key);
    if (It != Index.end()) {
      Lru.splice(Lru.begin(), Lru, It->second);
      ++Counters.BlobHits;
      BlobRef R;
      R.Owned = It->second->second; // Copy: the LRU entry may be evicted.
      R.Len = R.Owned.size();
      return R;
    }
  }
  if (!Opts.DiskDir.empty() && !diskDisabled()) {
    if (std::optional<BlobRef> Ref = loadBlobFromDisk(Key)) {
      std::lock_guard<std::mutex> Lock(M);
      ++Counters.BlobHits;
      ++Counters.BlobDiskHits;
      return Ref;
    }
  }
  std::lock_guard<std::mutex> Lock(M);
  ++Counters.BlobMisses;
  return std::nullopt;
}

void ResultCache::storeBlob(uint64_t Key, std::string_view Payload) {
  {
    std::lock_guard<std::mutex> Lock(M);
    insertMemory(Key, std::string(Payload));
  }
  if (!Opts.DiskDir.empty() && !diskDisabled())
    storeBlobToDisk(Key, Payload);
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

std::optional<std::string> ResultCache::loadFromDisk(uint64_t Key) {
  fs::path Path = fs::path(Opts.DiskDir) / entryFileName(Key);
  std::string Text;
  if (readFile(Path.string(), Text) != ReadFileError::None)
    return std::nullopt; // Absent: a plain miss, not corruption.

  // Any defect from here on is corruption: count it, drop the entry so the
  // next run does not pay the parse again, and miss.
  auto Corrupt = [&]() -> std::optional<std::string> {
    {
      std::lock_guard<std::mutex> Lock(M);
      ++Counters.CorruptEntries;
    }
    std::error_code Ec;
    fs::remove(Path, Ec); // Best-effort.
    return std::nullopt;
  };

  std::optional<JsonValue> Doc = JsonValue::parse(Text);
  if (!Doc || !Doc->isObject())
    return Corrupt();
  if (Doc->getInt("version", -1) != DiskFormatVersion)
    return Corrupt();
  uint64_t StoredKey = 0;
  if (!hexToHash(Doc->getString("key"), StoredKey) || StoredKey != Key)
    return Corrupt();
  const JsonValue *Payload = Doc->get("payload");
  if (!Payload || !Payload->isString())
    return Corrupt();
  return Payload->asString();
}

/// Writes \p Contents to DiskDir/FileName via a temporary + atomic rename.
/// Returns false on any failure (the caller records it); one write failure
/// disables the layer for the rest of the run — a full disk or revoked
/// permission would otherwise fail identically for every file, and a cache
/// must never turn a sick filesystem into per-file latency. The warning
/// prints exactly once, on the transition.
bool ResultCache::writeDiskFile(const std::string &FileName,
                                std::string_view Contents) {
  std::error_code Ec;
  fs::create_directories(Opts.DiskDir, Ec);

  // Unique-enough temporary name per writer (pid + thread), then an atomic
  // rename: concurrent writers of the same key race benignly because both
  // wrote identical content for identical keys.
  fs::path Final = fs::path(Opts.DiskDir) / FileName;
  std::string Suffix =
      ".tmp." + std::to_string(::getpid()) + "." +
      hashToHex(std::hash<std::thread::id>()(std::this_thread::get_id()));
  fs::path Tmp = Final;
  Tmp += Suffix;

  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return false;
    Out.write(Contents.data(),
              static_cast<std::streamsize>(Contents.size()));
    Out.flush();
    if (!Out) {
      Out.close();
      fs::remove(Tmp, Ec);
      return false;
    }
  }
  fs::rename(Tmp, Final, Ec);
  if (Ec) {
    fs::remove(Tmp, Ec);
    return false;
  }
  return true;
}

namespace {

/// Little-endian fixed-width fields for the blob envelope.
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

void ResultCache::storeToDisk(uint64_t Key, std::string_view Payload) {
  auto Fail = [&] {
    bool WarnNow = false;
    {
      std::lock_guard<std::mutex> Lock(M);
      ++Counters.StoreErrors;
      if (!DiskDisabledFlag) {
        DiskDisabledFlag = true;
        WarnNow = true;
      }
    }
    if (WarnNow)
      std::fprintf(stderr,
                   "rustsight: warning: cannot write result cache entry "
                   "under '%s'; disk cache layer disabled for the rest of "
                   "this run (in-memory layer unaffected)\n",
                   Opts.DiskDir.c_str());
  };

  if (fault::shouldFail("cache.disk.store")) {
    Fail();
    return;
  }

  JsonWriter W;
  W.beginObject();
  W.field("version", DiskFormatVersion);
  W.field("key", hashToHex(Key));
  W.field("payload", Payload);
  W.endObject();

  if (!writeDiskFile(entryFileName(Key), W.str()))
    Fail();
}

void ResultCache::storeBlobToDisk(uint64_t Key, std::string_view Payload) {
  auto Fail = [&] {
    bool WarnNow = false;
    {
      std::lock_guard<std::mutex> Lock(M);
      ++Counters.StoreErrors;
      if (!DiskDisabledFlag) {
        DiskDisabledFlag = true;
        WarnNow = true;
      }
    }
    if (WarnNow)
      std::fprintf(stderr,
                   "rustsight: warning: cannot write result cache entry "
                   "under '%s'; disk cache layer disabled for the rest of "
                   "this run (in-memory layer unaffected)\n",
                   Opts.DiskDir.c_str());
  };

  if (fault::shouldFail("cache.disk.store")) {
    Fail();
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

  if (!writeDiskFile(blobFileName(Key), Envelope))
    Fail();
}

std::optional<ResultCache::BlobRef> ResultCache::loadBlobFromDisk(
    uint64_t Key) {
  fs::path Path = fs::path(Opts.DiskDir) / blobFileName(Key);

  BlobRef Ref;
  if (readFile(Path.string(), Ref.Owned) != ReadFileError::None)
    return std::nullopt; // Absent: a plain miss, not corruption.
  std::string_view Bytes = Ref.Owned;

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
