#include "sched/ResultCache.h"

#include "support/FaultInjection.h"
#include "support/Hash.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <unordered_set>
#include <utility>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

namespace fs = std::filesystem;

using namespace rs;
using namespace rs::sched;

namespace {

/// Little-endian fixed-width fields for the envelope, index and footer.
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

/// Segment tail: index records of (key, offset, length), then the footer
/// "RSSG" + version + record count + index offset + index checksum +
/// footer checksum (FNV-1a of the footer's first 32 bytes).
constexpr char SegmentMagic[4] = {'R', 'S', 'S', 'G'};
constexpr size_t IndexRecordSize = 8 + 8 + 8;
constexpr size_t FooterSize = 4 + 4 + 8 + 8 + 8 + 8;

/// Copy-forward batches its appends up to this many bytes.
constexpr size_t CopyBatchBytes = size_t(1) << 20;

constexpr std::string_view SegmentPrefix = "rsseg-";
constexpr std::string_view SegmentSuffix = ".seg";
constexpr std::string_view TemporarySuffix = ".tmp";
/// The per-entry files of earlier releases ("rscache-<key>.bin" and their
/// write temporaries, "rscache-<key>.json").
constexpr std::string_view LegacyPrefix = "rscache-";

bool preadAll(int Fd, char *Out, size_t Len, uint64_t Off) {
  while (Len != 0) {
    ssize_t N = ::pread(Fd, Out, Len, static_cast<off_t>(Off));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Out += N;
    Len -= static_cast<size_t>(N);
    Off += static_cast<uint64_t>(N);
  }
  return true;
}

bool pwriteAll(int Fd, std::string_view Bytes, uint64_t Off) {
  while (!Bytes.empty()) {
    ssize_t N =
        ::pwrite(Fd, Bytes.data(), Bytes.size(), static_cast<off_t>(Off));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Bytes.remove_prefix(static_cast<size_t>(N));
    Off += static_cast<uint64_t>(N);
  }
  return true;
}

void appendEnvelope(std::string &Out, uint64_t Key, std::string_view Payload) {
  Out.append(BlobMagic, 4);
  putU32LE(Out, ResultCache::DiskBlobFormatVersion);
  putU64LE(Out, Key);
  putU64LE(Out, Payload.size());
  putU64LE(Out, fnv1a64(Payload));
  Out.append(Payload.data(), Payload.size());
}

/// True when \p Envelope is a whole, intact envelope of \p Key.
bool validEnvelope(std::string_view Envelope, uint64_t Key) {
  if (Envelope.size() < BlobHeaderSize ||
      std::memcmp(Envelope.data(), BlobMagic, 4) != 0)
    return false;
  const char *P = Envelope.data() + 4;
  std::string_view Payload = Envelope.substr(BlobHeaderSize);
  return getU32LE(P) == ResultCache::DiskBlobFormatVersion &&
         getU64LE(P + 4) == Key && getU64LE(P + 12) == Payload.size() &&
         getU64LE(P + 20) == fnv1a64(Payload);
}

struct IndexRecord {
  uint64_t Key, Off, Len;
};

enum class SegmentState { Loaded, Damaged, OtherVersion };

/// Reads and checks a sealed segment's footer and index. Entries are
/// checked when read. An intact footer of another format version is not
/// damage: such a segment reads as cold.
SegmentState loadIndex(int Fd, std::vector<IndexRecord> &Out) {
  constexpr SegmentState Damaged = SegmentState::Damaged;
  struct stat St;
  if (::fstat(Fd, &St) != 0 || St.st_size < off_t(FooterSize))
    return Damaged;
  const uint64_t Size = static_cast<uint64_t>(St.st_size);
  char Footer[FooterSize];
  if (!preadAll(Fd, Footer, FooterSize, Size - FooterSize) ||
      getU64LE(Footer + 32) != fnv1a64(std::string_view(Footer, 32)) ||
      std::memcmp(Footer, SegmentMagic, 4) != 0)
    return Damaged;
  if (getU32LE(Footer + 4) != ResultCache::SegmentFormatVersion)
    return SegmentState::OtherVersion;
  const uint64_t Count = getU64LE(Footer + 8);
  const uint64_t IndexOff = getU64LE(Footer + 16);
  const uint64_t Body = Size - FooterSize;
  if (IndexOff > Body || Count > (Body - IndexOff) / IndexRecordSize ||
      IndexOff + Count * IndexRecordSize != Body)
    return Damaged;
  std::string Index(Count * IndexRecordSize, '\0');
  if (!preadAll(Fd, Index.data(), Index.size(), IndexOff) ||
      fnv1a64(Index) != getU64LE(Footer + 24))
    return Damaged;
  Out.reserve(Count);
  for (uint64_t I = 0; I != Count; ++I) {
    const char *R = Index.data() + I * IndexRecordSize;
    IndexRecord Rec{getU64LE(R), getU64LE(R + 8), getU64LE(R + 16)};
    if (Rec.Len < BlobHeaderSize || Rec.Off > IndexOff ||
        Rec.Len > IndexOff - Rec.Off)
      return Damaged;
    Out.push_back(Rec);
  }
  return SegmentState::Loaded;
}

/// What a cache directory holds, by name.
struct DirListing {
  struct Sealed {
    uint64_t Generation;
    std::string Name;
  };
  std::vector<Sealed> Segments;       ///< Newest first.
  std::vector<std::string> Temporaries;
  std::vector<std::string> Legacy;

  uint64_t newestGeneration() const {
    return Segments.empty() ? 0 : Segments.front().Generation;
  }
};

DirListing scanDir(const std::string &Dir) {
  DirListing Out;
  std::error_code Ec;
  for (fs::directory_iterator It(Dir, Ec), End; !Ec && It != End;
       It.increment(Ec)) {
    std::string Name = It->path().filename().string();
    uint64_t Gen = 0;
    if (Name.starts_with(LegacyPrefix))
      Out.Legacy.push_back(std::move(Name));
    else if (!Name.starts_with(SegmentPrefix))
      continue;
    else if (Name.ends_with(TemporarySuffix))
      Out.Temporaries.push_back(std::move(Name));
    else if (Name.ends_with(SegmentSuffix) &&
             hexToHash(std::string_view(Name).substr(SegmentPrefix.size(), 16),
                       Gen))
      Out.Segments.push_back({Gen, std::move(Name)});
  }
  std::sort(Out.Segments.begin(), Out.Segments.end(),
            [](const DirListing::Sealed &A, const DirListing::Sealed &B) {
              return A.Generation != B.Generation ? A.Generation > B.Generation
                                                  : A.Name > B.Name;
            });
  return Out;
}

/// The index and footer that seal a segment whose entries end at
/// \p IndexOff.
std::string segmentTail(std::vector<IndexRecord> Records, uint64_t IndexOff) {
  std::sort(Records.begin(), Records.end(),
            [](const IndexRecord &A, const IndexRecord &B) {
              return A.Off < B.Off;
            });
  std::string Tail;
  Tail.reserve(Records.size() * IndexRecordSize + FooterSize);
  for (const IndexRecord &R : Records) {
    putU64LE(Tail, R.Key);
    putU64LE(Tail, R.Off);
    putU64LE(Tail, R.Len);
  }
  std::string Footer(SegmentMagic, 4);
  putU32LE(Footer, ResultCache::SegmentFormatVersion);
  putU64LE(Footer, Records.size());
  putU64LE(Footer, IndexOff);
  putU64LE(Footer, fnv1a64(Tail));
  putU64LE(Footer, fnv1a64(Footer));
  return Tail + Footer;
}

/// The name a temporary "rsseg-<writer>.tmp" seals under.
std::string segmentPath(const fs::path &Dir, uint64_t Generation,
                        const std::string &TemporaryName) {
  const std::string Writer = fs::path(TemporaryName).stem().string().substr(
      SegmentPrefix.size());
  return (Dir / (std::string(SegmentPrefix) + hashToHex(Generation) + "-" +
                 Writer + std::string(SegmentSuffix)))
      .string();
}

/// Seals a temporary whose writer is gone into a segment of \p Generation:
/// its intact envelopes from the start up to the first torn or unwritten
/// one, the last per key winning. A live writer holds an flock on its
/// temporary until its seal renames it; one that stored nothing intact is
/// deleted. True when a segment was left.
bool recoverTemporary(const fs::path &Dir, const std::string &Name,
                      uint64_t Generation) {
  const std::string Path = (Dir / Name).string();
  int Fd = ::open(Path.c_str(), O_RDWR | O_CLOEXEC);
  if (Fd < 0)
    return false;
  // Locked, and still under its name: not sealed or recovered meanwhile.
  struct stat Mine, Named;
  bool Recovered = false;
  if (::flock(Fd, LOCK_EX | LOCK_NB) == 0 && ::fstat(Fd, &Mine) == 0 &&
      ::stat(Path.c_str(), &Named) == 0 && Mine.st_ino == Named.st_ino &&
      Mine.st_dev == Named.st_dev) {
    const uint64_t Size = static_cast<uint64_t>(Mine.st_size);
    std::unordered_map<uint64_t, IndexRecord> Latest;
    std::string Envelope;
    char Header[BlobHeaderSize];
    uint64_t End = 0;
    while (Size - End >= BlobHeaderSize &&
           preadAll(Fd, Header, BlobHeaderSize, End)) {
      const uint64_t Key = getU64LE(Header + 8);
      const uint64_t Len = getU64LE(Header + 16);
      if (Len > Size - End - BlobHeaderSize)
        break;
      Envelope.resize(BlobHeaderSize + Len);
      if (!preadAll(Fd, Envelope.data(), Envelope.size(), End) ||
          !validEnvelope(Envelope, Key))
        break;
      Latest[Key] = IndexRecord{Key, End, Envelope.size()};
      End += Envelope.size();
    }
    if (Latest.empty()) {
      ::unlink(Path.c_str());
    } else {
      std::vector<IndexRecord> Records;
      for (const auto &[Key, R] : Latest)
        Records.push_back(R);
      // The tail overwrites whatever torn bytes follow the last intact
      // envelope; the file is cut to it.
      const std::string Tail = segmentTail(std::move(Records), End);
      Recovered =
          pwriteAll(Fd, Tail, End) &&
          ::ftruncate(Fd, static_cast<off_t>(End + Tail.size())) == 0 &&
          ::rename(Path.c_str(),
                   segmentPath(Dir, Generation, Name).c_str()) == 0;
    }
  }
  ::close(Fd);
  return Recovered;
}

} // namespace

ResultCache::ResultCache() : ResultCache(Options{}) {}

ResultCache::ResultCache(Options O) : Opts(std::move(O)) {}

ResultCache::~ResultCache() {
  try {
    seal();
  } catch (const std::exception &) {
    failStore(); // Out of memory mid-seal: no segment, one warning.
  }
  for (const Segment &S : Segments)
    ::close(S.Fd);
  if (TmpFd >= 0)
    ::close(TmpFd);
}

uint64_t ResultCache::beginEpoch() {
  std::lock_guard<std::mutex> Lock(M);
  return ++Epoch;
}

std::optional<std::string> ResultCache::lookup(uint64_t Key,
                                               uint64_t StoredBefore) {
  std::optional<BlobRef> Ref = find(Key, /*Report=*/true, StoredBefore);
  if (!Ref)
    return std::nullopt;
  // A disk hit owns its envelope: strip the header in place.
  Ref->Owned.resize(Ref->Off + Ref->Len);
  Ref->Owned.erase(0, Ref->Off);
  return std::move(Ref->Owned);
}

std::optional<ResultCache::BlobRef> ResultCache::lookupBlobRef(uint64_t Key) {
  return find(Key, /*Report=*/false, ~uint64_t(0));
}

std::optional<ResultCache::BlobRef>
ResultCache::find(uint64_t Key, bool Report, uint64_t StoredBefore) {
  uint64_t Stats::*Hits = Report ? &Stats::Hits : &Stats::BlobHits;
  uint64_t Stats::*Misses = Report ? &Stats::Misses : &Stats::BlobMisses;
  uint64_t Stats::*DiskHits = Report ? &Stats::DiskHits : &Stats::BlobDiskHits;
  DiskLoc Loc;
  int Fd = -1;
  {
    std::lock_guard<std::mutex> Lock(M);
    auto It = Index.find(Key);
    if (It != Index.end() && It->second->Epoch < StoredBefore) {
      Lru.splice(Lru.begin(), Lru, It->second); // Touch: move to front.
      ++(Counters.*Hits);
      if (It->second->PromotedIn >= StoredBefore)
        ++(Counters.*DiskHits);
      BlobRef R;
      R.Owned = It->second->Payload; // Copy: the LRU entry may be evicted.
      R.Len = R.Owned.size();
      return R;
    }
    // A memory entry too new to count was stored this epoch, so it is the
    // newest on disk too.
    if (It == Index.end() && !Opts.DiskDir.empty() && !DiskDisabledFlag) {
      openDisk();
      if (auto D = DiskIndex.find(Key);
          D != DiskIndex.end() && D->second.Epoch < StoredBefore) {
        Loc = D->second;
        Fd = Loc.Seg == NewSegment ? TmpFd : Segments[Loc.Seg].Fd;
      }
    }
    if (Fd < 0) {
      ++(Counters.*Misses);
      return std::nullopt;
    }
  }

  // The positioned read runs outside the lock; descriptors stay open until
  // the destructor.
  BlobRef Ref;
  Ref.Owned.resize(Loc.Len);
  const bool Ok = preadAll(Fd, Ref.Owned.data(), Loc.Len, Loc.Off) &&
                  validEnvelope(Ref.Owned, Key);
  Ref.Off = BlobHeaderSize;
  Ref.Len = Loc.Len - BlobHeaderSize;
  std::string Promoted;
  if (Ok && Report)
    Promoted = Ref.bytes();

  std::lock_guard<std::mutex> Lock(M);
  auto D = DiskIndex.find(Key);
  const bool Current = D != DiskIndex.end() && D->second.Seg == Loc.Seg &&
                       D->second.Off == Loc.Off;
  if (!Ok) {
    // Corruption: count it, forget the entry so this run does not pay the
    // check again (its re-store lands in the new segment, which wins), and
    // miss.
    ++Counters.CorruptEntries;
    ++(Counters.*Misses);
    if (Current)
      DiskIndex.erase(D);
    return std::nullopt;
  }
  if (Current)
    D->second.Read = true;
  ++(Counters.*Hits);
  ++(Counters.*DiskHits);
  if (Report)
    insertMemory(Key, std::move(Promoted), Loc.Epoch, Epoch);
  return Ref;
}

void ResultCache::retain(uint64_t Key) {
  std::lock_guard<std::mutex> Lock(M);
  if (Opts.DiskDir.empty() || DiskDisabledFlag)
    return;
  openDisk();
  if (auto D = DiskIndex.find(Key); D != DiskIndex.end())
    D->second.Read = true;
}

void ResultCache::store(uint64_t Key, std::string_view Payload) {
  std::string Entry(Payload);
  uint64_t StoredIn;
  {
    std::lock_guard<std::mutex> Lock(M);
    StoredIn = Epoch;
    insertMemory(Key, std::move(Entry), StoredIn);
  }
  if (Opts.DiskDir.empty() || diskDisabled())
    return;
  if (fault::shouldFail("cache.disk.store")) {
    failStore();
    return;
  }

  std::string Envelope;
  Envelope.reserve(BlobHeaderSize + Payload.size());
  appendEnvelope(Envelope, Key, Payload);
  uint64_t Off = 0;
  int Fd = -1;
  {
    std::lock_guard<std::mutex> Lock(M);
    if (DiskDisabledFlag)
      return;
    openDisk();
    if (TmpFd >= 0 || createTemporary()) {
      Off = TmpEnd;
      TmpEnd += Envelope.size();
      Fd = TmpFd;
    }
  }
  if (Fd < 0 || !pwriteAll(Fd, Envelope, Off)) {
    failStore();
    return;
  }
  std::lock_guard<std::mutex> Lock(M);
  if (!DiskDisabledFlag)
    DiskIndex[Key] = DiskLoc{NewSegment, Off, Envelope.size(), false,
                             StoredIn};
}

/// One write failure disables the layer for the rest of the run — a full
/// disk or revoked permission would otherwise fail identically for every
/// file, and a cache must never turn a sick filesystem into per-file
/// latency. The warning prints exactly once, on the transition. The
/// temporary is unlinked but stays open, so a store still writing to it
/// writes to no name.
void ResultCache::failStore() {
  bool WarnNow = false;
  {
    std::lock_guard<std::mutex> Lock(M);
    ++Counters.StoreErrors;
    WarnNow = !std::exchange(DiskDisabledFlag, true);
    if (WarnNow && !TmpPath.empty())
      ::unlink(TmpPath.c_str());
  }
  if (WarnNow)
    std::fprintf(stderr,
                 "rustsight: warning: cannot write result cache entry "
                 "under '%s'; disk cache layer disabled for the rest of "
                 "this run (in-memory layer unaffected)\n",
                 Opts.DiskDir.c_str());
}

void ResultCache::openDisk() {
  if (std::exchange(DiskOpened, true))
    return;
  DirListing L = scanDir(Opts.DiskDir);
  RunGeneration = Opts.Generation ? Opts.Generation : L.newestGeneration() + 1;
  // A writer that died unsealed left its stores in its temporary: they
  // join this run's generation.
  bool Recovered = false;
  for (const std::string &Name : L.Temporaries)
    Recovered |= recoverTemporary(Opts.DiskDir, Name, RunGeneration);
  if (Recovered)
    L = scanDir(Opts.DiskDir);

  size_t Generations = 0;
  for (size_t I = 0; I != L.Segments.size(); ++I) {
    const uint64_t Generation = L.Segments[I].Generation;
    if ((I == 0 || Generation != L.Segments[I - 1].Generation) &&
        ++Generations > GenerationWindow)
      break;
    const std::string Path =
        (fs::path(Opts.DiskDir) / L.Segments[I].Name).string();
    int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
    if (Fd < 0)
      continue; // Collected by a concurrent seal: gone, not corrupt.
    std::vector<IndexRecord> Records;
    const SegmentState State = loadIndex(Fd, Records);
    if (State != SegmentState::Loaded) {
      ::close(Fd);
      // A damaged segment stays damaged: count it once and drop it. One of
      // another format version leaves with the window.
      if (State == SegmentState::Damaged) {
        ++Counters.CorruptEntries;
        ::unlink(Path.c_str());
      }
      continue;
    }
    const uint32_t Seg = static_cast<uint32_t>(Segments.size());
    Segments.push_back({Generation, Fd});
    // Newest first, so the first segment to name a key wins.
    for (const IndexRecord &R : Records)
      DiskIndex.try_emplace(R.Key, DiskLoc{Seg, R.Off, R.Len, false});
  }
}

bool ResultCache::createTemporary() {
  static std::atomic<uint64_t> Sequence{0};
  std::error_code Ec;
  fs::create_directories(Opts.DiskDir, Ec);
  for (int Attempt = 0; Attempt != 4; ++Attempt) {
    const std::string Path =
        (fs::path(Opts.DiskDir) /
         (std::string(SegmentPrefix) + std::to_string(::getpid()) + "-" +
          std::to_string(Sequence++) + std::string(TemporarySuffix)))
            .string();
    int Fd = ::open(Path.c_str(), O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
    if (Fd < 0) {
      if (errno == EEXIST)
        continue;
      return false;
    }
    // A seal elsewhere may take the file for abandoned between the open
    // and the flock and delete it: keep it only if the name still leads
    // to it once locked.
    struct stat Mine, Named;
    if (::flock(Fd, LOCK_EX) == 0 && ::fstat(Fd, &Mine) == 0 &&
        ::stat(Path.c_str(), &Named) == 0 && Mine.st_ino == Named.st_ino &&
        Mine.st_dev == Named.st_dev) {
      TmpFd = Fd;
      TmpPath = Path;
      return true;
    }
    ::close(Fd);
  }
  return false;
}

/// Runs in the destructor: no other thread uses the cache any more.
void ResultCache::seal() {
  if (TmpFd < 0 || DiskDisabledFlag)
    return;
  if (fault::shouldFail("cache.disk.seal")) {
    failStore();
    return;
  }
  DirListing L = scanDir(Opts.DiskDir);

  // This seal's generation, then the older ones of the new window, newest
  // first. A run that started later and sealed first is joined, not
  // passed.
  std::vector<uint64_t> Window{std::max(RunGeneration, L.newestGeneration())};
  for (const DirListing::Sealed &S : L.Segments)
    if (S.Generation != Window.back() && Window.size() != GenerationWindow)
      Window.push_back(S.Generation);
  // An entry this instance read from a generation outside the newest
  // GenerationWindow - CopyForwardZone is copied forward.
  static_assert(CopyForwardZone < GenerationWindow);
  constexpr size_t Settled = GenerationWindow - CopyForwardZone;
  const uint64_t CopyBelow =
      Window.size() >= Settled ? Window[Settled - 1] : 0;
  std::string Batch;
  uint64_t BatchOff = TmpEnd;
  for (auto &[Key, Loc] : DiskIndex) {
    if (!Loc.Read || Loc.Seg == NewSegment ||
        Segments[Loc.Seg].Generation >= CopyBelow)
      continue;
    std::string Envelope(Loc.Len, '\0');
    if (!preadAll(Segments[Loc.Seg].Fd, Envelope.data(), Loc.Len, Loc.Off) ||
        !validEnvelope(Envelope, Key))
      continue;
    Loc = DiskLoc{NewSegment, TmpEnd, Loc.Len, false, 0};
    TmpEnd += Envelope.size();
    Batch += Envelope;
    if (Batch.size() >= CopyBatchBytes) {
      if (!pwriteAll(TmpFd, Batch, BatchOff)) {
        failStore();
        return;
      }
      Batch.clear();
      BatchOff = TmpEnd;
    }
  }

  std::vector<IndexRecord> Records;
  for (const auto &[Key, Loc] : DiskIndex)
    if (Loc.Seg == NewSegment)
      Records.push_back({Key, Loc.Off, Loc.Len});
  Batch += segmentTail(std::move(Records), TmpEnd);
  const fs::path Dir(Opts.DiskDir);
  if (!pwriteAll(TmpFd, Batch, BatchOff) ||
      ::rename(TmpPath.c_str(),
               segmentPath(Dir, Window.front(), TmpPath).c_str()) != 0) {
    failStore();
    return;
  }

  // Collect the segments of generations outside the new window and the
  // per-entry files of earlier releases.
  if (Window.size() == GenerationWindow)
    for (const DirListing::Sealed &S : L.Segments)
      if (S.Generation < Window.back())
        ::unlink((Dir / S.Name).string().c_str());
  for (const std::string &Name : L.Legacy)
    ::unlink((Dir / Name).string().c_str());
}

uint64_t ResultCache::generation() {
  std::lock_guard<std::mutex> Lock(M);
  if (Opts.DiskDir.empty())
    return 0;
  openDisk();
  return RunGeneration;
}

bool ResultCache::diskDisabled() const {
  std::lock_guard<std::mutex> Lock(M);
  return DiskDisabledFlag;
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
void ResultCache::insertMemory(uint64_t Key, std::string Payload,
                               uint64_t Epoch, uint64_t PromotedIn) {
  auto It = Index.find(Key);
  if (It != Index.end()) {
    It->second->Payload = std::move(Payload);
    It->second->Epoch = Epoch;
    It->second->PromotedIn = PromotedIn;
    Lru.splice(Lru.begin(), Lru, It->second);
    return;
  }
  Lru.push_front(MemoryEntry{Key, std::move(Payload), Epoch, PromotedIn});
  Index[Key] = Lru.begin();
  while (Opts.MaxMemoryEntries != 0 && Index.size() > Opts.MaxMemoryEntries) {
    Index.erase(Lru.back().Key);
    Lru.pop_back();
    ++Counters.Evictions;
  }
}
