#include "support/Symbol.h"

#include "support/Hash.h"

#include <atomic>
#include <cassert>
#include <mutex>
#include <unordered_map>

using namespace rs;

namespace {

/// Sharded append-only interner. Lookups and inserts take one shard mutex;
/// id-to-string resolution is lock-free over chunked, atomically published
/// storage (strings are constructed before their id escapes the shard
/// mutex, so any thread holding an id reads a fully built entry).
class InternerImpl {
public:
  static constexpr uint32_t ShardBits = 4;
  static constexpr uint32_t NumShards = 1u << ShardBits;
  static constexpr uint32_t ChunkSize = 4096;
  static constexpr uint32_t MaxChunks = 16384; ///< ~64M symbols per shard.

  uint32_t intern(std::string_view S) {
    if (S.empty())
      return 0;
    uint32_t ShardIdx =
        static_cast<uint32_t>(fnv1a64(S)) & (NumShards - 1);
    Shard &Sh = Shards[ShardIdx];
    std::lock_guard<std::mutex> Lock(Sh.Mu);
    auto It = Sh.Map.find(S);
    if (It != Sh.Map.end())
      return It->second;
    uint32_t Local = Sh.Count;
    uint32_t Chunk = Local / ChunkSize;
    assert(Chunk < MaxChunks && "interner shard exhausted");
    if (Sh.Chunks[Chunk].load(std::memory_order_acquire) == nullptr)
      Sh.Chunks[Chunk].store(new std::string[ChunkSize],
                             std::memory_order_release);
    std::string *Slot =
        Sh.Chunks[Chunk].load(std::memory_order_acquire) + Local % ChunkSize;
    *Slot = std::string(S);
    uint32_t Id = ((Local << ShardBits) | ShardIdx) + 1;
    Sh.Map.emplace(std::string_view(*Slot), Id);
    ++Sh.Count;
    Total.fetch_add(1, std::memory_order_relaxed);
    return Id;
  }

  const std::string &str(uint32_t Id) const {
    if (Id == 0)
      return Empty;
    uint32_t Raw = Id - 1;
    const Shard &Sh = Shards[Raw & (NumShards - 1)];
    uint32_t Local = Raw >> ShardBits;
    const std::string *Chunk =
        Sh.Chunks[Local / ChunkSize].load(std::memory_order_acquire);
    assert(Chunk && "symbol id from a different process?");
    return Chunk[Local % ChunkSize];
  }

  uint32_t size() const {
    return Total.load(std::memory_order_relaxed) + 1; // + the empty symbol.
  }

private:
  struct Shard {
    std::mutex Mu;
    std::unordered_map<std::string_view, uint32_t> Map;
    std::atomic<std::string *> Chunks[MaxChunks] = {};
    uint32_t Count = 0; ///< Guarded by Mu.
  };

  Shard Shards[NumShards];
  std::atomic<uint32_t> Total{0};
  std::string Empty;
};

InternerImpl &interner() {
  // Leaked intentionally: symbols must stay resolvable during static
  // destruction (diagnostics built at exit).
  static InternerImpl *I = new InternerImpl();
  return *I;
}

} // namespace

Symbol Symbol::intern(std::string_view S) { return Symbol(interner().intern(S)); }

const std::string &Symbol::str() const { return interner().str(Id); }

std::string_view Symbol::view() const { return interner().str(Id); }

uint32_t Symbol::poolSize() { return interner().size(); }

Symbol SymbolCache::intern(std::string_view S) {
  if (S.empty())
    return Symbol();
  uint32_t H = static_cast<uint32_t>(
      wordFoldFinish(wordFoldBytes(wordFoldSeed(S.size()), S)));
  for (unsigned I = H;; ++I) {
    Slot &E = Slots[I % NumSlots];
    if (E.Key.empty()) {
      Symbol Sym = Symbol::intern(S);
      if (4 * (Used + 1) <= 3 * NumSlots) {
        E.Key = Sym.view();
        E.Hash = H;
        E.Sym = Sym;
        ++Used;
      }
      return Sym;
    }
    if (E.Hash == H && E.Key == S)
      return E.Sym;
  }
}
