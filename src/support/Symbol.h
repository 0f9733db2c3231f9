//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-global, thread-safe string interner and its 4-byte handle,
/// Symbol. The MIR layer stores every recurring name — function paths,
/// call targets, aggregate names, struct/static names, debug names — as a
/// Symbol, so nodes carry a u32 instead of a std::string, copies are
/// trivial, and equality is an integer compare.
///
/// Design rules:
///  - Interning is explicit (Symbol::intern); there is no implicit
///    string-to-Symbol conversion, so accidental interning in hot loops is
///    visible at the call site.
///  - Symbols convert implicitly *to* strings (const std::string & and
///    std::string_view), so the bulk of the string-consuming code keeps
///    compiling unchanged.
///  - Symbol deliberately has no operator<. Ids are assigned in interning
///    order, which under the parallel engine depends on thread scheduling;
///    ordering by id would leak that nondeterminism into output. Order by
///    .view() (the string) where order matters, and never iterate a
///    Symbol-keyed unordered container into user-visible output.
///  - Storage is append-only and chunked: str()/view() return references
///    that stay valid for the life of the process, with no lock on the
///    read path.
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_SUPPORT_SYMBOL_H
#define RUSTSIGHT_SUPPORT_SYMBOL_H

#include <cstdint>
#include <iosfwd>
#include <functional>
#include <string>
#include <string_view>

namespace rs {

class Symbol {
public:
  /// The interner's encoding version. Persisted formats that embed interner
  /// state (the MIR snapshot header) record this and reject skew.
  static constexpr uint32_t EpochVersion = 1;

  /// The empty symbol: id 0, spelling "".
  constexpr Symbol() = default;

  /// Interns \p S (or finds it) and returns its symbol. Thread-safe.
  static Symbol intern(std::string_view S);

  /// The interned spelling. Stable for the life of the process.
  const std::string &str() const;
  std::string_view view() const;
  const char *c_str() const { return str().c_str(); }

  bool empty() const { return Id == 0; }
  size_t size() const { return str().size(); }
  uint32_t id() const { return Id; }

  /// Total number of live interned symbols (the empty symbol included).
  /// Monotone; used by tests and the snapshot writer's header.
  static uint32_t poolSize();

  operator const std::string &() const { return str(); }
  operator std::string_view() const { return view(); }

  friend bool operator==(Symbol A, Symbol B) { return A.Id == B.Id; }
  friend bool operator!=(Symbol A, Symbol B) { return A.Id != B.Id; }
  friend bool operator==(Symbol A, std::string_view B) {
    return A.view() == B;
  }
  friend bool operator==(std::string_view A, Symbol B) {
    return A == B.view();
  }
  friend bool operator!=(Symbol A, std::string_view B) {
    return A.view() != B;
  }
  friend bool operator!=(std::string_view A, Symbol B) {
    return A != B.view();
  }

  /// Streams the spelling (gtest failure messages, debug dumps).
  template <typename OStream>
  friend OStream &operator<<(OStream &OS, Symbol S) {
    OS << S.view();
    return OS;
  }

private:
  explicit constexpr Symbol(uint32_t Id) : Id(Id) {}

  uint32_t Id = 0;
};

/// A memo in front of Symbol::intern for one owner, such as a parser: a
/// fixed open-addressing table, so a name the owner has seen before costs
/// a hash and a compare and takes no shard lock. Once the table is three
/// quarters full, new names go straight to the global interner. Not
/// thread-safe.
class SymbolCache {
public:
  Symbol intern(std::string_view S);

private:
  static constexpr unsigned NumSlots = 256;
  struct Slot {
    std::string_view Key; ///< The interned spelling; empty when unused.
    uint32_t Hash = 0;
    Symbol Sym;
  };
  Slot Slots[NumSlots];
  unsigned Used = 0;
};

} // namespace rs

namespace std {
template <> struct hash<rs::Symbol> {
  size_t operator()(rs::Symbol S) const noexcept {
    // Ids are dense and per-run; fine for containers, never for output
    // order (see the header comment).
    return std::hash<uint32_t>()(S.id());
  }
};
} // namespace std

#endif // RUSTSIGHT_SUPPORT_SYMBOL_H
