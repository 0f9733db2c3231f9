//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size bit vector used as the dataflow lattice element. All dataflow
/// facts in RustSight (live locals, initialized locals, points-to sets) are
/// sets of small dense integers.
///
/// A BitVec keeps its words in a SmallVector with one inline word, so sets
/// of at most 64 bits (the object sets of most functions) never touch the
/// heap. Larger ones own one heap buffer, which assignment reuses whenever
/// it is big enough.
/// BitSpan and BitRef are read-only and mutable views of bits stored
/// elsewhere (a dataflow arena), and the rs::words helpers operate on word
/// ranges, so callers that lay out several sets on a 64-bit-aligned stride
/// (the memory analysis's points-to rows) combine whole rows a word at a
/// time.
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_SUPPORT_BITVEC_H
#define RUSTSIGHT_SUPPORT_BITVEC_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "support/SmallVector.h"

namespace rs {

/// Word-range helpers: every range is \p N words long.
namespace words {

inline size_t forBits(size_t Bits) { return (Bits + 63) / 64; }

inline void clear(uint64_t *Dst, size_t N) {
  if (N)
    std::memset(Dst, 0, N * sizeof(uint64_t));
}

inline void copy(uint64_t *Dst, const uint64_t *Src, size_t N) {
  if (N)
    std::memmove(Dst, Src, N * sizeof(uint64_t));
}

/// Dst |= Src.
inline void orInto(uint64_t *Dst, const uint64_t *Src, size_t N) {
  for (size_t I = 0; I != N; ++I)
    Dst[I] |= Src[I];
}

/// Dst &= ~Src.
inline void andNotInto(uint64_t *Dst, const uint64_t *Src, size_t N) {
  for (size_t I = 0; I != N; ++I)
    Dst[I] &= ~Src[I];
}

inline bool any(const uint64_t *W, size_t N) {
  for (size_t I = 0; I != N; ++I)
    if (W[I])
      return true;
  return false;
}

inline size_t count(const uint64_t *W, size_t N) {
  size_t C = 0;
  for (size_t I = 0; I != N; ++I)
    C += static_cast<size_t>(__builtin_popcountll(W[I]));
  return C;
}

inline bool equal(const uint64_t *A, const uint64_t *B, size_t N) {
  return N == 0 || std::memcmp(A, B, N * sizeof(uint64_t)) == 0;
}

/// Calls \p F with each set bit index in increasing order.
template <typename Fn> void forEach(const uint64_t *W, size_t N, Fn F) {
  for (size_t WI = 0; WI != N; ++WI) {
    uint64_t X = W[WI];
    while (X) {
      unsigned Bit = static_cast<unsigned>(__builtin_ctzll(X));
      F(WI * 64 + Bit);
      X &= X - 1;
    }
  }
}

} // namespace words

/// A read-only view of \p NumBits bits stored in someone else's words.
class BitSpan {
public:
  BitSpan() = default;
  BitSpan(const uint64_t *Words, size_t NumBits)
      : Words(Words), NumBits(NumBits) {}

  size_t size() const { return NumBits; }
  size_t numWords() const { return words::forBits(NumBits); }
  const uint64_t *words() const { return Words; }

  bool test(size_t I) const {
    assert(I < NumBits && "bit index out of range");
    return (Words[I / 64] >> (I % 64)) & 1;
  }

private:
  const uint64_t *Words = nullptr;
  size_t NumBits = 0;
};

/// A set of integers in [0, size()). Sized at construction; all set
/// operations require equal sizes.
class BitVec {
public:
  BitVec() = default;
  explicit BitVec(size_t NumBits, bool InitialValue = false)
      : NumBits(NumBits) {
    Words.resize(numWords());
    std::memset(words(), InitialValue ? 0xff : 0,
                numWords() * sizeof(uint64_t));
    clearPadding();
  }
  /// Copies a view (e.g. a dataflow state kept in an arena).
  BitVec(BitSpan S) { assign(S); }

  size_t size() const { return NumBits; }
  size_t numWords() const { return words::forBits(NumBits); }
  uint64_t *words() { return Words.data(); }
  const uint64_t *words() const { return Words.data(); }

  operator BitSpan() const { return BitSpan(words(), NumBits); }

  /// Copies \p S (size included), reusing the storage when it is large
  /// enough.
  void assign(BitSpan S) {
    NumBits = S.size();
    Words.resize(S.numWords());
    words::copy(words(), S.words(), S.numWords());
  }

  bool test(size_t I) const {
    assert(I < NumBits && "bit index out of range");
    return (words()[I / 64] >> (I % 64)) & 1;
  }

  void set(size_t I) {
    assert(I < NumBits && "bit index out of range");
    words()[I / 64] |= uint64_t(1) << (I % 64);
  }

  void reset(size_t I) {
    assert(I < NumBits && "bit index out of range");
    words()[I / 64] &= ~(uint64_t(1) << (I % 64));
  }

  void clear() { words::clear(words(), numWords()); }

  /// Set-union with \p Other. Returns true if this changed.
  bool unionWith(BitSpan Other) {
    assert(NumBits == Other.size() && "size mismatch");
    uint64_t *W = words();
    const uint64_t *O = Other.words();
    bool Changed = false;
    for (size_t I = 0, N = numWords(); I != N; ++I) {
      uint64_t New = W[I] | O[I];
      Changed |= New != W[I];
      W[I] = New;
    }
    return Changed;
  }

  /// Set-intersection with \p Other. Returns true if this changed.
  bool intersectWith(BitSpan Other) {
    assert(NumBits == Other.size() && "size mismatch");
    uint64_t *W = words();
    const uint64_t *O = Other.words();
    bool Changed = false;
    for (size_t I = 0, N = numWords(); I != N; ++I) {
      uint64_t New = W[I] & O[I];
      Changed |= New != W[I];
      W[I] = New;
    }
    return Changed;
  }

  /// Removes every element of \p Other from this set.
  void subtract(BitSpan Other) {
    assert(NumBits == Other.size() && "size mismatch");
    words::andNotInto(words(), Other.words(), numWords());
  }

  bool any() const { return words::any(words(), numWords()); }
  bool none() const { return !any(); }
  size_t count() const { return words::count(words(), numWords()); }

  /// Calls \p F with each set bit index in increasing order.
  template <typename Fn> void forEach(Fn F) const {
    words::forEach(words(), numWords(), F);
  }

private:
  /// Keeps bits past NumBits zero so count()/operator== stay exact.
  void clearPadding() {
    if (NumBits % 64 != 0 && NumBits != 0)
      words()[numWords() - 1] &= (uint64_t(1) << (NumBits % 64)) - 1;
  }

  size_t NumBits = 0;
  SmallVector<uint64_t, 1> Words; ///< One inline word, so sets of at most
                                  ///< 64 bits never touch the heap.
};

/// A mutable view of \p NumBits bits stored in someone else's words: a
/// dataflow state in an arena, or a BitVec. Transfer functions take one, so
/// the solver applies them in place in its arena.
class BitRef {
public:
  BitRef(uint64_t *Words, size_t NumBits) : Words(Words), NumBits(NumBits) {}
  BitRef(BitVec &V) : Words(V.words()), NumBits(V.size()) {}

  size_t size() const { return NumBits; }
  size_t numWords() const { return words::forBits(NumBits); }
  uint64_t *words() const { return Words; }
  operator BitSpan() const { return BitSpan(Words, NumBits); }

  bool test(size_t I) const {
    assert(I < NumBits && "bit index out of range");
    return (Words[I / 64] >> (I % 64)) & 1;
  }
  void set(size_t I) const {
    assert(I < NumBits && "bit index out of range");
    Words[I / 64] |= uint64_t(1) << (I % 64);
  }
  void reset(size_t I) const {
    assert(I < NumBits && "bit index out of range");
    Words[I / 64] &= ~(uint64_t(1) << (I % 64));
  }

private:
  uint64_t *Words;
  size_t NumBits;
};

/// Equal sizes and equal bits; compares BitVecs and views alike.
inline bool operator==(BitSpan A, BitSpan B) {
  return A.size() == B.size() &&
         words::equal(A.words(), B.words(), A.numWords());
}

} // namespace rs

#endif // RUSTSIGHT_SUPPORT_BITVEC_H
