//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stable 64-bit content hashing for the result cache's content-addressed
/// fingerprints: byte-wise FNV-1a, and a word fold that takes eight bytes
/// per multiply. Both are fixed forever: cache entries written by one build
/// must be readable by the next, so changing an algorithm requires bumping
/// the cache format version instead.
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_SUPPORT_HASH_H
#define RUSTSIGHT_SUPPORT_HASH_H

#include <cstdint>
#include <cstring>
#include <string_view>

namespace rs {

inline constexpr uint64_t Fnv1a64OffsetBasis = 14695981039346656037ull;
inline constexpr uint64_t Fnv1a64Prime = 1099511628211ull;

/// FNV-1a over \p Bytes, continuing from \p Seed. Chain calls to hash
/// multi-part inputs: fnv1a64(B, fnv1a64(A)) != fnv1a64(A + B) only in that
/// the former is exactly the hash of the concatenation — parts hash the
/// same as the joined string, so include explicit separators when the
/// split points matter.
constexpr uint64_t fnv1a64(std::string_view Bytes,
                           uint64_t Seed = Fnv1a64OffsetBasis) {
  uint64_t H = Seed;
  for (char C : Bytes) {
    H ^= static_cast<unsigned char>(C);
    H *= Fnv1a64Prime;
  }
  return H;
}

/// Folds the 8 bytes of \p Value into \p Seed (little-endian byte order,
/// explicitly, so the result is identical across hosts).
constexpr uint64_t fnv1a64U64(uint64_t Value,
                              uint64_t Seed = Fnv1a64OffsetBasis) {
  uint64_t H = Seed;
  for (int I = 0; I != 8; ++I) {
    H ^= (Value >> (8 * I)) & 0xff;
    H *= Fnv1a64Prime;
  }
  return H;
}

/// The word fold's odd multiplier (2^64 divided by the golden ratio).
inline constexpr uint64_t WordFoldMul = 0x9e3779b97f4a7c15ull;

/// The word fold's starting state for an input of \p Len bytes.
constexpr uint64_t wordFoldSeed(uint64_t Len) {
  return Fnv1a64OffsetBasis ^ (Len * WordFoldMul);
}

/// One word-fold step, one multiply per word: (H ^ W) * odd constant is a
/// bijection of H, so any single changed word changes every later state.
constexpr uint64_t wordFold(uint64_t H, uint64_t W) {
  return (H ^ W) * WordFoldMul;
}

/// Folds \p Bytes into \p H eight bytes per word, read in host byte order;
/// a partial tail word is zero-padded and folded only when there is one.
inline uint64_t wordFoldBytes(uint64_t H, std::string_view Bytes) {
  size_t I = 0;
  for (; I + 8 <= Bytes.size(); I += 8) {
    uint64_t W;
    std::memcpy(&W, Bytes.data() + I, 8);
    H = wordFold(H, W);
  }
  if (I < Bytes.size()) {
    uint64_t W = 0;
    std::memcpy(&W, Bytes.data() + I, Bytes.size() - I);
    H = wordFold(H, W);
  }
  return H;
}

/// The word fold's finalizer: mixes the high bits, which every multiply
/// feeds, back down into the low ones.
constexpr uint64_t wordFoldFinish(uint64_t H) {
  H ^= H >> 32;
  H *= WordFoldMul;
  H ^= H >> 29;
  return H;
}

/// Renders a hash as fixed-width lowercase hex (16 digits) — the stable
/// on-disk spelling of cache keys.
std::string hashToHex(uint64_t H);

/// Parses the hashToHex spelling back; returns false on malformed input.
bool hexToHash(std::string_view Hex, uint64_t &Out);

/// Renders bytes as lowercase hex, two digits a byte: how a binary payload
/// rides in a JSON string (worker frames, the checkpoint journal).
std::string bytesToHex(std::string_view Bytes);

/// Parses the bytesToHex spelling back; returns false on an odd length or
/// a character that is not a lowercase hex digit.
bool hexToBytes(std::string_view Hex, std::string &Out);

} // namespace rs

#endif // RUSTSIGHT_SUPPORT_HASH_H
