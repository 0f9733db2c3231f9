//===----------------------------------------------------------------------===//
//
// Heap-allocation counting for the bench binaries: every replaceable global
// operator new bumps one counter. The replacements are definitions, so
// include this header from exactly one translation unit of a binary.
//
// Counts are deterministic for a fixed input and standard library, which is
// what lets CI compare them against a committed record.
//
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_BENCH_ALLOCCOUNTER_H
#define RUSTSIGHT_BENCH_ALLOCCOUNTER_H

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace rs::bench {

inline std::atomic<uint64_t> Allocations{0};

/// Heap allocations made so far by this process.
inline uint64_t allocations() {
  return Allocations.load(std::memory_order_relaxed);
}

inline void *countedAlloc(std::size_t Size) {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

inline void *countedAlignedAlloc(std::size_t Size, std::align_val_t Align) {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t A = static_cast<std::size_t>(Align);
  std::size_t Rounded = (Size + A - 1) / A * A;
  if (void *P = std::aligned_alloc(A, Rounded ? Rounded : A))
    return P;
  throw std::bad_alloc();
}

} // namespace rs::bench

void *operator new(std::size_t Size) { return rs::bench::countedAlloc(Size); }
void *operator new[](std::size_t Size) {
  return rs::bench::countedAlloc(Size);
}
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  try {
    return rs::bench::countedAlloc(Size);
  } catch (...) {
    return nullptr;
  }
}
void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  try {
    return rs::bench::countedAlloc(Size);
  } catch (...) {
    return nullptr;
  }
}
void *operator new(std::size_t Size, std::align_val_t Align) {
  return rs::bench::countedAlignedAlloc(Size, Align);
}
void *operator new[](std::size_t Size, std::align_val_t Align) {
  return rs::bench::countedAlignedAlloc(Size, Align);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}

#endif // RUSTSIGHT_BENCH_ALLOCCOUNTER_H
