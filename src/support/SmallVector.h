//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A vector with inline storage for the first N elements. The MIR layer
/// stores per-node sequences — place projections, rvalue operands, call
/// arguments, switch cases — in SmallVectors sized for the common case, so
/// building and copying a typical statement performs zero heap
/// allocations (the old std::vector members allocated once per node).
///
/// The API is the std::vector subset the codebase uses; iteration is over
/// plain pointers. Unlike std::vector, moving a SmallVector whose elements
/// are inline moves element-by-element (still allocation-free).
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_SUPPORT_SMALLVECTOR_H
#define RUSTSIGHT_SUPPORT_SMALLVECTOR_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <new>
#include <utility>

namespace rs {

template <typename T, unsigned N> class SmallVector {
public:
  using value_type = T;
  using iterator = T *;
  using const_iterator = const T *;

  SmallVector() = default;

  SmallVector(std::initializer_list<T> Init) {
    reserve(Init.size());
    for (const T &V : Init)
      push_back(V);
  }

  SmallVector(const SmallVector &Other) { append(Other); }

  SmallVector(SmallVector &&Other) noexcept { takeFrom(Other); }

  SmallVector &operator=(const SmallVector &Other) {
    if (this == &Other)
      return *this;
    clear();
    append(Other);
    return *this;
  }

  SmallVector &operator=(SmallVector &&Other) noexcept {
    if (this == &Other)
      return *this;
    destroyAll();
    takeFrom(Other);
    return *this;
  }

  ~SmallVector() { destroyAll(); }

  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }
  size_t capacity() const { return Cap; }

  T *data() { return Data; }
  const T *data() const { return Data; }

  iterator begin() { return Data; }
  iterator end() { return Data + Size; }
  const_iterator begin() const { return Data; }
  const_iterator end() const { return Data + Size; }

  T &operator[](size_t I) {
    assert(I < Size);
    return Data[I];
  }
  const T &operator[](size_t I) const {
    assert(I < Size);
    return Data[I];
  }

  T &front() { return (*this)[0]; }
  const T &front() const { return (*this)[0]; }
  T &back() { return (*this)[Size - 1]; }
  const T &back() const { return (*this)[Size - 1]; }

  void reserve(size_t NewCap) {
    if (NewCap > Cap)
      grow(NewCap);
  }

  void push_back(const T &V) {
    if (Size == Cap)
      grow(Cap * 2);
    new (Data + Size) T(V);
    ++Size;
  }

  void push_back(T &&V) {
    if (Size == Cap)
      grow(Cap * 2);
    new (Data + Size) T(std::move(V));
    ++Size;
  }

  template <typename... Args> T &emplace_back(Args &&...A) {
    if (Size == Cap)
      grow(Cap * 2);
    T *P = new (Data + Size) T(std::forward<Args>(A)...);
    ++Size;
    return *P;
  }

  void pop_back() {
    assert(Size != 0);
    --Size;
    Data[Size].~T();
  }

  void clear() {
    for (size_t I = 0; I != Size; ++I)
      Data[I].~T();
    Size = 0;
  }

  void resize(size_t NewSize) {
    if (NewSize < Size) {
      for (size_t I = NewSize; I != Size; ++I)
        Data[I].~T();
      Size = static_cast<uint32_t>(NewSize);
      return;
    }
    reserve(NewSize);
    for (size_t I = Size; I != NewSize; ++I)
      new (Data + I) T();
    Size = static_cast<uint32_t>(NewSize);
  }

  iterator erase(const_iterator Pos) {
    size_t I = static_cast<size_t>(Pos - Data);
    assert(I < Size);
    for (size_t J = I; J + 1 < Size; ++J)
      Data[J] = std::move(Data[J + 1]);
    pop_back();
    return Data + I;
  }

  iterator erase(const_iterator First, const_iterator Last) {
    size_t B = static_cast<size_t>(First - Data);
    size_t E = static_cast<size_t>(Last - Data);
    assert(B <= E && E <= Size);
    size_t Removed = E - B;
    for (size_t J = B; J + Removed < Size; ++J)
      Data[J] = std::move(Data[J + Removed]);
    resize(Size - Removed);
    return Data + B;
  }

  iterator insert(const_iterator Pos, T V) {
    size_t I = static_cast<size_t>(Pos - Data);
    assert(I <= Size);
    if (Size == Cap)
      grow(Cap * 2);
    new (Data + Size) T();
    ++Size;
    for (size_t J = Size - 1; J > I; --J)
      Data[J] = std::move(Data[J - 1]);
    Data[I] = std::move(V);
    return Data + I;
  }

  friend bool operator==(const SmallVector &A, const SmallVector &B) {
    return A.Size == B.Size && std::equal(A.begin(), A.end(), B.begin());
  }
  friend bool operator!=(const SmallVector &A, const SmallVector &B) {
    return !(A == B);
  }

  /// True while elements still live in the inline buffer (observability
  /// for tests and allocation-count assertions; not part of the value).
  bool isInline() const {
    return Data == reinterpret_cast<const T *>(Inline);
  }

private:
  void grow(size_t NewCap) {
    NewCap = std::max<size_t>(NewCap, N ? 2 * N : 4);
    T *NewData = static_cast<T *>(::operator new(NewCap * sizeof(T)));
    for (size_t I = 0; I != Size; ++I) {
      new (NewData + I) T(std::move(Data[I]));
      Data[I].~T();
    }
    if (!isInline())
      ::operator delete(Data);
    Data = NewData;
    Cap = static_cast<uint32_t>(NewCap);
  }

  void append(const SmallVector &Other) {
    reserve(Other.Size);
    for (size_t I = 0; I != Other.Size; ++I)
      push_back(Other.Data[I]);
  }

  /// Move-construct from \p Other, leaving it empty. *this must be empty
  /// (or destroyed): called from move construction/assignment only.
  void takeFrom(SmallVector &Other) noexcept {
    if (Other.isInline()) {
      Data = reinterpret_cast<T *>(Inline);
      Cap = N;
      Size = Other.Size;
      for (size_t I = 0; I != Size; ++I) {
        new (Data + I) T(std::move(Other.Data[I]));
        Other.Data[I].~T();
      }
      Other.Size = 0;
      return;
    }
    Data = Other.Data;
    Size = Other.Size;
    Cap = Other.Cap;
    Other.Data = reinterpret_cast<T *>(Other.Inline);
    Other.Size = 0;
    Other.Cap = N;
  }

  void destroyAll() {
    clear();
    if (!isInline())
      ::operator delete(Data);
  }

  alignas(T) unsigned char Inline[N * sizeof(T)];
  T *Data = reinterpret_cast<T *>(Inline);
  // 32-bit counts: MIR nodes hold several SmallVectors each.
  uint32_t Size = 0;
  uint32_t Cap = N;
};

} // namespace rs

#endif // RUSTSIGHT_SUPPORT_SMALLVECTOR_H
