//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-file reads. readFile() is the one the result cache and the
/// engine use: one open, one fstat and read() straight into the result.
///
/// MappedFile is a read-only memory mapping of a file. Nothing maps today:
/// cache blobs are a few KiB, where one read() is cheaper than a mapping's
/// page faults and its munmap. Mapping is strictly an optimization: every
/// caller must keep a buffered read path for when open() returns nullopt
/// (file vanished, mmap refused, zero-length file, exotic filesystem). The
/// view is valid only while the MappedFile is alive; callers that outlive
/// the mapping must copy.
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_SUPPORT_MMAP_H
#define RUSTSIGHT_SUPPORT_MMAP_H

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace rs {

class MappedFile {
public:
  MappedFile() = default;
  MappedFile(MappedFile &&O) noexcept : Data(O.Data), Size(O.Size) {
    O.Data = nullptr;
    O.Size = 0;
  }
  MappedFile &operator=(MappedFile &&O) noexcept {
    if (this != &O) {
      unmap();
      Data = O.Data;
      Size = O.Size;
      O.Data = nullptr;
      O.Size = 0;
    }
    return *this;
  }
  MappedFile(const MappedFile &) = delete;
  MappedFile &operator=(const MappedFile &) = delete;
  ~MappedFile() { unmap(); }

  /// Maps \p Path read-only. Returns nullopt on any failure — open, stat,
  /// mmap, or a zero-length file (mmap of length 0 is EINVAL; an empty
  /// view carries no information a caller could not get from the
  /// fallback). Fault-injection probe site: "support.mmap".
  static std::optional<MappedFile> open(const std::string &Path);

  /// True while a mapping is held.
  explicit operator bool() const { return Data != nullptr; }

  /// The mapped bytes. Empty when no mapping is held.
  std::string_view view() const { return {Data, Size}; }

private:
  void unmap();

  const char *Data = nullptr;
  size_t Size = 0;
};

/// Why readFile() produced no bytes.
enum class ReadFileError {
  None,
  CannotOpen,  ///< Missing, unreadable, or a read failed midway.
  IsDirectory, ///< The path names a directory.
};

/// Reads all of \p Path into \p Out with plain open/fstat/read calls.
/// Non-regular files (pipes) are read to EOF.
ReadFileError readFile(const std::string &Path, std::string &Out);

} // namespace rs

#endif // RUSTSIGHT_SUPPORT_MMAP_H
