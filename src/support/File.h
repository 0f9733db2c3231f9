//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-file reads and writes. readFile() is the one the engine and the
/// checkpoint journal use: one open, one fstat and read() straight into the
/// result. writeFileAtomic() is the checkpoint journal's write: readers
/// never see a torn file.
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_SUPPORT_FILE_H
#define RUSTSIGHT_SUPPORT_FILE_H

#include <string>
#include <string_view>

namespace rs {

/// Why readFile() produced no bytes.
enum class ReadFileError {
  None,
  CannotOpen,  ///< Missing, unreadable, or a read failed midway.
  IsDirectory, ///< The path names a directory.
};

/// Reads all of \p Path into \p Out with plain open/fstat/read calls.
/// Non-regular files (pipes) are read to EOF.
ReadFileError readFile(const std::string &Path, std::string &Out);

/// Writes \p Bytes to a temporary file beside \p Path, named by pid and
/// thread, then renames it into place, creating missing parent
/// directories. Concurrent writers of one path race benignly: the last
/// rename wins with a whole file. Returns false on any failure, with the
/// temporary removed.
bool writeFileAtomic(const std::string &Path, std::string_view Bytes);

} // namespace rs

#endif // RUSTSIGHT_SUPPORT_FILE_H
