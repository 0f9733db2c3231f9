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
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_SUPPORT_FILE_H
#define RUSTSIGHT_SUPPORT_FILE_H

#include <string>

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

} // namespace rs

#endif // RUSTSIGHT_SUPPORT_FILE_H
