#include "support/File.h"

#include <cerrno>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace rs;

ReadFileError rs::readFile(const std::string &Path, std::string &Out) {
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return ReadFileError::CannotOpen;
  struct stat St;
  if (::fstat(Fd, &St) != 0) {
    ::close(Fd);
    return ReadFileError::CannotOpen;
  }
  if (S_ISDIR(St.st_mode)) {
    ::close(Fd);
    return ReadFileError::IsDirectory;
  }
  size_t Hint = S_ISREG(St.st_mode) ? static_cast<size_t>(St.st_size) : 0;
  // Size the buffer from fstat, then read to EOF: a file that grew since
  // (or a pipe, which reports 0) still reads completely.
  Out.resize(Hint + 1);
  size_t Len = 0;
  for (;;) {
    if (Len == Out.size())
      Out.resize(Out.size() * 2);
    ssize_t N = ::read(Fd, Out.data() + Len, Out.size() - Len);
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0) {
      ::close(Fd);
      Out.clear();
      return ReadFileError::CannotOpen;
    }
    if (N == 0)
      break;
    Len += static_cast<size_t>(N);
  }
  ::close(Fd);
  Out.resize(Len);
  return ReadFileError::None;
}
