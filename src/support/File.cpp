#include "support/File.h"

#include "support/Hash.h"

#include <cerrno>
#include <filesystem>
#include <thread>

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

bool rs::writeFileAtomic(const std::string &Path, std::string_view Bytes) {
  namespace fs = std::filesystem;
  const std::string Tmp =
      Path + ".tmp." + std::to_string(::getpid()) + "." +
      hashToHex(std::hash<std::thread::id>()(std::this_thread::get_id()));
  auto Open = [&] {
    return ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  };
  int Fd = Open();
  const fs::path Parent = fs::path(Path).parent_path();
  if (Fd < 0 && errno == ENOENT && !Parent.empty()) {
    std::error_code Ec;
    fs::create_directories(Parent, Ec);
    Fd = Open();
  }
  if (Fd < 0)
    return false;
  bool Ok = true;
  for (size_t Done = 0; Ok && Done != Bytes.size();) {
    ssize_t N = ::write(Fd, Bytes.data() + Done, Bytes.size() - Done);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      Ok = false;
    else
      Done += static_cast<size_t>(N);
  }
  Ok = ::close(Fd) == 0 && Ok;
  if (!Ok || ::rename(Tmp.c_str(), Path.c_str()) != 0) {
    ::unlink(Tmp.c_str());
    return false;
  }
  return true;
}
