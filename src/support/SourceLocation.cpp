#include "support/SourceLocation.h"

#include <mutex>
#include <set>

using namespace rs;

static const std::string EmptyFileName;

const std::string &SourceLocation::file() const {
  return File ? *File : EmptyFileName;
}

const std::string *rs::internFileName(std::string_view Name) {
  // std::set never invalidates element addresses, so returned pointers stay
  // stable across later insertions; the mutex makes concurrent interning
  // from parallel per-file analysis tasks safe. The transparent comparator
  // finds a known name without building a std::string, so only a name's
  // first sight allocates.
  static std::mutex PoolMutex;
  static std::set<std::string, std::less<>> Pool; // No static constructor.
  std::lock_guard<std::mutex> Lock(PoolMutex);
  auto It = Pool.find(Name);
  if (It == Pool.end())
    It = Pool.emplace(Name).first;
  return &*It;
}

std::string SourceLocation::toString() const {
  std::string Out;
  if (File && !File->empty()) {
    Out += *File;
    Out += ':';
  }
  Out += std::to_string(Line);
  Out += ':';
  Out += std::to_string(Col);
  return Out;
}
