//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Maps file names to source buffers so the text renderer can show
/// caret/underline code snippets under diagnostics. Buffers are either
/// registered in-memory (editor buffers, tests) or lazily loaded from disk
/// the first time a snippet for that file is requested; an unreadable file
/// simply yields no snippet — rendering never fails.
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_DIAG_SOURCEMANAGER_H
#define RUSTSIGHT_DIAG_SOURCEMANAGER_H

#include <map>
#include <string>
#include <string_view>

namespace rs::diag {

class SourceManager {
public:
  /// Registers an in-memory buffer for \p Name, replacing any previous one.
  void addBuffer(std::string Name, std::string Content);

  /// Drops the entry for \p Name — a registered overlay buffer or a cached
  /// disk probe (successful or failed) — so the next request re-probes the
  /// filesystem. The serve daemon calls this on didClose to fall back from
  /// the virtual document to the on-disk file.
  void removeBuffer(const std::string &Name);

  /// True when an entry (in-memory or loaded from disk) is resident for
  /// \p Name. Never touches the filesystem.
  bool hasBuffer(const std::string &Name) const;

  /// The buffer registered or loaded for \p Name, or nullptr. The first
  /// call for an unknown name tries the filesystem once; failures are
  /// remembered so a missing file is probed only once.
  const std::string *buffer(const std::string &Name) const;

  /// 1-based line \p LineNo of \p Name without its trailing newline, or
  /// nullopt-like empty view with Found=false when the file or line is
  /// unavailable.
  std::string_view line(const std::string &Name, unsigned LineNo,
                        bool &Found) const;

private:
  /// Name -> content; an entry with Loaded=false marks a failed disk probe.
  struct Entry {
    std::string Content;
    bool Loaded = false;
  };
  mutable std::map<std::string, Entry, std::less<>> Buffers;
};

} // namespace rs::diag

#endif // RUSTSIGHT_DIAG_SOURCEMANAGER_H
