//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic corpus enumeration: expands a mixed list of files and
/// directories into the exact, ordered list of analysis inputs the engine
/// will process. The expansion is pure — no parsing, no IO beyond the
/// directory walk — so the parallel scheduler can size its task list (and
/// the report its slot vector) before any analysis starts, and serial and
/// parallel runs see byte-identical input orderings.
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_CORPUS_CORPUSWALK_H
#define RUSTSIGHT_CORPUS_CORPUSWALK_H

#include <optional>
#include <string>
#include <vector>

namespace rs::corpus {

/// One analysis input. When SkipReason is nonempty the entry is a
/// placeholder the engine must report as skipped without touching the
/// path again (e.g. a directory that contained no .mir files). A Source
/// is the input's content held in memory (an editor buffer): the engine
/// analyzes it under Path instead of reading the file.
struct CorpusInput {
  std::string Path;
  std::string SkipReason;
  std::optional<std::string> Source = std::nullopt;
};

/// Expands \p Paths in order: a file maps to itself; a directory maps to
/// every .mir file under it, recursively, sorted by the corpus sort key
/// below; an empty directory maps to one skipped placeholder. Unreadable
/// paths pass through as plain files so the engine reports them with its
/// usual "cannot open file" status.
///
/// THE corpus ordering. The returned vector's order is load-bearing far
/// beyond display: the whole-program linker derives module indices (and
/// so link keys and digests) from it, the shard partitioner cuts it into
/// contiguous ranges, and the supervisor's ordinal merge reassembles
/// worker results by position in it. All three consume this one ordering,
/// which is why `--shards N` and in-process runs are byte-identical.
///
/// Sort key, exactly: within each expanded directory, the full path
/// spelling (directory argument as given + native separators + relative
/// path), compared as raw unsigned bytes (memcmp order — what
/// std::string's operator< does). No locale, no case folding, no numeric
/// collation, no depth-first tiebreak: "a-x/f.mir" < "a/f.mir" because
/// '-' (0x2d) < '/' (0x2f). Explicit file arguments and the directories
/// themselves keep their command-line order. Stable across filesystems
/// because the directory enumeration order never reaches the output.
std::vector<CorpusInput> expandMirPaths(const std::vector<std::string> &Paths);

} // namespace rs::corpus

#endif // RUSTSIGHT_CORPUS_CORPUSWALK_H
