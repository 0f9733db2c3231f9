//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Constant-branch resolution: a lightweight sparse constant propagation
/// that resolves switchInt terminators whose discriminant provably holds a
/// single constant. Pruning the dead arms shrinks the may-analysis and
/// removes the "bug on a statically-impossible path" class of false
/// positives — the kind of imprecision the paper's detector discussion
/// attributes its UAF false positives to.
///
/// Soundness: a local's value counts as constant only when the local is
/// assigned exactly once in the function, by a constant, and its address
/// is never taken (so no unsafe aliasing write can change it).
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_ANALYSIS_CONSTANTBRANCHES_H
#define RUSTSIGHT_ANALYSIS_CONSTANTBRANCHES_H

#include "mir/Mir.h"

#include <optional>
#include <vector>

namespace rs::analysis {

/// Resolved switchInt targets for one function.
class ConstantBranches {
public:
  explicit ConstantBranches(const mir::Function &F);

  /// If block \p B ends in a switchInt on a provably-constant value,
  /// returns the single successor it always takes.
  std::optional<mir::BlockId> resolvedTarget(mir::BlockId B) const {
    if (Resolved[B] == mir::InvalidBlock)
      return std::nullopt;
    return Resolved[B];
  }

  size_t numResolved() const { return NumResolved; }

private:
  /// The taken successor by block, or InvalidBlock.
  std::vector<mir::BlockId> Resolved;
  size_t NumResolved = 0;
};

} // namespace rs::analysis

#endif // RUSTSIGHT_ANALYSIS_CONSTANTBRANCHES_H
