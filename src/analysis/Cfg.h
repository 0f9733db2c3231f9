//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Control-flow-graph utilities over a RustLite MIR function: successor and
/// predecessor lists, reverse post-order, reachability, and a dominator tree
/// (Cooper-Harvey-Kennedy).
///
/// A Cfg makes one heap allocation: the edge lists are CSR arrays (offsets
/// plus one flat target array per direction), stored with the reverse
/// post-order and the reachability bits in a single buffer.
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_ANALYSIS_CFG_H
#define RUSTSIGHT_ANALYSIS_CFG_H

#include "mir/Mir.h"

#include <memory>
#include <span>
#include <vector>

namespace rs::analysis {

/// Precomputed CFG edge lists for one function. The function must outlive
/// the Cfg and not be mutated while it is in use.
///
/// With \p PruneConstantBranches, switchInt terminators whose discriminant
/// provably holds one constant contribute only the taken edge (see
/// ConstantBranches.h); statically-impossible arms become unreachable,
/// improving detector precision.
class Cfg {
public:
  explicit Cfg(const mir::Function &F, bool PruneConstantBranches = false);

  const mir::Function &function() const { return Fn; }
  unsigned numBlocks() const { return Fn.numBlocks(); }

  /// Distinct successors of \p B, ascending.
  std::span<const mir::BlockId> successors(mir::BlockId B) const {
    return {Succs + SuccOff[B], Succs + SuccOff[B + 1]};
  }
  /// Predecessors of \p B, ascending.
  std::span<const mir::BlockId> predecessors(mir::BlockId B) const {
    return {Preds + PredOff[B], Preds + PredOff[B + 1]};
  }

  /// Blocks in reverse post-order from the entry (unreachable blocks are
  /// excluded).
  std::span<const mir::BlockId> reversePostOrder() const {
    return {Rpo, RpoSize};
  }

  bool isReachable(mir::BlockId B) const {
    return (Reachable[B / 32] >> (B % 32)) & 1;
  }

private:
  const mir::Function &Fn;
  /// The one buffer: successor targets, predecessor targets, the offsets
  /// into both (numBlocks()+1 each), the reverse post-order and the
  /// reachability bits.
  std::unique_ptr<mir::BlockId[]> Data;
  const mir::BlockId *Succs = nullptr;
  const mir::BlockId *Preds = nullptr;
  const mir::BlockId *SuccOff = nullptr;
  const mir::BlockId *PredOff = nullptr;
  const mir::BlockId *Rpo = nullptr;
  size_t RpoSize = 0;
  const uint32_t *Reachable = nullptr;
};

/// Immediate-dominator tree over a Cfg.
class DominatorTree {
public:
  explicit DominatorTree(const Cfg &G);

  /// The immediate dominator of \p B; the entry block's idom is itself.
  /// Unreachable blocks report InvalidBlock.
  mir::BlockId idom(mir::BlockId B) const { return Idom[B]; }

  /// True if \p A dominates \p B (reflexive). False if either block is
  /// unreachable.
  bool dominates(mir::BlockId A, mir::BlockId B) const;

private:
  std::vector<mir::BlockId> Idom;
  std::vector<unsigned> RpoIndex;
};

} // namespace rs::analysis

#endif // RUSTSIGHT_ANALYSIS_CFG_H
