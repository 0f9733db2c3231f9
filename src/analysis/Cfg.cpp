#include "analysis/Cfg.h"

#include "analysis/ConstantBranches.h"

#include <algorithm>
#include <cassert>
#include <optional>

using namespace rs::analysis;
using namespace rs::mir;

Cfg::Cfg(const Function &F, bool PruneConstantBranches) : Fn(F) {
  unsigned N = F.numBlocks();

  std::optional<ConstantBranches> CB;
  if (PruneConstantBranches)
    for (const BasicBlock &BB : F.Blocks)
      if (BB.Term.K == Terminator::Kind::SwitchInt) {
        CB.emplace(F);
        break;
      }

  // The distinct successors of \p B, ascending, into \p Buf. Called twice
  // per block (count, then fill), so the edges need no staging buffer.
  SuccList Buf;
  auto BlockSuccs = [&](BlockId B) {
    Buf.clear();
    if (CB) {
      if (std::optional<BlockId> Taken = CB->resolvedTarget(B)) {
        Buf.push_back(*Taken);
        return;
      }
    }
    F.Blocks[B].Term.successors(Buf);
    // Deduplicate parallel edges so dataflow meets see each pred once.
    std::sort(Buf.begin(), Buf.end());
    Buf.erase(std::unique(Buf.begin(), Buf.end()), Buf.end());
  };

  size_t E = 0;
  for (BlockId B = 0; B != N; ++B) {
    BlockSuccs(B);
    E += Buf.size();
  }

  // Layout: succ targets, pred targets, succ offsets, pred offsets, RPO,
  // reachability bits, then 2N words of DFS scratch.
  size_t ReachWords = (N + 31) / 32;
  size_t Size = 2 * E + 2 * (size_t(N) + 1) + N + ReachWords + 2 * size_t(N);
  Data.reset(new BlockId[Size]);
  BlockId *Succ = Data.get();
  BlockId *Pred = Succ + E;
  BlockId *SOff = Pred + E;
  BlockId *POff = SOff + N + 1;
  BlockId *Order = POff + N + 1;
  uint32_t *Reach = Order + N;
  BlockId *Stack = Reach + ReachWords;
  std::fill(POff, POff + N + 1, 0);
  std::fill(Reach, Reach + ReachWords, 0);

  // Successors, and the in-degree of every block in POff[S + 1].
  size_t At = 0;
  for (BlockId B = 0; B != N; ++B) {
    SOff[B] = static_cast<BlockId>(At);
    BlockSuccs(B);
    for (BlockId S : Buf) {
      Succ[At++] = S;
      ++POff[S + 1];
    }
  }
  SOff[N] = static_cast<BlockId>(At);
  for (BlockId B = 0; B != N; ++B)
    POff[B + 1] += POff[B];
  // Predecessors in ascending block order: fill by walking B upwards, with
  // the RPO slots as per-block cursors until the DFS below needs them.
  std::copy(POff, POff + N, Order);
  for (BlockId B = 0; B != N; ++B)
    for (size_t I = SOff[B]; I != SOff[B + 1]; ++I)
      Pred[Order[Succ[I]]++] = B;

  // Iterative DFS from the entry: a stack of (block, next successor)
  // pairs; blocks are appended to Order in post-order, then reversed.
  size_t Done = 0;
  if (N != 0) {
    size_t Depth = 0;
    auto Visit = [&](BlockId B) {
      Reach[B / 32] |= uint32_t(1) << (B % 32);
      Stack[2 * Depth] = B;
      Stack[2 * Depth + 1] = SOff[B];
      ++Depth;
    };
    Visit(0);
    while (Depth != 0) {
      BlockId B = Stack[2 * (Depth - 1)];
      BlockId &Next = Stack[2 * (Depth - 1) + 1];
      if (Next != SOff[B + 1]) {
        BlockId S = Succ[Next++];
        if (!((Reach[S / 32] >> (S % 32)) & 1))
          Visit(S);
        continue;
      }
      Order[Done++] = B;
      --Depth;
    }
  }
  std::reverse(Order, Order + Done);

  Succs = Succ;
  Preds = Pred;
  SuccOff = SOff;
  PredOff = POff;
  Rpo = Order;
  RpoSize = Done;
  Reachable = Reach;
}

DominatorTree::DominatorTree(const Cfg &G) {
  unsigned N = G.numBlocks();
  Idom.assign(N, InvalidBlock);
  RpoIndex.assign(N, ~0u);
  std::span<const BlockId> Rpo = G.reversePostOrder();
  for (unsigned I = 0; I != Rpo.size(); ++I)
    RpoIndex[Rpo[I]] = I;
  if (Rpo.empty())
    return;

  // Cooper-Harvey-Kennedy iterative algorithm.
  auto Intersect = [this](BlockId A, BlockId B) {
    while (A != B) {
      while (RpoIndex[A] > RpoIndex[B])
        A = Idom[A];
      while (RpoIndex[B] > RpoIndex[A])
        B = Idom[B];
    }
    return A;
  };

  BlockId Entry = Rpo[0];
  Idom[Entry] = Entry;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t I = 1; I != Rpo.size(); ++I) {
      BlockId B = Rpo[I];
      BlockId NewIdom = InvalidBlock;
      for (BlockId P : G.predecessors(B)) {
        if (Idom[P] == InvalidBlock)
          continue; // Not yet processed or unreachable.
        NewIdom = NewIdom == InvalidBlock ? P : Intersect(P, NewIdom);
      }
      assert(NewIdom != InvalidBlock &&
             "reachable block with no processed predecessor");
      if (Idom[B] != NewIdom) {
        Idom[B] = NewIdom;
        Changed = true;
      }
    }
  }
}

bool DominatorTree::dominates(BlockId A, BlockId B) const {
  if (A >= Idom.size() || B >= Idom.size() || Idom[B] == InvalidBlock ||
      Idom[A] == InvalidBlock)
    return false;
  while (true) {
    if (A == B)
      return true;
    BlockId Up = Idom[B];
    if (Up == B)
      return false; // Reached the entry without meeting A.
    B = Up;
  }
}
