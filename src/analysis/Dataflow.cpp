#include "analysis/Dataflow.h"

#include <cassert>

using namespace rs;
using namespace rs::analysis;
using namespace rs::mir;

//===----------------------------------------------------------------------===//
// ForwardDataflow
//===----------------------------------------------------------------------===//

ForwardDataflow::ForwardDataflow(const Cfg &G, const ForwardTransfer &Transfer,
                                 Budget *Bgt)
    : G(G), Transfer(Transfer) {
  unsigned N = G.numBlocks();
  BitVec Initial = Transfer.initialState();
  In.assign(N, BitVec(Initial.size()));
  Exit.resize(N);
  if (N == 0)
    return;

  // Exit[B] is kept in step with In[B]: recomputed exactly when In[B]
  // changes, so each edge below is one copy plus the terminator's edge
  // transfer instead of a replay of the predecessor block.
  std::vector<bool> Defined(N, false);
  In[0] = Initial;
  Defined[0] = true;
  solveBlock(0);

  // Round-robin over RPO until fixpoint. The two scratch vectors are reused
  // for every edge of every iteration, so the solver allocates O(1) BitVecs
  // beyond the per-block states.
  BitVec Edge(Initial.size());
  BitVec NewIn(Initial.size());
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (BlockId B : G.reversePostOrder()) {
      if (Bgt && !Bgt->consume()) {
        Converged = false;
        Changed = false;
        break;
      }
      if (B != 0) {
        bool First = true;
        for (BlockId P : G.predecessors(B)) {
          if (!Defined[P])
            continue;
          Edge = Exit[P];
          Transfer.transferEdge(G.function().Blocks[P].Term, B, Edge);
          if (First) {
            NewIn = Edge;
            First = false;
          } else if (Transfer.meetIsUnion()) {
            NewIn.unionWith(Edge);
          } else {
            NewIn.intersectWith(Edge);
          }
        }
        if (First)
          continue; // No computed predecessor yet.
        if (!Defined[B] || !(NewIn == In[B])) {
          In[B] = NewIn;
          Defined[B] = true;
          solveBlock(B);
          Changed = true;
        }
      }
    }
  }

  // Blocks the solve never reached (unreachable, or cut off by the budget)
  // keep their empty in-state; their exit is its replay.
  for (BlockId B = 0; B != N; ++B)
    if (!Defined[B])
      solveBlock(B);
}

void ForwardDataflow::solveBlock(BlockId B) {
  Exit[B] = In[B];
  for (const Statement &S : G.function().Blocks[B].Statements)
    Transfer.transferStatement(S, Exit[B]);
}

void ForwardDataflow::stateBeforeInto(BlockId B, size_t StmtIndex,
                                      BitVec &Out) const {
  const BasicBlock &BB = G.function().Blocks[B];
  assert(StmtIndex <= BB.Statements.size() && "statement index out of range");
  Out = In[B];
  for (size_t I = 0; I != StmtIndex; ++I)
    Transfer.transferStatement(BB.Statements[I], Out);
}

BitVec ForwardDataflow::stateBefore(BlockId B, size_t StmtIndex) const {
  BitVec State;
  stateBeforeInto(B, StmtIndex, State);
  return State;
}

BitVec ForwardDataflow::stateOnEdge(BlockId B, BlockId Succ) const {
  const BasicBlock &BB = G.function().Blocks[B];
  BitVec State = stateBefore(B, BB.Statements.size());
  Transfer.transferEdge(BB.Term, Succ, State);
  return State;
}

//===----------------------------------------------------------------------===//
// BackwardDataflow
//===----------------------------------------------------------------------===//

BackwardDataflow::BackwardDataflow(const Cfg &G,
                                   const BackwardTransfer &Transfer,
                                   Budget *Bgt)
    : G(G), Transfer(Transfer) {
  unsigned N = G.numBlocks();
  BitVec Exit = Transfer.exitState();
  Out.assign(N, BitVec(Exit.size()));
  if (N == 0)
    return;

  std::vector<bool> Defined(N, false);

  // Computes the in-state of a block into \p State: meet over successors,
  // then the whole block's transfer (terminator, then statements in
  // reverse). In-place so the solver reuses one scratch per edge.
  auto BlockInStateInto = [&](BlockId B, BitVec &State) {
    const BasicBlock &BB = G.function().Blocks[B];
    State = Out[B];
    Transfer.transferTerminator(BB.Term, State);
    for (size_t I = BB.Statements.size(); I != 0; --I)
      Transfer.transferStatement(BB.Statements[I - 1], State);
  };

  BitVec SuccIn(Exit.size());
  BitVec NewOut(Exit.size());
  bool Changed = true;
  while (Changed) {
    Changed = false;
    // Post-order = reverse of RPO: good iteration order for backward flow.
    const std::vector<BlockId> &Rpo = G.reversePostOrder();
    for (size_t RI = Rpo.size(); RI != 0; --RI) {
      BlockId B = Rpo[RI - 1];
      if (Bgt && !Bgt->consume()) {
        Converged = false;
        return;
      }
      const std::vector<BlockId> &Succs = G.successors(B);
      if (Succs.empty()) {
        NewOut = Exit;
      } else {
        bool First = true;
        bool AnyDefined = false;
        for (BlockId S : Succs) {
          if (!Defined[S])
            continue;
          AnyDefined = true;
          BlockInStateInto(S, SuccIn);
          if (First) {
            NewOut = SuccIn;
            First = false;
          } else if (Transfer.meetIsUnion()) {
            NewOut.unionWith(SuccIn);
          } else {
            NewOut.intersectWith(SuccIn);
          }
        }
        if (!AnyDefined)
          continue;
      }
      if (!Defined[B] || !(NewOut == Out[B])) {
        Out[B] = NewOut;
        Defined[B] = true;
        Changed = true;
      }
    }
  }
}

void BackwardDataflow::stateBeforeInto(BlockId B, size_t StmtIndex,
                                       BitVec &Out2) const {
  const BasicBlock &BB = G.function().Blocks[B];
  assert(StmtIndex <= BB.Statements.size() && "statement index out of range");
  Out2 = Out[B];
  Transfer.transferTerminator(BB.Term, Out2);
  for (size_t I = BB.Statements.size(); I != StmtIndex; --I)
    Transfer.transferStatement(BB.Statements[I - 1], Out2);
}

BitVec BackwardDataflow::stateBefore(BlockId B, size_t StmtIndex) const {
  BitVec State;
  stateBeforeInto(B, StmtIndex, State);
  return State;
}
