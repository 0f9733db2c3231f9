//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small iterative dataflow framework over RustLite MIR CFGs. Lattice
/// elements are BitVecs (sets of dense indices); analyses implement a
/// transfer interface and choose union (may) or intersection (must) meets.
///
/// Terminator transfer is per-edge: a call assigns its destination only on
/// the return edge, not on the unwind edge, which matters for initialization
/// and liveness facts.
///
/// A forward solve keeps every block's in- and exit state in one arena of
/// 2 x numBlocks states of the same word count plus the solver's two edge
/// scratch states. The arena is one allocation when it fits a 32 KB slab,
/// as nearly every function's does; a larger one takes 32 KB slabs, so a
/// big function's states never form one block at the top of the heap that
/// malloc keeps resident after the file is done (a long `serve` session's
/// peak RSS). Transfer functions receive a BitRef and update the state in
/// place, so the solver itself allocates nothing per block or per edge.
/// blockIn()/blockExit() return BitSpan views into the arena.
///
/// Per-point queries come in three tiers (see docs/PERFORMANCE.md):
///  - stateBefore/stateOnEdge: allocate and return a fresh BitVec by
///    replaying the block from its in-state. Fine for one-off queries, and
///    the reference the solver's kept states and the cursors are tested
///    against.
///  - stateBeforeInto: the same replay into a caller-owned scratch BitVec,
///    so repeated queries reuse one allocation.
///  - ForwardCursor/BackwardCursor: walk a block in order, paying only for
///    the points read. Every per-statement consumer (detectors, summaries,
///    reports) should use a cursor and read state() only where a check uses
///    it.
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_ANALYSIS_DATAFLOW_H
#define RUSTSIGHT_ANALYSIS_DATAFLOW_H

#include "analysis/Cfg.h"
#include "support/BitVec.h"
#include "support/Budget.h"
#include "support/SmallVector.h"

#include <memory>
#include <vector>

namespace rs::analysis {

/// Transfer functions for a forward dataflow problem.
class ForwardTransfer {
public:
  virtual ~ForwardTransfer() = default;

  /// The state on entry to the function (start of the entry block).
  virtual BitVec initialState() const = 0;

  /// True for may-analyses (meet = union); false for must-analyses
  /// (meet = intersection over *computed* predecessors).
  virtual bool meetIsUnion() const { return true; }

  /// Applies one statement's effect to \p State.
  virtual void transferStatement(const mir::Statement &S,
                                 BitRef State) const = 0;

  /// Applies the terminator's effect along the edge to \p Succ.
  virtual void transferEdge(const mir::Terminator &T, mir::BlockId Succ,
                            BitRef State) const = 0;
};

/// Solves a forward dataflow problem to fixpoint, keeping each block's in-
/// and exit state, and answers other per-point queries by replaying
/// transfers within a block. An exit state is recomputed only when its
/// block's in-state changes, so a solve applies each statement transfer
/// once per distinct in-state of its block.
///
/// With a Budget, each block update consumes one step; when the budget runs
/// out the solver stops where it is and converged() reports false. The
/// partial solution is still safe to query (states only under-approximate
/// the fixpoint), which is the engine's "degraded" analysis mode.
class ForwardDataflow {
public:
  ForwardDataflow(const Cfg &G, const ForwardTransfer &Transfer,
                  Budget *Bgt = nullptr);

  /// False when a budget stopped iteration before the fixpoint.
  bool converged() const { return Converged; }

  const Cfg &cfg() const { return G; }
  const ForwardTransfer &transfer() const { return Transfer; }

  /// State at the start of block \p B. Unreachable blocks report an empty
  /// state.
  BitSpan blockIn(mir::BlockId B) const { return {in(B), Bits}; }

  /// State immediately before the terminator of block \p B: blockIn(B)
  /// with every statement applied, equal to stateBefore(B, Statements
  /// .size()) for every block, reachable or not and solved or not.
  BitSpan blockExit(mir::BlockId B) const { return {exit(B), Bits}; }

  /// State immediately before statement \p StmtIndex of block \p B.
  /// Passing StmtIndex == Statements.size() yields the state before the
  /// terminator.
  BitVec stateBefore(mir::BlockId B, size_t StmtIndex) const;

  /// In-place variant: assigns the queried state into \p Out, reusing its
  /// allocation when it is already the right size.
  void stateBeforeInto(mir::BlockId B, size_t StmtIndex, BitVec &Out) const;

  /// State on the edge from \p B to \p Succ (after the terminator's
  /// edge-specific effect), replayed like stateBefore.
  BitVec stateOnEdge(mir::BlockId B, mir::BlockId Succ) const;

private:
  /// State \p S of the arena: in-states, then exit states, then scratch.
  uint64_t *state(size_t S) const {
    size_t InSlab = S & ((size_t(1) << SlabShift) - 1);
    return Slabs[S >> SlabShift].get() + InSlab * Words;
  }
  uint64_t *in(mir::BlockId B) const { return state(B); }
  /// in(B) with every statement of B applied.
  uint64_t *exit(mir::BlockId B) const { return state(NumBlocks + B); }
  void solveBlock(mir::BlockId B);

  const Cfg &G;
  const ForwardTransfer &Transfer;
  size_t Bits = 0;
  size_t Words = 0;
  size_t NumBlocks = 0;
  /// In states, then exit states, then the solver's scratch (edge state,
  /// met state), 2^SlabShift states per slab.
  SmallVector<std::unique_ptr<uint64_t[]>, 1> Slabs;
  unsigned SlabShift = 0;
  bool Converged = true;
};

/// Walks one block of a solved forward problem, exposing the state
/// immediately before the current statement/terminator. Moving is free:
/// advance() only steps the position, and state() applies the transfers
/// still pending since the last read. At the terminator, state() copies the
/// solver's blockExit() instead of applying anything, so seek(B) followed by
/// stateAtTerminator() costs no transfer. Read state() only at the points a
/// check uses. Reusable across blocks via seek(), which recycles the
/// internal scratch BitVec.
class ForwardCursor {
public:
  /// Unpositioned cursor; call seek() before any query.
  explicit ForwardCursor(const ForwardDataflow &DF) : DF(&DF) {}

  ForwardCursor(const ForwardDataflow &DF, mir::BlockId B) : DF(&DF) {
    seek(B);
  }

  /// Repositions at the start of block \p B (state = blockIn(B)).
  void seek(mir::BlockId B) {
    Block = B;
    Index = 0;
    BB = &DF->cfg().function().Blocks[B];
    Applied = NothingLoaded;
  }

  mir::BlockId block() const { return Block; }
  size_t index() const { return Index; }
  bool atTerminator() const { return Index >= BB->Statements.size(); }
  const mir::Statement &statement() const { return BB->Statements[Index]; }

  /// The state immediately before the current statement/terminator.
  const BitVec &state() {
    if (atTerminator()) {
      // The solver kept this point; copying it beats replaying the rest.
      if (Applied != Index) {
        State.assign(DF->blockExit(Block));
        Applied = Index;
      }
      return State;
    }
    if (Applied > Index) {
      State.assign(DF->blockIn(Block));
      Applied = 0;
    }
    for (; Applied != Index; ++Applied)
      DF->transfer().transferStatement(BB->Statements[Applied], State);
    return State;
  }

  /// Moves to the next position; the statement's transfer is applied only
  /// if a later state() read needs it.
  void advance() { ++Index; }

  /// Moves to the terminator and returns the state before it.
  const BitVec &stateAtTerminator() {
    Index = BB->Statements.size();
    return state();
  }

private:
  const ForwardDataflow *DF;
  const mir::BasicBlock *BB = nullptr;
  mir::BlockId Block = 0;
  size_t Index = 0;
  /// State holds the state before statement Applied. The cursor only moves
  /// forward, so Applied <= Index once loaded; NothingLoaded exceeds both.
  static constexpr size_t NothingLoaded = ~size_t(0);
  size_t Applied = NothingLoaded;
  BitVec State;
};

/// Transfer functions for a backward dataflow problem (e.g. live variables).
class BackwardTransfer {
public:
  virtual ~BackwardTransfer() = default;

  /// The state at function exit points (after Return/Resume/Unreachable).
  virtual BitVec exitState() const = 0;

  virtual bool meetIsUnion() const { return true; }

  /// Applies one statement's effect to \p State, flowing backwards.
  virtual void transferStatement(const mir::Statement &S,
                                 BitVec &State) const = 0;

  /// Applies the terminator's own effect (uses of its operands), given the
  /// meet over successor-in states already in \p State.
  virtual void transferTerminator(const mir::Terminator &T,
                                  BitVec &State) const = 0;
};

/// Solves a backward dataflow problem to fixpoint. Budget semantics match
/// ForwardDataflow: each block update is one step, and exhaustion leaves a
/// safe under-approximation with converged() == false.
class BackwardDataflow {
public:
  BackwardDataflow(const Cfg &G, const BackwardTransfer &Transfer,
                   Budget *Bgt = nullptr);

  /// False when a budget stopped iteration before the fixpoint.
  bool converged() const { return Converged; }

  const Cfg &cfg() const { return G; }
  const BackwardTransfer &transfer() const { return Transfer; }

  /// State at the end of block \p B (before its terminator's effect was
  /// applied it is stateAfter(B, Statements.size())).
  const BitVec &blockOut(mir::BlockId B) const { return Out[B]; }

  /// State immediately *before* statement \p StmtIndex executes, flowing
  /// backwards from the block end. StmtIndex == Statements.size() yields
  /// the state before the terminator.
  BitVec stateBefore(mir::BlockId B, size_t StmtIndex) const;

  /// In-place variant of stateBefore.
  void stateBeforeInto(mir::BlockId B, size_t StmtIndex, BitVec &Out) const;

private:
  const Cfg &G;
  const BackwardTransfer &Transfer;
  std::vector<BitVec> Out; ///< Meet over successors, before terminator effect.
  bool Converged = true;
};

/// Per-block materialization of a solved backward problem: seek() runs one
/// backward sweep over the block and caches the state before every
/// statement index, so consumers that walk the block *forward* (reports,
/// detectors) read each point in O(1) instead of replaying the block suffix
/// per query. The cache is recycled across seeks.
class BackwardCursor {
public:
  explicit BackwardCursor(const BackwardDataflow &DF) : DF(&DF) {}

  /// Computes the per-point states of block \p B in one sweep.
  void seek(mir::BlockId B) {
    const mir::BasicBlock &BB = DF->cfg().function().Blocks[B];
    size_t N = BB.Statements.size();
    if (States.size() < N + 1)
      States.resize(N + 1);
    States[N] = DF->blockOut(B);
    DF->transfer().transferTerminator(BB.Term, States[N]);
    for (size_t I = N; I != 0; --I) {
      States[I - 1] = States[I];
      DF->transfer().transferStatement(BB.Statements[I - 1], States[I - 1]);
    }
    NumPoints = N + 1;
  }

  /// State immediately before statement \p StmtIndex of the sought block
  /// (Statements.size() addresses the terminator).
  const BitVec &stateBefore(size_t StmtIndex) const {
    assert(StmtIndex < NumPoints && "statement index out of range");
    return States[StmtIndex];
  }

private:
  const BackwardDataflow *DF;
  std::vector<BitVec> States;
  size_t NumPoints = 0;
};

} // namespace rs::analysis

#endif // RUSTSIGHT_ANALYSIS_DATAFLOW_H
