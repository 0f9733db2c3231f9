//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The combined flow-sensitive memory-state analysis all RustSight detectors
/// are built on. Per program point it tracks, for every abstract object of
/// the ObjectTable:
///
///   - points-to: which objects each local's value may point to,
///   - storage-dead: StorageDead has executed for the object,
///   - dropped: the object's value may have been destroyed/freed,
///   - uninit: the object's contents may be uninitialized (fresh storage,
///     moved-out, or raw alloc),
///   - held-shared / held-exclusive: a lock rooted at the object may be held.
///
/// This mirrors the paper's Section 7 detector design: "maintains the state
/// of each variable (alive or dead) by monitoring when MIR calls StorageLive
/// or StorageDead ... for each pointer/reference, a points-to analysis
/// maintains which variable it points to, including ownership moves."
///
/// Per-call-site facts that are invariant across the fixpoint — the callee's
/// intrinsic classification and its interprocedural summary — are resolved
/// once per block at construction, so the edge transfer (the hottest loop in
/// the analyzer) does no string classification or by-name summary lookups.
/// The resolved summary pointers reach into SummaryTable's stable dense
/// entries, which outlive and stay valid across moves of the table itself.
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_ANALYSIS_MEMORY_H
#define RUSTSIGHT_ANALYSIS_MEMORY_H

#include "analysis/Dataflow.h"
#include "analysis/Objects.h"
#include "analysis/Summaries.h"
#include "mir/Intrinsics.h"

#include <memory>
#include <vector>

namespace rs::analysis {

/// One program point, with its source location — the currency of the
/// transition-site queries below and of detector secondary spans.
struct StatePoint {
  mir::BlockId Block = 0;
  /// Statement index; Statements.size() means the block's terminator.
  size_t StmtIndex = 0;
  SourceLocation Loc;
};

/// The per-object state bits MemoryAnalysis tracks, named so detectors can
/// ask "where did this bit first turn on" (transitionSites).
enum class ObjEvent {
  StorageDead,
  Dropped,
  Uninit,
  HeldShared,
  HeldExclusive,
};

/// Flow-sensitive points-to + memory-state analysis for one function.
class MemoryAnalysis : public ForwardTransfer {
public:
  /// Analyzes \p G's function. \p M supplies struct/Drop declarations;
  /// \p Summaries (optional) enables interprocedural effects at calls to
  /// module-defined functions. \p Bgt (optional) bounds the fixpoint
  /// iteration; when it runs out the analysis is usable but degraded
  /// (dataflowConverged() == false, states under-approximate).
  MemoryAnalysis(const Cfg &G, const mir::Module &M,
                 const SummaryMap *Summaries = nullptr, Budget *Bgt = nullptr);

  /// False when a budget stopped the fixpoint early (degraded results).
  bool dataflowConverged() const { return DF->converged(); }

  const Cfg &cfg() const { return G; }
  const mir::Module &module() const { return M; }
  const ObjectTable &objects() const { return Objects; }
  const ForwardDataflow &dataflow() const { return *DF; }

  /// Locals that (transitively) hold lock guards returned by lock calls.
  bool isGuardLocal(mir::LocalId L) const { return GuardLocals.test(L); }

  /// The pre-resolved summary of the module-defined function block \p B
  /// calls, or null (not a call, an intrinsic, an unknown callee, or the
  /// analysis was built without summaries). The pointer reads the summary
  /// table's *current* entry, so it stays correct while the interprocedural
  /// fixpoint refines summaries in place.
  const FunctionSummary *calleeSummary(mir::BlockId B) const {
    return BlockSummary[B];
  }

  /// The intrinsic classification of the callee block \p B's terminator
  /// calls (IntrinsicKind::None for non-call terminators and for calls to
  /// non-intrinsics), resolved once at construction.
  mir::IntrinsicKind calleeKind(mir::BlockId B) const { return BlockKind[B]; }

  // --- State queries (operate on a state BitVec from the dataflow) --------

  bool pointsTo(const BitVec &State, mir::LocalId L, ObjId O) const {
    return State.test(ptsBit(L, O));
  }
  /// Appends every object \p L may point to.
  void pointees(const BitVec &State, mir::LocalId L,
                std::vector<ObjId> &Out) const;
  bool mayBeStorageDead(const BitVec &State, ObjId O) const {
    return State.test(DeadBase + O);
  }
  bool mayBeDropped(const BitVec &State, ObjId O) const {
    return State.test(DroppedBase + O);
  }
  bool mayBeUninit(const BitVec &State, ObjId O) const {
    return State.test(UninitBase + O);
  }
  bool mayBeHeld(const BitVec &State, ObjId O, bool Exclusive) const {
    return State.test((Exclusive ? HeldExBase : HeldShBase) + O);
  }

  /// The objects a lock-acquisition call on \p LockArg locks: the pointees
  /// of the argument if it is a pointer, otherwise the argument's own
  /// object (a Mutex/Arc<Mutex> held by value).
  void lockRoots(const BitVec &State, const mir::Operand &LockArg,
                 std::vector<ObjId> &Out) const;

  /// The objects the value stored at \p P may point to (e.g. the operand
  /// pointees of "copy P").
  void placeValuePointees(const BitVec &State, const mir::Place &P,
                          BitVec &Out) const;

  /// The objects the memory designated by \p P belongs to: the base local's
  /// object for direct places, the base pointer's pointees when the place
  /// dereferences.
  void placeTargetObjects(const BitVec &State, const mir::Place &P,
                          BitVec &Out) const;

  /// Walks one block; detectors use this to inspect the state immediately
  /// before a statement/terminator, paying transfers only for the points
  /// whose state() they read. Reusable across blocks via seek().
  using Cursor = ForwardCursor;

  /// Unpositioned reusable cursor: seek() it at each block of interest.
  Cursor cursor() const { return Cursor(*DF); }

  Cursor cursorAt(mir::BlockId B) const { return Cursor(*DF, B); }

  /// Every program point whose transfer turns the \p Event bit of object
  /// \p O from clear to set: the statements that kill storage, run drops,
  /// uninitialize memory, or acquire locks. Sorted by (Block, StmtIndex);
  /// a bit that flips on a terminator's outgoing edge is reported once at
  /// the terminator. Detectors use these as "value dropped here" /
  /// "first lock acquired here" secondary spans. Bits already set at block
  /// entry along every path (e.g. locals born uninitialized) have no
  /// transition point and yield no site.
  std::vector<StatePoint> transitionSites(ObjEvent Event, ObjId O) const;

  // --- ForwardTransfer implementation -------------------------------------
  BitVec initialState() const override;
  void transferStatement(const mir::Statement &S, BitVec &State) const override;
  void transferEdge(const mir::Terminator &T, mir::BlockId Succ,
                    BitVec &State) const override;

private:
  size_t ptsBit(mir::LocalId L, ObjId O) const {
    return static_cast<size_t>(L) * NumObjects + O;
  }
  size_t numBits() const {
    return static_cast<size_t>(NumLocals) * NumObjects + 5 * NumObjects;
  }

  void clearPts(BitVec &State, mir::LocalId L) const;
  void setPtsFromObjSet(BitVec &State, mir::LocalId L, const BitVec &Objs,
                        bool Additive) const;
  void operandPointees(const BitVec &State, const mir::Operand &O,
                       BitVec &Out) const;
  void rvaluePointees(const BitVec &State, const mir::Rvalue &RV,
                      BitVec &Out) const;
  /// True if dropping a value of type \p Ty destroys the objects it points
  /// to (Box and structs declared ": Drop").
  bool typeOwnsPointees(const mir::Type *Ty) const;
  void markDropped(BitVec &State, ObjId O) const;
  void applyMoveOperands(const mir::OperandList &Ops,
                         BitVec &State) const;
  void dropPlace(const mir::Place &P, BitVec &State) const;
  void computeGuardLocals();
  void resolveCallSites(const SummaryMap *Summaries);

  /// The block owning terminator \p T. Terminators are stored in-place in
  /// the function's contiguous block array, so the block index is plain
  /// pointer arithmetic — no per-edge map lookup.
  mir::BlockId blockOfTerminator(const mir::Terminator &T) const {
    const mir::BasicBlock *Blocks = G.function().Blocks.data();
    size_t Off = reinterpret_cast<const char *>(&T) -
                 reinterpret_cast<const char *>(Blocks);
    size_t B = Off / sizeof(mir::BasicBlock);
    assert(B < G.function().Blocks.size() &&
           &Blocks[B].Term == &T && "terminator from a different function");
    return static_cast<mir::BlockId>(B);
  }

  const Cfg &G;
  const mir::Module &M;
  ObjectTable Objects;
  unsigned NumLocals;
  unsigned NumObjects;
  size_t DeadBase, DroppedBase, UninitBase, HeldShBase, HeldExBase;
  /// Per-block callee classification/summary, resolved at construction.
  std::vector<mir::IntrinsicKind> BlockKind;
  std::vector<const FunctionSummary *> BlockSummary;
  BitVec GuardLocals; ///< One bit per local.
  std::unique_ptr<ForwardDataflow> DF;
};

} // namespace rs::analysis

#endif // RUSTSIGHT_ANALYSIS_MEMORY_H
