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
/// State layout: a state is a matrix of rows, each an object set with a
/// stride of 64 * ceil(NumObjects / 64) bits, so every row starts on a word
/// boundary. Row L (for each local L) is L's points-to set; the next five
/// rows are the storage-dead, dropped, uninit, held-shared and
/// held-exclusive sets; the last row is the transfer functions' scratch
/// object set, all-zero between transfers. Clearing a points-to set,
/// copying one set into another, releasing every lock a guard points to and
/// dropping every pointee are therefore word loops over one or two rows,
/// and a transfer allocates nothing: the object sets it builds live in the
/// state's own scratch row. Query helpers that hand an object set to a
/// caller fill a caller-owned BitVec of numObjects() bits (inline, so
/// allocation-free, up to 64 objects).
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

#include <optional>
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
  /// The solver keeps a reference to this analysis as its transfer.
  MemoryAnalysis(const MemoryAnalysis &) = delete;
  MemoryAnalysis &operator=(const MemoryAnalysis &) = delete;

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
    return Calls[B].Summary;
  }

  /// The intrinsic classification of the callee block \p B's terminator
  /// calls (IntrinsicKind::None for non-call terminators and for calls to
  /// non-intrinsics), resolved once at construction.
  mir::IntrinsicKind calleeKind(mir::BlockId B) const { return Calls[B].Kind; }

  // --- State queries (operate on a state from the dataflow) ---------------

  bool pointsTo(BitSpan State, mir::LocalId L, ObjId O) const {
    return State.test(ptsBit(L, O));
  }
  /// Calls \p F with every object \p L may point to, in increasing order.
  template <typename Fn>
  void forEachPointee(BitSpan State, mir::LocalId L, Fn F) const {
    words::forEach(row(State.words(), L), RowWords,
                   [&](size_t O) { F(static_cast<ObjId>(O)); });
  }
  bool mayBeStorageDead(BitSpan State, ObjId O) const {
    return State.test(rowBit(DeadRow, O));
  }
  bool mayBeDropped(BitSpan State, ObjId O) const {
    return State.test(rowBit(DroppedRow, O));
  }
  bool mayBeUninit(BitSpan State, ObjId O) const {
    return State.test(rowBit(UninitRow, O));
  }
  bool mayBeHeld(BitSpan State, ObjId O, bool Exclusive) const {
    return State.test(rowBit(Exclusive ? HeldExRow : HeldShRow, O));
  }
  /// True if any exclusive lock may be held in \p State.
  bool anyHeldExclusive(BitSpan State) const {
    return words::any(row(State.words(), HeldExRow), RowWords);
  }

  /// An empty object set (numObjects() bits) for the queries below.
  BitVec objectSet() const { return BitVec(NumObjects); }

  /// Adds to the empty set \p Out the objects a lock-acquisition call on
  /// \p LockArg locks: the pointees of the argument if it is a pointer,
  /// otherwise the argument's own object (a Mutex/Arc<Mutex> held by
  /// value).
  void lockRoots(BitSpan State, const mir::Operand &LockArg,
                 BitVec &Out) const;

  /// Adds to \p Out the objects the value stored at \p P may point to (e.g.
  /// the operand pointees of "copy P").
  void placeValuePointees(BitSpan State, const mir::Place &P,
                          BitVec &Out) const;

  /// Adds to \p Out the objects the memory designated by \p P belongs to:
  /// the base local's object for direct places, the base pointer's pointees
  /// when the place dereferences.
  void placeTargetObjects(BitSpan State, const mir::Place &P,
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
  void transferStatement(const mir::Statement &S, BitRef State) const override;
  void transferEdge(const mir::Terminator &T, mir::BlockId Succ,
                    BitRef State) const override;

private:
  /// Row R of the state whose words start at \p St.
  uint64_t *row(uint64_t *St, size_t R) const { return St + R * RowWords; }
  const uint64_t *row(const uint64_t *St, size_t R) const {
    return St + R * RowWords;
  }
  size_t rowBit(size_t R, ObjId O) const { return R * RowWords * 64 + O; }
  size_t ptsBit(mir::LocalId L, ObjId O) const { return rowBit(L, O); }

  // The object-set helpers below work on raw rows: \p St is a state's
  // words and \p Out an object set of RowWords words (a BitVec of
  // numObjects() bits, or the state's scratch row).
  void placeValuePointeesInto(const uint64_t *St, const mir::Place &P,
                              uint64_t *Out) const;
  void operandPointees(const uint64_t *St, const mir::Operand &O,
                       uint64_t *Out) const;
  void rvaluePointees(const uint64_t *St, const mir::Rvalue &RV,
                      uint64_t *Out) const;
  void lockRootsInto(const uint64_t *St, const mir::Operand &LockArg,
                     uint64_t *Out) const;
  /// Marks every pointee of \p P's base local dropped, the unknown object
  /// excepted: a free of what the value at P (or the place *P) points to.
  void dropPointees(uint64_t *St, const mir::Place &P) const;
  /// Clears the held bits of every lock guard local \p L points to.
  void releaseGuard(uint64_t *St, mir::LocalId L) const;
  /// Replaces (or, with \p Additive, extends) \p L's points-to row with the
  /// scratch row, then clears the scratch row.
  void setPtsFromScratch(uint64_t *St, mir::LocalId L, bool Additive) const;
  /// True if dropping a value of type \p Ty destroys the objects it points
  /// to (Box and structs declared ": Drop").
  bool typeOwnsPointees(const mir::Type *Ty) const;
  void markDropped(BitRef State, ObjId O) const;
  void applyMoveOperands(const mir::OperandList &Ops, BitRef State) const;
  void dropPlace(const mir::Place &P, BitRef State) const;
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
  size_t RowWords; ///< Words per row: ceil(NumObjects / 64).
  /// The rows after the NumLocals points-to rows.
  size_t DeadRow, DroppedRow, UninitRow, HeldShRow, HeldExRow, ScratchRow;
  /// Per-block callee classification/summary, resolved at construction.
  struct CallSite {
    mir::IntrinsicKind Kind = mir::IntrinsicKind::None;
    const FunctionSummary *Summary = nullptr;
  };
  std::vector<CallSite> Calls;
  BitVec GuardLocals; ///< One bit per local.
  std::optional<ForwardDataflow> DF;
};

} // namespace rs::analysis

#endif // RUSTSIGHT_ANALYSIS_MEMORY_H
