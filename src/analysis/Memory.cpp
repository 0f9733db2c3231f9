#include "analysis/Memory.h"

#include <cassert>

using namespace rs;
using namespace rs::analysis;
using namespace rs::mir;

MemoryAnalysis::MemoryAnalysis(const Cfg &G, const Module &M,
                               const SummaryMap *Summaries, Budget *Bgt)
    : G(G), M(M), Objects(G.function()),
      NumLocals(G.function().numLocals()), NumObjects(Objects.numObjects()),
      RowWords(words::forBits(NumObjects)) {
  DeadRow = NumLocals;
  DroppedRow = DeadRow + 1;
  UninitRow = DroppedRow + 1;
  HeldShRow = UninitRow + 1;
  HeldExRow = HeldShRow + 1;
  ScratchRow = HeldExRow + 1;
  resolveCallSites(Summaries);
  computeGuardLocals();
  DF.emplace(G, *this, Bgt);
}

void MemoryAnalysis::resolveCallSites(const SummaryMap *Summaries) {
  const Function &F = G.function();
  Calls.assign(F.Blocks.size(), CallSite());
  for (BlockId B = 0; B != F.Blocks.size(); ++B) {
    const Terminator &T = F.Blocks[B].Term;
    if (T.K != Terminator::Kind::Call)
      continue;
    Calls[B].Kind = classifyIntrinsic(T.Callee);
    if (Summaries && Calls[B].Kind == IntrinsicKind::None)
      Calls[B].Summary = Summaries->find(T.Callee);
  }
}

void MemoryAnalysis::computeGuardLocals() {
  const Function &F = G.function();
  GuardLocals = BitVec(NumLocals);
  // Seed: destinations of lock-acquisition calls.
  for (BlockId B = 0; B != F.Blocks.size(); ++B) {
    const Terminator &T = F.Blocks[B].Term;
    if (T.K == Terminator::Kind::Call && T.HasDest && T.Dest.isLocal() &&
        (isLockAcquire(Calls[B].Kind) || isBorrowAcquire(Calls[B].Kind)))
      GuardLocals.set(T.Dest.Base);
  }
  if (GuardLocals.none())
    return;
  // Closure over direct copies/moves of guard values between locals.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const BasicBlock &BB : F.Blocks) {
      for (const Statement &S : BB.Statements) {
        if (S.K != Statement::Kind::Assign || !S.Dest.isLocal())
          continue;
        if (S.RV.K != Rvalue::Kind::Use || !S.RV.Ops[0].isPlace() ||
            !S.RV.Ops[0].P.isLocal())
          continue;
        if (GuardLocals.test(S.RV.Ops[0].P.Base) &&
            !GuardLocals.test(S.Dest.Base)) {
          GuardLocals.set(S.Dest.Base);
          Changed = true;
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Object-set helpers
//===----------------------------------------------------------------------===//

namespace {

void setObj(uint64_t *Set, ObjId O) { Set[O / 64] |= uint64_t(1) << (O % 64); }

} // namespace

void MemoryAnalysis::placeValuePointeesInto(const uint64_t *St,
                                            const Place &P,
                                            uint64_t *Out) const {
  // Loading through a pointer reaches memory the analysis does not model
  // field-wise. The interior-pointer approximation: a pointer stored
  // inside an object points into that object's own graph, so the loaded
  // value keeps the base pointer's pointees (this is what lets the
  // Figure 5 Queue::peek/pop chain resolve: the pointer loaded from the
  // queue aliases the queue's pointee, which pop later drops). With no
  // pointee information at all, fall back to "unknown".
  const uint64_t *Pts = row(St, P.Base);
  words::orInto(Out, Pts, RowWords);
  if (P.hasDeref() && !words::any(Pts, RowWords))
    setObj(Out, Objects.unknown());
}

void MemoryAnalysis::operandPointees(const uint64_t *St, const Operand &Op,
                                     uint64_t *Out) const {
  if (!Op.isPlace())
    return;
  placeValuePointeesInto(St, Op.P, Out);
}

void MemoryAnalysis::rvaluePointees(const uint64_t *St, const Rvalue &RV,
                                    uint64_t *Out) const {
  switch (RV.K) {
  case Rvalue::Kind::Use:
  case Rvalue::Kind::Cast:
    operandPointees(St, RV.Ops[0], Out);
    return;
  case Rvalue::Kind::Ref:
  case Rvalue::Kind::AddressOf:
    if (RV.P.hasDeref()) {
      // &(*p).field points into whatever p points to.
      words::orInto(Out, row(St, RV.P.Base), RowWords);
    } else {
      setObj(Out, Objects.localObject(RV.P.Base));
    }
    return;
  case Rvalue::Kind::BinaryOp:
    // Pointer arithmetic stays within the same allocation.
    if (RV.BOp == BinOp::Offset)
      operandPointees(St, RV.Ops[0], Out);
    return;
  case Rvalue::Kind::Aggregate:
    for (const Operand &Op : RV.Ops)
      operandPointees(St, Op, Out);
    return;
  case Rvalue::Kind::UnaryOp:
  case Rvalue::Kind::Discriminant:
  case Rvalue::Kind::Len:
    return;
  }
}

void MemoryAnalysis::lockRootsInto(const uint64_t *St, const Operand &LockArg,
                                   uint64_t *Out) const {
  if (!LockArg.isPlace()) {
    setObj(Out, Objects.unknown());
    return;
  }
  const Place &P = LockArg.P;
  placeValuePointeesInto(St, P, Out);
  if (words::any(Out, RowWords))
    return;
  // A lock held by value (e.g. Arc<Mutex<T>> or Mutex<T> local): the lock's
  // identity is the argument's own object.
  setObj(Out, P.isLocal() ? Objects.localObject(P.Base) : Objects.unknown());
}

void MemoryAnalysis::placeValuePointees(BitSpan State, const Place &P,
                                        BitVec &Out) const {
  assert(Out.size() == NumObjects && "object set of the wrong size");
  placeValuePointeesInto(State.words(), P, Out.words());
}

void MemoryAnalysis::placeTargetObjects(BitSpan State, const Place &P,
                                        BitVec &Out) const {
  assert(Out.size() == NumObjects && "object set of the wrong size");
  if (!P.hasDeref()) {
    Out.set(Objects.localObject(P.Base));
    return;
  }
  // The memory reached through the base pointer.
  words::orInto(Out.words(), row(State.words(), P.Base), RowWords);
}

void MemoryAnalysis::lockRoots(BitSpan State, const Operand &LockArg,
                               BitVec &Out) const {
  assert(Out.size() == NumObjects && Out.none() && "want an empty set");
  lockRootsInto(State.words(), LockArg, Out.words());
}

bool MemoryAnalysis::typeOwnsPointees(const Type *Ty) const {
  return rs::analysis::typeOwnsPointees(Ty, M);
}

void MemoryAnalysis::markDropped(BitRef State, ObjId O) const {
  State.set(rowBit(DroppedRow, O));
  State.set(rowBit(UninitRow, O));
}

void MemoryAnalysis::dropPointees(uint64_t *St, const Place &P) const {
  // P's row alone: the value's pointees add at most the unknown object to
  // it, and the place's targets nothing, and the unknown object is never
  // dropped.
  const uint64_t *Pts = row(St, P.Base);
  uint64_t *Dropped = row(St, DroppedRow);
  uint64_t *Uninit = row(St, UninitRow);
  for (size_t I = 0; I != RowWords; ++I) {
    uint64_t W = Pts[I];
    if (I == Objects.unknown() / 64)
      W &= ~(uint64_t(1) << (Objects.unknown() % 64));
    Dropped[I] |= W;
    Uninit[I] |= W;
  }
}

void MemoryAnalysis::releaseGuard(uint64_t *St, LocalId L) const {
  const uint64_t *Pts = row(St, L);
  words::andNotInto(row(St, HeldShRow), Pts, RowWords);
  words::andNotInto(row(St, HeldExRow), Pts, RowWords);
}

void MemoryAnalysis::setPtsFromScratch(uint64_t *St, LocalId L,
                                       bool Additive) const {
  uint64_t *Scratch = row(St, ScratchRow);
  if (Additive)
    words::orInto(row(St, L), Scratch, RowWords);
  else
    words::copy(row(St, L), Scratch, RowWords);
  words::clear(Scratch, RowWords);
}

//===----------------------------------------------------------------------===//
// Transfer functions
//===----------------------------------------------------------------------===//

BitVec MemoryAnalysis::initialState() const {
  const Function &F = G.function();
  // NumLocals points-to rows, five state rows and the scratch row.
  BitVec State((ScratchRow + 1) * RowWords * 64);
  // Pointer parameters point at their pointee objects.
  for (LocalId P = 1; P <= F.NumArgs; ++P) {
    ObjId Pointee = Objects.paramPointee(P);
    if (Pointee != ~0u)
      State.set(ptsBit(P, Pointee));
  }
  // All non-parameter locals (including the return place) start
  // uninitialized; parameters and their pointees are initialized.
  for (LocalId L = 0; L != NumLocals; ++L)
    if (!F.isArg(L))
      State.set(rowBit(UninitRow, Objects.localObject(L)));
  return State;
}

void MemoryAnalysis::applyMoveOperands(const OperandList &Ops,
                                       BitRef State) const {
  for (const Operand &Op : Ops) {
    if (!Op.isMove() || !Op.P.isLocal())
      continue;
    // The value left this local; its storage now holds moved-out garbage.
    State.set(rowBit(UninitRow, Objects.localObject(Op.P.Base)));
  }
}

void MemoryAnalysis::transferStatement(const Statement &S,
                                       BitRef State) const {
  uint64_t *St = State.words();
  switch (S.K) {
  case Statement::Kind::StorageLive: {
    ObjId O = Objects.localObject(S.Local);
    State.reset(rowBit(DeadRow, O));
    State.reset(rowBit(DroppedRow, O));
    State.set(rowBit(UninitRow, O));
    words::clear(row(St, S.Local), RowWords);
    return;
  }
  case Statement::Kind::StorageDead: {
    State.set(rowBit(DeadRow, Objects.localObject(S.Local)));
    // A dying guard releases its lock (scope-end release, the Rust
    // behaviour the paper's double-lock bugs hinge on).
    if (GuardLocals.test(S.Local))
      releaseGuard(St, S.Local);
    return;
  }
  case Statement::Kind::Nop:
    return;
  case Statement::Kind::Assign:
    break;
  }

  // Assignment.
  const Place &Dest = S.Dest;
  if (!Dest.hasDeref()) {
    // The right-hand side's pointees go to the scratch row first: the
    // destination row may be one of the rows they are read from.
    rvaluePointees(St, S.RV, row(St, ScratchRow));
    applyMoveOperands(S.RV.Ops, State);
    // A store into a field of a local is a weak points-to update, but the
    // local becomes (at least partially) initialized either way.
    setPtsFromScratch(St, Dest.Base, /*Additive=*/!Dest.isLocal());
    ObjId O = Objects.localObject(Dest.Base);
    State.reset(rowBit(UninitRow, O));
    State.reset(rowBit(DroppedRow, O));
    return;
  }
  // Store through a pointer: no points-to row changes, and a strong update
  // of the target's state only with a unique known target.
  applyMoveOperands(S.RV.Ops, State);
  const uint64_t *Targets = row(St, Dest.Base);
  if (words::count(Targets, RowWords) == 1 &&
      !State.test(ptsBit(Dest.Base, Objects.unknown()))) {
    words::forEach(Targets, RowWords, [&](size_t O) {
      State.reset(rowBit(UninitRow, static_cast<ObjId>(O)));
      State.reset(rowBit(DroppedRow, static_cast<ObjId>(O)));
    });
  }
}

void MemoryAnalysis::dropPlace(const Place &P, BitRef State) const {
  const Function &F = G.function();
  uint64_t *St = State.words();
  if (P.isLocal()) {
    LocalId L = P.Base;
    ObjId O = Objects.localObject(L);
    // Dropping a guard releases the lock instead of invalidating memory
    // anyone may still reference.
    if (GuardLocals.test(L)) {
      releaseGuard(St, L);
      markDropped(State, O);
      return;
    }
    markDropped(State, O);
    if (typeOwnsPointees(F.localType(L))) {
      const uint64_t *Pts = row(St, L);
      words::orInto(row(St, DroppedRow), Pts, RowWords);
      words::orInto(row(St, UninitRow), Pts, RowWords);
    }
    return;
  }
  // Dropping through a projection destroys the reached objects.
  if (!P.hasDeref()) {
    markDropped(State, Objects.localObject(P.Base));
    return;
  }
  dropPointees(St, P);
}

void MemoryAnalysis::transferEdge(const Terminator &T, BlockId Succ,
                                  BitRef State) const {
  switch (T.K) {
  case Terminator::Kind::Goto:
  case Terminator::Kind::SwitchInt:
  case Terminator::Kind::Return:
  case Terminator::Kind::Resume:
  case Terminator::Kind::Unreachable:
  case Terminator::Kind::Assert:
    return;
  case Terminator::Kind::Drop:
    dropPlace(T.DropPlace, State);
    return;
  case Terminator::Kind::Call:
    break;
  }

  // Calls: argument moves happen on every edge; the destination is only
  // written on the return edge. Classification and summary were resolved
  // per block at construction.
  uint64_t *St = State.words();
  BlockId B = blockOfTerminator(T);
  IntrinsicKind Kind = Calls[B].Kind;
  const FunctionSummary *Summary = Calls[B].Summary;
  bool IsReturnEdge = Succ == T.Target;

  // Effects on arguments.
  switch (Kind) {
  case IntrinsicKind::MemDrop:
    for (const Operand &Op : T.Args)
      if (Op.isPlace())
        dropPlace(Op.P, State);
    break;
  case IntrinsicKind::Dealloc:
    if (!T.Args.empty() && T.Args[0].isPlace())
      dropPointees(St, T.Args[0].P);
    break;
  case IntrinsicKind::PtrWrite:
    if (!T.Args.empty() && T.Args[0].isPlace()) {
      // The written object: the pointer's one known pointee. With no
      // pointee the place's value set is {unknown}, so nothing is written.
      LocalId L = T.Args[0].P.Base;
      const uint64_t *Pts = row(St, L);
      if (words::count(Pts, RowWords) == 1 &&
          !State.test(ptsBit(L, Objects.unknown()))) {
        words::forEach(Pts, RowWords, [&](size_t O) {
          State.reset(rowBit(UninitRow, static_cast<ObjId>(O)));
          State.reset(rowBit(DroppedRow, static_cast<ObjId>(O)));
        });
      }
    }
    applyMoveOperands(T.Args, State);
    break;
  default:
    applyMoveOperands(T.Args, State);
    break;
  }

  // Interprocedural effects from summaries.
  if (Summary) {
    for (size_t I = 0; I != T.Args.size(); ++I) {
      unsigned Param = static_cast<unsigned>(I) + 1;
      if (Param >= Summary->DropsParamPointee.size())
        break;
      if (Summary->DropsParamPointee[Param] && T.Args[I].isPlace())
        dropPointees(St, T.Args[I].P);
    }
  }

  if (!IsReturnEdge || !T.HasDest || !T.Dest.isLocal())
    return;

  // Destination update on the return edge. The destination's new pointees
  // are gathered in the scratch row.
  LocalId D = T.Dest.Base;
  ObjId DO = Objects.localObject(D);
  uint64_t *DestPts = row(St, ScratchRow);

  switch (Kind) {
  case IntrinsicKind::BoxNew:
  case IntrinsicKind::ArcNew:
  case IntrinsicKind::Alloc: {
    ObjId H = Objects.heapObject(B);
    assert(H != ~0u && "allocating call without a heap object");
    setObj(DestPts, H);
    if (Kind == IntrinsicKind::Alloc)
      State.set(rowBit(UninitRow, H)); // alloc() returns uninitialized memory.
    else {
      State.reset(rowBit(UninitRow, H));
      State.reset(rowBit(DroppedRow, H));
    }
    break;
  }
  case IntrinsicKind::ArcClone:
    if (!T.Args.empty())
      operandPointees(St, T.Args[0], DestPts);
    break;
  case IntrinsicKind::MutexLock:
  case IntrinsicKind::RwLockRead:
  case IntrinsicKind::RwLockWrite:
  case IntrinsicKind::RefCellBorrow:
  case IntrinsicKind::RefCellBorrowMut: {
    // RefCell borrows follow the same shared/exclusive guard discipline
    // as RwLock; the held bits are keyed by the cell/lock root either way.
    // The guard points at the roots, which become held.
    if (!T.Args.empty())
      lockRootsInto(St, T.Args[0], DestPts);
    bool Exclusive = isExclusiveAcquire(Kind) ||
                     Kind == IntrinsicKind::RefCellBorrowMut;
    words::orInto(row(St, Exclusive ? HeldExRow : HeldShRow), DestPts,
                  RowWords);
    break;
  }
  case IntrinsicKind::PtrRead:
    setObj(DestPts, Objects.unknown());
    break;
  case IntrinsicKind::None: {
    if (Summary) {
      for (size_t I = 0; I != T.Args.size(); ++I) {
        unsigned Param = static_cast<unsigned>(I) + 1;
        if (Param < Summary->ReturnAliasesParamPointee.size() &&
            Summary->ReturnAliasesParamPointee[Param])
          operandPointees(St, T.Args[I], DestPts);
      }
    } else {
      // Opaque call: the result may alias any pointer argument or be fresh.
      for (const Operand &Op : T.Args)
        operandPointees(St, Op, DestPts);
    }
    ObjId H = Objects.heapObject(B);
    if (H != ~0u) {
      setObj(DestPts, H);
      State.reset(rowBit(UninitRow, H));
      State.reset(rowBit(DroppedRow, H));
    }
    break;
  }
  default:
    break;
  }

  setPtsFromScratch(St, D, /*Additive=*/false);
  State.reset(rowBit(UninitRow, DO));
  State.reset(rowBit(DroppedRow, DO));
}

std::vector<StatePoint> MemoryAnalysis::transitionSites(ObjEvent Event,
                                                        ObjId O) const {
  size_t Row = DeadRow;
  switch (Event) {
  case ObjEvent::StorageDead:
    Row = DeadRow;
    break;
  case ObjEvent::Dropped:
    Row = DroppedRow;
    break;
  case ObjEvent::Uninit:
    Row = UninitRow;
    break;
  case ObjEvent::HeldShared:
    Row = HeldShRow;
    break;
  case ObjEvent::HeldExclusive:
    Row = HeldExRow;
    break;
  }
  size_t Bit = rowBit(Row, O);

  std::vector<StatePoint> Out;
  const mir::Function &F = G.function();
  Cursor C = cursor();
  BitVec Edge;
  for (mir::BlockId B = 0; B != F.numBlocks(); ++B) {
    if (!G.isReachable(B))
      continue;
    C.seek(B);
    bool Before = C.state().test(Bit);
    while (!C.atTerminator()) {
      const mir::Statement &S = C.statement();
      C.advance();
      bool After = C.state().test(Bit);
      if (After && !Before)
        Out.push_back({B, C.index() - 1, S.Loc});
      Before = After;
    }
    if (Before)
      continue;
    // The bit may flip on an outgoing edge (drops and lock acquisitions
    // live on call/drop terminators); report that once, at the terminator.
    for (mir::BlockId Succ : G.successors(B)) {
      Edge.assign(C.state());
      transferEdge(F.Blocks[B].Term, Succ, Edge);
      if (Edge.test(Bit)) {
        Out.push_back({B, F.Blocks[B].Statements.size(), F.Blocks[B].Term.Loc});
        break;
      }
    }
  }
  return Out;
}
