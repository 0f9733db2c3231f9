#include "analysis/Memory.h"

#include <cassert>

using namespace rs;
using namespace rs::analysis;
using namespace rs::mir;

MemoryAnalysis::MemoryAnalysis(const Cfg &G, const Module &M,
                               const SummaryMap *Summaries, Budget *Bgt)
    : G(G), M(M), Objects(G.function()),
      NumLocals(G.function().numLocals()), NumObjects(Objects.numObjects()) {
  DeadBase = static_cast<size_t>(NumLocals) * NumObjects;
  DroppedBase = DeadBase + NumObjects;
  UninitBase = DroppedBase + NumObjects;
  HeldShBase = UninitBase + NumObjects;
  HeldExBase = HeldShBase + NumObjects;
  resolveCallSites(Summaries);
  computeGuardLocals();
  DF = std::make_unique<ForwardDataflow>(G, *this, Bgt);
}

void MemoryAnalysis::resolveCallSites(const SummaryMap *Summaries) {
  const Function &F = G.function();
  BlockKind.assign(F.Blocks.size(), IntrinsicKind::None);
  BlockSummary.assign(F.Blocks.size(), nullptr);
  for (BlockId B = 0; B != F.Blocks.size(); ++B) {
    const Terminator &T = F.Blocks[B].Term;
    if (T.K != Terminator::Kind::Call)
      continue;
    BlockKind[B] = classifyIntrinsic(T.Callee);
    if (Summaries && BlockKind[B] == IntrinsicKind::None)
      BlockSummary[B] = Summaries->find(T.Callee);
  }
}

void MemoryAnalysis::computeGuardLocals() {
  const Function &F = G.function();
  GuardLocals = BitVec(NumLocals);
  // Seed: destinations of lock-acquisition calls.
  for (BlockId B = 0; B != F.Blocks.size(); ++B) {
    const Terminator &T = F.Blocks[B].Term;
    if (T.K == Terminator::Kind::Call && T.HasDest && T.Dest.isLocal() &&
        (isLockAcquire(BlockKind[B]) || isBorrowAcquire(BlockKind[B])))
      GuardLocals.set(T.Dest.Base);
  }
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
// Query helpers
//===----------------------------------------------------------------------===//

void MemoryAnalysis::pointees(const BitVec &State, LocalId L,
                              std::vector<ObjId> &Out) const {
  for (ObjId O = 0; O != NumObjects; ++O)
    if (State.test(ptsBit(L, O)))
      Out.push_back(O);
}

void MemoryAnalysis::clearPts(BitVec &State, LocalId L) const {
  for (ObjId O = 0; O != NumObjects; ++O)
    State.reset(ptsBit(L, O));
}

void MemoryAnalysis::setPtsFromObjSet(BitVec &State, LocalId L,
                                      const BitVec &Objs,
                                      bool Additive) const {
  if (!Additive)
    clearPts(State, L);
  Objs.forEach([&](size_t O) { State.set(ptsBit(L, static_cast<ObjId>(O))); });
}

void MemoryAnalysis::placeValuePointees(const BitVec &State, const Place &P,
                                        BitVec &Out) const {
  // Loading through a pointer reaches memory the analysis does not model
  // field-wise. The interior-pointer approximation: a pointer stored
  // inside an object points into that object's own graph, so the loaded
  // value keeps the base pointer's pointees (this is what lets the
  // Figure 5 Queue::peek/pop chain resolve: the pointer loaded from the
  // queue aliases the queue's pointee, which pop later drops). With no
  // pointee information at all, fall back to "unknown".
  if (P.hasDeref()) {
    bool Any = false;
    for (ObjId O = 0; O != NumObjects; ++O) {
      if (State.test(ptsBit(P.Base, O))) {
        Out.set(O);
        Any = true;
      }
    }
    if (!Any)
      Out.set(Objects.unknown());
    return;
  }
  for (ObjId O = 0; O != NumObjects; ++O)
    if (State.test(ptsBit(P.Base, O)))
      Out.set(O);
}

void MemoryAnalysis::placeTargetObjects(const BitVec &State, const Place &P,
                                        BitVec &Out) const {
  if (!P.hasDeref()) {
    Out.set(Objects.localObject(P.Base));
    return;
  }
  // The memory reached through the base pointer.
  for (ObjId O = 0; O != NumObjects; ++O)
    if (State.test(ptsBit(P.Base, O)))
      Out.set(O);
}

void MemoryAnalysis::operandPointees(const BitVec &State, const Operand &Op,
                                     BitVec &Out) const {
  if (!Op.isPlace())
    return;
  placeValuePointees(State, Op.P, Out);
}

void MemoryAnalysis::rvaluePointees(const BitVec &State, const Rvalue &RV,
                                    BitVec &Out) const {
  switch (RV.K) {
  case Rvalue::Kind::Use:
  case Rvalue::Kind::Cast:
    operandPointees(State, RV.Ops[0], Out);
    return;
  case Rvalue::Kind::Ref:
  case Rvalue::Kind::AddressOf:
    if (RV.P.hasDeref()) {
      // &(*p).field points into whatever p points to.
      for (ObjId O = 0; O != NumObjects; ++O)
        if (State.test(ptsBit(RV.P.Base, O)))
          Out.set(O);
    } else {
      Out.set(Objects.localObject(RV.P.Base));
    }
    return;
  case Rvalue::Kind::BinaryOp:
    // Pointer arithmetic stays within the same allocation.
    if (RV.BOp == BinOp::Offset)
      operandPointees(State, RV.Ops[0], Out);
    return;
  case Rvalue::Kind::Aggregate:
    for (const Operand &Op : RV.Ops)
      operandPointees(State, Op, Out);
    return;
  case Rvalue::Kind::UnaryOp:
  case Rvalue::Kind::Discriminant:
  case Rvalue::Kind::Len:
    return;
  }
}

bool MemoryAnalysis::typeOwnsPointees(const Type *Ty) const {
  return rs::analysis::typeOwnsPointees(Ty, M);
}

void MemoryAnalysis::markDropped(BitVec &State, ObjId O) const {
  State.set(DroppedBase + O);
  State.set(UninitBase + O);
}

void MemoryAnalysis::lockRoots(const BitVec &State, const Operand &LockArg,
                               std::vector<ObjId> &Out) const {
  if (!LockArg.isPlace()) {
    Out.push_back(Objects.unknown());
    return;
  }
  const Place &P = LockArg.P;
  BitVec Objs(NumObjects);
  placeValuePointees(State, P, Objs);
  if (Objs.any()) {
    Objs.forEach([&](size_t O) { Out.push_back(static_cast<ObjId>(O)); });
    return;
  }
  // A lock held by value (e.g. Arc<Mutex<T>> or Mutex<T> local): the lock's
  // identity is the argument's own object.
  if (P.isLocal()) {
    Out.push_back(Objects.localObject(P.Base));
    return;
  }
  Out.push_back(Objects.unknown());
}

//===----------------------------------------------------------------------===//
// Transfer functions
//===----------------------------------------------------------------------===//

BitVec MemoryAnalysis::initialState() const {
  const Function &F = G.function();
  BitVec State(numBits());
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
      State.set(UninitBase + Objects.localObject(L));
  return State;
}

void MemoryAnalysis::applyMoveOperands(const OperandList &Ops,
                                       BitVec &State) const {
  for (const Operand &Op : Ops) {
    if (!Op.isMove() || !Op.P.isLocal())
      continue;
    // The value left this local; its storage now holds moved-out garbage.
    State.set(UninitBase + Objects.localObject(Op.P.Base));
  }
}

void MemoryAnalysis::transferStatement(const Statement &S,
                                       BitVec &State) const {
  switch (S.K) {
  case Statement::Kind::StorageLive: {
    ObjId O = Objects.localObject(S.Local);
    State.reset(DeadBase + O);
    State.reset(DroppedBase + O);
    State.set(UninitBase + O);
    clearPts(State, S.Local);
    return;
  }
  case Statement::Kind::StorageDead: {
    ObjId O = Objects.localObject(S.Local);
    State.set(DeadBase + O);
    // A dying guard releases its lock (scope-end release, the Rust
    // behaviour the paper's double-lock bugs hinge on).
    if (GuardLocals.test(S.Local)) {
      for (ObjId Q = 0; Q != NumObjects; ++Q) {
        if (State.test(ptsBit(S.Local, Q))) {
          State.reset(HeldShBase + Q);
          State.reset(HeldExBase + Q);
        }
      }
    }
    return;
  }
  case Statement::Kind::Nop:
    return;
  case Statement::Kind::Assign:
    break;
  }

  // Assignment.
  BitVec Rhs(NumObjects);
  rvaluePointees(State, S.RV, Rhs);
  applyMoveOperands(S.RV.Ops, State);

  const Place &Dest = S.Dest;
  if (Dest.isLocal()) {
    ObjId O = Objects.localObject(Dest.Base);
    setPtsFromObjSet(State, Dest.Base, Rhs, /*Additive=*/false);
    State.reset(UninitBase + O);
    State.reset(DroppedBase + O);
    return;
  }
  if (!Dest.hasDeref()) {
    // Store into a field of a local: weak points-to update, but the local
    // becomes (at least partially) initialized.
    ObjId O = Objects.localObject(Dest.Base);
    setPtsFromObjSet(State, Dest.Base, Rhs, /*Additive=*/true);
    State.reset(UninitBase + O);
    State.reset(DroppedBase + O);
    return;
  }
  // Store through a pointer: strong update only with a unique known target.
  BitVec Targets(NumObjects);
  placeTargetObjects(State, Dest, Targets);
  if (Targets.count() == 1 && !Targets.test(Objects.unknown())) {
    Targets.forEach([&](size_t O) {
      State.reset(UninitBase + O);
      State.reset(DroppedBase + O);
    });
  }
}

void MemoryAnalysis::dropPlace(const Place &P, BitVec &State) const {
  const Function &F = G.function();
  if (P.isLocal()) {
    LocalId L = P.Base;
    ObjId O = Objects.localObject(L);
    // Dropping a guard releases the lock instead of invalidating memory
    // anyone may still reference.
    if (GuardLocals.test(L)) {
      for (ObjId Q = 0; Q != NumObjects; ++Q) {
        if (State.test(ptsBit(L, Q))) {
          State.reset(HeldShBase + Q);
          State.reset(HeldExBase + Q);
        }
      }
      markDropped(State, O);
      return;
    }
    markDropped(State, O);
    if (typeOwnsPointees(F.localType(L))) {
      for (ObjId Q = 0; Q != NumObjects; ++Q)
        if (State.test(ptsBit(L, Q)))
          markDropped(State, Q);
    }
    return;
  }
  // Dropping through a projection destroys the reached objects.
  BitVec Targets(NumObjects);
  placeTargetObjects(State, P, Targets);
  Targets.forEach([&](size_t O) {
    if (O != Objects.unknown())
      markDropped(State, static_cast<ObjId>(O));
  });
}

void MemoryAnalysis::transferEdge(const Terminator &T, BlockId Succ,
                                  BitVec &State) const {
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
  BlockId B = blockOfTerminator(T);
  IntrinsicKind Kind = BlockKind[B];
  const FunctionSummary *Summary = BlockSummary[B];
  bool IsReturnEdge = Succ == T.Target;

  // Effects on arguments.
  switch (Kind) {
  case IntrinsicKind::MemDrop:
    for (const Operand &Op : T.Args)
      if (Op.isPlace())
        dropPlace(Op.P, State);
    break;
  case IntrinsicKind::Dealloc:
    if (!T.Args.empty() && T.Args[0].isPlace()) {
      BitVec Objs(NumObjects);
      placeValuePointees(State, T.Args[0].P, Objs);
      Objs.forEach([&](size_t O) {
        if (O != Objects.unknown())
          markDropped(State, static_cast<ObjId>(O));
      });
    }
    break;
  case IntrinsicKind::PtrWrite:
    if (!T.Args.empty() && T.Args[0].isPlace()) {
      BitVec Objs(NumObjects);
      placeValuePointees(State, T.Args[0].P, Objs);
      if (Objs.count() == 1 && !Objs.test(Objects.unknown())) {
        Objs.forEach([&](size_t O) {
          State.reset(UninitBase + O);
          State.reset(DroppedBase + O);
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
      if (Summary->DropsParamPointee[Param] && T.Args[I].isPlace()) {
        BitVec Objs(NumObjects);
        placeValuePointees(State, T.Args[I].P, Objs);
        Objs.forEach([&](size_t O) {
          if (O != Objects.unknown())
            markDropped(State, static_cast<ObjId>(O));
        });
      }
    }
  }

  if (!IsReturnEdge || !T.HasDest || !T.Dest.isLocal())
    return;

  // Destination update on the return edge.
  LocalId D = T.Dest.Base;
  ObjId DO = Objects.localObject(D);
  BitVec DestPts(NumObjects);

  switch (Kind) {
  case IntrinsicKind::BoxNew:
  case IntrinsicKind::ArcNew:
  case IntrinsicKind::Alloc: {
    ObjId H = Objects.heapObject(B);
    assert(H != ~0u && "allocating call without a heap object");
    DestPts.set(H);
    if (Kind == IntrinsicKind::Alloc)
      State.set(UninitBase + H); // alloc() returns uninitialized memory.
    else {
      State.reset(UninitBase + H);
      State.reset(DroppedBase + H);
    }
    break;
  }
  case IntrinsicKind::ArcClone:
    if (!T.Args.empty())
      operandPointees(State, T.Args[0], DestPts);
    break;
  case IntrinsicKind::MutexLock:
  case IntrinsicKind::RwLockRead:
  case IntrinsicKind::RwLockWrite:
  case IntrinsicKind::RefCellBorrow:
  case IntrinsicKind::RefCellBorrowMut: {
    // RefCell borrows follow the same shared/exclusive guard discipline
    // as RwLock; the held bits are keyed by the cell/lock root either way.
    std::vector<ObjId> Roots;
    if (!T.Args.empty())
      lockRoots(State, T.Args[0], Roots);
    bool Exclusive = isExclusiveAcquire(Kind) ||
                     Kind == IntrinsicKind::RefCellBorrowMut;
    for (ObjId R : Roots) {
      DestPts.set(R);
      State.set((Exclusive ? HeldExBase : HeldShBase) + R);
    }
    break;
  }
  case IntrinsicKind::PtrRead:
    DestPts.set(Objects.unknown());
    break;
  case IntrinsicKind::None: {
    if (Summary) {
      for (size_t I = 0; I != T.Args.size(); ++I) {
        unsigned Param = static_cast<unsigned>(I) + 1;
        if (Param < Summary->ReturnAliasesParamPointee.size() &&
            Summary->ReturnAliasesParamPointee[Param])
          operandPointees(State, T.Args[I], DestPts);
      }
    } else {
      // Opaque call: the result may alias any pointer argument or be fresh.
      for (const Operand &Op : T.Args)
        operandPointees(State, Op, DestPts);
    }
    ObjId H = Objects.heapObject(B);
    if (H != ~0u) {
      DestPts.set(H);
      State.reset(UninitBase + H);
      State.reset(DroppedBase + H);
    }
    break;
  }
  default:
    break;
  }

  setPtsFromObjSet(State, D, DestPts, /*Additive=*/false);
  State.reset(UninitBase + DO);
  State.reset(DroppedBase + DO);
}

std::vector<StatePoint> MemoryAnalysis::transitionSites(ObjEvent Event,
                                                        ObjId O) const {
  size_t Bit;
  switch (Event) {
  case ObjEvent::StorageDead:
    Bit = DeadBase + O;
    break;
  case ObjEvent::Dropped:
    Bit = DroppedBase + O;
    break;
  case ObjEvent::Uninit:
    Bit = UninitBase + O;
    break;
  case ObjEvent::HeldShared:
    Bit = HeldShBase + O;
    break;
  case ObjEvent::HeldExclusive:
    Bit = HeldExBase + O;
    break;
  }

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
      Edge = C.state();
      transferEdge(F.Blocks[B].Term, Succ, Edge);
      if (Edge.test(Bit)) {
        Out.push_back({B, F.Blocks[B].Statements.size(), F.Blocks[B].Term.Loc});
        break;
      }
    }
  }
  return Out;
}
