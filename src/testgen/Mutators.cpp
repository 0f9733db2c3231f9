#include "testgen/Mutators.h"

#include "mir/Builder.h"
#include "testgen/Generator.h"

using namespace rs;
using namespace rs::testgen;
using namespace rs::mir;

const std::vector<Mutation> &rs::testgen::allMutations() {
  static const std::vector<Mutation> All = {
      Mutation::UafPostDrop,    Mutation::UafGuarded,
      Mutation::UseAfterScope,  Mutation::DanglingReturn,
      Mutation::DoubleLock,     Mutation::DoubleLockInterproc,
      Mutation::LockOrderInversion, Mutation::DoubleFree,
      Mutation::InvalidFree,    Mutation::UninitRead,
      Mutation::InteriorMutability, Mutation::CondvarWait,
      Mutation::ChannelRecv,    Mutation::RefCellConflict,
  };
  return All;
}

const char *rs::testgen::mutationName(Mutation M) {
  switch (M) {
  case Mutation::UafPostDrop:
    return "uaf-post-drop";
  case Mutation::UafGuarded:
    return "uaf-guarded";
  case Mutation::UseAfterScope:
    return "use-after-scope";
  case Mutation::DanglingReturn:
    return "dangling-return";
  case Mutation::DoubleLock:
    return "double-lock";
  case Mutation::DoubleLockInterproc:
    return "double-lock-interproc";
  case Mutation::LockOrderInversion:
    return "lock-order-inversion";
  case Mutation::DoubleFree:
    return "double-free";
  case Mutation::InvalidFree:
    return "invalid-free";
  case Mutation::UninitRead:
    return "uninit-read";
  case Mutation::InteriorMutability:
    return "interior-mutability";
  case Mutation::CondvarWait:
    return "condvar-wait";
  case Mutation::ChannelRecv:
    return "channel-recv";
  case Mutation::RefCellConflict:
    return "refcell-conflict";
  }
  return "?";
}

const char *rs::testgen::mutationDetector(Mutation M) {
  switch (M) {
  case Mutation::UafPostDrop:
  case Mutation::UafGuarded:
  case Mutation::UseAfterScope:
    return "use-after-free";
  case Mutation::DanglingReturn:
    return "dangling-return";
  case Mutation::DoubleLock:
  case Mutation::DoubleLockInterproc:
  case Mutation::RefCellConflict:
    return "double-lock";
  case Mutation::LockOrderInversion:
    return "conflicting-lock-order";
  case Mutation::DoubleFree:
    return "double-free";
  case Mutation::InvalidFree:
    return "invalid-free";
  case Mutation::UninitRead:
    return "uninitialized-read";
  case Mutation::InteriorMutability:
    return "interior-mutability";
  case Mutation::CondvarWait:
  case Mutation::ChannelRecv:
    return "missing-wakeup";
  }
  return "?";
}

namespace {

/// Shared helpers for pattern emission.
struct PatternCtx {
  Module &M;
  Rng &R;
  TypeContext &TC;

  PatternCtx(Module &M, Rng &R) : M(M), R(R), TC(M.types()) {}

  /// A few arithmetic statements on bracketed temporaries, so instances of
  /// one pattern differ without changing safety behavior.
  void filler(FunctionBuilder &FB, unsigned MaxStatements = 3) {
    unsigned N = 1 + static_cast<unsigned>(R.below(MaxStatements));
    for (unsigned I = 0; I != N; ++I) {
      LocalId T = FB.addLocal(TC.getI32());
      FB.storageLive(T);
      static const BinOp Ops[] = {BinOp::Add, BinOp::Sub, BinOp::Mul};
      FB.assign(Place(T),
                Rvalue::binary(Ops[R.below(3)],
                               Operand::constant(ConstValue::makeInt(
                                   static_cast<int64_t>(R.below(100)))),
                               Operand::constant(ConstValue::makeInt(
                                   1 + static_cast<int64_t>(R.below(50))))));
      FB.storageDead(T);
    }
  }

  int64_t smallInt() { return static_cast<int64_t>(R.below(256)); }
};

std::string patternFnName(Mutation M, bool Positive, unsigned Idx) {
  std::string Name = mutationName(M);
  for (char &C : Name)
    if (C == '-')
      C = '_';
  return Name + (Positive ? "_bug_" : "_ok_") + std::to_string(Idx);
}

/// Figure 7: a raw pointer into a Box outlives (buggy) or not (benign) the
/// Box's drop.
void emitUafPostDrop(PatternCtx &P, const std::string &Name, bool Positive) {
  const Type *BoxU8 = P.TC.getAdt("Box", {P.TC.getPrim(PrimKind::U8)});
  FunctionBuilder FB(P.M, Name, P.TC.getPrim(PrimKind::U8));
  LocalId B = FB.addLocal(BoxU8);
  LocalId Ptr = FB.addLocal(P.TC.getRawPtr(P.TC.getPrim(PrimKind::U8), false));
  P.filler(FB);
  FB.storageLive(B);
  FB.call(Place(B), "Box::new",
          {Operand::constant(ConstValue::makeInt(P.smallInt()))});
  FB.assign(Place(Ptr),
            Rvalue::addressOf(Place(B).project(ProjectionElem::deref()),
                              /*Mut=*/false));
  if (Positive) {
    FB.drop(Place(B));
    FB.assign(Place(FB.returnLocal()),
              Rvalue::use(Operand::copy(
                  Place(Ptr).project(ProjectionElem::deref()))));
  } else {
    FB.assign(Place(FB.returnLocal()),
              Rvalue::use(Operand::copy(
                  Place(Ptr).project(ProjectionElem::deref()))));
    FB.drop(Place(B));
  }
  FB.storageDead(B);
  FB.ret();
  FB.finish();
}

/// The drop happens only under a runtime condition: a static may-UAF. The
/// benign twin re-establishes the pointer on the dropping path.
void emitUafGuarded(PatternCtx &P, const std::string &Name, bool Positive) {
  const Type *BoxU8 = P.TC.getAdt("Box", {P.TC.getPrim(PrimKind::U8)});
  FunctionBuilder FB(P.M, Name, P.TC.getPrim(PrimKind::U8));
  LocalId Cond = FB.addArg(P.TC.getBool());
  LocalId B = FB.addLocal(BoxU8);
  LocalId Ptr = FB.addLocal(P.TC.getRawPtr(P.TC.getPrim(PrimKind::U8), false));
  P.filler(FB, 2);
  FB.call(Place(B), "Box::new",
          {Operand::constant(ConstValue::makeInt(P.smallInt()))});
  FB.assign(Place(Ptr),
            Rvalue::addressOf(Place(B).project(ProjectionElem::deref()),
                              /*Mut=*/false));
  BlockId DropBlock = FB.newBlock();
  BlockId Merge = FB.newBlock();
  FB.switchInt(Operand::copy(Place(Cond)), {{1, DropBlock}}, Merge);
  FB.setInsertPoint(DropBlock);
  if (Positive) {
    // The buggy shape: the dropping path rejoins the path that still
    // dereferences the pointer — a may-use-after-free.
    FB.dropTo(Place(B), Merge);
  } else {
    // The published fix shape: the dropping path returns early, so no
    // path reaching the dereference has dropped the box.
    BlockId Early = FB.newBlock();
    FB.dropTo(Place(B), Early);
    FB.setInsertPoint(Early);
    FB.assign(Place(FB.returnLocal()),
              Rvalue::use(Operand::constant(ConstValue::makeInt(0))));
    FB.ret();
  }
  FB.setInsertPoint(Merge);
  FB.assign(Place(FB.returnLocal()),
            Rvalue::use(Operand::copy(
                Place(Ptr).project(ProjectionElem::deref()))));
  FB.ret();
  FB.finish();
}

/// Deref of a raw pointer to a local whose storage has ended (buggy) or is
/// still live (benign).
void emitUseAfterScope(PatternCtx &P, const std::string &Name, bool Positive) {
  FunctionBuilder FB(P.M, Name, P.TC.getI32());
  LocalId L = FB.addLocal(P.TC.getI32());
  LocalId Ptr = FB.addLocal(P.TC.getRawPtr(P.TC.getI32(), false));
  P.filler(FB);
  FB.storageLive(L);
  FB.assign(Place(L), Rvalue::use(Operand::constant(
                          ConstValue::makeInt(P.smallInt()))));
  FB.assign(Place(Ptr), Rvalue::addressOf(Place(L), /*Mut=*/false));
  if (Positive) {
    FB.storageDead(L);
    FB.assign(Place(FB.returnLocal()),
              Rvalue::use(Operand::copy(
                  Place(Ptr).project(ProjectionElem::deref()))));
  } else {
    FB.assign(Place(FB.returnLocal()),
              Rvalue::use(Operand::copy(
                  Place(Ptr).project(ProjectionElem::deref()))));
    FB.storageDead(L);
  }
  FB.ret();
  FB.finish();
}

/// Section 4.3: return a pointer into the function's own frame (buggy) or
/// into a leaked heap object that outlives the call (benign).
void emitDanglingReturn(PatternCtx &P, const std::string &Name,
                        bool Positive) {
  const Type *I32Ptr = P.TC.getRawPtr(P.TC.getI32(), false);
  FunctionBuilder FB(P.M, Name, I32Ptr);
  P.filler(FB);
  if (Positive) {
    LocalId L = FB.addLocal(P.TC.getI32());
    FB.storageLive(L);
    FB.assign(Place(L), Rvalue::use(Operand::constant(
                            ConstValue::makeInt(P.smallInt()))));
    FB.assign(Place(FB.returnLocal()),
              Rvalue::addressOf(Place(L), /*Mut=*/false));
  } else {
    LocalId Heap = FB.addLocal(P.TC.getRawPtr(P.TC.getI32(), true));
    FB.call(Place(Heap), "alloc",
            {Operand::constant(ConstValue::makeInt(8))});
    FB.assign(Place(Heap).project(ProjectionElem::deref()),
              Rvalue::use(Operand::constant(
                  ConstValue::makeInt(P.smallInt()))));
    FB.assign(Place(FB.returnLocal()),
              Rvalue::use(Operand::copy(Place(Heap))));
  }
  FB.ret();
  FB.finish();
}

/// Figure 8: the second Mutex::lock runs while (buggy) or after (benign)
/// the first guard's lifetime.
void emitDoubleLock(PatternCtx &P, const std::string &Name, bool Positive,
                    bool Interproc, unsigned Idx) {
  const Type *MutexI32 = P.TC.getAdt("Mutex", {P.TC.getI32()});
  const Type *MutexRef = P.TC.getRef(MutexI32, false);
  const Type *Guard = P.TC.getAdt("MutexGuard", {P.TC.getI32()});

  std::string Helper;
  if (Interproc) {
    Helper = Name + "_helper_" + std::to_string(Idx);
    FunctionBuilder HB(P.M, Helper, P.TC.getI32());
    LocalId Arg = HB.addArg(MutexRef);
    LocalId G = HB.addLocal(Guard);
    P.filler(HB, 2);
    HB.storageLive(G);
    HB.call(Place(G), "Mutex::lock", {Operand::copy(Place(Arg))});
    HB.assign(Place(HB.returnLocal()),
              Rvalue::use(Operand::copy(
                  Place(G).project(ProjectionElem::deref()))));
    HB.storageDead(G);
    HB.ret();
    HB.finish();
  }

  FunctionBuilder FB(P.M, Name, P.TC.getI32());
  LocalId Arg = FB.addArg(MutexRef);
  LocalId G1 = FB.addLocal(Guard);
  P.filler(FB);
  FB.storageLive(G1);
  FB.call(Place(G1), "Mutex::lock", {Operand::copy(Place(Arg))});
  if (!Positive)
    FB.storageDead(G1); // The published fix: first critical section ends.
  if (Interproc) {
    FB.call(Place(FB.returnLocal()), Helper, {Operand::copy(Place(Arg))});
  } else {
    LocalId G2 = FB.addLocal(Guard);
    FB.storageLive(G2);
    FB.call(Place(G2), "Mutex::lock", {Operand::copy(Place(Arg))});
    FB.assign(Place(FB.returnLocal()),
              Rvalue::use(Operand::copy(
                  Place(G2).project(ProjectionElem::deref()))));
    FB.storageDead(G2);
  }
  if (Positive)
    FB.storageDead(G1);
  FB.ret();
  FB.finish();
}

/// The function \p Name spawns \p First and, unless it is empty, \p Second:
/// threads spawned by one parent form one thread group.
void emitSpawner(PatternCtx &P, const std::string &Name,
                 const std::string &First, const std::string &Second) {
  FunctionBuilder SB(P.M, Name);
  for (const std::string *Entry : {&First, &Second}) {
    if (Entry->empty())
      continue;
    LocalId U = SB.addLocal(P.TC.getUnit());
    SB.call(Place(U), "thread::spawn",
            {Operand::constant(ConstValue::makeStr(*Entry))});
  }
  SB.ret();
  SB.finish();
}

/// ABBA deadlock: two spawned thread entries acquire two positional locks
/// in conflicting (buggy) or consistent (benign) order.
void emitLockOrder(PatternCtx &P, const std::string &Name, bool Positive,
                   unsigned Idx) {
  const Type *MutexI32 = P.TC.getAdt("Mutex", {P.TC.getI32()});
  const Type *MutexRef = P.TC.getRef(MutexI32, false);
  const Type *Guard = P.TC.getAdt("MutexGuard", {P.TC.getI32()});

  auto EmitThread = [&](const std::string &ThreadName, bool Swap) {
    FunctionBuilder FB(P.M, ThreadName);
    LocalId A = FB.addArg(MutexRef);
    LocalId B = FB.addArg(MutexRef);
    LocalId G1 = FB.addLocal(Guard);
    LocalId G2 = FB.addLocal(Guard);
    P.filler(FB, 2);
    FB.storageLive(G1);
    FB.call(Place(G1), "Mutex::lock", {Operand::copy(Place(Swap ? B : A))});
    FB.storageLive(G2);
    FB.call(Place(G2), "Mutex::lock", {Operand::copy(Place(Swap ? A : B))});
    FB.storageDead(G2);
    FB.storageDead(G1);
    FB.ret();
    FB.finish();
  };

  std::string T1 = Name + "_t1_" + std::to_string(Idx);
  std::string T2 = Name + "_t2_" + std::to_string(Idx);
  EmitThread(T1, /*Swap=*/false);
  EmitThread(T2, /*Swap=*/Positive); // Benign pairs share one order.
  emitSpawner(P, Name, T1, T2);
}

/// Section 5.1: ptr::read duplicates ownership so two owners drop one
/// pointee; the benign twin mem::forgets the original owner.
void emitDoubleFree(PatternCtx &P, const std::string &Name, bool Positive) {
  const Type *BoxU8 = P.TC.getAdt("Box", {P.TC.getPrim(PrimKind::U8)});
  FunctionBuilder FB(P.M, Name);
  LocalId T1 = FB.addLocal(BoxU8);
  LocalId Ref = FB.addLocal(P.TC.getRef(BoxU8, false));
  LocalId T2 = FB.addLocal(BoxU8);
  P.filler(FB);
  FB.call(Place(T1), "Box::new",
          {Operand::constant(ConstValue::makeInt(P.smallInt()))});
  FB.assign(Place(Ref), Rvalue::ref(Place(T1), /*Mut=*/false));
  FB.call(Place(T2), "ptr::read", {Operand::copy(Place(Ref))});
  if (Positive) {
    FB.drop(Place(T2));
    FB.drop(Place(T1));
  } else {
    LocalId U = FB.addLocal(P.TC.getUnit());
    FB.call(Place(U), "mem::forget", {Operand::move(Place(T1))});
    FB.drop(Place(T2));
  }
  FB.ret();
  FB.finish();
}

/// Figure 6: assigning a Drop struct through a pointer to uninitialized
/// memory drops the uninitialized old contents; ptr::write is the fix.
void emitInvalidFree(PatternCtx &P, const std::string &Name, bool Positive) {
  const Type *PacketTy = P.TC.getAdt("GenPacket");
  const Type *PacketPtr = P.TC.getRawPtr(PacketTy, true);
  const Type *VecU8 = P.TC.getAdt("Vec", {P.TC.getPrim(PrimKind::U8)});

  FunctionBuilder FB(P.M, Name);
  LocalId Ptr = FB.addLocal(PacketPtr);
  LocalId V = FB.addLocal(VecU8);
  LocalId Tmp = FB.addLocal(PacketTy);
  P.filler(FB);
  FB.call(Place(Ptr), "alloc",
          {Operand::constant(
              ConstValue::makeInt(16 + static_cast<int64_t>(P.R.below(64))))});
  FB.call(Place(V), "Vec::with_capacity",
          {Operand::constant(ConstValue::makeInt(
              1 + static_cast<int64_t>(P.R.below(100))))});
  FB.assign(Place(Tmp),
            Rvalue::aggregate("GenPacket", {Operand::move(Place(V))}));
  if (Positive) {
    FB.assign(Place(Ptr).project(ProjectionElem::deref()),
              Rvalue::use(Operand::move(Place(Tmp))));
  } else {
    LocalId U = FB.addLocal(P.TC.getUnit());
    FB.call(Place(U), "ptr::write",
            {Operand::copy(Place(Ptr)), Operand::move(Place(Tmp))});
  }
  FB.ret();
  FB.finish();
}

/// Reading a buffer fresh out of alloc() before (buggy) or after (benign)
/// its first initialization.
void emitUninitRead(PatternCtx &P, const std::string &Name, bool Positive) {
  const Type *U8Ptr = P.TC.getRawPtr(P.TC.getPrim(PrimKind::U8), true);
  FunctionBuilder FB(P.M, Name, P.TC.getPrim(PrimKind::U8));
  LocalId Ptr = FB.addLocal(U8Ptr);
  P.filler(FB);
  FB.call(Place(Ptr), "alloc",
          {Operand::constant(
              ConstValue::makeInt(8 + static_cast<int64_t>(P.R.below(8))))});
  if (!Positive)
    FB.assign(Place(Ptr).project(ProjectionElem::deref()),
              Rvalue::use(Operand::constant(
                  ConstValue::makeInt(P.smallInt()))));
  FB.assign(Place(FB.returnLocal()),
            Rvalue::use(Operand::copy(
                Place(Ptr).project(ProjectionElem::deref()))));
  FB.ret();
  FB.finish();
}

/// Figure 9: a &self method of a Sync type writes a plain field through a
/// const-to-mut pointer cast (buggy) or swaps it atomically (benign).
void emitInteriorMutability(PatternCtx &P, const std::string &Name,
                            bool Positive) {
  const Type *SelfRef = P.TC.getRef(P.TC.getAdt("SharedState"), false);
  FunctionBuilder FB(P.M, Name, P.TC.getI32());
  LocalId SelfArg = FB.addArg(SelfRef);
  P.filler(FB, 2);
  Place Field = Place(SelfArg)
                    .project(ProjectionElem::deref())
                    .project(ProjectionElem::field(0));
  if (Positive) {
    LocalId FieldRef = FB.addLocal(P.TC.getRef(P.TC.getBool(), false));
    LocalId Ptr = FB.addLocal(P.TC.getRawPtr(P.TC.getBool(), true));
    FB.assign(Place(FieldRef), Rvalue::ref(Field, /*Mut=*/false));
    FB.assign(Place(Ptr), Rvalue::cast(Operand::copy(Place(FieldRef)),
                                       P.TC.getRawPtr(P.TC.getBool(), true)));
    FB.assign(Place(Ptr).project(ProjectionElem::deref()),
              Rvalue::use(Operand::constant(ConstValue::makeBool(true))));
  } else {
    LocalId FieldRef =
        FB.addLocal(P.TC.getRef(P.TC.getAdt("AtomicBool"), false));
    LocalId Old = FB.addLocal(P.TC.getBool());
    FB.assign(Place(FieldRef), Rvalue::ref(Field, /*Mut=*/false));
    FB.call(Place(Old), "AtomicBool::compare_and_swap",
            {Operand::copy(Place(FieldRef)),
             Operand::constant(ConstValue::makeBool(false)),
             Operand::constant(ConstValue::makeBool(true))});
  }
  FB.assign(Place(FB.returnLocal()),
            Rvalue::use(Operand::constant(ConstValue::makeInt(0))));
  FB.ret();
  FB.finish();
}

/// Table 3: a thread blocks in Condvar::wait; the benign twin's spawner
/// also starts a notifier thread, the buggy one does not.
void emitCondvarWait(PatternCtx &P, const std::string &Name, bool Positive,
                     unsigned Idx) {
  const Type *CvRef = P.TC.getRef(P.TC.getAdt("Condvar"), false);
  const Type *MutexRef =
      P.TC.getRef(P.TC.getAdt("Mutex", {P.TC.getI32()}), false);
  const Type *Guard = P.TC.getAdt("MutexGuard", {P.TC.getI32()});
  {
    FunctionBuilder FB(P.M, Name);
    LocalId Cv = FB.addArg(CvRef);
    LocalId Mx = FB.addArg(MutexRef);
    LocalId G = FB.addLocal(Guard);
    P.filler(FB, 2);
    FB.storageLive(G);
    FB.call(Place(G), "Mutex::lock", {Operand::copy(Place(Mx))});
    FB.call(Place(G), "Condvar::wait",
            {Operand::copy(Place(Cv)), Operand::move(Place(G))});
    FB.storageDead(G);
    FB.ret();
    FB.finish();
  }
  std::string Notifier;
  if (!Positive) {
    Notifier = Name + "_notifier_" + std::to_string(Idx);
    FunctionBuilder FB(P.M, Notifier);
    LocalId Cv = FB.addArg(CvRef);
    LocalId U = FB.addLocal(P.TC.getUnit());
    FB.call(Place(U), "Condvar::notify_one", {Operand::copy(Place(Cv))});
    FB.ret();
    FB.finish();
  }
  emitSpawner(P, Name + "_spawner_" + std::to_string(Idx), Name, Notifier);
}

/// Table 3: a thread blocks in Receiver::recv; the benign twin's spawner
/// also starts a sender thread, the buggy one does not.
void emitChannelRecv(PatternCtx &P, const std::string &Name, bool Positive,
                     unsigned Idx) {
  {
    FunctionBuilder FB(P.M, Name, P.TC.getI32());
    LocalId Rx = FB.addArg(
        P.TC.getRef(P.TC.getAdt("Receiver", {P.TC.getI32()}), false));
    P.filler(FB, 2);
    FB.call(Place(FB.returnLocal()), "Receiver::recv",
            {Operand::copy(Place(Rx))});
    FB.ret();
    FB.finish();
  }
  std::string Sender;
  if (!Positive) {
    Sender = Name + "_sender_" + std::to_string(Idx);
    FunctionBuilder FB(P.M, Sender);
    LocalId Tx = FB.addArg(
        P.TC.getRef(P.TC.getAdt("Sender", {P.TC.getI32()}), false));
    LocalId U = FB.addLocal(P.TC.getUnit());
    FB.call(Place(U), "Sender::send",
            {Operand::copy(Place(Tx)),
             Operand::constant(ConstValue::makeInt(1))});
    FB.ret();
    FB.finish();
  }
  emitSpawner(P, Name + "_spawner_" + std::to_string(Idx), Name, Sender);
}

/// Insight 9: a second borrow_mut while the first borrow's guard is alive
/// panics at runtime; the benign twin ends the first borrow first.
void emitRefCellConflict(PatternCtx &P, const std::string &Name,
                         bool Positive) {
  const Type *CellRef =
      P.TC.getRef(P.TC.getAdt("RefCell", {P.TC.getI32()}), false);
  const Type *RefMut = P.TC.getAdt("RefMut", {P.TC.getI32()});
  FunctionBuilder FB(P.M, Name, P.TC.getI32());
  LocalId Arg = FB.addArg(CellRef);
  LocalId G1 = FB.addLocal(RefMut);
  LocalId G2 = FB.addLocal(RefMut);
  P.filler(FB, 2);
  FB.storageLive(G1);
  FB.call(Place(G1), "RefCell::borrow_mut", {Operand::copy(Place(Arg))});
  if (!Positive)
    FB.storageDead(G1);
  FB.storageLive(G2);
  FB.call(Place(G2), "RefCell::borrow_mut", {Operand::copy(Place(Arg))});
  FB.assign(Place(FB.returnLocal()),
            Rvalue::use(Operand::copy(
                Place(G2).project(ProjectionElem::deref()))));
  FB.storageDead(G2);
  if (Positive)
    FB.storageDead(G1);
  FB.ret();
  FB.finish();
}

/// Declares the Drop-carrying struct InvalidFree stores, once per module.
void ensureGenPacket(Module &M) {
  if (M.findStruct("GenPacket"))
    return;
  StructDecl S;
  S.Name = Symbol::intern("GenPacket");
  S.Fields.emplace_back(
      "buf", M.types().getAdt("Vec", {M.types().getPrim(PrimKind::U8)}));
  S.HasDrop = true;
  M.addStruct(std::move(S));
}

/// Declares the Sync struct InteriorMutability writes, once per module.
void ensureSharedState(Module &M) {
  if (M.findStruct("SharedState"))
    return;
  StructDecl S;
  S.Name = Symbol::intern("SharedState");
  S.Fields.emplace_back("flag", M.types().getBool());
  M.addStruct(std::move(S));
  M.addSyncImpl("SharedState");
}

} // namespace

InjectedBug rs::testgen::applyMutation(Module &Mod, Mutation M, bool Positive,
                                       unsigned Idx, Rng &R) {
  PatternCtx Ctx(Mod, R);
  InjectedBug Label;
  Label.M = M;
  Label.Positive = Positive;
  Label.Function = patternFnName(M, Positive, Idx);
  Label.Detector = mutationDetector(M);

  switch (M) {
  case Mutation::UafPostDrop:
    emitUafPostDrop(Ctx, Label.Function, Positive);
    break;
  case Mutation::UafGuarded:
    emitUafGuarded(Ctx, Label.Function, Positive);
    break;
  case Mutation::UseAfterScope:
    emitUseAfterScope(Ctx, Label.Function, Positive);
    break;
  case Mutation::DanglingReturn:
    emitDanglingReturn(Ctx, Label.Function, Positive);
    break;
  case Mutation::DoubleLock:
    emitDoubleLock(Ctx, Label.Function, Positive, /*Interproc=*/false, Idx);
    break;
  case Mutation::DoubleLockInterproc:
    emitDoubleLock(Ctx, Label.Function, Positive, /*Interproc=*/true, Idx);
    break;
  case Mutation::LockOrderInversion:
    emitLockOrder(Ctx, Label.Function, Positive, Idx);
    break;
  case Mutation::DoubleFree:
    emitDoubleFree(Ctx, Label.Function, Positive);
    break;
  case Mutation::InvalidFree:
    ensureGenPacket(Mod);
    emitInvalidFree(Ctx, Label.Function, Positive);
    break;
  case Mutation::UninitRead:
    emitUninitRead(Ctx, Label.Function, Positive);
    break;
  case Mutation::InteriorMutability:
    ensureSharedState(Mod);
    emitInteriorMutability(Ctx, Label.Function, Positive);
    break;
  case Mutation::CondvarWait:
    emitCondvarWait(Ctx, Label.Function, Positive, Idx);
    break;
  case Mutation::ChannelRecv:
    emitChannelRecv(Ctx, Label.Function, Positive, Idx);
    break;
  case Mutation::RefCellConflict:
    emitRefCellConflict(Ctx, Label.Function, Positive);
    break;
  }
  return Label;
}

Module rs::testgen::plantedModule(uint64_t Seed, unsigned FillerFunctions,
                                  const std::vector<Plant> &Plants) {
  GenConfig G;
  G.Seed = Seed;
  G.MinFunctions = G.MaxFunctions = FillerFunctions;
  Module M = ProgramGenerator(G).generate();
  // Instance numbers run across the whole module, so two entries for one
  // pattern never plant the same function name.
  Rng R(Seed);
  unsigned Idx = 0;
  for (const Plant &P : Plants)
    for (unsigned I = 0; I != P.Count; ++I)
      applyMutation(M, P.M, P.Positive, Idx++, R);
  return M;
}

unsigned rs::testgen::plantedBugCount(const std::vector<Plant> &Plants) {
  unsigned N = 0;
  for (const Plant &P : Plants)
    N += P.Positive ? P.Count : 0;
  return N;
}
