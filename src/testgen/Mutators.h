//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bug-injection mutators: given a clean generated module, each mutator
/// plants one known defect pattern (or its benign twin, the paper's
/// published fix shape) and returns an exact label — which detector must
/// (positive) or must not (benign) fire, and in which function. The catalog
/// covers every use-after-free and double-lock shape from Section 7 plus
/// the paper's suggested detectors: post-drop use (Figure 7), guarded
/// may-UAF, use-after-scope, dangling return (Section 4.3), double lock
/// direct and through a callee (Figure 8), ABBA lock-order inversion,
/// ptr::read double free, Figure 6 invalid free, uninitialized reads, the
/// Figure 9 interior-mutability race, the Table 3 blocking bugs on Condvar
/// and channels, and Insight 9's RefCell borrow conflict. It is the only
/// code that plants a bug pattern: the eval corpus, the sweep, the fuzzer
/// and the Section 7 benches all draw from it.
///
/// Mutators draw structure noise from the caller's Rng, so two injections
/// of the same pattern differ in filler while keeping the defect identical
/// — the labeled-corpus analogue of the same bug appearing in different
/// surrounding code.
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_TESTGEN_MUTATORS_H
#define RUSTSIGHT_TESTGEN_MUTATORS_H

#include "mir/Mir.h"
#include "support/Rng.h"

#include <cstdint>
#include <string>
#include <vector>

namespace rs::testgen {

/// The defect catalog. Each entry has a buggy form and a benign twin.
enum class Mutation {
  UafPostDrop,        ///< Deref a raw pointer after the Box is dropped.
  UafGuarded,         ///< The drop is branch-guarded: a may-UAF.
  UseAfterScope,      ///< Deref a pointer to a StorageDead local.
  DanglingReturn,     ///< Return a pointer into the function's own frame.
  DoubleLock,         ///< Re-lock while the first guard is alive.
  DoubleLockInterproc,///< The second lock happens inside a callee.
  LockOrderInversion, ///< ABBA between two spawned thread entry points.
  DoubleFree,         ///< ptr::read duplicates ownership; both owners drop.
  InvalidFree,        ///< Store a Drop struct through a raw pointer to
                      ///< uninitialized memory (Figure 6).
  UninitRead,         ///< Read through a pointer fresh out of alloc().
  InteriorMutability, ///< A &self method of a Sync type writes a field
                      ///< through a pointer cast (Figure 9).
  CondvarWait,        ///< Condvar::wait with no notifier thread.
  ChannelRecv,        ///< Receiver::recv with no sender thread.
  RefCellConflict,    ///< RefCell::borrow_mut while a borrow is alive.
};

/// The prefix of allMutations() that the random samplers draw from: the
/// sweep (Harness.cpp), the fuzzer (Fuzz.cpp) and perfbench's generated
/// corpus. It stays at the first ten entries so their seed-to-module maps,
/// and with them the sweep digest and the benchmark inputs, do not move
/// when the catalog grows; entries past it are planted only by name.
inline constexpr unsigned NumMutations = 10;

/// All catalog entries, in declaration order; the first NumMutations are
/// the sampled prefix.
const std::vector<Mutation> &allMutations();

/// Stable identifier, e.g. "uaf-post-drop".
const char *mutationName(Mutation M);

/// The battery detector that reports the buggy form ("use-after-free",
/// ...). Several rules share a detector: Condvar and channel bugs come from
/// "missing-wakeup", RefCell conflicts from "double-lock".
const char *mutationDetector(Mutation M);

/// The label a mutator hands back: which function carries the pattern and
/// what verdict the target detector must reach there.
struct InjectedBug {
  Mutation M = Mutation::UafPostDrop;
  bool Positive = true;      ///< False for the benign twin.
  std::string Function;      ///< Primary pattern function.
  std::string Detector;      ///< mutationDetector(M).
};

/// Plants \p M (buggy when \p Positive, the fixed twin otherwise) into
/// \p Mod as one or more new functions named "<pattern>_<Idx>...". The
/// module stays verifier-clean. Returns the label.
InjectedBug applyMutation(mir::Module &Mod, Mutation M, bool Positive,
                          unsigned Idx, Rng &R);

/// \p Count instances of \p M, buggy or benign, for plantedModule().
struct Plant {
  Mutation M = Mutation::UafPostDrop;
  bool Positive = true;
  unsigned Count = 0;
};

/// A module with known bug counts: a ProgramGenerator host of exactly
/// \p FillerFunctions bug-free functions, then one applyMutation() call per
/// planted instance, in \p Plants order. The mutators draw their noise from
/// one stream seeded by \p Seed. Each buggy instance yields one finding
/// from its detector; benign ones yield none.
mir::Module plantedModule(uint64_t Seed, unsigned FillerFunctions,
                          const std::vector<Plant> &Plants);

/// Total Count over the buggy entries of \p Plants: the number of findings
/// plantedModule() is built to produce.
unsigned plantedBugCount(const std::vector<Plant> &Plants);

} // namespace rs::testgen

#endif // RUSTSIGHT_TESTGEN_MUTATORS_H
