// The mutated-corpus oracle for the VM (satellite of the VM PR): every
// bug-injection mutator's buggy form must trap in the VM exactly as it
// does in the tree interpreter, and every benign twin must complete — the
// VM is only a trustworthy fuzzing engine if injected ground truth
// round-trips through it. For the dynamically observable patterns we also
// pin the exact trap kind, so a classification regression (e.g. a
// Deadlock reported as UseAfterFree) cannot hide behind mere agreement.

#include "interp/Interp.h"
#include "testgen/Generator.h"
#include "testgen/Mutators.h"
#include "vm/Lower.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

#include <optional>

using namespace rs;
using namespace rs::interp;
using namespace rs::testgen;

namespace {

struct PatternOutcome {
  ExecResult Interp;
  ExecResult Vm;
};

/// Injects \p Mu into a freshly generated module and runs the labeled
/// pattern function on both engines.
PatternOutcome runPattern(Mutation Mu, bool Positive, uint64_t Seed) {
  GenConfig G;
  G.Seed = Seed;
  mir::Module M = ProgramGenerator(G).generate();
  Rng R(Seed * 0x9E3779B97F4A7C15ull + static_cast<unsigned>(Mu));
  InjectedBug Label = applyMutation(M, Mu, Positive, 500, R);

  Interpreter::Options IOpts;
  IOpts.StepLimit = 200000;
  Interpreter I(M, IOpts);

  vm::Program P = vm::compile(M);
  vm::Vm::Options VOpts;
  VOpts.StepLimit = 200000;
  vm::Vm V(P, VOpts);

  PatternOutcome O;
  O.Interp = I.run(Label.Function);
  O.Vm = V.run(Label.Function);
  return O;
}

void expectAgreement(const PatternOutcome &O, const char *What) {
  ASSERT_EQ(O.Interp.Ok, O.Vm.Ok)
      << What << ": interp "
      << (O.Interp.Ok ? "completed" : O.Interp.Error->toString()) << ", vm "
      << (O.Vm.Ok ? "completed" : O.Vm.Error->toString());
  EXPECT_EQ(O.Interp.Steps, O.Vm.Steps) << What;
  if (!O.Interp.Ok) {
    EXPECT_EQ(O.Interp.Error->Kind, O.Vm.Error->Kind)
        << What << ": interp " << O.Interp.Error->toString() << ", vm "
        << O.Vm.Error->toString();
    EXPECT_EQ(O.Interp.Error->Function, O.Vm.Error->Function) << What;
  }
}

/// The trap a single default-argument execution of the pattern function
/// observes, for the mutations whose defect lies on that path. The others
/// (guarded may-UAF, dangling return without a deref, cross-thread lock
/// inversion under a sequential schedule) are statically detectable but
/// dynamically silent — exactly Miri's path-coverage limitation the paper
/// describes — so for them we only require engine agreement.
std::optional<TrapKind> dynamicTrapOf(Mutation Mu) {
  switch (Mu) {
  case Mutation::UafPostDrop:
    return TrapKind::UseAfterFree;
  case Mutation::UseAfterScope:
    return TrapKind::UseAfterScope;
  case Mutation::DoubleLock:
  case Mutation::DoubleLockInterproc:
    return TrapKind::Deadlock;
  case Mutation::DoubleFree:
    return TrapKind::DoubleFree;
  case Mutation::InvalidFree:
    return TrapKind::InvalidFree;
  case Mutation::UninitRead:
    return TrapKind::UninitRead;
  case Mutation::RefCellConflict:
    return TrapKind::BorrowPanic;
  default:
    return std::nullopt;
  }
}

} // namespace

TEST(VmMutator, BuggyFormsTrapIdentically) {
  for (Mutation Mu : allMutations()) {
    for (uint64_t Seed : {3, 11}) {
      PatternOutcome O = runPattern(Mu, /*Positive=*/true, Seed);
      expectAgreement(O, mutationName(Mu));
      if (std::optional<TrapKind> Expected = dynamicTrapOf(Mu)) {
        ASSERT_FALSE(O.Vm.Ok)
            << mutationName(Mu) << " seed " << Seed
            << ": buggy pattern completed without a trap";
        EXPECT_EQ(O.Vm.Error->Kind, *Expected)
            << mutationName(Mu) << " seed " << Seed << ": "
            << O.Vm.Error->toString();
      }
    }
  }
}

TEST(VmMutator, BenignTwinsCompleteIdentically) {
  for (Mutation Mu : allMutations()) {
    for (uint64_t Seed : {3, 11}) {
      PatternOutcome O = runPattern(Mu, /*Positive=*/false, Seed);
      expectAgreement(O, mutationName(Mu));
      // A benign twin that traps dynamically would poison the labeled
      // corpus; the twin of a dynamically observable bug must run clean.
      if (dynamicTrapOf(Mu))
        EXPECT_TRUE(O.Vm.Ok)
            << mutationName(Mu) << " seed " << Seed << " benign twin: "
            << O.Vm.Error->toString();
    }
  }
}
