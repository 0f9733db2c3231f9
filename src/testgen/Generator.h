//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A seeded, deterministic generator of random RustLite MIR programs. It
/// plants no bug pattern itself: it builds *structurally random* programs
/// through mir::Builder — nested branches, bounded loops, calls along a DAG of
/// generated functions, tuples, safe Box and Mutex use — while guaranteeing
/// by construction that every emitted module is verifier-clean, free of
/// planted bugs, and terminates under the interpreter. Bug patterns are
/// added afterwards by the mutators (Mutators.h), which keeps the labeling
/// exact: a generated module is a true negative until a mutator says
/// otherwise.
///
/// Determinism contract (docs/EVALUATION.md): one seed fully determines the
/// module, byte for byte, on every platform — generation never reads the
/// clock, the environment, or unordered containers.
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_TESTGEN_GENERATOR_H
#define RUSTSIGHT_TESTGEN_GENERATOR_H

#include "mir/Mir.h"

#include <cstdint>

namespace rs::testgen {

/// Size knobs for one generated module. The defaults produce small modules
/// (a handful of functions, tens of statements) — big enough to exercise
/// every analysis layer, small enough that a 10k-seed sweep stays fast.
struct GenConfig {
  uint64_t Seed = 1;

  /// Functions per module, drawn uniformly from [MinFunctions, MaxFunctions].
  unsigned MinFunctions = 2;
  unsigned MaxFunctions = 6;

  /// Cap on structured-statement recursion (if/loop nesting).
  unsigned MaxDepth = 3;

  /// Statements drawn per straight-line region.
  unsigned MaxRegionStatements = 5;

  /// Emit struct declarations and tuple/aggregate statements.
  bool WithAggregates = true;

  /// Emit safe Box::new / deref / drop sequences.
  bool WithHeap = true;

  /// Emit safe lock/unlock sequences on &Mutex<i32> parameters.
  bool WithLocks = true;

  /// Emit calls from later generated functions to earlier ones (a DAG, so
  /// generated programs never recurse and always terminate).
  bool WithCalls = true;
};

/// Generates one module per call; identical config (seed included) yields a
/// byte-identical module. The result is always verifier-clean and contains
/// no injected bug pattern.
class ProgramGenerator {
public:
  explicit ProgramGenerator(GenConfig Config) : Config(Config) {}

  mir::Module generate();

private:
  GenConfig Config;
};

} // namespace rs::testgen

#endif // RUSTSIGHT_TESTGEN_GENERATOR_H
