//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "testgen/Oracles.h"

#include "detectors/Detector.h"
#include "interp/Interp.h"
#include "mir/Parser.h"
#include "mir/Verifier.h"
#include "support/StringUtils.h"
#include "testgen/Metamorph.h"
#include "vm/Lower.h"
#include "vm/Vm.h"

#include <map>
#include <set>

namespace rs::testgen {

namespace {

constexpr std::string_view RenameSuffix = "__mm";

/// Per-(function, kind) finding counts — the verdict signature the
/// metamorphic oracles compare. Messages are excluded on purpose: they
/// legitimately embed local spellings the transforms change.
using Signature = std::map<std::pair<std::string, detectors::BugKind>, unsigned>;

Signature findingSignature(const mir::Module &M) {
  detectors::DiagnosticEngine Diags;
  detectors::runAllDetectors(M, Diags);
  Signature Sig;
  for (const detectors::Diagnostic &D : Diags.diagnostics())
    ++Sig[{D.Function, D.Kind}];
  return Sig;
}

std::string describeSignatureDiff(const Signature &A, const Signature &B) {
  for (const auto &[Key, N] : A) {
    auto It = B.find(Key);
    unsigned M = It == B.end() ? 0 : It->second;
    if (M != N)
      return Key.first + ": " + detectors::bugKindName(Key.second) + " x" +
             std::to_string(N) + " became x" + std::to_string(M);
  }
  for (const auto &[Key, M] : B)
    if (!A.count(Key))
      return Key.first + ": " + detectors::bugKindName(Key.second) +
             " x0 became x" + std::to_string(M);
  return "signatures differ";
}

/// Strips the rename suffix so renamed signatures compare against the
/// original spelling.
Signature stripSuffix(const Signature &Sig) {
  Signature Out;
  for (const auto &[Key, N] : Sig) {
    std::string Fn = Key.first;
    if (Fn.size() > RenameSuffix.size() && endsWith(Fn, RenameSuffix))
      Fn.resize(Fn.size() - RenameSuffix.size());
    Out[{Fn, Key.second}] += N;
  }
  return Out;
}

OracleResult fail(std::string Oracle, std::string Message) {
  return {std::move(Oracle), false, std::move(Message)};
}

OracleResult pass(std::string Oracle) { return {std::move(Oracle), true, ""}; }

} // namespace

OracleResult checkRoundTrip(const mir::Module &M) {
  std::string P1 = M.toString();
  auto R1 = mir::Parser::parse(P1, "<round-trip-1>");
  if (!R1)
    return fail("round-trip", "printed module failed to reparse: " +
                                  R1.error().toString());
  std::string P2 = R1->toString();
  auto R2 = mir::Parser::parse(P2, "<round-trip-2>");
  if (!R2)
    return fail("round-trip", "second print failed to reparse: " +
                                  R2.error().toString());
  std::string P3 = R2->toString();
  // One absorbing cycle: DebugNames print as comments that the parser
  // drops, so P1 may differ from P2 — but P2 must be a fixpoint.
  if (P2 != P3)
    return fail("round-trip", "print->parse->print is not a fixpoint");
  return pass("round-trip");
}

OracleResult checkRenameInvariance(const mir::Module &M) {
  std::optional<mir::Module> Renamed = renameFunctions(M, RenameSuffix);
  if (!Renamed)
    return fail("rename", "renamed module failed to parse");
  std::vector<std::string> Errors;
  if (!mir::verifyModule(*Renamed, Errors))
    return fail("rename", "renamed module failed to verify: " + Errors[0]);
  Signature Before = findingSignature(M);
  Signature After = stripSuffix(findingSignature(*Renamed));
  if (Before != After)
    return fail("rename", describeSignatureDiff(Before, After));
  return pass("rename");
}

OracleResult checkPermuteInvariance(const mir::Module &M, uint64_t Seed) {
  // Module is move-only; reparse our own print to get a mutable copy.
  auto Copy = mir::Parser::parse(M.toString(), "<permute>");
  if (!Copy)
    return fail("permute", "module failed to reparse: " +
                               Copy.error().toString());
  permuteBlocks(*Copy, Seed);
  std::vector<std::string> Errors;
  if (!mir::verifyModule(*Copy, Errors))
    return fail("permute", "permuted module failed to verify: " + Errors[0]);
  Signature Before = findingSignature(M);
  Signature After = findingSignature(*Copy);
  if (Before != After)
    return fail("permute", describeSignatureDiff(Before, After));
  return pass("permute");
}

OracleResult checkInterpVsUafDetector(const mir::Module &M) {
  interp::Interpreter::Options Opts;
  Opts.StepLimit = 200000;
  interp::Interpreter I(M, Opts);
  std::vector<interp::Trap> Traps = I.runAll();

  std::set<std::string> StaticUaf;
  {
    detectors::DiagnosticEngine Diags;
    detectors::runAllDetectors(M, Diags);
    for (const detectors::Diagnostic &D : Diags.diagnostics())
      if (D.Kind == detectors::BugKind::UseAfterFree)
        StaticUaf.insert(D.Function);
  }

  for (const interp::Trap &T : Traps) {
    if (T.Kind != interp::TrapKind::UseAfterFree &&
        T.Kind != interp::TrapKind::UseAfterScope)
      continue;
    // A dynamic use-after-free the static detector missed entirely: the
    // detector is built to over-approximate the interpreter.
    if (!StaticUaf.count(T.Function))
      return fail("interp-uaf", "interpreter trapped " +
                                    std::string(interp::trapKindName(T.Kind)) +
                                    " in '" + T.Function +
                                    "' with no use-after-free finding there");
  }
  return pass("interp-uaf");
}

OracleResult checkVmParity(const mir::Module &M) {
  vm::Program P = vm::compile(M);
  for (const auto &Fn : M.functions()) {
    interp::Interpreter::Options IOpts;
    IOpts.StepLimit = 200000;
    interp::Interpreter I(M, IOpts);
    interp::ExecResult RI = I.run(Fn.Name);

    vm::Vm::Options VOpts;
    VOpts.StepLimit = 200000;
    vm::Vm V(P, VOpts);
    interp::ExecResult RV = V.run(Fn.Name);

    auto Describe = [](const interp::ExecResult &R) {
      return R.Ok ? "completed in " + std::to_string(R.Steps) + " steps"
                  : R.Error->toString() + " after " +
                        std::to_string(R.Steps) + " steps";
    };
    if (RI.Ok != RV.Ok || RI.Steps != RV.Steps)
      return fail("vm-parity", "'" + Fn.Name.str() + "': interp " + Describe(RI) +
                                   ", vm " + Describe(RV));
    if (!RI.Ok && (RI.Error->Kind != RV.Error->Kind ||
                   RI.Error->Function != RV.Error->Function))
      return fail("vm-parity", "'" + Fn.Name.str() + "': interp " + Describe(RI) +
                                   ", vm " + Describe(RV));
    if (RI.Ok && RI.Return.toString() != RV.Return.toString())
      return fail("vm-parity", "'" + Fn.Name.str() + "': interp returned " +
                                   RI.Return.toString() + ", vm returned " +
                                   RV.Return.toString());
  }
  return pass("vm-parity");
}

OracleResult checkDetectorExpectation(const mir::Module &M,
                                      const InjectedBug &Label) {
  bool Known = false;
  for (size_t I = 0; I != diag::numBugRules(); ++I)
    Known |= diag::ruleInfo(diag::RuleId(I)).Detector == Label.Detector;
  if (!Known)
    return fail("expectation", "unknown detector '" + Label.Detector + "'");
  detectors::DiagnosticEngine Diags;
  detectors::runAllDetectors(M, Diags);
  size_t Hits = Diags.countOfDetector(Label.Detector);
  if (Label.Positive && Hits == 0)
    return fail("expectation", std::string(mutationName(Label.M)) +
                                   " injected in '" + Label.Function +
                                   "' but " + Label.Detector +
                                   " reported nothing");
  if (!Label.Positive && Hits != 0)
    return fail("expectation", std::string(mutationName(Label.M)) +
                                   " benign twin in '" + Label.Function +
                                   "' but " + Label.Detector + " reported " +
                                   std::to_string(Hits) + " finding(s)");
  return pass("expectation");
}

std::vector<OracleResult> failedOracles(const mir::Module &M,
                                        const InjectedBug *Label,
                                        uint64_t Seed) {
  std::vector<OracleResult> Failures;
  auto Keep = [&Failures](OracleResult R) {
    if (!R.Ok)
      Failures.push_back(std::move(R));
  };
  Keep(checkRoundTrip(M));
  Keep(checkRenameInvariance(M));
  Keep(checkPermuteInvariance(M, Seed));
  Keep(checkInterpVsUafDetector(M));
  Keep(checkVmParity(M));
  if (Label)
    Keep(checkDetectorExpectation(M, *Label));
  return Failures;
}

} // namespace rs::testgen
