//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "testgen/Harness.h"

#include "mir/Parser.h"
#include "mir/Verifier.h"
#include "sched/Parallel.h"
#include "support/FaultInjection.h"
#include "support/Hash.h"
#include "support/Rng.h"
#include "testgen/Minimizer.h"

#include <exception>
#include <filesystem>
#include <fstream>

namespace rs::testgen {

namespace {

/// Everything one seed produced; merged in seed order after the parallel
/// phase so the report is independent of scheduling.
struct SeedOutcome {
  std::string Text;
  std::vector<SweepViolation> Violations;
};

/// True when \p Text still fails oracle \p Oracle — the minimization
/// predicate. Crash-class failures re-run the whole pipeline.
bool textFailsOracle(const std::string &Text, const std::string &Oracle,
                     const InjectedBug *Label, uint64_t Seed) {
  try {
    auto M = mir::Parser::parse(Text, "<sweep>");
    if (!M)
      return Oracle == "crash";
    std::vector<std::string> Errors;
    if (!mir::verifyModule(*M, Errors))
      return Oracle == "verify";
    for (const OracleResult &R : failedOracles(*M, Label, Seed))
      if (R.Oracle == Oracle)
        return true;
    return false;
  } catch (...) {
    return Oracle == "crash";
  }
}

void checkSeed(const SweepConfig &C, uint64_t Seed, SeedOutcome &Out) {
  std::optional<InjectedBug> Label;
  try {
    Out.Text = sweepModuleText(C, Seed, &Label);

    auto M = mir::Parser::parse(Out.Text, "<sweep>");
    if (!M) {
      Out.Violations.push_back({Seed, "parse",
                                "generated module failed to parse: " +
                                    M.error().toString(),
                                Out.Text, ""});
      return;
    }
    std::vector<std::string> Errors;
    if (!mir::verifyModule(*M, Errors)) {
      Out.Violations.push_back({Seed, "verify",
                                "generated module failed to verify: " +
                                    Errors[0],
                                Out.Text, ""});
      return;
    }
    for (OracleResult &R : failedOracles(
             *M, Label.has_value() ? &*Label : nullptr, Seed))
      Out.Violations.push_back(
          {Seed, R.Oracle, std::move(R.Message), Out.Text, ""});

    // Probe point so tests can drive the violation -> minimize -> repro
    // pipeline without needing a real oracle bug on hand.
    if (fault::shouldFail("testgen.oracle"))
      Out.Violations.push_back(
          {Seed, "injected-fault", "fault-injection probe armed", Out.Text,
           ""});
  } catch (const std::exception &E) {
    Out.Violations.push_back(
        {Seed, "crash", std::string("exception: ") + E.what(), Out.Text, ""});
  } catch (...) {
    Out.Violations.push_back(
        {Seed, "crash", "non-standard exception", Out.Text, ""});
  }

  // Minimize each violation (rare, so the extra oracle runs are cheap).
  for (SweepViolation &V : Out.Violations)
    V.MinimizedText = minimizeModuleText(
        V.MinimizedText,
        [&](const std::string &T) {
          return textFailsOracle(T, V.Oracle,
                                 Label.has_value() ? &*Label : nullptr, Seed);
        });
}

} // namespace

std::string sweepModuleText(const SweepConfig &C, uint64_t Seed,
                            std::optional<InjectedBug> *LabelOut) {
  GenConfig G = C.Gen;
  G.Seed = Seed;
  mir::Module M = ProgramGenerator(G).generate();

  std::optional<InjectedBug> Label;
  if (C.WithMutations) {
    // A separate stream from the generator's, so adding mutation rolls
    // never perturbs the base program at a given seed.
    Rng R(Seed * 0x9E3779B97F4A7C15ull + 0x6d);
    uint64_t Roll = R.below(3); // 0 = clean, 1 = buggy, 2 = benign twin.
    if (Roll != 0) {
      Mutation Mu = allMutations()[R.below(NumMutations)];
      Label = applyMutation(M, Mu, /*Positive=*/Roll == 1, /*Idx=*/0, R);
    }
  }
  if (LabelOut)
    *LabelOut = Label;
  return M.toString();
}

SweepReport runSweep(const SweepConfig &C) {
  if (C.SeedCount == 0) {
    // A zero-seed sweep checks nothing, and for years CI configs have been
    // one typo away from one. Reporting it "clean" would let that pass
    // silently; surface it as a violation instead.
    SweepReport Report;
    Report.Violations.push_back(
        {0, "config", "SeedCount is 0: a sweep over no seeds verifies nothing",
         "", ""});
    return Report;
  }
  std::vector<SeedOutcome> Outcomes(C.SeedCount);
  sched::parallelFor(C.Jobs, Outcomes.size(), [&](size_t I) {
    checkSeed(C, C.SeedStart + I, Outcomes[I]);
  });

  SweepReport Report;
  Report.SeedsRun = C.SeedCount;
  uint64_t H = Fnv1a64OffsetBasis;
  for (SeedOutcome &O : Outcomes) {
    H = fnv1a64(O.Text, H);
    H = fnv1a64("\n--\n", H); // Separator: split points matter.
    for (SweepViolation &V : O.Violations)
      Report.Violations.push_back(std::move(V));
  }
  Report.Digest = H;

  if (!C.RegressDir.empty() && !Report.Violations.empty()) {
    std::filesystem::create_directories(C.RegressDir);
    for (SweepViolation &V : Report.Violations) {
      std::string Name =
          "seed" + std::to_string(V.Seed) + "_" + V.Oracle + ".mir";
      std::filesystem::path P = std::filesystem::path(C.RegressDir) / Name;
      std::ofstream Out(P);
      Out << "// repro: sweep seed " << V.Seed << " violated the '"
          << V.Oracle << "' oracle\n";
      Out << "// " << V.Message << "\n\n";
      Out << V.MinimizedText;
      V.ReproPath = P.string();
    }
  }
  return Report;
}

std::string SweepReport::renderText() const {
  std::string Out = "swept " + std::to_string(SeedsRun) + " seeds, digest " +
                    hashToHex(Digest);
  if (clean())
    return Out + ": OK\n";
  Out += ": " + std::to_string(Violations.size()) + " violation(s)\n";
  for (const SweepViolation &V : Violations) {
    Out += "  seed " + std::to_string(V.Seed) + " [" + V.Oracle + "] " +
           V.Message + "\n";
    if (!V.ReproPath.empty())
      Out += "    repro: " + V.ReproPath + "\n";
  }
  return Out;
}

} // namespace rs::testgen
