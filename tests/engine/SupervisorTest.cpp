//===----------------------------------------------------------------------===//
//
// End-to-end tests for the process-level supervision layer: supervised
// runs respawn the real rustsight binary (RS_RUSTSIGHT_BIN) in worker
// mode, so these exercise the wire protocol, watchdog, retry/bisect
// quarantine, and checkpoint/resume against genuine subprocesses.
//
// The determinism contract under test: the rendered report is
// byte-identical across in-process vs supervised execution, every shard
// count, and any crash/retry/resume history — only the quarantined file
// itself may differ from a fault-free run, and identically so however the
// corpus was sharded around it.
//
//===----------------------------------------------------------------------===//

#include "engine/Supervisor.h"

#include "corpus/CorpusWalk.h"
#include "detectors/Detector.h"
#include "diag/Diag.h"
#include "engine/Checkpoint.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

namespace fs = std::filesystem;
using namespace rs;
using namespace rs::engine;

namespace {

const char *CleanSrcA = "fn clean_a() -> i32 {\n"
                        "    bb0: {\n"
                        "        _0 = const 1;\n"
                        "        return;\n"
                        "    }\n"
                        "}\n";

const char *CleanSrcB = "fn clean_b() -> i32 {\n"
                        "    bb0: {\n"
                        "        _0 = const 2;\n"
                        "        return;\n"
                        "    }\n"
                        "}\n";

const char *CleanSrcC = "fn clean_c() -> i32 {\n"
                        "    bb0: {\n"
                        "        _0 = const 3;\n"
                        "        return;\n"
                        "    }\n"
                        "}\n";

const char *BuggySrc = "fn uaf() -> u8 {\n"
                       "    let _1: Box<u8>;\n"
                       "    let _2: *const u8;\n"
                       "    bb0: {\n"
                       "        _1 = Box::new(const 7) -> bb1;\n"
                       "    }\n"
                       "    bb1: {\n"
                       "        _2 = &raw const (*_1);\n"
                       "        drop(_1) -> bb2;\n"
                       "    }\n"
                       "    bb2: {\n"
                       "        _0 = copy (*_2);\n"
                       "        return;\n"
                       "    }\n"
                       "}\n";

/// Six files in lexicographic (= ordinal) order: the victim sits in the
/// middle so crash attribution has neighbors on both sides.
fs::path writeCorpus(const char *Name) {
  fs::path Dir = fs::path(testing::TempDir()) / Name;
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  std::ofstream(Dir / "a_clean.mir") << CleanSrcA;
  std::ofstream(Dir / "b_buggy.mir") << BuggySrc;
  std::ofstream(Dir / "c_malformed.mir") << "fn oops( {\n";
  std::ofstream(Dir / "m_victim.mir") << CleanSrcB;
  std::ofstream(Dir / "z_clean.mir") << CleanSrcC;
  return Dir;
}

SupervisorOptions baseOptions(unsigned Shards) {
  SupervisorOptions SO;
  SO.Engine.Jobs = 1;
  SO.Engine.UseCache = false;
  SO.Shards = Shards;
  SO.BackoffMs = 1; // Keep retry storms fast under test.
  SO.WorkerExe = RS_RUSTSIGHT_BIN;
  return SO;
}

std::string supervisedJson(SupervisorOptions SO, const fs::path &Dir,
                           int *StrictExit = nullptr) {
  Supervisor S(std::move(SO));
  CorpusReport R = S.run({Dir.string()});
  if (StrictExit)
    *StrictExit = R.exitCode(true);
  return R.renderJson();
}

std::string inProcessJson(const fs::path &Dir, int *StrictExit = nullptr,
                          WholeProgramMode Mode = WholeProgramMode::Auto) {
  EngineOptions Opts;
  Opts.Jobs = 1;
  Opts.UseCache = false;
  Opts.WholeProgram = Mode;
  AnalysisEngine E(Opts);
  CorpusReport R = E.analyzeCorpus({Dir.string()});
  if (StrictExit)
    *StrictExit = R.exitCode(true);
  return R.renderJson();
}

/// Worker-side fault injection crosses the process boundary through the
/// environment; scope it so one test's fault never leaks into the next.
struct ScopedWorkerFault {
  ScopedWorkerFault(const char *Site, const char *FileSubstr) {
    ::setenv("RUSTSIGHT_WORKER_FAULT", Site, 1);
    ::setenv("RUSTSIGHT_WORKER_FAULT_FILE", FileSubstr, 1);
  }
  ~ScopedWorkerFault() {
    ::unsetenv("RUSTSIGHT_WORKER_FAULT");
    ::unsetenv("RUSTSIGHT_WORKER_FAULT_FILE");
  }
};

const FileReport *findFile(const CorpusReport &R, const char *Needle) {
  for (const FileReport &F : R.Files)
    if (F.Path.find(Needle) != std::string::npos)
      return &F;
  return nullptr;
}

} // namespace

TEST(Supervisor, MatchesInProcessByteForByteAcrossShardCounts) {
  fs::path Dir = writeCorpus("sup_equality");
  // The strictly per-file case feeds every file with the empty environment
  // and a "-" digest through the same analyze preamble.
  const std::pair<WholeProgramMode, unsigned> Cases[] = {
      {WholeProgramMode::Auto, 1}, {WholeProgramMode::Auto, 2},
      {WholeProgramMode::Auto, 4}, {WholeProgramMode::Auto, 8},
      {WholeProgramMode::Off, 2}};
  for (const auto &[Mode, Shards] : Cases) {
    int WantExit = 0;
    std::string Want = inProcessJson(Dir, &WantExit, Mode);
    SupervisorOptions SO = baseOptions(Shards);
    SO.Engine.WholeProgram = Mode;
    int GotExit = 0;
    std::string Got = supervisedJson(SO, Dir, &GotExit);
    const bool Off = Mode == WholeProgramMode::Off;
    EXPECT_EQ(Want, Got) << "shards=" << Shards << " off=" << Off;
    // Satellite: --strict must not distinguish isolation modes either.
    EXPECT_EQ(WantExit, GotExit) << "shards=" << Shards << " off=" << Off;
  }
}

TEST(Supervisor, CrashQuarantinesExactlyTheCulpableFile) {
  fs::path Dir = writeCorpus("sup_crash");
  ScopedWorkerFault Fault("engine.worker.crash", "m_victim.mir");

  Supervisor S(baseOptions(2));
  CorpusReport R = S.run({Dir.string()});

  const FileReport *Victim = findFile(R, "m_victim.mir");
  ASSERT_NE(Victim, nullptr);
  EXPECT_EQ(Victim->Status, EngineStatus::Skipped);
  EXPECT_EQ(Victim->Reason,
            "quarantined after 3 isolated worker attempt(s): worker killed "
            "by signal 11 (SIGSEGV)");
  ASSERT_EQ(Victim->Notices.size(), 1u);
  EXPECT_EQ(Victim->Notices[0].Kind, diag::RuleId::WorkerQuarantined);

  // Collateral damage is zero: every other file matches the fault-free
  // in-process analysis exactly.
  EngineOptions Opts;
  Opts.Jobs = 1;
  Opts.UseCache = false;
  CorpusReport Clean = AnalysisEngine(Opts).analyzeCorpus({Dir.string()});
  ASSERT_EQ(R.Files.size(), Clean.Files.size());
  for (size_t I = 0; I != R.Files.size(); ++I) {
    if (R.Files[I].Path.find("m_victim.mir") != std::string::npos)
      continue;
    EXPECT_EQ(R.Files[I].Path, Clean.Files[I].Path);
    EXPECT_EQ(serializeFileReport(R.Files[I]),
              serializeFileReport(Clean.Files[I]));
  }
}

TEST(Supervisor, HangIsKilledByWatchdogAndQuarantined) {
  fs::path Dir = writeCorpus("sup_hang");
  ScopedWorkerFault Fault("engine.worker.hang", "m_victim.mir");

  SupervisorOptions SO = baseOptions(2);
  SO.TimeoutMs = 300;
  Supervisor S(std::move(SO));
  CorpusReport R = S.run({Dir.string()});

  const FileReport *Victim = findFile(R, "m_victim.mir");
  ASSERT_NE(Victim, nullptr);
  EXPECT_EQ(Victim->Status, EngineStatus::Skipped);
  EXPECT_EQ(Victim->Reason,
            "quarantined after 3 isolated worker attempt(s): watchdog "
            "timeout after 300 ms");
  // A hung shard never blocks its neighbors.
  const FileReport *Clean = findFile(R, "z_clean.mir");
  ASSERT_NE(Clean, nullptr);
  EXPECT_EQ(Clean->Status, EngineStatus::Ok);
}

TEST(Supervisor, GarbageOutputIsBisectedToTheCulpableFile) {
  fs::path Dir = writeCorpus("sup_garbage");
  ScopedWorkerFault Fault("engine.worker.garbage-output", "m_victim.mir");

  // One shard for the whole corpus: isolation must come from bisection,
  // not from a lucky partition.
  Supervisor S(baseOptions(1));
  CorpusReport R = S.run({Dir.string()});

  const FileReport *Victim = findFile(R, "m_victim.mir");
  ASSERT_NE(Victim, nullptr);
  EXPECT_EQ(Victim->Status, EngineStatus::Skipped);
  EXPECT_EQ(Victim->Reason,
            "quarantined after 3 isolated worker attempt(s): unusable "
            "worker output (corrupt frame header)");
  for (const char *Other : {"a_clean.mir", "b_buggy.mir", "z_clean.mir"}) {
    const FileReport *F = findFile(R, Other);
    ASSERT_NE(F, nullptr) << Other;
    EXPECT_NE(F->Status, EngineStatus::Skipped) << Other;
  }
}

TEST(Supervisor, FaultedRunsAreByteIdenticalAcrossShardCounts) {
  fs::path Dir = writeCorpus("sup_fault_det");
  ScopedWorkerFault Fault("engine.worker.crash", "m_victim.mir");
  std::string One = supervisedJson(baseOptions(1), Dir);
  std::string Four = supervisedJson(baseOptions(4), Dir);
  EXPECT_EQ(One, Four);
  EXPECT_NE(One.find("quarantined after 3"), std::string::npos);
}

TEST(Supervisor, InterruptThenResumeIsByteIdenticalToUninterrupted) {
  fs::path Dir = writeCorpus("sup_resume");
  fs::path Journal = Dir / "journal.json";
  std::string Want = supervisedJson(baseOptions(2), Dir);

  SupervisorOptions SO = baseOptions(2);
  SO.CheckpointPath = Journal.string();
  {
    // Deterministic SIGKILL stand-in: die right after the first
    // checkpoint write, exactly as a kill -9 between shards would.
    fault::ScopedFault Interrupt("engine.supervisor.interrupt", 1);
    Supervisor S(SO);
    CorpusReport Partial = S.run({Dir.string()});
    size_t Unfinished = 0;
    for (const FileReport &F : Partial.Files)
      if (F.Reason.find("interrupted") != std::string::npos)
        ++Unfinished;
    ASSERT_GT(Unfinished, 0u) << "interrupt fired too late to test resume";
  }
  ASSERT_TRUE(fs::exists(Journal));

  SO.Resume = true;
  Supervisor Resumed(SO);
  EXPECT_EQ(Want, Resumed.run({Dir.string()}).renderJson());
}

TEST(Supervisor, ResumeIgnoresJournalFromDifferentConfiguration) {
  fs::path Dir = writeCorpus("sup_stale_journal");
  fs::path Journal = Dir / "journal.json";

  SupervisorOptions SO = baseOptions(2);
  SO.CheckpointPath = Journal.string();
  std::string Want = supervisedJson(SO, Dir);
  ASSERT_TRUE(fs::exists(Journal));

  // Same journal path, different budget configuration: the RunKey's salt
  // half changes, so resume must re-analyze from scratch — and still land
  // on a valid (budget-affected) report rather than replaying stale
  // unbudgeted entries. Use a config whose output matches the default so
  // equality still holds: MaxSummaryRounds only pads the salt here.
  SupervisorOptions Other = baseOptions(2);
  Other.CheckpointPath = Journal.string();
  Other.Resume = true;
  Other.Engine.MaxSummaryRounds = 3;
  std::string Got = supervisedJson(Other, Dir);
  // The corpus is small enough that 3 summary rounds converge identically,
  // so a correct "ignore + re-analyze" yields Want; replaying a stale
  // journal would too — so also assert the journal was rewritten under
  // the new key.
  EXPECT_EQ(Want, Got);
  std::vector<std::string> Names;
  for (const auto &D : detectors::makeAllDetectors())
    Names.push_back(D->name());
  std::vector<corpus::CorpusInput> Inputs =
      corpus::expandMirPaths({Dir.string()});
  const uint64_t Fp = fingerprintCorpus(Inputs);
  std::vector<std::optional<FileReport>> Probe(Inputs.size());
  CheckpointJournal J(Journal.string());
  // ...the journal on disk is now keyed to the new configuration, not the
  // old one it was first written under. (This multi-file corpus runs
  // linked, so the key carries the whole-program marker.)
  EXPECT_FALSE(J.load(
      RunKey{Fp, journalSalt(SO.Engine, Names, /*Linked=*/true)}, Inputs,
      Probe));
  EXPECT_TRUE(J.load(
      RunKey{Fp, journalSalt(Other.Engine, Names, /*Linked=*/true)}, Inputs,
      Probe));
}

TEST(Supervisor, WorkerStderrNotesSurviveIntoSupervisedRun) {
  // The malformed file degrades inside the worker; its report frame must
  // carry the same status/reason the in-process engine produces, which is
  // what --strict keys off (satellite: fault-cause propagation).
  fs::path Dir = writeCorpus("sup_stderr");
  Supervisor S(baseOptions(2));
  CorpusReport R = S.run({Dir.string()});
  const FileReport *Malformed = findFile(R, "c_malformed.mir");
  ASSERT_NE(Malformed, nullptr);
  EXPECT_EQ(Malformed->Status, EngineStatus::Skipped);
  EXPECT_NE(Malformed->Reason.find("no parseable items"), std::string::npos);
  EXPECT_EQ(R.exitCode(/*Strict=*/false), 1); // Findings from b_buggy.mir.
  EXPECT_EQ(R.exitCode(/*Strict=*/true), 2);  // Skip trips strict.
}
