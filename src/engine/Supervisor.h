//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-level supervision for corpus analysis: `rustsight check
/// --shards N` partitions the corpus into deterministic shard plans and
/// runs each shard in a spawned `rustsight worker` subprocess. The
/// in-process AnalysisEngine contains faults it can catch (exceptions,
/// cooperative budget exhaustion); the Supervisor contains everything it
/// cannot — SIGSEGV, stack overflow, runaway loops, corrupted output —
/// because a dead or hung worker costs one shard attempt, never the run.
///
/// The supervision ladder on top of PR 1's degradation ladder:
///
///  - Watchdog: a hard per-shard wall-clock deadline (`--timeout-ms`),
///    orthogonal to the cooperative Budget — it SIGKILLs hangs the
///    in-process ladder can never reach.
///  - Classification: worker deaths are classified (clean exit / nonzero
///    exit / signal / watchdog timeout / protocol corruption) from the
///    Subprocess exit status and the frame stream.
///  - Retry with backoff: failed shard remainders are re-queued with
///    exponential backoff; results streamed before the failure are kept.
///  - Attribution and bisection: workers stream one result frame per
///    file, so a crash or timeout is attributed to the first file without
///    a frame. When frames cannot be trusted (garbage output), the shard
///    is bisected — halved repeatedly until the culpable file is isolated.
///  - Quarantine: a file that keeps killing workers is quarantined as a
///    first-class RS-ENGINE-005 diagnostic carrying the classified cause
///    and the worker's stderr tail; the run continues without it.
///  - Checkpoint/resume: completed files are journaled (CheckpointJournal)
///    so an interrupted run resumes where it left off.
///
/// Shard outputs flow through the same ordinal-merge + finalize() path as
/// the in-process driver, so `--json`/SARIF output is byte-identical
/// across any `--shards`/`--jobs` count, cache temperature, and any
/// crash/retry/resume history. See docs/RESILIENCE.md.
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_ENGINE_SUPERVISOR_H
#define RUSTSIGHT_ENGINE_SUPERVISOR_H

#include "engine/Engine.h"

#include <cstdint>
#include <string>
#include <vector>

namespace rs::engine {

struct SupervisorOptions {
  /// Forwarded to every worker (budgets, cache configuration). Jobs is
  /// ignored — each worker analyzes its shard serially; parallelism comes
  /// from running MaxWorkers workers at once.
  EngineOptions Engine;

  /// Number of shard partitions (0 = one per worker slot). Output is
  /// byte-identical for every value.
  unsigned Shards = 0;

  /// Concurrent worker processes (0 = min(shards, the CPUs this process may
  /// run on)).
  unsigned MaxWorkers = 0;

  /// Hard per-shard wall-clock watchdog in milliseconds (0 = none). This
  /// is the non-cooperative backstop above EngineOptions::BudgetMs: the
  /// budget degrades analyses that check it, the watchdog SIGKILLs
  /// workers that stopped checking anything.
  uint64_t TimeoutMs = 0;

  /// Extra attempts a suspect file (or, for untrusted output, a shard)
  /// gets before quarantine/bisection. Total attempts = MaxRetries + 1.
  unsigned MaxRetries = 2;

  /// Base of the exponential retry backoff (doubles per strike, capped).
  uint64_t BackoffMs = 25;

  /// Path of the rustsight binary to respawn in worker mode
  /// (proc::currentExecutablePath).
  std::string WorkerExe;

  /// Checkpoint journal path ("" = checkpointing disabled).
  std::string CheckpointPath;

  /// Replay completed files from the journal instead of re-analyzing
  /// them. Ignored (with a fresh start) when the journal is absent,
  /// corrupt, or keyed to a different corpus/configuration.
  bool Resume = false;
};

/// Runs supervised corpus analysis. Fault-injection probe sites:
/// "engine.supervisor.interrupt" (fires after each checkpoint write;
/// simulates a hard death for resume tests). Worker-side sites
/// ("engine.worker.crash", "engine.worker.hang",
/// "engine.worker.garbage-output") are armed in the worker process via
/// the RUSTSIGHT_WORKER_FAULT / RUSTSIGHT_WORKER_FAULT_FILE environment
/// variables — see runWorker.
class Supervisor {
public:
  explicit Supervisor(SupervisorOptions O) : Opts(std::move(O)) {}

  /// Analyzes every path (expanded exactly like
  /// AnalysisEngine::analyzeCorpus) across supervised workers and merges
  /// the results by input ordinal.
  CorpusReport run(const std::vector<std::string> &Paths);

private:
  SupervisorOptions Opts;
};

/// The salt half of the checkpoint journal's RunKey: the workers'
/// cacheSalt, with a whole-program marker folded in for linked runs so a
/// per-file journal never resumes a whole-program run (or vice versa) —
/// the findings differ by design.
uint64_t journalSalt(const EngineOptions &Opts,
                     const std::vector<std::string> &DetectorNames,
                     bool Linked);

/// The hidden `rustsight worker` entry point: reads a mode preamble and
/// then "<ordinal>\t<aux>\t<path>" lines from stdin until EOF, runs the
/// mode's engine entry on each file (analyzeFile, collectFileFacts or
/// summarizeFileForLink), and streams one length-prefixed JSON frame per
/// file followed by a "done" frame on stdout (the wire protocol in
/// docs/RESILIENCE.md). An analyze frame carries the report's one payload
/// (serializeFileReport, in hex); the supervisor anchors it at its own
/// path for the ordinal. Degraded/skipped statuses are also logged to
/// stderr so the supervisor can surface fault causes. Returns the process
/// exit code.
int runWorker(const EngineOptions &Opts);

} // namespace rs::engine

#endif // RUSTSIGHT_ENGINE_SUPERVISOR_H
