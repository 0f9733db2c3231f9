#include "engine/Supervisor.h"

#include "analysis/Link.h"
#include "corpus/CorpusWalk.h"
#include "diag/Diag.h"
#include "engine/Checkpoint.h"
#include "sched/Parallel.h"
#include "support/FaultInjection.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "support/SourceLocation.h"
#include "support/Subprocess.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include <poll.h>
#include <unistd.h>

using namespace rs;
using namespace rs::engine;

namespace {

using Clock = std::chrono::steady_clock;

/// Backstop against a worker announcing an absurd frame; a single file
/// report is orders of magnitude smaller.
constexpr size_t MaxFramePayload = 64u << 20;

/// Worker stderr kept per attempt (the tail is what lands in quarantine
/// notes; anything longer has stopped being a note).
constexpr size_t StderrTailCap = 8192;

/// Grace period between a worker closing both streams and the supervisor
/// SIGKILLing it anyway — a worker with closed pipes that has not exited
/// is as hung as one that never wrote.
constexpr auto ReapGrace = std::chrono::seconds(5);

enum class Outcome {
  Done,     ///< Complete frame stream + "done" frame.
  Crash,    ///< Killed by a signal (SIGSEGV, SIGABRT, ...).
  Exit,     ///< Exited with a nonzero code.
  Timeout,  ///< SIGKILLed by the watchdog deadline.
  Protocol, ///< Output unusable: bad framing, bad JSON, premature exit 0.
};

/// One unit of queued work: a sorted slice of ordinals. Attempts counts
/// protocol-failure attempts (trusted-frame failures use per-file strike
/// counters instead, so attribution survives re-sharding).
struct Shard {
  std::vector<size_t> Ordinals;
  unsigned Attempts = 0;
  Clock::time_point NotBefore{};
};

/// One ended attempt of one shard, as its phase sees it.
template <typename Result> struct Attempt {
  Shard Task;
  /// Results from this attempt's frame stream, in arrival order. Trusted
  /// outcomes (done/crash/exit/timeout) keep them; protocol failures
  /// discard them.
  std::vector<std::pair<size_t, Result>> Accepted;
  std::string ErrTail; ///< Trailing stderr (capped).
  /// The worker's cache counters, from its "done" frame.
  sched::ResultCache::Stats CacheStats;
  Outcome Oc = Outcome::Done;
  std::string Cause; ///< The classified cause ("" when Done).
};

/// Decodes the result of one "file" frame for item \p Ordinal; nullopt
/// makes the stream unusable.
template <typename Result>
using FrameDecoder =
    std::function<std::optional<Result>(size_t Ordinal, const JsonValue &)>;

/// One worker process running one attempt.
template <typename Result> struct Worker {
  Worker(proc::Subprocess P, Shard T) : Proc(std::move(P)) {
    A.Task = std::move(T);
  }

  proc::Subprocess Proc;
  Attempt<Result> A;
  std::string OutBuf;       ///< Unconsumed frame bytes.
  bool Done = false;        ///< The "done" frame arrived.
  std::string ProtocolNote; ///< Why the stream is unusable ("" = usable).
  bool HasDeadline = false;
  Clock::time_point Deadline{};
};

bool parseHexLen(const char *P, size_t &Out) {
  size_t V = 0;
  for (int I = 0; I != 8; ++I) {
    char C = P[I];
    unsigned D = 0;
    if (C >= '0' && C <= '9')
      D = unsigned(C - '0');
    else if (C >= 'a' && C <= 'f')
      D = unsigned(C - 'a') + 10;
    else
      return false;
    V = (V << 4) | D;
  }
  Out = V;
  return true;
}

template <typename Result>
void markProtocol(Worker<Result> &W, const char *Note) {
  if (W.ProtocolNote.empty())
    W.ProtocolNote = Note;
}

template <typename Result>
void handlePayload(Worker<Result> &W, const FrameDecoder<Result> &Decode,
                   std::string_view Payload) {
  std::optional<JsonValue> V = JsonValue::parse(Payload);
  if (!V || !V->isObject())
    return markProtocol(W, "unparseable frame payload");
  std::string_view Type = V->getString("type");
  if (Type == "done") {
    W.Done = true;
    if (const JsonValue *C = V->get("cache")) {
      sched::ResultCache::Stats &S = W.A.CacheStats;
      S.Hits = static_cast<uint64_t>(C->getInt("hits"));
      S.Misses = static_cast<uint64_t>(C->getInt("misses"));
      S.Evictions = static_cast<uint64_t>(C->getInt("evictions"));
      S.DiskHits = static_cast<uint64_t>(C->getInt("disk_hits"));
      S.CorruptEntries = static_cast<uint64_t>(C->getInt("corrupt"));
    }
    return;
  }
  if (Type != "file")
    return markProtocol(W, "unknown frame type");
  int64_t Ordinal = V->getInt("ordinal", -1);
  const std::vector<size_t> &Ords = W.A.Task.Ordinals;
  if (Ordinal < 0 ||
      !std::binary_search(Ords.begin(), Ords.end(), size_t(Ordinal)))
    return markProtocol(W, "frame for an ordinal outside the shard");
  for (const auto &P : W.A.Accepted)
    if (P.first == size_t(Ordinal))
      return markProtocol(W, "duplicate frame for one ordinal");
  std::optional<Result> R = Decode(size_t(Ordinal), *V);
  if (!R)
    return markProtocol(W, "malformed file report");
  W.A.Accepted.emplace_back(size_t(Ordinal), std::move(*R));
}

/// The frame reader: consumes every complete length-prefixed frame.
template <typename Result>
void parseFrames(Worker<Result> &W, const FrameDecoder<Result> &Decode) {
  while (W.ProtocolNote.empty() && W.OutBuf.size() >= 9) {
    size_t Len = 0;
    if (!parseHexLen(W.OutBuf.data(), Len) || W.OutBuf[8] != '\n' ||
        Len > MaxFramePayload)
      return markProtocol(W, "corrupt frame header");
    if (W.OutBuf.size() < 9 + Len + 1)
      return;
    if (W.OutBuf[9 + Len] != '\n')
      return markProtocol(W, "missing frame terminator");
    handlePayload(W, Decode, std::string_view(W.OutBuf.data() + 9, Len));
    W.OutBuf.erase(0, 9 + Len + 1);
  }
}

/// Drains whatever is currently readable from the worker's streams.
/// Returns true while at least one stream is still open.
template <typename Result>
bool drainStreams(Worker<Result> &W, const FrameDecoder<Result> &Decode) {
  if (int Fd = W.Proc.stdoutFd(); Fd != -1) {
    W.Proc.readSome(Fd, W.OutBuf);
    parseFrames(W, Decode);
  }
  if (int Fd = W.Proc.stderrFd(); Fd != -1) {
    std::string Chunk;
    if (W.Proc.readSome(Fd, Chunk) == proc::Subprocess::ReadStatus::Data) {
      // Forward worker-side notes (budget exhaustion, fault causes) so a
      // supervised run surfaces the same observability as an in-process
      // one; stderr is already outside the byte-stable report surface.
      std::fwrite(Chunk.data(), 1, Chunk.size(), stderr);
      std::string &Tail = W.A.ErrTail;
      Tail += Chunk;
      if (Tail.size() > StderrTailCap)
        Tail.erase(0, Tail.size() - StderrTailCap);
    }
  }
  return W.Proc.stdoutFd() != -1 || W.Proc.stderrFd() != -1;
}

/// A link-phase payload string; null (no result for this file) is valid.
std::optional<std::optional<std::string>>
decodePayload(size_t, const JsonValue &Frame) {
  std::optional<std::string> Out;
  const JsonValue *P = Frame.get("payload");
  if (P && P->isString())
    Out = std::string(P->asString());
  return std::optional<std::optional<std::string>>(std::in_place,
                                                   std::move(Out));
}

/// Keeps the stderr-tail lines relevant to \p Path: lines naming the path,
/// plus unattributed lines (crash spew). Lines the worker attributed to
/// *other* files ("worker: <other>: ...") are dropped so quarantine notes
/// stay byte-identical however the corpus was sharded around the victim.
std::string filterTailFor(const std::string &Tail, const std::string &Path) {
  std::string Out;
  size_t Begin = 0;
  while (Begin < Tail.size()) {
    size_t End = Tail.find('\n', Begin);
    size_t Len = (End == std::string::npos ? Tail.size() : End) - Begin;
    std::string_view Line(Tail.data() + Begin, Len);
    bool NamesPath = Line.find(Path) != std::string_view::npos;
    bool AttributedElsewhere =
        !NamesPath && Line.substr(0, 8) == "worker: ";
    if (!Line.empty() && !AttributedElsewhere) {
      Out.append(Line);
      Out += '\n';
    }
    if (End == std::string::npos)
      break;
    Begin = End + 1;
  }
  return Out;
}

FileReport makeQuarantineReport(const std::string &Path,
                                const std::string &Cause, unsigned Attempts,
                                const std::string &Tail) {
  FileReport R = FileReport::skipped(
      Path, "quarantined after " + std::to_string(Attempts) +
                " isolated worker attempt(s): " + Cause);

  diag::Diagnostic D(diag::RuleId::WorkerQuarantined);
  D.Message = "file quarantined: " + Cause;
  D.Loc = SourceLocation(internFileName(Path), 1, 1);
  size_t Notes = 0;
  size_t Begin = 0;
  while (Begin < Tail.size() && Notes != 5) {
    size_t End = Tail.find('\n', Begin);
    size_t Len = (End == std::string::npos ? Tail.size() : End) - Begin;
    if (Len != 0) {
      D.Notes.push_back("worker stderr: " + Tail.substr(Begin, Len));
      ++Notes;
    }
    if (End == std::string::npos)
      break;
    Begin = End + 1;
  }
  R.Notices.push_back(std::move(D));
  return R;
}

std::vector<std::string> workerArgv(const SupervisorOptions &Opts) {
  const EngineOptions &E = Opts.Engine;
  std::vector<std::string> Argv{Opts.WorkerExe, "worker"};
  auto Push = [&](const char *Flag, uint64_t Value) {
    Argv.emplace_back(Flag);
    Argv.push_back(std::to_string(Value));
  };
  if (E.BudgetMs)
    Push("--budget-ms", E.BudgetMs);
  if (E.MaxFileSteps)
    Push("--max-file-steps", E.MaxFileSteps);
  if (E.MaxDataflowIters)
    Push("--max-dataflow-iters", E.MaxDataflowIters);
  if (E.MaxSummaryRounds != EngineOptions().MaxSummaryRounds)
    Push("--max-summary-rounds", E.MaxSummaryRounds);
  if (!E.UseCache)
    Argv.emplace_back("--no-cache");
  else if (!E.CacheDir.empty()) {
    Argv.emplace_back("--cache-dir");
    Argv.push_back(E.CacheDir);
  }
  return Argv;
}

/// One JSON string literal (quoted, escaped).
std::string jsonString(std::string_view S) {
  JsonWriter W;
  W.value(S);
  return W.str();
}

/// Contiguous, deterministic partition of \p Ordinals into \p Count shards.
std::deque<Shard> partition(const std::vector<size_t> &Ordinals,
                            size_t Count) {
  std::deque<Shard> Queue;
  size_t Base = 0;
  for (size_t S = 0; S != Count; ++S) {
    size_t Len = Ordinals.size() / Count + (S < Ordinals.size() % Count);
    if (Len == 0)
      continue;
    Shard Sh;
    Sh.Ordinals.assign(Ordinals.begin() + long(Base),
                       Ordinals.begin() + long(Base + Len));
    Base += Len;
    Queue.push_back(std::move(Sh));
  }
  return Queue;
}

//===----------------------------------------------------------------------===//
// The worker fleet
//===----------------------------------------------------------------------===//

/// Runs \p Queue through worker processes until it drains or \p Stop is
/// set. Ready shards launch into free slots (at most \p MaxWorkers); each
/// worker is fed \p Preamble and one "<ordinal>\t<Lines[ordinal]>" line per
/// file. The loop waits for output, deaths and deadlines, and classifies
/// every attempt that ends. What happens next is the phase's ladder:
/// \p Finish merges what it trusts and may queue follow-up shards. Workers
/// still running at a stop are killed.
template <typename Result>
void runFleet(const SupervisorOptions &Opts, unsigned MaxWorkers,
              const std::string &Preamble,
              const std::vector<std::string> &Lines,
              const FrameDecoder<Result> &Decode, std::deque<Shard> &Queue,
              const std::function<void(Attempt<Result> &&)> &Finish,
              const bool &Stop) {
  std::vector<std::unique_ptr<Worker<Result>>> Active;

  auto Launch = [&](Shard Task) {
    proc::Subprocess::Options SO;
    SO.Argv = workerArgv(Opts);
    SO.PipeStdin = true;
    std::string Err;
    std::optional<proc::Subprocess> P = proc::Subprocess::spawn(SO, &Err);
    if (!P) {
      Attempt<Result> A;
      A.Task = std::move(Task);
      A.Oc = Outcome::Protocol;
      A.Cause = "worker spawn failed: " + Err;
      Finish(std::move(A));
      return;
    }
    std::string Feed = Preamble + '\n';
    for (size_t Ord : Task.Ordinals) {
      Feed += std::to_string(Ord);
      Feed += '\t';
      Feed += Lines[Ord];
      Feed += '\n';
    }
    auto W = std::make_unique<Worker<Result>>(std::move(*P), std::move(Task));
    // A write failure means the child is already dead; the reap below
    // classifies that better than we could here.
    W->Proc.writeStdin(Feed);
    W->Proc.closeStdin();
    if (Opts.TimeoutMs) {
      W->HasDeadline = true;
      W->Deadline = Clock::now() + std::chrono::milliseconds(Opts.TimeoutMs);
    }
    Active.push_back(std::move(W));
  };

  while (!Stop && (!Queue.empty() || !Active.empty())) {
    // Launch every ready shard for which there is a worker slot.
    const auto Now = Clock::now();
    for (size_t I = 0; I != Queue.size() && Active.size() < MaxWorkers;) {
      if (Queue[I].NotBefore <= Now) {
        Shard Task = std::move(Queue[I]);
        Queue.erase(Queue.begin() + long(I));
        Launch(std::move(Task));
      } else {
        ++I;
      }
    }
    if (Stop)
      break;
    if (Active.empty()) {
      if (Queue.empty())
        break;
      // Everything queued is backing off; sleep until the earliest gate.
      Clock::time_point Earliest = Queue.front().NotBefore;
      for (const Shard &Sh : Queue)
        Earliest = std::min(Earliest, Sh.NotBefore);
      std::this_thread::sleep_until(Earliest);
      continue;
    }

    // Wait for output, a death, or a deadline. readSome is non-blocking,
    // so it is safe (and simplest) to attempt a drain on every worker
    // afterwards regardless of which fd woke us.
    {
      std::vector<struct pollfd> Fds;
      for (const auto &W : Active) {
        if (int Fd = W->Proc.stdoutFd(); Fd != -1)
          Fds.push_back({Fd, POLLIN, 0});
        if (int Fd = W->Proc.stderrFd(); Fd != -1)
          Fds.push_back({Fd, POLLIN, 0});
      }
      int TimeoutMsPoll = 100;
      const auto PollNow = Clock::now();
      auto Consider = [&](Clock::time_point T) {
        auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      T - PollNow)
                      .count();
        TimeoutMsPoll = int(std::clamp<long long>(Ms, 0, TimeoutMsPoll));
      };
      for (const auto &W : Active)
        if (W->HasDeadline)
          Consider(W->Deadline);
      if (Active.size() < MaxWorkers)
        for (const Shard &Sh : Queue)
          Consider(Sh.NotBefore);
      ::poll(Fds.empty() ? nullptr : Fds.data(), nfds_t(Fds.size()),
             TimeoutMsPoll);
    }

    for (auto &W : Active)
      drainStreams(*W, Decode);

    // Classify every worker that finished (or must be finished off).
    for (size_t I = 0; I != Active.size() && !Stop;) {
      Worker<Result> &W = *Active[I];
      bool Finished = false;
      Outcome Oc = Outcome::Done;
      std::string Cause;

      if (!W.ProtocolNote.empty()) {
        W.Proc.kill();
        W.Proc.wait();
        Finished = true;
      } else if (W.Proc.stdoutFd() == -1 && W.Proc.stderrFd() == -1) {
        if (std::optional<proc::ExitStatus> St = W.Proc.tryWait()) {
          Finished = true;
          if (W.Done && W.A.Accepted.size() == W.A.Task.Ordinals.size()) {
            Oc = Outcome::Done;
          } else if (St->Signaled) {
            Oc = Outcome::Crash;
            Cause = "worker " + St->describe();
          } else if (St->Code != 0) {
            Oc = Outcome::Exit;
            Cause = "worker " + St->describe();
          } else {
            Oc = Outcome::Protocol;
            Cause = "unusable worker output (exited cleanly mid-protocol)";
          }
        } else if (!W.HasDeadline ||
                   W.Deadline > Clock::now() + ReapGrace) {
          // Streams closed but not exited: give it a short grace, then
          // the deadline branch below SIGKILLs it.
          W.HasDeadline = true;
          W.Deadline = Clock::now() + ReapGrace;
        }
      }

      if (!Finished && W.HasDeadline && Clock::now() >= W.Deadline) {
        W.Proc.kill();
        W.Proc.wait();
        // The pipes may still hold frames written before the hang; use
        // them — they tighten the attribution to the first un-reported
        // file.
        while (drainStreams(W, Decode))
          ;
        Finished = true;
        Oc = Outcome::Timeout;
        Cause = Opts.TimeoutMs ? "watchdog timeout after " +
                                     std::to_string(Opts.TimeoutMs) + " ms"
                               : "worker unresponsive after closing its "
                                 "streams";
      }

      if (!Finished) {
        ++I;
        continue;
      }
      if (!W.ProtocolNote.empty()) {
        Oc = Outcome::Protocol;
        Cause = "unusable worker output (" + W.ProtocolNote + ")";
      }
      Attempt<Result> A = std::move(W.A);
      A.Oc = Oc;
      A.Cause = std::move(Cause);
      Active.erase(Active.begin() + long(I));
      Finish(std::move(A));
    }
  }

  for (auto &W : Active) {
    W->Proc.kill();
    W->Proc.wait();
  }
}

/// One link phase (facts, or one summarize round) over the fleet: item in,
/// payload out, no cross-item state. Its ladder is strike-and-degrade: a
/// failed attempt keeps what it trusts and strikes its first unreported
/// item, and an item past MaxRetries strikes is given up on. Its slot stays
/// nullopt: the file degrades to per-file analysis, or its module is
/// unchanged this round. There is no bisection, so poison files meet the
/// quarantine ladder in the analyze phase, exactly once.
std::vector<std::optional<std::string>>
runLinkPhase(const SupervisorOptions &Opts, unsigned MaxWorkers,
             const std::string &Preamble,
             const std::vector<std::string> &Lines) {
  const size_t N = Lines.size();
  std::vector<std::optional<std::string>> Out(N);
  std::vector<bool> Resolved(N, false);
  std::vector<size_t> Items(N);
  for (size_t I = 0; I != N; ++I)
    Items[I] = I;
  std::deque<Shard> Queue = partition(Items, std::min<size_t>(MaxWorkers, N));
  std::map<size_t, unsigned> Strikes;

  std::function<void(Attempt<std::optional<std::string>> &&)> Finish =
      [&](Attempt<std::optional<std::string>> &&A) {
        if (A.Oc != Outcome::Protocol)
          for (auto &[Ord, Payload] : A.Accepted)
            if (!Resolved[Ord]) {
              Resolved[Ord] = true;
              Out[Ord] = std::move(Payload);
            }
        Shard Next;
        for (size_t Ord : A.Task.Ordinals)
          if (!Resolved[Ord])
            Next.Ordinals.push_back(Ord);
        if (Next.Ordinals.empty())
          return;
        const size_t Suspect = Next.Ordinals.front();
        if (++Strikes[Suspect] > Opts.MaxRetries) {
          Resolved[Suspect] = true;
          Next.Ordinals.erase(Next.Ordinals.begin());
          if (Next.Ordinals.empty())
            return;
        }
        Queue.push_back(std::move(Next));
      };
  runFleet<std::optional<std::string>>(Opts, MaxWorkers, Preamble, Lines,
                                       decodePayload, Queue, Finish,
                                       /*Stop=*/false);
  return Out;
}

} // namespace

uint64_t rs::engine::journalSalt(const EngineOptions &Opts,
                                 const std::vector<std::string> &DetectorNames,
                                 bool Linked) {
  uint64_t Salt = cacheSalt(Opts, DetectorNames);
  if (Linked)
    Salt = fnv1a64("rustsight-whole-program", Salt);
  return Salt;
}

CorpusReport Supervisor::run(const std::vector<std::string> &Paths) {
  const auto Start = Clock::now();
  std::vector<corpus::CorpusInput> Inputs = corpus::expandMirPaths(Paths);
  const size_t N = Inputs.size();
  const unsigned Hardware = sched::defaultWorkerCount();

  // The supervisor's one cache: it only ever holds the summaries, as the
  // workers' engines keep everything else.
  std::optional<sched::ResultCache> Cache;
  if (Opts.Engine.UseCache) {
    sched::ResultCache::Options CO;
    CO.DiskDir = Opts.Engine.CacheDir;
    CO.MaxMemoryEntries = Opts.Engine.CacheMaxEntries;
    Cache.emplace(std::move(CO));
  }
  // Every preamble hands the workers this run's cache generation, so the
  // segments of all the run's processes are one generation on disk.
  const uint64_t Generation =
      Cache && !Opts.Engine.CacheDir.empty() ? Cache->generation() : 0;
  auto Preamble = [&](std::string_view Mode, std::string_view Fields) {
    std::string P = "{\"mode\":\"" + std::string(Mode) + "\"";
    if (Generation)
      P += ",\"generation\":" + std::to_string(Generation);
    if (!Fields.empty())
      P += "," + std::string(Fields);
    return P + "}";
  };

  // The link step: the block the in-process driver runs, with the fleet as
  // its transport, so the round trajectory, the environment and the
  // per-file digests are byte-identical to an in-process run over the same
  // corpus and summary DB. Facts cover every analyzable input, journaled
  // files included: their summaries still feed other files' analyses.
  const unsigned LinkWorkers = Opts.MaxWorkers ? Opts.MaxWorkers : Hardware;
  LinkTransport Transport;
  Transport.Facts = [&](const std::vector<size_t> &Ordinals) {
    std::vector<std::string> Lines;
    for (size_t I : Ordinals)
      Lines.push_back("-\t" + Inputs[I].Path);
    std::vector<std::optional<analysis::ModuleFacts>> Facts(Ordinals.size());
    std::vector<std::optional<std::string>> Payloads =
        runLinkPhase(Opts, LinkWorkers, Preamble("facts", ""), Lines);
    for (size_t K = 0; K != Payloads.size(); ++K)
      if (Payloads[K])
        Facts[K] = analysis::deserializeModuleFacts(*Payloads[K],
                                                    Inputs[Ordinals[K]].Path);
    return Facts;
  };
  Transport.Summarize =
      [&](const std::vector<std::pair<uint32_t, size_t>> &Modules,
          const analysis::ExternalSummaries &Env) {
        std::vector<std::string> Lines;
        for (const auto &[Idx, Input] : Modules)
          Lines.push_back(std::to_string(Idx) + "\t" + Inputs[Input].Path);
        std::vector<analysis::ModuleSummaries> Round;
        for (std::optional<std::string> &P : runLinkPhase(
                 Opts, LinkWorkers,
                 Preamble("summarize",
                          "\"env\":" + jsonString(analysis::serializeEnv(Env))),
                 Lines))
          if (P)
            if (std::optional<analysis::ModuleSummaries> MS =
                    analysis::deserializeModuleSummaries(*P))
              Round.push_back(std::move(*MS));
        return Round;
      };
  LinkPlan Link =
      linkCorpus(Opts.Engine, Inputs, Cache ? &*Cache : nullptr, Transport);
  Link.Facts.clear();

  std::vector<std::optional<FileReport>> Results(N);
  for (size_t I = 0; I != N; ++I)
    if (!Inputs[I].SkipReason.empty())
      Results[I] = FileReport::skipped(Inputs[I].Path, Inputs[I].SkipReason);

  // The same salt the workers' caches use keys the checkpoint journal: a
  // journal from a different battery or budget configuration, or from the
  // other link mode, never resumes.
  const RunKey Key{fingerprintCorpus(Inputs),
                   journalSalt(Opts.Engine, detectorNames(),
                               Link.Stats.LinkEnabled)};
  std::optional<CheckpointJournal> Journal;
  if (!Opts.CheckpointPath.empty())
    Journal.emplace(Opts.CheckpointPath);
  if (Journal && Opts.Resume)
    Journal->load(Key, Inputs, Results);

  std::vector<size_t> PendingOrdinals;
  for (size_t I = 0; I != N; ++I)
    if (!Results[I])
      PendingOrdinals.push_back(I);

  unsigned ShardCount =
      Opts.Shards ? Opts.Shards
                  : (Opts.MaxWorkers ? Opts.MaxWorkers : Hardware);
  if (!PendingOrdinals.empty() && ShardCount > PendingOrdinals.size())
    ShardCount = unsigned(PendingOrdinals.size());
  const unsigned MaxWorkers =
      Opts.MaxWorkers ? Opts.MaxWorkers : std::min(ShardCount, Hardware);
  std::deque<Shard> Queue = partition(PendingOrdinals, ShardCount);

  // Every analyze feed carries the preamble with the link environment. A
  // file outside the link, or one whose digest is 0 (it resolves no extern
  // callee), has "-" for its digest and is a per-file run, as in-process.
  const std::string AnalyzePreamble = Preamble(
      "analyze", "\"env\":" + jsonString(analysis::serializeEnv(Link.Env)));
  std::vector<std::string> Lines(N);
  for (size_t I = 0; I != N; ++I)
    Lines[I] = (Link.Digest[I].value_or(0)
                    ? std::to_string(*Link.Digest[I])
                    : "-") +
               "\t" + Inputs[I].Path;

  std::map<size_t, unsigned> Strikes;
  bool Interrupted = false;

  auto Checkpoint = [&] {
    if (Journal)
      Journal->write(Key, Results);
    // Deterministic stand-in for kill -9: tests arm this site to verify
    // that whatever the journal holds right now is enough to resume from.
    if (fault::shouldFail("engine.supervisor.interrupt"))
      Interrupted = true;
  };

  auto Quarantine = [&](size_t Ordinal, const std::string &Cause,
                        unsigned Attempts, const std::string &Tail) {
    Results[Ordinal] = makeQuarantineReport(
        Inputs[Ordinal].Path, Cause, Attempts,
        filterTailFor(Tail, Inputs[Ordinal].Path));
  };

  auto Backoff = [&](unsigned Strike) {
    uint64_t Ms = Opts.BackoffMs;
    for (unsigned I = 1; I < Strike && Ms < 2000; ++I)
      Ms *= 2;
    return Clock::now() + std::chrono::milliseconds(std::min<uint64_t>(
                              Ms, 2000));
  };

  // Frames from the attempt could not be trusted (corrupt framing or JSON,
  // premature clean exit, spawn failure): retry the remainder whole, then
  // bisect — each level gets one attempt — down to a quarantined singleton.
  auto HandleUntrusted = [&](Attempt<FileReport> &A) {
    Shard Task = std::move(A.Task);
    std::vector<size_t> Remaining;
    for (size_t Ord : Task.Ordinals)
      if (!Results[Ord])
        Remaining.push_back(Ord);
    if (Remaining.empty()) {
      Checkpoint();
      return;
    }
    Task.Ordinals = std::move(Remaining);
    ++Task.Attempts;
    if (Task.Attempts <= Opts.MaxRetries) {
      Task.NotBefore = Backoff(Task.Attempts);
      Queue.push_back(std::move(Task));
      return;
    }
    if (Task.Ordinals.size() == 1) {
      Quarantine(Task.Ordinals[0], A.Cause, Task.Attempts, A.ErrTail);
      Checkpoint();
      return;
    }
    size_t Mid = Task.Ordinals.size() / 2;
    Shard Lo, Hi;
    Lo.Ordinals.assign(Task.Ordinals.begin(),
                       Task.Ordinals.begin() + long(Mid));
    Hi.Ordinals.assign(Task.Ordinals.begin() + long(Mid),
                       Task.Ordinals.end());
    // One attempt per bisection level keeps isolation O(log n) worker runs
    // while the total attempt count at quarantine stays MaxRetries + 1 —
    // the reason text is byte-identical however the run was sharded.
    Lo.Attempts = Hi.Attempts = Opts.MaxRetries;
    Lo.NotBefore = Hi.NotBefore = Clock::now();
    Queue.push_back(std::move(Lo));
    Queue.push_back(std::move(Hi));
  };

  // The frame stream up to the failure is trustworthy (crash, nonzero
  // exit, watchdog kill): keep every streamed result, attribute the
  // failure to the first file without one, and strike it.
  auto HandleTrusted = [&](Attempt<FileReport> &A) {
    for (auto &P : A.Accepted)
      if (!Results[P.first])
        Results[P.first] = std::move(P.second);
    std::vector<size_t> Remaining;
    for (size_t Ord : A.Task.Ordinals)
      if (!Results[Ord])
        Remaining.push_back(Ord);
    if (Remaining.empty()) {
      Checkpoint();
      return;
    }
    const size_t Suspect = Remaining.front();
    const unsigned S = ++Strikes[Suspect];
    Shard Next;
    if (S > Opts.MaxRetries) {
      Quarantine(Suspect, A.Cause, S, A.ErrTail);
      Remaining.erase(Remaining.begin());
      Checkpoint();
      if (Remaining.empty())
        return;
      Next.NotBefore = Clock::now();
    } else {
      Next.NotBefore = Backoff(S);
      Checkpoint();
    }
    Next.Ordinals = std::move(Remaining);
    Queue.push_back(std::move(Next));
  };

  // The analyze phase's ladder: retry, bisect, quarantine, checkpoint. The
  // report lookups are all this phase's, so its completed workers' cache
  // counters are the run's.
  sched::ResultCache::Stats Fleet;
  std::function<void(Attempt<FileReport> &&)> Finish =
      [&](Attempt<FileReport> &&A) {
        switch (A.Oc) {
        case Outcome::Done:
          Fleet.Hits += A.CacheStats.Hits;
          Fleet.Misses += A.CacheStats.Misses;
          Fleet.Evictions += A.CacheStats.Evictions;
          Fleet.DiskHits += A.CacheStats.DiskHits;
          Fleet.CorruptEntries += A.CacheStats.CorruptEntries;
          for (auto &P : A.Accepted)
            Results[P.first] = std::move(P.second);
          Checkpoint();
          break;
        case Outcome::Protocol:
          HandleUntrusted(A);
          break;
        case Outcome::Crash:
        case Outcome::Exit:
        case Outcome::Timeout:
          HandleTrusted(A);
          break;
        }
      };
  // A report frame carries no path: it is anchored at the supervisor's own
  // input path, so a worker cannot rename a file.
  FrameDecoder<FileReport> DecodeReport =
      [&](size_t Ordinal, const JsonValue &Frame) -> std::optional<FileReport> {
    const JsonValue *R = Frame.get("report");
    std::string Payload;
    if (!R || !R->isString() || !hexToBytes(R->asString(), Payload))
      return std::nullopt;
    return deserializeFileReport(Payload, Inputs[Ordinal].Path);
  };
  runFleet<FileReport>(Opts, MaxWorkers, AnalyzePreamble, Lines, DecodeReport,
                       Queue, Finish, Interrupted);

  // Only an interrupt can leave holes; a completed run resolved every
  // ordinal through done/quarantine handling.
  CorpusReport Report;
  Report.Files.reserve(N);
  for (size_t I = 0; I != N; ++I)
    Report.Files.push_back(
        Results[I] ? std::move(*Results[I])
                   : FileReport::skipped(Inputs[I].Path,
                                         "run interrupted before analysis "
                                         "(resume with --resume)"));
  Report.finalize();
  Report.Stats = Link.Stats;
  Report.Stats.Jobs = MaxWorkers;
  Report.Stats.CacheEnabled = Opts.Engine.UseCache;
  Report.Stats.CacheHits = Fleet.Hits;
  Report.Stats.CacheMisses = Fleet.Misses;
  Report.Stats.CacheEvictions = Fleet.Evictions;
  Report.Stats.DiskHits = Fleet.DiskHits;
  Report.Stats.CorruptEntries = Fleet.CorruptEntries;
  Report.Stats.WallMs = std::chrono::duration<double, std::milli>(
                            Clock::now() - Start)
                            .count();
  return Report;
}

//===----------------------------------------------------------------------===//
// Worker mode
//===----------------------------------------------------------------------===//

namespace {

void writeFrame(std::string_view Payload) {
  char Header[16];
  std::snprintf(Header, sizeof(Header), "%08zx\n", Payload.size());
  std::fwrite(Header, 1, 9, stdout);
  std::fwrite(Payload.data(), 1, Payload.size(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

} // namespace

int rs::engine::runWorker(const EngineOptions &OptsIn) {
  EngineOptions Opts = OptsIn;
  Opts.Jobs = 1; // Parallelism is the supervisor's job, one level up.

  // Fault injection must cross the process boundary, so the worker side is
  // armed through the environment rather than the in-process registry:
  // RUSTSIGHT_WORKER_FAULT names the site, RUSTSIGHT_WORKER_FAULT_FILE
  // optionally gates it to paths containing the substring. Fresh processes
  // make the injection deterministic per attempt.
  std::string FaultSite;
  if (const char *S = std::getenv("RUSTSIGHT_WORKER_FAULT"))
    FaultSite = S;
  std::string FaultFile;
  if (const char *S = std::getenv("RUSTSIGHT_WORKER_FAULT_FILE"))
    FaultFile = S;
  if (!FaultSite.empty())
    fault::arm(FaultSite, 1, uint64_t(1) << 32); // Every hit, sans overflow.

  // Read the whole shard before producing any output: the supervisor
  // writes the list and closes our stdin up front, so consuming it first
  // leaves no window for pipe deadlock. The first line is the mode
  // preamble; every later line is "<ordinal>\t<aux>\t<path>", where aux is
  // the link digest (analyze), the module index (summarize) or "-".
  enum class Mode { Analyze, Facts, Summarize };
  Mode WorkerMode = Mode::Analyze;
  analysis::ExternalSummaries Env;

  struct Item {
    uint64_t Ordinal; ///< Corpus input ordinal (facts/analyze) or module
                      ///< ordinal as assigned by the fleet (summarize).
    std::optional<uint64_t> Aux; ///< Absent for "-".
    std::string Path;
  };
  std::vector<Item> Items;
  std::string Line;
  bool First = true;
  while (std::getline(std::cin, Line)) {
    if (Line.empty())
      continue;
    if (First) {
      First = false;
      std::optional<JsonValue> P = JsonValue::parse(Line);
      if (!P || !P->isObject()) {
        std::fprintf(stderr, "worker: malformed mode preamble\n");
        return 3;
      }
      std::string_view M = P->getString("mode");
      if (M == "facts")
        WorkerMode = Mode::Facts;
      else if (M == "summarize")
        WorkerMode = Mode::Summarize;
      else if (M != "analyze") {
        std::fprintf(stderr, "worker: unknown mode preamble\n");
        return 3;
      }
      Opts.CacheGeneration =
          static_cast<uint64_t>(std::max<int64_t>(0, P->getInt("generation")));
      std::string_view E = P->getString("env");
      if (!E.empty()) {
        std::optional<analysis::ExternalSummaries> D =
            analysis::deserializeEnv(E);
        if (!D) {
          std::fprintf(stderr, "worker: malformed link environment\n");
          return 3;
        }
        Env = std::move(*D);
      }
      continue;
    }
    size_t Tab = Line.find('\t');
    size_t Tab2 = Tab == std::string::npos ? Tab : Line.find('\t', Tab + 1);
    if (Tab == 0 || Tab2 == std::string::npos || Tab2 == Tab + 1) {
      std::fprintf(stderr, "worker: malformed shard line\n");
      return 3;
    }
    Item It;
    It.Ordinal = std::strtoull(Line.c_str(), nullptr, 10);
    std::string Aux = Line.substr(Tab + 1, Tab2 - Tab - 1);
    if (Aux != "-")
      It.Aux = std::strtoull(Aux.c_str(), nullptr, 10);
    It.Path = Line.substr(Tab2 + 1);
    Items.push_back(std::move(It));
  }

  AnalysisEngine Engine(Opts);
  // As in analyzeCorpus, report lookups see only what was cached before
  // the worker began, so a duplicate pair counts the same in every shard
  // layout as in process.
  const uint64_t Epoch =
      Engine.cache() ? Engine.cache()->beginEpoch() : ~uint64_t(0);
  for (const Item &It : Items) {
    if (FaultFile.empty() ||
        It.Path.find(FaultFile) != std::string::npos) {
      if (fault::shouldFail("engine.worker.crash")) {
        // Die by a genuine SIGSEGV even under sanitizers (restore the
        // default disposition first) so the supervisor's classification
        // sees "killed by signal 11", exactly like a real crash.
        std::signal(SIGSEGV, SIG_DFL);
        std::raise(SIGSEGV);
      }
      if (fault::shouldFail("engine.worker.hang"))
        for (;;)
          ::sleep(1); // Watchdog food.
      if (fault::shouldFail("engine.worker.garbage-output")) {
        std::fputs("!! this is not a frame: corrupted worker stream\n",
                   stdout);
        std::fflush(stdout);
        return 0;
      }
    }

    std::string Result;
    switch (WorkerMode) {
    case Mode::Facts: {
      std::optional<analysis::ModuleFacts> F =
          Engine.collectFileFacts(It.Path);
      if (!F)
        std::fprintf(stderr, "worker: %s: no link facts (per-file mode)\n",
                     It.Path.c_str());
      Result = "\"payload\":" +
               (F ? jsonString(analysis::serializeModuleFacts(*F)) : "null");
      break;
    }
    case Mode::Summarize: {
      std::optional<analysis::ModuleSummaries> MS = Engine.summarizeFileForLink(
          It.Path, std::nullopt, static_cast<uint32_t>(It.Aux.value_or(0)),
          Env);
      if (!MS)
        std::fprintf(stderr, "worker: %s: summarize round lost\n",
                     It.Path.c_str());
      Result = "\"payload\":" +
               (MS ? jsonString(analysis::serializeModuleSummaries(*MS))
                   : "null");
      break;
    }
    case Mode::Analyze: {
      // "-" is a per-file run: the empty environment and digest 0.
      FileReport R = Engine.analyzeFile(It.Path, std::nullopt,
                                        It.Aux ? &Env : nullptr,
                                        It.Aux.value_or(0), nullptr, Epoch);
      if (R.Status != EngineStatus::Ok)
        std::fprintf(stderr, "worker: %s: %s: %s\n", R.Path.c_str(),
                     engineStatusName(R.Status), R.Reason.c_str());
      Result = "\"report\":\"" + bytesToHex(serializeFileReport(R)) + "\"";
      break;
    }
    }
    writeFrame("{\"type\":\"file\",\"ordinal\":" + std::to_string(It.Ordinal) +
               "," + Result + "}");
  }
  std::string Done =
      "{\"type\":\"done\",\"files\":" + std::to_string(Items.size());
  if (sched::ResultCache *C = Engine.cache()) {
    const sched::ResultCache::Stats S = C->stats();
    Done += ",\"cache\":{\"hits\":" + std::to_string(S.Hits) +
            ",\"misses\":" + std::to_string(S.Misses) +
            ",\"evictions\":" + std::to_string(S.Evictions) +
            ",\"disk_hits\":" + std::to_string(S.DiskHits) +
            ",\"corrupt\":" + std::to_string(S.CorruptEntries) + "}";
  }
  writeFrame(Done + "}");
  return 0;
}
