//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "testgen/Fuzz.h"

#include "mir/Parser.h"
#include "sched/Parallel.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "testgen/Harness.h"
#include "testgen/Metamorph.h"
#include "testgen/Minimizer.h"
#include "testgen/Mutators.h"
#include "testgen/Oracles.h"
#include "vm/Lower.h"
#include "vm/Vm.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

namespace rs::testgen {

namespace {

namespace fs = std::filesystem;

/// Candidates per round. Fixed — never derived from the job count — so the
/// corpus-snapshot boundaries, and therefore every candidate, are
/// byte-identical for any --jobs value.
constexpr size_t BatchSize = 32;

//===----------------------------------------------------------------------===//
// Candidate evaluation
//===----------------------------------------------------------------------===//

struct CandidateResult {
  std::string Text;
  bool Parsed = false;
  std::vector<uint64_t> Keys;   ///< Sorted edge-shape keys this run lit.
  std::string ParityMessage;    ///< Non-empty: interp/VM drift evidence.
};

bool isMemorySafetyTrap(interp::TrapKind K) {
  switch (K) {
  case interp::TrapKind::UseAfterFree:
  case interp::TrapKind::UseAfterScope:
  case interp::TrapKind::DoubleFree:
  case interp::TrapKind::InvalidFree:
  case interp::TrapKind::UninitRead:
    return true;
  default:
    return false;
  }
}

/// Executes every function of \p Text on the VM and collects the edge-shape
/// keys the module lit. Candidates whose run trapped a memory-safety kind
/// are re-checked through the interp-vs-VM parity oracle — the fuzzer's
/// detector-drift hunt, spent only where a drift could hide a missed bug.
CandidateResult evaluateCandidate(std::string Text, const FuzzConfig &C) {
  CandidateResult R;
  R.Text = std::move(Text);
  auto Parsed = mir::Parser::parse(R.Text, "<fuzz>");
  if (!Parsed)
    return R;
  R.Parsed = true;
  mir::Module M = Parsed.take();

  vm::Program P = vm::compile(M);
  vm::Vm::Options Opts;
  Opts.StepLimit = C.StepLimit;
  vm::Vm V(P, Opts);
  bool MemTrap = false;
  for (const auto &Fn : M.functions()) {
    interp::ExecResult E = V.run(Fn.Name);
    if (!E.Ok && E.Error && isMemorySafetyTrap(E.Error->Kind))
      MemTrap = true;
  }
  R.Keys = V.coveredKeys();

  if (MemTrap) {
    OracleResult Parity = checkVmParity(M);
    if (!Parity.Ok)
      R.ParityMessage = Parity.Message;
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Candidate derivation
//===----------------------------------------------------------------------===//

/// Fresh generator output, bug injections included — the same module
/// stream the sweep harness checks, on a seed stream disjoint from the
/// blind baseline's.
std::string freshCandidate(const FuzzConfig &C, Rng &R) {
  SweepConfig SC;
  SC.Gen = C.Gen;
  return sweepModuleText(SC, R.next());
}

int64_t tweakedConstant(int64_t Old, Rng &R) {
  // Unsigned arithmetic: INT64_MAX + 1 and -INT64_MIN must wrap, not UB.
  uint64_t U = static_cast<uint64_t>(Old);
  switch (R.below(9)) {
  case 0: return 0;
  case 1: return 1;
  case 2: return 2;
  case 3: return 5;  // The s-bucket of the edge-shape key space.
  case 4: return 17; // The b-bucket.
  case 5: return 100;
  case 6: return static_cast<int64_t>(U + 1);
  case 7: return static_cast<int64_t>(U ^ 1);
  default: return static_cast<int64_t>(~U + 1); // -Old.
  }
}

/// Retargets one integer constant. Loop bounds, switch discriminants, and
/// index operands all live here; this is the mutation that steers
/// execution down arms the generator's value choices never take.
void tweakConstant(mir::Module &M, Rng &R) {
  std::vector<mir::Operand *> Consts;
  auto Collect = [&Consts](mir::Operand &O) {
    if (O.K == mir::Operand::Kind::Const && O.C.K == mir::ConstValue::Kind::Int)
      Consts.push_back(&O);
  };
  for (auto &Fn : M.functions()) {
    for (mir::BasicBlock &B : Fn.Blocks) {
      for (mir::Statement &S : B.Statements)
        for (mir::Operand &O : S.RV.Ops)
          Collect(O);
      Collect(B.Term.Discr);
      for (mir::Operand &O : B.Term.Args)
        Collect(O);
    }
  }
  if (Consts.empty())
    return;
  mir::Operand *O = Consts[R.below(Consts.size())];
  O->C.Int = tweakedConstant(O->C.Int, R);
}

/// Replaces one binary operator with another from the full table —
/// including Div/Rem (division-by-zero asserts) and comparisons (bool
/// results feeding switchInt).
void swapBinOp(mir::Module &M, Rng &R) {
  std::vector<mir::Rvalue *> Binaries;
  for (auto &Fn : M.functions())
    for (mir::BasicBlock &B : Fn.Blocks)
      for (mir::Statement &S : B.Statements)
        if (S.K == mir::Statement::Kind::Assign &&
            S.RV.K == mir::Rvalue::Kind::BinaryOp)
          Binaries.push_back(&S.RV);
  if (Binaries.empty())
    return;
  constexpr unsigned NumBinOps = 17; // Add..Offset.
  Binaries[R.below(Binaries.size())]->BOp =
      static_cast<mir::BinOp>(R.below(NumBinOps));
}

/// Deletes one statement. Dropping a StorageLive, an initializing assign,
/// or a guard binding is exactly how uninit reads and lock misuse sneak
/// into otherwise clean shapes.
void deleteStatement(mir::Module &M, Rng &R) {
  struct Site {
    mir::BasicBlock *Block;
    size_t Index;
  };
  std::vector<Site> Sites;
  for (auto &Fn : M.functions())
    for (mir::BasicBlock &B : Fn.Blocks)
      for (size_t I = 0; I != B.Statements.size(); ++I)
        Sites.push_back({&B, I});
  if (Sites.empty())
    return;
  Site S = Sites[R.below(Sites.size())];
  S.Block->Statements.erase(S.Block->Statements.begin() +
                            static_cast<ptrdiff_t>(S.Index));
}

/// Splices the donor's functions (renamed with a per-candidate suffix, so
/// names stay unique) after the recipient's text. Cross-module calls from
/// donor code resolve against recipient functions where names collide
/// before the rename — new call graphs neither module had.
std::string crossover(const std::string &Recipient, const std::string &Donor,
                      uint64_t Ordinal) {
  auto Parsed = mir::Parser::parse(Donor, "<fuzz-donor>");
  if (!Parsed)
    return Recipient;
  mir::Module D = Parsed.take();
  std::string Fns;
  for (const auto &Fn : D.functions())
    Fns += Fn.toString() + "\n";
  std::string Suffix = "__x" + std::to_string(Ordinal);
  return Recipient + "\n" + renameFunctionsInText(Fns, D, Suffix);
}

/// Derives candidate \p Ordinal from the seed and the round-start corpus
/// snapshot. Pure: no global state, no worker identity.
std::string deriveCandidate(const FuzzConfig &C,
                            const std::vector<std::string> &Corpus,
                            uint64_t Ordinal) {
  Rng R(fnv1a64U64(Ordinal, C.Seed ^ 0xf022bade5eedull));
  if (Corpus.empty())
    return freshCandidate(C, R);

  const std::string &Pick = Corpus[R.below(Corpus.size())];
  auto PickParsed = [&]() {
    auto P = mir::Parser::parse(Pick, "<fuzz-pick>");
    return P ? std::optional<mir::Module>(P.take()) : std::nullopt;
  };

  switch (R.below(8)) {
  case 0:
    return freshCandidate(C, R);
  case 1:
  case 2: {
    // Bug injection into a corpus entry. The Idx ties injected function
    // names to this candidate's globally unique ordinal, so re-injection
    // into an already-injected entry can never collide.
    auto M = PickParsed();
    if (!M)
      return Pick;
    Mutation Mu = allMutations()[R.below(NumMutations)];
    applyMutation(*M, Mu, /*Positive=*/R.below(2) == 0,
                  /*Idx=*/static_cast<unsigned>(1000 + Ordinal), R);
    return M->toString();
  }
  case 3: {
    auto M = PickParsed();
    if (!M)
      return Pick;
    permuteBlocks(*M, R.next());
    return M->toString();
  }
  case 4: {
    auto M = PickParsed();
    if (!M)
      return Pick;
    tweakConstant(*M, R);
    return M->toString();
  }
  case 5: {
    auto M = PickParsed();
    if (!M)
      return Pick;
    swapBinOp(*M, R);
    return M->toString();
  }
  case 6: {
    auto M = PickParsed();
    if (!M)
      return Pick;
    deleteStatement(*M, R);
    return M->toString();
  }
  default:
    return crossover(Pick, Corpus[R.below(Corpus.size())], Ordinal);
  }
}

//===----------------------------------------------------------------------===//
// Persistence
//===----------------------------------------------------------------------===//

std::string corpusFileName(uint64_t Ordinal, const std::string &Text) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%06llu_",
                static_cast<unsigned long long>(Ordinal));
  return std::string(Buf) + hashToHex(fnv1a64(Text)) + ".mir";
}

void persistCorpus(const FuzzConfig &C, FuzzReport &Report) {
  fs::path Dir(C.CorpusDir);
  // Replace, never append: the directory is a pure function of the run.
  fs::remove_all(Dir);
  fs::create_directories(Dir);

  for (FuzzEntry &E : Report.Corpus) {
    fs::path P = Dir / corpusFileName(E.Ordinal, E.Text);
    std::ofstream Out(P, std::ios::binary);
    Out << "// fuzz corpus entry: candidate " << E.Ordinal << ", "
        << E.NewKeys << " new edge key(s)\n";
    Out << "// replay: rustsight fuzz --fuzz-seed "
        << C.Seed << " --fuzz-iters " << C.Iterations << "\n\n";
    Out << E.Text;
    E.Path = P.string();
  }

  JsonWriter W;
  W.beginObject();
  W.field("seed", static_cast<int64_t>(C.Seed));
  W.field("iterations", static_cast<int64_t>(Report.Iterations));
  W.field("digest", hashToHex(Report.Digest));
  W.field("entries", static_cast<int64_t>(Report.Corpus.size()));
  W.key("keys");
  W.beginArray();
  for (uint64_t K : Report.CoveredKeys)
    W.value(hashToHex(K));
  W.endArray();
  W.endObject();
  std::ofstream Out(Dir / "coverage.json", std::ios::binary);
  Out << W.str() << "\n";
}

} // namespace

//===----------------------------------------------------------------------===//
// The fuzzing loop
//===----------------------------------------------------------------------===//

FuzzReport runFuzz(const FuzzConfig &C) {
  FuzzReport Report;
  std::set<uint64_t> Covered;
  std::vector<std::string> CorpusTexts;
  uint64_t Digest = Fnv1a64OffsetBasis;
  uint64_t Ordinal = 0;

  while (Report.Iterations < C.Iterations) {
    size_t N = static_cast<size_t>(
        std::min<uint64_t>(BatchSize, C.Iterations - Report.Iterations));
    uint64_t Base = Ordinal;

    // Parallel phase: derive and execute each candidate against the
    // round-start corpus snapshot.
    std::vector<CandidateResult> Results(N);
    sched::parallelFor(C.Jobs, N, [&](size_t I) {
      Results[I] =
          evaluateCandidate(deriveCandidate(C, CorpusTexts, Base + I), C);
    });

    // Serial ordinal merge: digest, violations, novelty admission — all in
    // candidate order, independent of which worker ran what.
    for (size_t I = 0; I != N; ++I) {
      CandidateResult &R = Results[I];
      Digest = fnv1a64(R.Text, Digest);
      Digest = fnv1a64("\n--\n", Digest);
      if (!R.ParityMessage.empty())
        Report.Violations.push_back(
            {Base + I, "vm-parity", R.ParityMessage, R.Text});
      if (!R.Parsed)
        continue;

      std::vector<uint64_t> NewKeys;
      for (uint64_t K : R.Keys)
        if (!Covered.count(K))
          NewKeys.push_back(K);
      if (NewKeys.empty())
        continue;

      // Novelty: shrink while the candidate still parses and still lights
      // every key it is being admitted for, then record what the
      // *minimized* text lights — the corpus must replay to exactly the
      // recorded coverage map.
      std::string Admitted = R.Text;
      if (C.Minimize)
        Admitted = minimizeModuleText(
            std::move(Admitted), [&](const std::string &T) {
              CandidateResult Shrunk = evaluateCandidate(T, C);
              if (!Shrunk.Parsed)
                return false;
              return std::includes(Shrunk.Keys.begin(), Shrunk.Keys.end(),
                                   NewKeys.begin(), NewKeys.end());
            });
      CandidateResult Final = evaluateCandidate(Admitted, C);
      Covered.insert(Final.Keys.begin(), Final.Keys.end());
      Report.Corpus.push_back(
          {Base + I, std::move(Admitted), NewKeys.size(), ""});
      CorpusTexts.push_back(Report.Corpus.back().Text);
    }

    Ordinal += N;
    Report.Iterations += N;
  }

  Report.Digest = Digest;
  Report.CoveredKeys.assign(Covered.begin(), Covered.end());
  if (!C.CorpusDir.empty())
    persistCorpus(C, Report);
  return Report;
}

std::vector<uint64_t> runBlindSweepCoverage(const FuzzConfig &C) {
  SweepConfig SC;
  SC.Gen = C.Gen;
  std::set<uint64_t> Covered;
  for (uint64_t I = 0; I != C.Iterations; ++I) {
    CandidateResult R =
        evaluateCandidate(sweepModuleText(SC, C.Seed + I), C);
    Covered.insert(R.Keys.begin(), R.Keys.end());
  }
  return {Covered.begin(), Covered.end()};
}

//===----------------------------------------------------------------------===//
// Replay
//===----------------------------------------------------------------------===//

bool replayCorpus(const std::string &Dir, const FuzzConfig &C,
                  ReplayResult &Out, std::string &Error) {
  fs::path Root(Dir);
  std::ifstream In(Root / "coverage.json", std::ios::binary);
  if (!In.good()) {
    Error = "missing " + (Root / "coverage.json").string();
    return false;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::optional<JsonValue> Doc = JsonValue::parse(Buf.str());
  if (!Doc || !Doc->isObject()) {
    Error = "coverage.json is not a JSON object";
    return false;
  }
  const JsonValue *Keys = Doc->get("keys");
  if (!Keys || !Keys->isArray()) {
    Error = "coverage.json has no \"keys\" array";
    return false;
  }
  for (const JsonValue &K : Keys->elements()) {
    if (!K.isString()) {
      Error = "coverage key is not a hex string";
      return false;
    }
    Out.StoredKeys.push_back(
        std::strtoull(K.asString().c_str(), nullptr, 16));
  }
  std::sort(Out.StoredKeys.begin(), Out.StoredKeys.end());

  std::vector<fs::path> Entries;
  for (const auto &E : fs::directory_iterator(Root))
    if (E.is_regular_file() && E.path().extension() == ".mir")
      Entries.push_back(E.path());
  std::sort(Entries.begin(), Entries.end());

  std::set<uint64_t> Covered;
  for (const fs::path &P : Entries) {
    std::ifstream EntryIn(P, std::ios::binary);
    std::stringstream EntryBuf;
    EntryBuf << EntryIn.rdbuf();
    CandidateResult R = evaluateCandidate(EntryBuf.str(), C);
    if (!R.Parsed) {
      Error = "corpus entry no longer parses: " + P.string();
      return false;
    }
    Covered.insert(R.Keys.begin(), R.Keys.end());
    ++Out.Entries;
  }
  Out.ReplayedKeys.assign(Covered.begin(), Covered.end());
  return true;
}

std::string FuzzReport::renderText() const {
  std::string Out = "fuzzed " + std::to_string(Iterations) + " candidates, " +
                    std::to_string(Corpus.size()) + " corpus entries, " +
                    std::to_string(CoveredKeys.size()) + " edges, digest " +
                    hashToHex(Digest);
  if (clean())
    return Out + ": OK\n";
  Out += ": " + std::to_string(Violations.size()) + " violation(s)\n";
  for (const FuzzViolation &V : Violations)
    Out += "  candidate " + std::to_string(V.Ordinal) + " [" + V.Oracle +
           "] " + V.Message + "\n";
  return Out;
}

} // namespace rs::testgen
