//===----------------------------------------------------------------------===//
// Measures the MIR front end alone: lexing, parsing (parseRecover, module
// teardown included) and verifyModule over every *.mir file of the given
// directories, one thread, min of N rounds per phase. A round is timed in
// the thread's CPU time, so time the thread spends descheduled on a shared
// machine does not count.
//
//   bench_parse [--reps N] [--out FILE] [--key NAME] [DIR...]
//
// DIRs default to the checkout's examples/mir and examples/mir/eval; each
// is read non-recursively. The result goes to FILE (default
// BENCH_parse.json in the current directory): MB/s, lex/parse/verify ms,
// tokens, heap allocations per KB of input, and the command line. With
// --key, FILE keeps its other members and the result replaces member NAME,
// so one file can hold several runs (the committed BENCH_parse.json holds
// the CI gate's run and a parent-against-change pair). Tokens and
// allocations are counted in one parse round after a warm-up round, so
// both are deterministic counts that CI compares against the committed
// point.
//===----------------------------------------------------------------------===//

#include "AllocCounter.h"
#include "BenchRecord.h"

#include "mir/Lexer.h"
#include "mir/Parser.h"
#include "mir/Verifier.h"
#include "support/File.h"
#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

namespace fs = std::filesystem;
using namespace rs;
using namespace rs::bench;

namespace {

struct Input {
  std::string Path;
  std::string Text;
};

uint64_t lexAll(const std::vector<Input> &Inputs) {
  uint64_t Tokens = 0;
  for (const Input &In : Inputs) {
    mir::Lexer L(In.Text, In.Path);
    while (!L.next().is(mir::TokKind::Eof))
      ++Tokens;
  }
  return Tokens;
}

/// Parses every input and drops the module, as a cold per-file check does
/// once it has analyzed it. Returns the number of parse errors.
uint64_t parseAll(const std::vector<Input> &Inputs) {
  uint64_t Errors = 0;
  for (const Input &In : Inputs)
    Errors += mir::Parser::parseRecover(In.Text, In.Path).Errors.size();
  return Errors;
}

int usage() {
  std::fprintf(stderr, "usage: bench_parse [--reps N] [--out FILE] "
                       "[--key NAME] [DIR...]\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  unsigned Reps = 15;
  std::string OutPath = "BENCH_parse.json";
  std::string Key;
  std::vector<std::string> Dirs;
  std::string Command = "bench_parse";
  for (int I = 1; I < argc; ++I)
    Command += std::string(" ") + argv[I];
  for (int I = 1; I < argc; ++I) {
    std::string_view A = argv[I];
    if (A == "--reps" && I + 1 < argc) {
      Reps = static_cast<unsigned>(std::strtoul(argv[++I], nullptr, 10));
      if (Reps == 0)
        return usage();
    } else if (A == "--out" && I + 1 < argc) {
      OutPath = argv[++I];
    } else if (A == "--key" && I + 1 < argc) {
      Key = argv[++I];
    } else if (A.substr(0, 2) == "--") {
      return usage();
    } else {
      Dirs.emplace_back(A);
    }
  }
  if (Dirs.empty()) {
#ifdef RS_REPO_ROOT
    Dirs = {RS_REPO_ROOT "/examples/mir", RS_REPO_ROOT "/examples/mir/eval"};
#else
    return usage();
#endif
  }

  std::vector<Input> Inputs;
  uint64_t Bytes = 0;
  for (const std::string &Dir : Dirs) {
    std::vector<std::string> Paths;
    std::error_code EC;
    for (const auto &E : fs::directory_iterator(Dir, EC))
      if (E.is_regular_file() && E.path().extension() == ".mir")
        Paths.push_back(E.path().string());
    if (EC) {
      std::fprintf(stderr, "bench_parse: cannot read %s\n", Dir.c_str());
      return 1;
    }
    std::sort(Paths.begin(), Paths.end());
    for (std::string &P : Paths) {
      Input In;
      if (readFile(P, In.Text) != ReadFileError::None) {
        std::fprintf(stderr, "bench_parse: cannot read %s\n", P.c_str());
        return 1;
      }
      // Name inputs relative to their directory so counts do not depend
      // on where the checkout lives.
      In.Path = fs::path(P).filename().string();
      Bytes += In.Text.size();
      Inputs.push_back(std::move(In));
    }
  }
  if (Inputs.empty()) {
    std::fprintf(stderr, "bench_parse: no .mir files found\n");
    return 1;
  }

  // Warm-up: interns every name and file name once, so the counted round
  // sees only what a parse allocates for itself.
  uint64_t ParseErrors = parseAll(Inputs);
  uint64_t Tokens = lexAll(Inputs);
  uint64_t Before = allocations();
  parseAll(Inputs);
  uint64_t ParseAllocs = allocations() - Before;

  double LexMs = minCpuMs(Reps, [&] { lexAll(Inputs); });
  double ParseMs = minCpuMs(Reps, [&] { parseAll(Inputs); });

  std::vector<mir::ModuleParse> Parsed;
  Parsed.reserve(Inputs.size());
  for (const Input &In : Inputs)
    Parsed.push_back(mir::Parser::parseRecover(In.Text, In.Path));
  uint64_t VerifyErrors = 0;
  double VerifyMs = minCpuMs(Reps, [&] {
    VerifyErrors = 0;
    std::vector<Error> Errs;
    for (const mir::ModuleParse &P : Parsed) {
      Errs.clear();
      mir::verifyModule(P.M, Errs);
      VerifyErrors += Errs.size();
    }
  });

  double KB = static_cast<double>(Bytes) / 1024.0;
  double MBps = (static_cast<double>(Bytes) / 1e6) / (ParseMs / 1e3);
  double AllocsPerKB = static_cast<double>(ParseAllocs) / KB;
  // Two decimals: the gate compares this exact figure.
  AllocsPerKB = static_cast<double>(static_cast<int64_t>(AllocsPerKB * 100 +
                                                         0.5)) /
                100;

  JsonWriter W;
  W.beginObject();
  W.field("bench", "parse");
  W.field("command", Command);
  W.field("files", int64_t(Inputs.size()));
  W.field("bytes", int64_t(Bytes));
  W.field("tokens", int64_t(Tokens));
  W.field("parse_errors", int64_t(ParseErrors));
  W.field("verify_errors", int64_t(VerifyErrors));
  W.field("reps", int64_t(Reps));
  W.key("lex_ms");
  W.value(LexMs);
  W.key("parse_ms");
  W.value(ParseMs);
  W.key("verify_ms");
  W.value(VerifyMs);
  W.key("mb_per_s");
  W.value(MBps);
  W.field("parse_allocations", int64_t(ParseAllocs));
  W.key("allocs_per_kb");
  W.value(AllocsPerKB);
  W.key("node_bytes");
  W.beginObject();
  W.field("statement", int64_t(sizeof(mir::Statement)));
  W.field("terminator", int64_t(sizeof(mir::Terminator)));
  W.field("basic_block", int64_t(sizeof(mir::BasicBlock)));
  W.field("operand", int64_t(sizeof(mir::Operand)));
  W.field("token", int64_t(sizeof(mir::Token)));
  W.endObject();
  W.endObject();

  std::printf("  %zu files, %.2f MB, %llu tokens\n", Inputs.size(),
              static_cast<double>(Bytes) / 1e6,
              static_cast<unsigned long long>(Tokens));
  std::printf("  lex    %8.2f ms\n  parse  %8.2f ms  (%.1f MB/s)\n"
              "  verify %8.2f ms\n  %.2f allocations per KB parsed\n",
              LexMs, ParseMs, MBps, VerifyMs, AllocsPerKB);
  std::string Doc =
      Key.empty() ? W.str() + "\n" : mergeRecord(OutPath, {{Key, W.str()}});
  if (!writeFileAtomic(OutPath, Doc)) {
    std::fprintf(stderr, "bench_parse: cannot write %s\n", OutPath.c_str());
    return 1;
  }
  std::printf("  written to %s\n", OutPath.c_str());
  return 0;
}
