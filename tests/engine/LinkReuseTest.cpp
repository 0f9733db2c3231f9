//===----------------------------------------------------------------------===//
//
// Link reuse (docs/WHOLEPROGRAM.md, "Reusing a link"): a `check` with a
// persisted cache reuses the last linked run's link state when no changed
// file moves a cross-file edge. A seeded edit sequence over a small corpus
// (the eval corpus's cross-file pairs plus a few of its generated files)
// holds a warm cache to a cache-less run after every edit, and an aged
// link state still relinks without re-parsing the unchanged corpus.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"

#include "support/FaultInjection.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;
using namespace rs;
using namespace rs::engine;

namespace {

std::string evalText(const std::string &Name) {
  std::ifstream In(fs::path(RS_REPO_ROOT) / "examples" / "mir" / "eval" / Name);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// Replaces every \p From in \p S with \p To.
std::string replaceAll(std::string S, const std::string &From,
                       const std::string &To) {
  for (size_t At = S.find(From); At != std::string::npos;
       At = S.find(From, At + To.size()))
    S.replace(At, From.size(), To);
  return S;
}

/// One corpus file and the edits applied to it so far.
struct EditedFile {
  std::string Name;
  std::string Base;
  std::string Twin;    ///< The benign (or buggy) counterpart body.
  std::string DefName; ///< A definition other files call ("" for none).
  bool Twinned = false;
  bool Renamed = false;    ///< DefName is defined as DefName + "_r".
  unsigned Blank = 0;      ///< Blank lines in front: a location-only edit.
  std::string AddedCallee; ///< An appended cross-file call ("" for none).
  /// Never edited: the uaf callee and its byte-identical duplicate, whose
  /// places in the input order the order steps swap.
  bool Fixed = false;

  std::string text() const {
    std::string T = Twinned ? Twin : Base;
    if (Renamed)
      T = replaceAll(T, "fn " + DefName + "(", "fn " + DefName + "_r(");
    T.insert(0, Blank, '\n');
    if (!AddedCallee.empty())
      T += "fn lk_call_" + std::to_string(Name.size()) +
           "() -> u8 {\n"
           "    let _1: *mut u8;\n"
           "    let _2: ();\n"
           "    bb0: {\n"
           "        _1 = alloc(const 8) -> bb1;\n"
           "    }\n"
           "    bb1: {\n"
           "        (*_1) = const 5;\n"
           "        _2 = " +
           AddedCallee +
           "(copy _1) -> bb2;\n"
           "    }\n"
           "    bb2: {\n"
           "        _0 = copy (*_1);\n"
           "        return;\n"
           "    }\n"
           "}\n";
    return T;
  }
};

EditedFile editedFile(std::string Name, std::string Base, std::string Twin,
                      std::string DefName) {
  EditedFile F;
  F.Name = std::move(Name);
  F.Base = std::move(Base);
  F.Twin = std::move(Twin);
  F.DefName = std::move(DefName);
  return F;
}

/// A generated leaf file that flips between its buggy and benign twin.
EditedFile leaf(const std::string &Pattern) {
  return editedFile("g_" + Pattern + ".mir", evalText(Pattern + "_bug_0.mir"),
                    evalText(Pattern + "_ok_0.mir"), "");
}

/// A cross-file callee whose twin is the benign body under the same name.
EditedFile callee(const std::string &Pair, const std::string &Fn,
                  const std::string &Name) {
  return editedFile(Name, evalText("xfile_" + Pair + "_bug_0_def.mir"),
                    replaceAll(evalText("xfile_" + Pair + "_ok_0_def.mir"),
                               Fn + "_ok_0", Fn + "_bug_0"),
                    Fn + "_bug_0");
}

EditedFile caller(const std::string &Pair) {
  const std::string Name = "xfile_" + Pair + "_bug_0_use.mir";
  return editedFile(Name, evalText(Name), evalText(Name), "");
}

struct Corpus {
  fs::path Dir;
  std::vector<EditedFile> Files;
  bool Swapped = false; ///< The uaf callee and its duplicate trade places.

  void write(const EditedFile &F) const {
    std::ofstream(Dir / F.Name, std::ios::trunc) << F.text();
  }

  /// The input order: directory order, or with the uaf callee and its
  /// byte-identical duplicate swapped, which moves the first definition of
  /// xf_free_bug_0, and with it the caller's counterpart path.
  std::vector<std::string> order() const {
    std::vector<std::string> Names;
    for (const EditedFile &F : Files)
      Names.push_back(F.Name);
    std::sort(Names.begin(), Names.end());
    if (Swapped)
      std::iter_swap(
          std::find(Names.begin(), Names.end(), "xfile_uaf_bug_0_def.mir"),
          std::find(Names.begin(), Names.end(), "zz_dup_def.mir"));
    std::vector<std::string> Paths;
    for (const std::string &N : Names)
      Paths.push_back((Dir / N).string());
    return Paths;
  }
};

Corpus makeCorpus(const char *Name) {
  Corpus C;
  C.Dir = fs::path(testing::TempDir()) / Name;
  fs::remove_all(C.Dir);
  fs::create_directories(C.Dir);
  C.Files = {leaf("double_lock"),
             leaf("uaf_post_drop"),
             leaf("dangling_return"),
             leaf("double_free"),
             callee("uaf", "xf_free", "xfile_uaf_bug_0_def.mir"),
             caller("uaf"),
             callee("double_lock", "xf_relock", "xfile_double_lock_bug_0_def.mir"),
             caller("double_lock"),
             callee("lock_order", "xf_lockb", "xfile_lock_order_bug_0_def.mir"),
             caller("lock_order"),
             callee("uaf", "xf_free", "zz_dup_def.mir")};
  C.Files[4].Fixed = C.Files.back().Fixed = true;
  for (const EditedFile &F : C.Files)
    C.write(F);
  return C;
}

EngineOptions options(const fs::path &CacheDir, unsigned Jobs) {
  EngineOptions Opts;
  Opts.Jobs = Jobs;
  Opts.UseCache = !CacheDir.empty();
  Opts.CacheDir = CacheDir.string();
  return Opts;
}

std::string coldJson(const std::vector<std::string> &Order) {
  AnalysisEngine E(options("", 1));
  return E.analyzeCorpus(Order).renderJson();
}

} // namespace

// 200 seeded single-file edits: a twin flip of a generated file or of a
// callee body, adding or removing a cross-file call, renaming a callee (its
// callers' calls stop or start resolving), a location-only edit, and, now
// and then, the input order swapping two byte-identical definitions of one
// callee (so the first definition, and the path the caller's cross-file
// span renders, moves while every input ordinal keeps its bytes). After each, a warm run (one engine per run, as one process per
// `check`) renders what a cache-less run renders.
TEST(LinkReuse, SeededEditsMatchACacheLessRun) {
  Corpus C = makeCorpus("link_reuse_seeded");
  const fs::path CacheDir = fs::path(testing::TempDir()) / "link_reuse_cache";
  fs::remove_all(CacheDir);
  {
    AnalysisEngine Fill(options(CacheDir, 2));
    ASSERT_EQ(Fill.analyzeCorpus(C.order()).renderJson(), coldJson(C.order()));
  }

  Rng R(20201015);
  unsigned Reused = 0, Relinked = 0;
  const std::vector<std::string> Callees = {"xf_free_bug_0", "xf_relock_bug_0",
                                            "xf_relock_bug_0_r"};
  std::vector<EditedFile *> Editable;
  for (EditedFile &F : C.Files)
    if (!F.Fixed)
      Editable.push_back(&F);
  for (unsigned Step = 0; Step != 200; ++Step) {
    EditedFile &F = *Editable[R.below(Editable.size())];
    std::string What;
    switch (R.below(11)) {
    case 0:
    case 1:
      F.Twinned = !F.Twinned;
      What = "twin edit of " + F.Name;
      break;
    case 2:
    case 3:
      F.AddedCallee = F.AddedCallee.empty()
                          ? Callees[R.below(Callees.size())]
                          : std::string();
      What = "call edit of " + F.Name;
      break;
    case 4:
    case 5:
    case 6:
      if (!F.DefName.empty()) {
        F.Renamed = !F.Renamed;
        What = "rename edit of " + F.Name;
        break;
      }
      [[fallthrough]];
    case 7:
    case 8:
    case 9:
      F.Blank = (F.Blank + 1) % 3;
      What = "location edit of " + F.Name;
      break;
    default:
      C.Swapped = !C.Swapped;
      What = "input order swap";
      break;
    }
    C.write(F);

    AnalysisEngine Warm(options(CacheDir, 1 + Step % 2));
    CorpusReport Got = Warm.analyzeCorpus(C.order());
    ASSERT_EQ(Got.renderJson(), coldJson(C.order()))
        << "step " << Step << ": " << What << "; "
        << Got.Stats.renderLine();
    (Got.Stats.LinkReused ? Reused : Relinked) += 1;
  }
  // Both paths carry a real share of the sequence.
  EXPECT_GE(Reused, 60u);
  EXPECT_GE(Relinked, 40u);
  fs::remove_all(CacheDir);
}

// A run that reuses the link reads no facts or summaries, yet a later
// relink needs them. After more reusing edit runs than the cache's
// generation window, an edit of the uaf callee relinks and parses only what
// changed: the callee for its own report, again to summarize it as an
// exporter, and its caller, analyzed under its new digest. Every other
// file's facts and summaries were kept in the window.
TEST(LinkReuse, AgedLinkStateRelinksParsingOnlyTheEditedFile) {
  Corpus C = makeCorpus("link_reuse_aged");
  const fs::path CacheDir = fs::path(testing::TempDir()) / "link_reuse_aged_cache";
  fs::remove_all(CacheDir);
  {
    AnalysisEngine Fill(options(CacheDir, 2));
    Fill.analyzeCorpus(C.order());
  }
  EditedFile &Leaf = C.Files[0];
  const unsigned Runs = sched::ResultCache::GenerationWindow + 4;
  for (unsigned K = 0; K != Runs; ++K) {
    Leaf.Blank = K + 1; // New content every run: every run stores.
    C.write(Leaf);
    AnalysisEngine Warm(options(CacheDir, 2));
    CorpusReport Got = Warm.analyzeCorpus(C.order());
    ASSERT_TRUE(Got.Stats.LinkReused) << K << ": " << Got.Stats.renderLine();
    ASSERT_EQ(Got.Stats.LinkChanged, 1u);
  }

  EditedFile &Callee = C.Files[4];
  ASSERT_EQ(Callee.Name, "xfile_uaf_bug_0_def.mir");
  Callee.Twinned = true;
  C.write(Callee);
  const std::string Want = coldJson(C.order());
  {
    fault::ScopedFault CountParses("engine.parse", 1000000);
    AnalysisEngine Warm(options(CacheDir, 2));
    CorpusReport Got = Warm.analyzeCorpus(C.order());
    EXPECT_EQ(Got.renderJson(), Want);
    EXPECT_FALSE(Got.Stats.LinkReused) << Got.Stats.renderLine();
    EXPECT_EQ(fault::hitCount("engine.parse"), 3u) << Got.Stats.renderLine();
  }
  fs::remove_all(CacheDir);
}
