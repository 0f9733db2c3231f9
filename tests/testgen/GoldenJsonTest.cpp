// Golden-file tests pinning the machine-readable output schemas byte for
// byte. `rustsight check --json` feeds the ResultCache (its serialized
// payloads share the rendering code), and `rustsight eval --json` feeds the
// CI scorecard gate — silent schema drift would invalidate cache salts or
// baselines, so drift must fail a test instead.
//
// Regenerate after an intentional schema change (from the repo root):
//   ./build/examples/rustsight check --json --jobs 1 --no-cache \
//       examples/mir/eval/uaf_post_drop_bug_0.mir \
//       examples/mir/eval/clean_0.mir > tests/golden/check.json || true
//   ./build/examples/rustsight eval --json examples/mir/eval \
//       > tests/golden/eval.json
//   ./build/examples/rustsight check --json --jobs 1 --no-cache \
//       --max-dataflow-iters 4 examples/mir/*.mir tests/mir/regress/*.mir \
//       > tests/golden/check_budget.json || true
// (tools/regen_goldens.sh also writes tests/golden/wide_check.json, from
// tests/mir/wide, and tests/golden/eval_budget3.json, from examples/mir/eval
// with --max-dataflow-iters 3, with the same flags.)

#include "analysis/Objects.h"
#include "engine/Engine.h"
#include "mir/Parser.h"
#include "testgen/Scorecard.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace rs;

namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path &P) {
  std::ifstream In(P, std::ios::binary);
  EXPECT_TRUE(In.good()) << "missing golden file " << P
                         << " (see header comment to regenerate)";
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// Runs \p Body with the repo root as the working directory, so the paths
/// embedded in engine reports are the same relative spellings the golden
/// files pin.
template <typename Fn> void atRepoRoot(Fn Body) {
  fs::path Old = fs::current_path();
  fs::current_path(RS_REPO_ROOT);
  Body();
  fs::current_path(Old);
}

TEST(GoldenJsonTest, CheckJsonSchemaIsPinned) {
  atRepoRoot([] {
    engine::EngineOptions Opts;
    Opts.Jobs = 1;
    Opts.UseCache = false;
    engine::AnalysisEngine E(Opts);
    engine::CorpusReport Report =
        E.analyzeCorpus({"examples/mir/eval/uaf_post_drop_bug_0.mir",
                         "examples/mir/eval/clean_0.mir"});
    EXPECT_EQ(Report.renderJson() + "\n", slurp("tests/golden/check.json"));
  });
}

// A dataflow budget small enough that most functions stop mid-solve: the
// degraded reports pin what the solver keeps for blocks a stopped solve
// reached and for blocks it never did.
TEST(GoldenJsonTest, BudgetDegradedCheckJsonIsPinned) {
  atRepoRoot([] {
    std::vector<std::string> Paths;
    for (const char *Dir : {"examples/mir", "tests/mir/regress"}) {
      std::vector<std::string> InDir;
      for (const fs::directory_entry &E : fs::directory_iterator(Dir))
        if (E.is_regular_file() && E.path().extension() == ".mir")
          InDir.push_back(E.path().generic_string());
      std::sort(InDir.begin(), InDir.end());
      Paths.insert(Paths.end(), InDir.begin(), InDir.end());
    }
    engine::EngineOptions Opts;
    Opts.Jobs = 1;
    Opts.UseCache = false;
    Opts.MaxDataflowIters = 4;
    engine::AnalysisEngine E(Opts);
    engine::CorpusReport Report = E.analyzeCorpus(Paths);
    EXPECT_EQ(Report.renderJson() + "\n",
              slurp("tests/golden/check_budget.json"));
  });
}

/// The check --json report over \p Paths, as the CLI renders it with
/// --jobs 1 --no-cache (and \p MaxDataflowIters, 0 for none).
std::string renderCheck(std::vector<std::string> Paths,
                        uint64_t MaxDataflowIters = 0) {
  engine::EngineOptions Opts;
  Opts.Jobs = 1;
  Opts.UseCache = false;
  Opts.MaxDataflowIters = MaxDataflowIters;
  engine::AnalysisEngine E(Opts);
  return E.analyzeCorpus(Paths).renderJson() + "\n";
}

// Functions with 63, 64, 65 and 130 abstract objects carrying each bug
// pattern and its benign twin (tools/gen_wide_mir.py): their points-to
// rows end just inside, exactly at, and past one 64-bit word, and span
// three words, so the report pins the multi-word row layout.
TEST(GoldenJsonTest, WideObjectCheckJsonIsPinned) {
  atRepoRoot([] {
    EXPECT_EQ(renderCheck({"tests/mir/wide"}),
              slurp("tests/golden/wide_check.json"));
  });
}

// The fixtures really have the object counts their names promise.
TEST(GoldenJsonTest, WideObjectFixturesHaveTheirObjectCounts) {
  atRepoRoot([] {
    unsigned Checked = 0;
    for (const fs::directory_entry &E :
         fs::directory_iterator("tests/mir/wide")) {
      std::string Text = slurp(E.path());
      auto R = mir::Parser::parse(Text);
      ASSERT_TRUE(R) << E.path();
      mir::Module M = R.take();
      for (const mir::Function &F : M.functions()) {
        std::string_view Name = F.Name;
        size_t Us = Name.rfind('_');
        bool Pattern = Name.find("_bug_") != std::string_view::npos ||
                       Name.find("_ok_") != std::string_view::npos;
        if (Name.substr(0, 5) != "wide_" || !Pattern)
          continue;
        unsigned Want = std::stoul(std::string(Name.substr(Us + 1)));
        EXPECT_EQ(analysis::ObjectTable(F).numObjects(), Want) << Name;
        ++Checked;
      }
    }
    EXPECT_EQ(Checked, 40u);
  });
}

// A dataflow budget of three block updates per function over the eval
// corpus: pins the degraded path's states along with the multi-word ones.
TEST(GoldenJsonTest, TightBudgetEvalCheckJsonIsPinned) {
  atRepoRoot([] {
    EXPECT_EQ(renderCheck({"examples/mir/eval"}, /*MaxDataflowIters=*/3),
              slurp("tests/golden/eval_budget3.json"));
  });
}

TEST(GoldenJsonTest, EvalJsonSchemaIsPinned) {
  atRepoRoot([] {
    auto Man = testgen::loadManifest("examples/mir/eval/manifest.json");
    ASSERT_TRUE(Man.has_value());
    engine::EngineOptions Opts;
    Opts.Jobs = 1;
    Opts.UseCache = false;
    engine::AnalysisEngine E(Opts);
    engine::CorpusReport Report = E.analyzeCorpus({"examples/mir/eval"});
    testgen::Scorecard Card = testgen::scoreReport(Report, *Man);
    EXPECT_EQ(Card.renderJson() + "\n", slurp("tests/golden/eval.json"));
  });
}

// The check schema must be job-count and cache-temperature invariant, or
// the golden above would only pin one configuration.
TEST(GoldenJsonTest, CheckJsonIsConfigurationInvariant) {
  atRepoRoot([] {
    std::vector<std::string> Paths = {"examples/mir/eval"};
    auto Render = [&Paths](unsigned Jobs) {
      engine::EngineOptions Opts;
      Opts.Jobs = Jobs;
      Opts.UseCache = false;
      engine::AnalysisEngine E(Opts);
      return E.analyzeCorpus(Paths).renderJson();
    };
    std::string J1 = Render(1);
    EXPECT_EQ(J1, Render(4));
    EXPECT_EQ(J1, Render(8));
  });
}

} // namespace
